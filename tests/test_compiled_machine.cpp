// Dense-table compiled dispatch backend (core/compiled_machine.hpp): layout
// packing, the perfect-hash event decoder, step-for-step agreement with the
// interpreter on edge machines and family members, the round-trip
// equivalence obligation, the reset-fused benchmark table, and the
// table-backend source renderer up through compile-and-dlopen.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "commit/commit_efsm.hpp"
#include "commit/commit_model.hpp"
#include "core/compiled_machine.hpp"
#include "core/dynamic_loader.hpp"
#include "core/efsm/efsm.hpp"
#include "core/equivalence.hpp"
#include "core/interpreter.hpp"
#include "core/render/table_renderer.hpp"
#include "sim/rng.hpp"

namespace asa_repro::fsm {
namespace {

StateMachine commit_machine(std::uint32_t r) {
  return commit::CommitModel(r).generate_state_machine();
}

/// Deliver `steps` random messages to a CompiledInstance and an FsmInstance
/// over the same machine and assert step-for-step agreement: applicability,
/// action lists, state names, finality. `walks` restarts exercise reset().
void expect_matches_interpreter(const StateMachine& machine,
                                std::uint64_t seed, int walks, int steps) {
  const CompiledMachine compiled = CompiledMachine::compile(machine);
  sim::Rng rng(seed);
  for (int walk = 0; walk < walks; ++walk) {
    CompiledInstance fast(compiled);
    FsmInstance interp(machine);
    for (int step = 0; step < steps; ++step) {
      const auto m =
          static_cast<MessageId>(rng.below(machine.messages().size()));
      const CompiledInstance::Delivery d = fast.deliver(m);
      const Transition* t = interp.deliver(m);
      ASSERT_EQ(d.applicable, t != nullptr)
          << "walk " << walk << " step " << step;
      if (t != nullptr) {
        ASSERT_EQ(d.count, t->actions.size());
        for (std::uint32_t i = 0; i < d.count; ++i) {
          ASSERT_EQ(compiled.action_names()[d.ids[i]], t->actions[i]);
        }
      } else {
        ASSERT_EQ(d.count, 0u);
      }
      ASSERT_EQ(fast.state_name(), interp.state_name());
      ASSERT_EQ(fast.finished(), interp.finished());
      if (interp.finished()) {
        fast.reset();
        interp.reset();
      }
    }
  }
}

// ---- Edge machines the commit family never produces. ----

TEST(CompiledMachine, SingleStateFinalMachine) {
  State only;
  only.name = "done";
  only.is_final = true;
  const StateMachine machine{{"ping", "pong"}, {only}, 0, 0};
  const CompiledMachine compiled = CompiledMachine::compile(machine);
  EXPECT_EQ(compiled.state_count(), 1u);
  EXPECT_EQ(compiled.event_count(), 2u);
  EXPECT_EQ(compiled.arena_size(), 0u);
  // Every cell is a synthetic self-loop: delivery is a no-op.
  CompiledInstance inst(compiled);
  EXPECT_TRUE(inst.finished());
  const auto d = inst.deliver(1);
  EXPECT_FALSE(d.applicable);
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(inst.state_name(), "done");
  expect_matches_interpreter(machine, 11, 4, 16);
}

TEST(CompiledMachine, SinkOnlyMachine) {
  // Every state funnels into a sink with no exits (not final: messages keep
  // arriving and keep being ignored — the degenerate always-running FSM).
  State a;
  a.name = "a";
  State sink;
  sink.name = "sink";
  Transition t;
  t.message = 0;
  t.target = 1;
  t.actions = {"drop"};
  a.transitions.push_back(t);
  const StateMachine machine{{"only"}, {a, sink}, 0, kNoState};
  const CompiledMachine compiled = CompiledMachine::compile(machine);
  CompiledInstance inst(compiled);
  EXPECT_TRUE(inst.deliver(0).applicable);
  EXPECT_EQ(inst.state_name(), "sink");
  EXPECT_FALSE(inst.deliver(0).applicable);
  EXPECT_EQ(inst.state_name(), "sink");
  EXPECT_FALSE(inst.finished());
  expect_matches_interpreter(machine, 22, 4, 16);
}

TEST(CompiledMachine, MaxEventIdOnlyTransitions) {
  // 9 messages but transitions only on the last id: the table must address
  // the full event range, and low ids must all be synthetic self-loops.
  std::vector<std::string> messages;
  for (int i = 0; i < 9; ++i) messages.push_back("m" + std::to_string(i));
  State ping;
  ping.name = "ping";
  State pong;
  pong.name = "pong";
  Transition t;
  t.message = 8;
  t.target = 1;
  t.actions = {"flip"};
  ping.transitions.push_back(t);
  t.target = 0;
  pong.transitions.push_back(t);
  const StateMachine machine{messages, {ping, pong}, 0, kNoState};
  const CompiledMachine compiled = CompiledMachine::compile(machine);
  for (MessageId e = 0; e < 8; ++e) {
    EXPECT_FALSE(CompiledMachine::applicable(compiled.record(0, e).span));
  }
  EXPECT_TRUE(CompiledMachine::applicable(compiled.record(0, 8).span));
  expect_matches_interpreter(machine, 33, 4, 32);
}

// ---- Family members, including the EFSM-expanded r=16 machine. ----

TEST(CompiledMachine, MatchesInterpreterOnCommitFamily) {
  for (const std::uint32_t r : {4u, 7u, 13u}) {
    expect_matches_interpreter(commit_machine(r), 1234 + r, 20, 200);
  }
}

TEST(CompiledMachine, MatchesInterpreterOnExpandedEfsmR16) {
  const Efsm efsm = commit::make_commit_efsm();
  const StateMachine machine =
      expand_to_fsm(efsm, commit::commit_efsm_params(16), 1u << 20);
  expect_matches_interpreter(machine, 16, 10, 400);
}

TEST(CompiledMachine, RoundTripIsTraceEquivalent) {
  for (const std::uint32_t r : {4u, 7u, 10u, 13u}) {
    const StateMachine machine = commit_machine(r);
    const StateMachine rebuilt =
        CompiledMachine::compile(machine).to_state_machine();
    const auto divergence = find_divergence(machine, rebuilt);
    EXPECT_FALSE(divergence.has_value())
        << "r=" << r << ": " << divergence->reason << " after "
        << format_trace(machine, divergence->trace);
  }
}

// ---- The reset-fused benchmark table. ----

TEST(CompiledMachine, FusedTableMatchesDeliverResetHarness) {
  const StateMachine machine = commit_machine(4);
  const CompiledMachine compiled = CompiledMachine::compile(machine);
  const std::vector<CompiledRecord> fused = reset_fused_table(compiled);

  CompiledInstance inst(compiled);
  std::uint32_t fused_row = compiled.start() * compiled.event_count();
  std::uint64_t harness_actions = 0;
  std::uint64_t fused_actions = 0;
  sim::Rng rng(0xBEEF);
  for (int step = 0; step < 4096; ++step) {
    const auto m =
        static_cast<MessageId>(rng.below(machine.messages().size()));
    harness_actions += inst.deliver(m).count;
    if (inst.finished()) inst.reset();

    const CompiledRecord rec = fused[fused_row + m];
    fused_actions += rec.span;
    fused_row = rec.next;

    // `next` is a pre-multiplied row offset; divide to recover the state.
    ASSERT_EQ(fused_row / compiled.event_count(), inst.state())
        << "step " << step;
    ASSERT_EQ(fused_row % compiled.event_count(), 0u);
  }
  EXPECT_EQ(fused_actions, harness_actions);
}

// ---- The perfect-hash event decoder. ----

TEST(EventDecoder, RoundTripsVocabulary) {
  const StateMachine machine = commit_machine(4);
  const CompiledMachine compiled = CompiledMachine::compile(machine);
  const EventDecoder& decoder = compiled.decoder();
  for (MessageId e = 0; e < machine.messages().size(); ++e) {
    const auto id = decoder.decode(machine.messages()[e]);
    ASSERT_TRUE(id.has_value()) << machine.messages()[e];
    EXPECT_EQ(*id, e);
  }
  EXPECT_FALSE(decoder.decode("").has_value());
  EXPECT_FALSE(decoder.decode("no_such_message").has_value());
  EXPECT_FALSE(decoder.decode("vote ").has_value());
}

TEST(EventDecoder, HandlesLargeVocabularies) {
  std::vector<std::string> names;
  for (int i = 0; i < 200; ++i) names.push_back("msg_" + std::to_string(i));
  const EventDecoder decoder(names);
  EXPECT_GE(decoder.table_size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto id = decoder.decode(names[i]);
    ASSERT_TRUE(id.has_value()) << names[i];
    EXPECT_EQ(*id, i);
  }
  EXPECT_FALSE(decoder.decode("msg_200").has_value());
}

TEST(EventDecoder, RejectsDuplicateNames) {
  EXPECT_THROW(EventDecoder({"a", "b", "a"}), std::invalid_argument);
}

// ---- Packing limits. ----

TEST(CompiledMachine, PackingBounds) {
  EXPECT_EQ(kCompiledMaxActions, 15u);
  // A span with the largest offset and count still fits below the
  // applicable bit.
  const std::uint32_t span = kCompiledApplicableBit |
                             (kCompiledMaxArenaOffset << kCompiledCountBits) |
                             kCompiledMaxActions;
  EXPECT_TRUE(CompiledMachine::applicable(span));
  EXPECT_EQ(CompiledMachine::offset_of(span), kCompiledMaxArenaOffset);
  EXPECT_EQ(CompiledMachine::count_of(span), kCompiledMaxActions);
}

TEST(CompiledMachine, RejectsOverlongActionLists) {
  State s;
  s.name = "s";
  Transition t;
  t.message = 0;
  t.target = 0;
  for (std::uint32_t i = 0; i <= kCompiledMaxActions; ++i) {
    t.actions.push_back("a" + std::to_string(i));
  }
  s.transitions.push_back(t);
  const StateMachine machine{{"m"}, {s}, 0, kNoState};
  EXPECT_THROW(CompiledMachine::compile(machine), std::invalid_argument);
}

TEST(CompiledMachine, RejectsDuplicateTransitions) {
  State s;
  s.name = "s";
  Transition t;
  t.message = 0;
  t.target = 0;
  s.transitions.push_back(t);
  s.transitions.push_back(t);
  const StateMachine machine{{"m"}, {s}, 0, kNoState};
  EXPECT_THROW(CompiledMachine::compile(machine), std::invalid_argument);
}

TEST(CompiledMachine, RejectsOutOfRangeTarget) {
  State s;
  s.name = "s";
  Transition t;
  t.message = 0;
  t.target = 7;
  s.transitions.push_back(t);
  const StateMachine machine{{"m"}, {s}, 0, kNoState};
  EXPECT_THROW(CompiledMachine::compile(machine), std::invalid_argument);
}

// ---- The table-backend source renderer. ----

TEST(TableCodeRenderer, EmitsDenseTables) {
  const StateMachine machine = commit_machine(4);
  CodeGenOptions options;
  options.class_name = "CommitTableR4";
  options.namespace_name = "gen";
  options.base_class = "asa_repro::commit::CommitActions";
  options.includes = {"commit/actions.hpp"};
  const std::string code = TableCodeRenderer(options).render(machine);

  EXPECT_NE(code.find("class CommitTableR4 : public "
                      "asa_repro::commit::CommitActions {"),
            std::string::npos);
  EXPECT_NE(code.find("kStateCount = 33;"), std::string::npos);
  EXPECT_NE(code.find("kEventCount = 5;"), std::string::npos);
  EXPECT_NE(code.find("kMsgNotFree = 4,"), std::string::npos);
  EXPECT_NE(code.find("std::uint16_t kNext[kStateCount * kEventCount]"),
            std::string::npos);
  EXPECT_NE(code.find("std::uint32_t kSpan[kStateCount * kEventCount]"),
            std::string::npos);
  EXPECT_NE(code.find("std::uint16_t kArena["), std::string::npos);
  EXPECT_NE(code.find("void receiveUpdate() { receive(kMsgUpdate); }"),
            std::string::npos);
  EXPECT_NE(code.find("sendVote(); break;"), std::string::npos);
  // No per-state switch on the hot path; the only switch dispatches
  // action ids.
  EXPECT_EQ(code.find("switch (state_)"), std::string::npos);
}

TEST(TableCodeRenderer, DeterministicOutput) {
  const StateMachine machine = commit_machine(4);
  EXPECT_EQ(TableCodeRenderer().render(machine),
            TableCodeRenderer().render(machine));
}

TEST(TableCodeRenderer, CompiledSourceMatchesInterpreter) {
  const StateMachine machine = commit_machine(4);
  CodeGenOptions options;
  options.class_name = "GeneratedCommit";
  options.namespace_name = "gen";
  options.base_class = "asa_repro::fsm::DynamicFsmBase";
  options.action_style = CodeGenOptions::ActionStyle::kSink;
  options.implement_api = true;
  options.emit_factory = true;
  options.includes = {"core/generated_api.hpp"};
  const std::string source = TableCodeRenderer(options).render(machine);

  DynamicCompiler::Options copts;
  copts.include_dir = std::string(ASA_SRC_DIR);
  DynamicCompiler compiler(copts);
  if (!compiler.available()) {
    GTEST_SKIP() << "no C++ compiler on this host";
  }
  DynamicCompiler::Result result = compiler.compile_and_load(source);
  ASSERT_TRUE(result.fsm.has_value()) << result.error;
  GeneratedFsmApi& loaded = result.fsm->machine();

  std::vector<std::string> loaded_actions;
  loaded.set_action_sink(
      [](void* ctx, const char* action) {
        static_cast<std::vector<std::string>*>(ctx)->push_back(action);
      },
      &loaded_actions);

  sim::Rng rng(4321);
  for (int walk = 0; walk < 50; ++walk) {
    loaded.reset();
    FsmInstance interp(machine);
    for (int step = 0; step < 200; ++step) {
      const auto m =
          static_cast<MessageId>(rng.below(machine.messages().size()));
      loaded_actions.clear();
      loaded.receive(m);
      const Transition* t = interp.deliver(m);
      const std::vector<std::string> expected =
          t == nullptr ? std::vector<std::string>{} : t->actions;
      ASSERT_EQ(loaded_actions, expected)
          << "walk " << walk << " step " << step;
      ASSERT_STREQ(loaded.state_name(), interp.state_name().c_str());
      ASSERT_EQ(loaded.finished(), interp.finished());
      if (interp.finished()) break;
    }
  }
}

}  // namespace
}  // namespace asa_repro::fsm
