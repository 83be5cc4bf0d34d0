// The checked-in generated implementation (commit_fsm_r4.hpp), the paper's
// "generate once during development, copy into the code-base" deployment
// (section 4.2): it must (a) be byte-identical to what the generator emits
// today, and (b) behave exactly like the interpreted machine and the
// compiled table the runtime steps.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "commit/commit_model.hpp"
#include "commit/generated/commit_fsm_r4.hpp"
#include "core/compiled_machine.hpp"
#include "core/interpreter.hpp"
#include "core/render/code_renderer.hpp"
#include "sim/rng.hpp"

namespace asa_repro {
namespace {

/// Test double binding the generated class's action methods.
class RecordingFsm : public generated::CommitFsmR4 {
 public:
  std::vector<std::string> actions;

 private:
  void sendVote() override { actions.push_back("vote"); }
  void sendCommit() override { actions.push_back("commit"); }
  void sendFree() override { actions.push_back("free"); }
  void sendNotFree() override { actions.push_back("not_free"); }
};

TEST(GeneratedArtifact, RegenerationIsByteIdentical) {
  // Identical options to tools/fsmgen (which produced the artefact).
  commit::CommitModel model(4);
  const fsm::StateMachine machine = model.generate_state_machine();
  fsm::CodeGenOptions options;
  options.class_name = "CommitFsmR4";
  options.namespace_name = "asa_repro::generated";
  options.base_class = "asa_repro::commit::CommitActions";
  options.includes = {"commit/actions.hpp"};
  const std::string regenerated = fsm::CodeRenderer(options).render(machine);

  std::ifstream file(std::string(ASA_SRC_DIR) +
                     "/commit/generated/commit_fsm_r4.hpp");
  ASSERT_TRUE(file.is_open());
  std::stringstream checked_in;
  checked_in << file.rdbuf();
  EXPECT_EQ(checked_in.str(), regenerated)
      << "checked-in artefact is stale; regenerate with: "
         "fsmgen -r 4 --render code --class-name CommitFsmR4 "
         "-o src/commit/generated/commit_fsm_r4.hpp";
}

TEST(GeneratedArtifact, StartsAtStartState) {
  RecordingFsm fsm;
  EXPECT_STREQ(fsm.state_name(), "F/0/F/0/F/T/F");
  EXPECT_FALSE(fsm.finished());
}

TEST(GeneratedArtifact, NoContentionCommitPath) {
  RecordingFsm fsm;
  fsm.receiveUpdate();
  EXPECT_EQ(fsm.actions, (std::vector<std::string>{"vote", "not_free"}));
  fsm.receiveVote();
  fsm.receiveVote();  // Threshold: commit goes out.
  EXPECT_EQ(fsm.actions.back(), "commit");
  fsm.receiveCommit();
  fsm.receiveCommit();
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(fsm.actions.back(), "free");
}

TEST(GeneratedArtifact, InapplicableMessagesIgnored) {
  RecordingFsm fsm;
  fsm.receiveUpdate();
  const auto state = fsm.state();
  fsm.receiveUpdate();  // Duplicate: default branch.
  EXPECT_EQ(fsm.state(), state);
  EXPECT_EQ(fsm.actions, (std::vector<std::string>{"vote", "not_free"}));
}

TEST(GeneratedArtifact, ResetReturnsToStart) {
  RecordingFsm fsm;
  fsm.receiveUpdate();
  fsm.reset();
  EXPECT_STREQ(fsm.state_name(), "F/0/F/0/F/T/F");
}

TEST(GeneratedArtifact, MatchesInterpreterOnRandomWalks) {
  // Three-way: the checked-in class, the interpreter oracle, and the
  // compiled table the runtime's peers actually step.
  commit::CommitModel model(4);
  const fsm::StateMachine machine = model.generate_state_machine();
  const fsm::CompiledMachine table = fsm::CompiledMachine::compile(machine);
  sim::Rng rng(2026);
  for (int walk = 0; walk < 200; ++walk) {
    RecordingFsm artefact;
    fsm::FsmInstance interp(machine);
    fsm::CompiledInstance runtime(table);
    for (int step = 0; step < 150; ++step) {
      const auto m = static_cast<fsm::MessageId>(rng.below(5));
      artefact.actions.clear();
      artefact.receive(m);
      const fsm::Transition* t = interp.deliver(m);
      const std::vector<std::string> expected =
          t == nullptr ? std::vector<std::string>{} : t->actions;
      ASSERT_EQ(artefact.actions, expected) << "walk " << walk;
      ASSERT_STREQ(artefact.state_name(), interp.state_name().c_str());
      ASSERT_EQ(artefact.finished(), interp.finished());

      const fsm::CompiledInstance::Delivery d = runtime.deliver(m);
      std::vector<std::string> stepped;
      for (std::uint32_t i = 0; i < d.count; ++i) {
        stepped.push_back(table.action_names()[d.ids[i]]);
      }
      ASSERT_EQ(stepped, expected) << "walk " << walk;
      ASSERT_EQ(d.applicable, t != nullptr) << "walk " << walk;
      ASSERT_EQ(runtime.state_name(), interp.state_name());
      ASSERT_EQ(runtime.finished(), interp.finished());
      if (interp.finished()) break;
    }
  }
}

TEST(GeneratedArtifact, StateCountMatchesTable1) {
  EXPECT_EQ(generated::CommitFsmR4::kStateCount, 33u);
}

}  // namespace
}  // namespace asa_repro
