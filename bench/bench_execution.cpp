// Section 4.4: execution cost.
//
// The paper measured generation time but "have not yet compared the
// execution efficiency of a running FSM implementation with that of a
// non-FSM solution", expecting no significant difference. This bench runs
// that comparison: per-message dispatch cost of
//
//   * the table-driven interpreter (FsmInstance over the generated machine)
//   * the generated switch-based implementation (checked-in CommitFsmR4)
//   * a hand-written variable-based implementation of the original
//     algorithm (one state, many variables — the other end of the
//     section 3.2 spectrum)
//   * the dense-table compiled backend (core/compiled_machine.hpp), as a
//     CompiledInstance delivering one message at a time and as the
//     reset-fused flat loop; the *_x16 contestants run 16 independent
//     instances over a round-robin partition of the stream (the sharded-
//     server shape) — the compiled_table_x16 aggregate is the throughput
//     number the trajectory tracks
//
// The harness is the fixed-methodology one behind BENCH_execution.json:
// per-contestant warmup + best-of-3 timed runs over the shared message
// stream, printed as a table and, with --json FILE, written as one
// asa-metrics/1 document (see EXPERIMENTS.md "Execution throughput
// trajectory" for the exact protocol). Generation cost per family member
// is timed by bench_generation_scaling.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "commit/commit_model.hpp"
#include "commit/generated/commit_fsm_r4.hpp"
#include "core/compiled_machine.hpp"
#include "core/interpreter.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "write_file.hpp"

namespace {

using namespace asa_repro;

/// Keep `value` observable, so the loop that computes it is not elided.
template <typename T>
void keep(const T& value) {
  __asm__ __volatile__("" : : "r"(&value) : "memory");
}

/// Deterministic message stream shared by all contestants.
std::vector<fsm::MessageId> message_stream(std::size_t n) {
  sim::Rng rng(0xBEEF);
  std::vector<fsm::MessageId> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stream.push_back(static_cast<fsm::MessageId>(rng.below(5)));
  }
  return stream;
}

/// Generated-code contestant with no-op action bindings.
class NullActionsFsm : public generated::CommitFsmR4 {
 public:
  std::uint64_t sent = 0;

 private:
  void sendVote() override { ++sent; }
  void sendCommit() override { ++sent; }
  void sendFree() override { ++sent; }
  void sendNotFree() override { ++sent; }
};

/// Hand-written "original algorithm" (section 3.1): one state, seven
/// variables, control decisions taken dynamically.
class HandWrittenCommit {
 public:
  explicit HandWrittenCommit(std::uint32_t r)
      : r_(r), f_((r - 1) / 3) {}

  void receive(std::uint32_t m) {
    switch (m) {
      case commit::kUpdate: on_update(); break;
      case commit::kVote: on_vote(); break;
      case commit::kCommit: on_commit(); break;
      case commit::kFree: on_free(); break;
      case commit::kNotFree: on_not_free(); break;
      default: break;
    }
  }

  [[nodiscard]] bool finished() const { return finished_; }
  void reset() {
    update_received_ = vote_sent_ = commit_sent_ = has_chosen_ = false;
    could_choose_ = true;
    votes_ = commits_ = 0;
    finished_ = false;
  }

  std::uint64_t sent = 0;

 private:
  void send() { ++sent; }
  [[nodiscard]] std::uint32_t total_votes() const {
    return votes_ + (vote_sent_ ? 1 : 0);
  }
  void choose() {
    send();  // vote
    vote_sent_ = true;
    if (total_votes() >= 2 * f_ + 1 && !commit_sent_) {
      send();  // commit
      commit_sent_ = true;
    }
    has_chosen_ = true;
    send();  // not_free
  }
  void on_update() {
    if (update_received_ || finished_) return;
    update_received_ = true;
    if (could_choose_ && !has_chosen_ && !vote_sent_) choose();
  }
  void on_vote() {
    if (finished_ || votes_ >= r_ - 1) return;
    ++votes_;
    if (total_votes() >= 2 * f_ + 1) {
      if (!vote_sent_) {
        if (could_choose_) {
          has_chosen_ = true;
          send();  // not_free
        }
        send();  // vote
        vote_sent_ = true;
      }
      if (!commit_sent_) {
        send();  // commit
        commit_sent_ = true;
      }
    }
  }
  void on_commit() {
    if (finished_ || commits_ >= r_ - 1) return;
    ++commits_;
    if (commits_ >= f_ + 1) {
      if (!vote_sent_) {
        send();
        vote_sent_ = true;
      }
      if (!commit_sent_) {
        send();
        commit_sent_ = true;
      }
      if (has_chosen_) send();  // free
      finished_ = true;
    }
  }
  void on_free() {
    if (finished_ || vote_sent_ || has_chosen_) return;
    could_choose_ = true;
    if (update_received_) choose();
  }
  void on_not_free() {
    if (finished_ || vote_sent_ || has_chosen_) return;
    could_choose_ = false;
  }

  std::uint32_t r_;
  std::uint32_t f_;
  bool update_received_ = false;
  std::uint32_t votes_ = 0;
  bool vote_sent_ = false;
  std::uint32_t commits_ = 0;
  bool commit_sent_ = false;
  bool could_choose_ = true;
  bool has_chosen_ = false;
  bool finished_ = false;
};

const std::vector<fsm::MessageId>& stream() {
  static const auto s = message_stream(4096);
  return s;
}

const fsm::StateMachine& commit_machine() {
  static const fsm::StateMachine machine =
      commit::CommitModel(4).generate_state_machine();
  return machine;
}

const fsm::CompiledMachine& compiled_machine() {
  static const fsm::CompiledMachine compiled =
      fsm::CompiledMachine::compile(commit_machine());
  return compiled;
}

// ---------------------------------------------------------------------------
// Contestant loops. Each delivers `iters` messages from the shared stream
// under the common harness semantics — deliver, count the transition's
// actions, reset when a final state is reached — and returns the total
// action count (deterministic: same stream, same machine, same count every
// run, which is what the asa-metrics exec.actions counter asserts).

std::uint64_t run_interpreter(std::uint64_t iters) {
  fsm::FsmInstance inst(commit_machine());
  std::uint64_t actions = 0;
  std::size_t i = 0;
  for (std::uint64_t n = 0; n < iters; ++n) {
    const fsm::Transition* t = inst.deliver(stream()[i]);
    if (t != nullptr) actions += t->actions.size();
    if (inst.finished()) inst.reset();
    i = (i + 1) & 4095;
  }
  return actions;
}

std::uint64_t run_generated_switch(std::uint64_t iters) {
  NullActionsFsm fsm;
  std::size_t i = 0;
  for (std::uint64_t n = 0; n < iters; ++n) {
    fsm.receive(stream()[i]);
    if (fsm.finished()) fsm.reset();
    i = (i + 1) & 4095;
  }
  return fsm.sent;
}

std::uint64_t run_handwritten(std::uint64_t iters) {
  HandWrittenCommit fsm(4);
  std::size_t i = 0;
  for (std::uint64_t n = 0; n < iters; ++n) {
    fsm.receive(stream()[i]);
    if (fsm.finished()) fsm.reset();
    i = (i + 1) & 4095;
  }
  return fsm.sent;
}

std::uint64_t run_compiled_deliver(std::uint64_t iters) {
  fsm::CompiledInstance inst(compiled_machine());
  std::uint64_t actions = 0;
  std::size_t i = 0;
  for (std::uint64_t n = 0; n < iters; ++n) {
    actions += inst.deliver(stream()[i]).count;
    if (inst.finished()) inst.reset();
    i = (i + 1) & 4095;
  }
  return actions;
}

/// The reset-fused flat loop: the table folds the harness's "reset when
/// finished" branch into the successor cells and pre-multiplies row
/// offsets, so each message costs an add and one dependent 8-byte load.
std::uint64_t run_compiled_table(std::uint64_t iters) {
  const fsm::CompiledMachine& cm = compiled_machine();
  static const std::vector<fsm::CompiledRecord> fused =
      fsm::reset_fused_table(cm);
  const fsm::CompiledRecord* table = fused.data();
  const fsm::MessageId* msgs = stream().data();
  std::uint32_t row = cm.start() * cm.event_count();
  std::uint64_t actions = 0;
  std::size_t i = 0;
  for (std::uint64_t n = 0; n < iters; ++n) {
    const fsm::CompiledRecord rec = table[row + msgs[i]];
    actions += rec.span;
    row = rec.next;
    i = (i + 1) & 4095;
  }
  keep(row);
  return actions;
}

/// Batch width for the *_x16 contestants: enough independent dependency
/// chains to hide the L1 load latency that bounds the single-instance
/// loop, still few enough that all per-instance state stays in registers.
constexpr std::size_t kBatch = 16;

/// 16 independent interpreter instances, the message stream partitioned
/// round-robin — instance b handles messages b, b+16, b+32, ... This is
/// the sharded-server shape; per-message cost barely moves because the
/// interpreter is work-bound, not latency-bound.
std::uint64_t run_interpreter_x16(std::uint64_t iters) {
  std::vector<fsm::FsmInstance> insts;
  insts.reserve(kBatch);
  for (std::size_t b = 0; b < kBatch; ++b) {
    insts.emplace_back(commit_machine());
  }
  std::uint64_t actions = 0;
  std::size_t i = 0;
  const auto deliver = [&](std::size_t b) {
    const fsm::Transition* t = insts[b].deliver(stream()[(i + b) & 4095]);
    if (t != nullptr) actions += t->actions.size();
    if (insts[b].finished()) insts[b].reset();
  };
  for (std::uint64_t n = iters / kBatch; n > 0; --n) {
    for (std::size_t b = 0; b < kBatch; ++b) deliver(b);
    i = (i + kBatch) & 4095;
  }
  for (std::size_t b = 0; b < iters % kBatch; ++b) deliver(b);
  return actions;
}

/// The trajectory headline: 16 independent fused-table machines over the
/// same round-robin partition as run_interpreter_x16. The 16 dependency
/// chains are mutually independent, so the CPU overlaps their table loads
/// and throughput is bounded by issue width, not load latency.
std::uint64_t run_compiled_table_x16(std::uint64_t iters) {
  const fsm::CompiledMachine& cm = compiled_machine();
  static const std::vector<fsm::CompiledRecord> fused =
      fsm::reset_fused_table(cm);
  const fsm::CompiledRecord* table = fused.data();
  const fsm::MessageId* msgs = stream().data();
  std::uint32_t rows[kBatch];
  for (std::uint32_t& row : rows) row = cm.start() * cm.event_count();
  std::uint64_t actions = 0;
  std::size_t i = 0;
  for (std::uint64_t n = iters / kBatch; n > 0; --n) {
    for (std::size_t b = 0; b < kBatch; ++b) {
      const fsm::CompiledRecord rec = table[rows[b] + msgs[(i + b) & 4095]];
      actions += rec.span;
      rows[b] = rec.next;
    }
    i = (i + kBatch) & 4095;
  }
  for (std::size_t b = 0; b < iters % kBatch; ++b) {
    const fsm::CompiledRecord rec = table[rows[b] + msgs[(i + b) & 4095]];
    actions += rec.span;
    rows[b] = rec.next;
  }
  keep(rows);
  return actions;
}

// ---------------------------------------------------------------------------
// The harness: the BENCH_execution.json methodology.

struct Contestant {
  const char* name;
  std::uint64_t (*run)(std::uint64_t iters);
};

constexpr Contestant kContestants[] = {
    {"interpreter", run_interpreter},
    {"interpreter_x16", run_interpreter_x16},
    {"generated_switch", run_generated_switch},
    {"handwritten", run_handwritten},
    {"compiled_deliver", run_compiled_deliver},
    {"compiled_table", run_compiled_table},
    {"compiled_table_x16", run_compiled_table_x16},
};

int run_harness(const std::string& json_path, std::uint64_t iters) {
  obs::MetricsRegistry registry;
  std::printf("Execution throughput harness: r=4 commit machine, %llu "
              "messages per run,\nwarmup + best of 3 (see EXPERIMENTS.md)\n\n",
              static_cast<unsigned long long>(iters));
  std::printf("%-18s %12s %14s %10s\n", "impl", "ns/msg", "M msgs/s",
              "speedup");

  double interpreter_ns = 0.0;
  for (const Contestant& c : kContestants) {
    (void)c.run(iters / 10 + 1);  // Warmup: touch code and tables.
    double best_ns = 1e18;
    std::uint64_t actions = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      actions = c.run(iters);
      const auto t1 = std::chrono::steady_clock::now();
      const double ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count();
      if (ns < best_ns) best_ns = ns;
    }
    const double per_msg = best_ns / static_cast<double>(iters);
    const double msgs_per_sec = 1e9 * static_cast<double>(iters) / best_ns;
    if (c.run == run_interpreter) interpreter_ns = per_msg;
    std::printf("%-18s %12.3f %14.2f %9.2fx\n", c.name, per_msg,
                msgs_per_sec / 1e6,
                interpreter_ns > 0.0 ? interpreter_ns / per_msg : 1.0);

    const obs::Labels labels{{"impl", c.name}};
    registry.counter("exec.messages", labels).set(iters);
    registry.counter("exec.actions", labels).set(actions);
    registry.gauge("exec.wall_ns", labels)
        .set(static_cast<std::int64_t>(best_ns));
    registry.gauge("exec.msgs_per_sec", labels)
        .set(static_cast<std::int64_t>(msgs_per_sec));
  }

  if (json_path.empty()) return 0;
  const obs::Meta meta{
      {"tool", "bench_execution"},
      {"model", "commit"},
      {"r", "4"},
      {"iters", std::to_string(iters)},
      {"reps", "3"},
      {"clock", "wall"},
  };
  if (!cli::write_file(json_path, obs::write_metrics_json(registry, meta))) {
    return 2;
  }
  std::printf("\nmetrics written to %s\n", json_path.c_str());
  return 0;
}

int bench_execution_main(int argc, char** argv) {
  std::string json_path;
  std::uint64_t iters = 50'000'000;
  cli::Options args(
      "usage: bench_execution [options]\n"
      "Runs the fixed throughput harness (warmup + best of 3 per\n"
      "contestant) and prints its table.",
      {},
      {
          {{"--json"}, "FILE", "also write the results as asa-metrics/1 "
           "JSON; this is how BENCH_execution.json is produced",
           cli::to(json_path)},
          {{"--iters"}, "N", "messages per timed run (default 50000000; CI "
           "smoke uses a tiny count)", cli::to(iters)},
      });
  if (!args.parse(argc, argv)) return 0;
  if (iters == 0) throw cli::BadArgument("--iters must be positive");
  return run_harness(json_path, iters);
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run("bench_execution",
                  [&] { return bench_execution_main(argc, argv); });
}
