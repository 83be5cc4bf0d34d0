// Chaos campaign engine: randomized, budgeted fault schedules executed
// against a full cluster simulation, with machine-checked invariants,
// delta-debugged minimal reproducers and deterministic replay files.
//
// One campaign = N seeds; each seed deterministically derives a workload
// (version appends with deliberate same-GUID concurrency, block stores,
// periodic background maintenance) and a sim::FaultPlan whose node faults
// never exceed a concurrency budget (default f = floor((r-1)/3), the
// paper's claimed tolerance). The run executes the plan on the scheduler
// mid-flight, then evaluates storage::InvariantChecker's safety invariants
// plus bounded-liveness and durability expectations.
//
// When a run violates an invariant, shrink_plan() delta-debugs the fault
// plan down to a locally minimal reproducer (every remaining event is
// necessary), and encode_replay() captures config + plan in a text file
// that re-runs the exact failing schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_plan.hpp"
#include "sim/rng.hpp"
#include "storage/invariant_checker.hpp"

namespace asa_repro::storage {

struct ChaosConfig {
  /// Sentinel: derive the node-fault concurrency budget from f.
  static constexpr std::uint32_t kAutoBudget = 0xFFFFFFFFu;

  std::size_t nodes = 12;
  std::uint32_t replication = 4;
  std::uint64_t seed = 1;
  int updates = 8;              // Version appends across `guids` GUIDs.
  int guids = 2;
  int blocks = 3;               // Data-plane blocks stored and tracked.
  /// Appends kept in flight per GUID. 1 (default) models the protocol's
  /// supported serialized-writer usage: the next append to a GUID is only
  /// submitted once the previous one was confirmed. Higher values submit
  /// deliberately concurrent same-GUID updates — the schedule where commit
  /// orders can legitimately split even fault-free (the free/not_free lock
  /// does not fully serialize racing proposals), and where Byzantine
  /// equivocators reliably break history agreement.
  int burst = 1;
  std::size_t max_events = 2'000'000;  // Scheduler safety bound per run.
  std::uint32_t equivocators = 0;  // Forced permanent equivocators, flipped
                                   // inside the first workload GUID's peer
                                   // set (the faults > f detection demo).
  std::uint32_t fault_budget = kAutoBudget;  // Max concurrently-faulty
                                             // nodes for generated plans.
  sim::Time horizon = 2'500'000;  // Fault/workload window (us).
  /// Durable journals + crash-consistent recovery (ClusterConfig's flag),
  /// and durability-fault episodes (torn write, bit-rot, partial flush,
  /// disk stall/full) in generated plans. Off reproduces the volatile
  /// seed behaviour: restart recovers from peers only. Absent from old
  /// replay headers, which therefore parse to the default (on).
  bool durability = true;
  /// Membership-churn episodes in generated plans: ring joins (kJoin),
  /// graceful leave-with-handoff (kLeave) and abrupt departures (kDepart).
  /// Off by default; absent from old replay headers (parse to off).
  bool churn = false;
  /// Per-link WAN adversity episodes in generated plans: lan/wan/sat
  /// LinkProfiles installed on random directed pairs and reset before the
  /// horizon (kLinkProfile). Off by default; absent from old headers.
  bool wan = false;
  /// Contention workload: > 0 replaces the per-GUID chain workload with
  /// `writers` concurrent writers spreading `updates` operations across
  /// the `guids` keys by zipf popularity (sim::generate_workload). 0 keeps
  /// the legacy serialized chains. Absent from old headers (parse to 0).
  int writers = 0;
  /// Zipf skew of the contention workload's key popularity (0 = uniform).
  double zipf = 0.9;
  /// Fraction of contention-workload operations that are agreed reads.
  double read_fraction = 0.0;
  /// Open-loop arrivals: operations fire on their generated schedule
  /// regardless of completions (default closed loop chains each writer's
  /// next operation on the previous completion).
  bool open_loop = false;

  [[nodiscard]] std::uint32_t f() const { return (replication - 1) / 3; }
  [[nodiscard]] std::uint32_t effective_budget() const {
    return fault_budget == kAutoBudget ? f() : fault_budget;
  }
  /// Liveness and durability are only guaranteed while faults stay <= f.
  [[nodiscard]] bool expect_liveness() const {
    return equivocators == 0 && effective_budget() <= f();
  }

  /// Why this config cannot run (no nodes, r < 2, no GUIDs, burst < 1,
  /// negative writers or zipf, a read fraction outside [0,1]), or nullopt.
  /// Both parse() and the asachaos CLI reject such configs.
  [[nodiscard]] std::optional<std::string> range_error() const;

  /// Replay-header form ("key value" lines) and its inverse.
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static std::optional<ChaosConfig> parse(
      const std::string& text);
};

struct ChaosReport {
  std::vector<Violation> violations;
  int committed = 0;
  int failed = 0;
  int reads_ok = 0;      // Contention-workload mid-run agreed reads...
  int reads_failed = 0;  // ...and ones that found no (f+1) agreement.
  bool quiesced = true;          // Ran out of events before max_events.
  std::size_t events_executed = 0;
  std::uint64_t messages_sent = 0;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Derive the seed's fault plan: random fault episodes (crash/restart,
/// Byzantine flip/replace, corrupt/uncorrupt, partitions, loss and
/// duplication bursts), each healed before the horizon, with at most
/// `effective_budget()` concurrently-faulty nodes. Forced `equivocators`
/// are environment (applied by run_plan inside the workload's peer set),
/// not plan events: with equivocators the plan carries only partition
/// noise, so a shrunk reproducer stays minimal.
[[nodiscard]] sim::FaultPlan generate_fault_plan(const ChaosConfig& config,
                                                 sim::Rng& rng);

/// Execute one chaos run: build the cluster, schedule the plan's events
/// and the seed-derived workload, run to quiescence (bounded by
/// max_events), then check every invariant.
///
/// Observability out-params (all optional; shrinking and replay pass
/// none, so reproducers run unobserved and fast): with `metrics` the
/// run's cluster enables its registry and merges it into `metrics` at the
/// end (counters/histograms accumulate across seeds). With `events` the
/// run records the views `events` keeps and merges them into it: the trace
/// behind a `campaign` marker carrying the seed, a 256-slot-per-lane
/// flight view (plus horizon-bounded queue-depth samples on the cluster
/// lane), and the span view behind a run boundary.
/// None of these affect the event timeline: identical seeds produce
/// identical runs observed or not. `inspect` (optional) is handed the
/// finished cluster after the invariants are checked, for tests that
/// audit per-node state the invariants do not cover.
[[nodiscard]] ChaosReport run_plan(
    const ChaosConfig& config, const sim::FaultPlan& plan,
    obs::MetricsRegistry* metrics = nullptr,
    obs::EventRecorder* events = nullptr,
    const std::function<void(AsaCluster&)>& inspect = nullptr);

/// Delta-debug a violating plan to a locally minimal reproducer: greedily
/// remove chunks (halving granularity down to single events) while the
/// re-run still violates. `runs` (optional) counts re-executions.
[[nodiscard]] sim::FaultPlan shrink_plan(const ChaosConfig& config,
                                         sim::FaultPlan plan,
                                         std::size_t* runs = nullptr);

/// Deterministic journal-corruption + crash-consistency smoke (the CI
/// "journal-corruption smoke" and the > f recovery demonstration):
///
///  1. commits a baseline history, then tears a journal append on one
///     member and crash/restarts it — recovery must report a truncated
///     tail and reconcile the missing commit;
///  2. bit-rots another member's journal while it is down — recovery
///     must CRC-skip exactly the rotten record and reconcile it back;
///  3. crashes EVERY peer-set member (> f) and restarts them — journal
///     replay must reconstruct the full acknowledged history although no
///     live peer ever had it;
///  4. re-runs step 3 with durability off, asserting the history is
///     lost — the seed codebase's behaviour, now demonstrably fixed.
///
/// `notes` narrates each step; any unmet expectation lands in `failures`.
struct DurabilitySmokeReport {
  std::vector<std::string> notes;
  std::vector<std::string> failures;
  [[nodiscard]] bool ok() const { return failures.empty(); }
};
[[nodiscard]] DurabilitySmokeReport run_durability_smoke(std::uint64_t seed);

/// Deterministic membership-churn + handoff smoke (the CI "churn smoke"
/// and the graceful-vs-abrupt counterfactual). With `handoff` (default):
///
///  1. commits a baseline history on a full-size peer set;
///  2. gracefully removes every original peer-set member one at a time —
///     each leave hands its key range off, so the acknowledged history
///     must survive into the entirely-new peer set and (f+1)-agreed reads
///     must keep seeing it;
///  3. joins a fresh node and commits one more update while a member
///     departs mid-flight — churn must not break in-flight commits;
///  4. re-runs the leave wave with handoff suppressed
///     (AsaCluster::remove_node handoff=false), asserting the acknowledged
///     history IS lost and the handoff-ack invariant fires.
///
/// With handoff=false only the counterfactual (step 4) runs — the
/// asachaos --churn-smoke --no-handoff demonstration.
[[nodiscard]] DurabilitySmokeReport run_churn_smoke(std::uint64_t seed,
                                                    bool handoff = true);

/// Long-soak mode: re-run the seed-derived campaign in consecutive
/// windows of `base.horizon` simulated microseconds until `total_sim_us`
/// of simulated time has elapsed, checking every invariant per window and
/// the commit-rate drift across windows (any window dropping below a
/// quarter of the median rate fails — a leak or livelock signature long
/// runs surface and single runs cannot). Window w runs with seed
/// derive_seed(base.seed, w), so a soak is exactly reproducible and any
/// violating window can be replayed as an ordinary single run.
struct SoakReport {
  int windows = 0;
  std::vector<double> commits_per_sec;  // One entry per window.
  std::vector<Violation> violations;    // Details prefixed "[window N]".
  std::vector<std::string> failures;    // Drift / liveness expectations.
  [[nodiscard]] bool ok() const {
    return violations.empty() && failures.empty();
  }
};
[[nodiscard]] SoakReport run_soak(const ChaosConfig& base,
                                  sim::Time total_sim_us,
                                  obs::MetricsRegistry* metrics = nullptr);

/// Replay file: config header, "plan" marker, one event per line.
[[nodiscard]] std::string encode_replay(const ChaosConfig& config,
                                        const sim::FaultPlan& plan);
[[nodiscard]] std::optional<std::pair<ChaosConfig, sim::FaultPlan>>
decode_replay(const std::string& text);

}  // namespace asa_repro::storage
