// asachaos — randomized chaos campaigns against the simulated ASA cluster.
//
// Runs N seeds; each seed derives a deterministic workload and a random
// fault plan (crash/restart, Byzantine flips, partitions, loss bursts,
// block corruption) whose concurrent node faults never exceed the budget
// (default f = floor((r-1)/3), the paper's claimed tolerance). Every run
// is checked against the protocol's safety invariants (history prefix
// agreement, validity, no duplicate commits) plus bounded-liveness and
// durability. On a violation the failing fault plan is delta-debugged to
// a minimal reproducer and written to a replay file that re-runs the
// exact schedule.
//
//   asachaos --seeds 200                      # campaign, expect clean
//   asachaos --seeds 5 --equivocators 2 --expect-violation
//                                             # >f faults: detection demo
//   asachaos --replay chaos-seed17.replay     # re-run a recorded schedule
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>

#include "cli_args.hpp"
#include "obs/postmortem.hpp"
#include "obs/span.hpp"
#include "storage/chaos.hpp"
#include "write_file.hpp"

using namespace asa_repro;
using namespace asa_repro::storage;

namespace {

void print_violations(const ChaosReport& report) {
  for (const Violation& violation : report.violations) {
    std::cout << "  [" << violation.invariant << "] " << violation.detail
              << "\n";
  }
}

/// Build a post-mortem bundle for a violating seed by RE-RUNNING its
/// schedule with a dedicated metrics registry and event recorder. The sim
/// is deterministic, so the re-run reproduces the exact failing timeline —
/// and two invocations on the same seed produce byte-identical bundles (no
/// wall-clock anywhere).
/// `shrunk` carries the delta-debugged minimal plan (empty for crashes
/// caught before shrinking).
std::string build_postmortem(const ChaosConfig& config,
                             const sim::FaultPlan& plan,
                             const sim::FaultPlan& shrunk) {
  obs::MetricsRegistry pm_metrics(true);
  obs::EventRecorder pm_events(/*tracing=*/false, /*flight_capacity=*/256,
                               /*spans=*/true);
  obs::PostmortemViolations violations;
  const auto lines = [](const sim::FaultPlan& p) {
    std::vector<std::string> out;
    for (const sim::FaultEvent& e : p.events()) out.push_back(e.serialize());
    return out;
  };
  try {
    const ChaosReport report =
        run_plan(config, plan, &pm_metrics, &pm_events);
    for (const Violation& v : report.violations) {
      violations.emplace_back(v.invariant, v.detail);
    }
  } catch (const std::exception& e) {
    violations.emplace_back("crash", e.what());
  }
  const obs::Meta meta{
      {"tool", "asachaos"},
      {"seed", std::to_string(config.seed)},
      {"nodes", std::to_string(config.nodes)},
      {"replication", std::to_string(config.replication)},
  };
  return obs::write_postmortem_json(meta, violations, lines(plan),
                                    lines(shrunk), pm_events, pm_metrics);
}

/// Write the bundle for `config.seed` into `dir` and report where it went.
/// Returns false (with a message on stderr) when the bundle cannot be
/// written, e.g. because `dir` does not exist.
bool write_postmortem(const std::string& dir, const ChaosConfig& config,
                      const sim::FaultPlan& plan,
                      const sim::FaultPlan& shrunk) {
  const std::string path =
      dir + "/postmortem-seed" + std::to_string(config.seed) + ".json";
  if (!cli::write_file(path, build_postmortem(config, plan, shrunk))) {
    return false;
  }
  std::cout << "  postmortem bundle " << path << "\n";
  return true;
}

int run_replay(const std::string& path) {
  const std::optional<std::string> text = cli::read_file(path);
  if (!text.has_value()) {
    std::cerr << "asachaos: cannot open replay file " << path << "\n";
    return 2;
  }
  const auto decoded = decode_replay(*text);
  if (!decoded.has_value()) {
    std::cerr << "asachaos: malformed replay file " << path << "\n";
    return 2;
  }
  const auto& [config, plan] = *decoded;
  std::cout << "replaying seed " << config.seed << " (" << plan.size()
            << " fault events)\n";
  const ChaosReport report = run_plan(config, plan);
  std::cout << "committed " << report.committed << ", failed "
            << report.failed << ", " << report.events_executed
            << " events, " << report.violations.size() << " violation(s)\n";
  print_violations(report);
  return report.ok() ? 0 : 1;
}

// asachaos's modes: each option row names the modes whose code reads it.
constexpr cli::Modes kCampaign = 1;
constexpr cli::Modes kReplay = 2;
constexpr cli::Modes kDurabilitySmoke = 4;
constexpr cli::Modes kChurnSmoke = 8;
constexpr cli::Modes kSoak = 16;
constexpr cli::Modes kRuns = kCampaign | kSoak;  // Read the ChaosConfig.
constexpr cli::Modes kSeeded = kRuns | kDurabilitySmoke | kChurnSmoke;

int asachaos_main(int argc, char** argv) {
  ChaosConfig config;
  std::uint64_t seeds = 50;
  std::uint64_t seed0 = 1;
  std::string replay_path;
  std::string out_dir = ".";
  std::string metrics_out;
  std::string trace_out;
  std::string spans_out;
  std::string postmortem_dir;
  bool expect_violation = false;
  bool durability_smoke = false;
  bool churn_smoke = false;
  bool no_handoff = false;
  std::uint64_t soak_seconds = 0;
  bool verbose = false;
  std::optional<int> burst;

  cli::Options args(
      "usage: asachaos [options]\n"
      "Runs a randomized campaign (the default), re-runs a recorded\n"
      "schedule (--replay FILE), one of the deterministic smokes\n"
      "(--durability-smoke, --churn-smoke) or a long soak (--soak S > 0).",
      {{kCampaign, "the campaign"},
       {kReplay, "a --replay run"},
       {kDurabilitySmoke, "the --durability-smoke run"},
       {kChurnSmoke, "the --churn-smoke run"},
       {kSoak, "a --soak run"}},
      {
          {{"--seeds"}, "N", "number of randomized campaigns (default 50)",
           cli::to(seeds), kCampaign},
          {{"--seed0"}, "S", "first seed (default 1)", cli::to(seed0),
           kSeeded},
          {{"--nodes"}, "N", "cluster size (default 12)",
           cli::to(config.nodes), kRuns},
          {{"--replication"}, "R", "replication factor (default 4)",
           cli::to(config.replication), kRuns},
          {{"--updates"}, "U", "version appends per run (default 8)",
           cli::to(config.updates), kRuns},
          {{"--guids"}, "G", "GUIDs written per run (default 2)",
           cli::to(config.guids), kRuns},
          {{"--blocks"}, "B", "data blocks stored per run (default 3)",
           cli::to(config.blocks), kRuns},
          {{"--burst"}, "B", "appends in flight per GUID (default 1; 2 in a "
           "campaign with --equivocators: concurrent same-GUID updates are "
           "what equivocators can split)", cli::to(burst), kRuns},
          {{"--max-events"}, "M", "scheduler event bound per run (default "
           "2000000)", cli::to(config.max_events), kRuns},
          {{"--faults"}, "N", "concurrent node-fault budget (default f)",
           cli::to(config.fault_budget), kRuns},
          {{"--equivocators"}, "K", "force K permanent equivocators "
           "(faults > f)", cli::to(config.equivocators), kRuns},
          {{"--expect-violation"}, "", "exit 0 only if a violation is found, "
           "shrunk and its replay file reproduces it",
           cli::set(expect_violation), kCampaign},
          {{"--no-durability"}, "", "volatile nodes (the pre-journal "
           "behaviour): restart recovers from peers only, and generated plans "
           "carry no disk-fault episodes", cli::set(config.durability, false),
           kRuns},
          {{"--durability-smoke"}, "", "run the deterministic "
           "journal-corruption and crash-consistency smoke instead of a "
           "campaign (torn write, bit-rot, full peer-set crash, and the "
           "volatile counterfactual); exit 0 when every expectation holds",
           cli::set(durability_smoke), kDurabilitySmoke},
          {{"--churn"}, "", "membership-churn episodes in generated plans "
           "(ring joins, graceful leaves, abrupt departs)",
           cli::set(config.churn), kRuns},
          {{"--wan"}, "", "per-link WAN adversity episodes in generated plans "
           "(lan/wan/sat latency classes with Gilbert-Elliott burst loss, "
           "reset before the horizon)", cli::set(config.wan), kRuns},
          {{"--writers"}, "W", "contention workload: W concurrent writers "
           "spread --updates operations over the GUIDs by zipf popularity "
           "(0 = legacy per-GUID chains)", cli::to(config.writers), kRuns},
          {{"--zipf"}, "Z", "zipf skew x100 for --writers (default 90)",
           cli::percent(config.zipf), kRuns},
          {{"--reads"}, "P", "percent of workload operations that are agreed "
           "reads (default 0)", cli::percent(config.read_fraction), kRuns},
          {{"--open-loop"}, "", "open-loop arrivals (operations fire on their "
           "generated schedule regardless of completions)",
           cli::set(config.open_loop), kRuns},
          {{"--churn-smoke"}, "", "run the deterministic churn + handoff smoke "
           "instead of a campaign: a graceful leave wave over the whole peer "
           "set must keep the history readable, churn mid-commit must not "
           "break the commit, and the no-handoff counterfactual must provably "
           "lose acknowledged data", cli::set(churn_smoke), kChurnSmoke},
          {{"--no-handoff"}, "", "run only the counterfactual (graceful leaves "
           "with the key-range handoff suppressed, which demonstrates the "
           "data loss)", cli::set(no_handoff), kChurnSmoke},
          {{"--soak"}, "S", "long-soak mode: rerun the campaign's seed 0 in "
           "consecutive horizon windows until S simulated seconds have "
           "elapsed, checking invariants per window and commit-rate drift "
           "across windows (0, the default, runs the campaign)",
           cli::to(soak_seconds), kRuns},
          {{"--replay"}, "FILE", "re-run a recorded schedule and report",
           cli::to(replay_path), kReplay},
          {{"--out"}, "DIR", "directory for replay files (default .)",
           cli::to(out_dir), kCampaign},
          {{"--metrics-out"}, "FILE", "aggregated metrics (asa-metrics/1)",
           cli::to(metrics_out), kRuns},
          {{"--trace-out"}, "FILE", "concatenated per-seed causal traces, "
           "each prefixed by a campaign seed marker (asa-trace/1)",
           cli::to(trace_out), kCampaign},
          {{"--spans-out"}, "FILE", "campaign-aggregated commit-path spans "
           "(asa-span/1), fed to asareport --critical-path",
           cli::to(spans_out), kCampaign},
          {{"--postmortem-dir"}, "D", "on invariant violation or crash, write "
           "an asa-postmortem/1 bundle (flight-recorder tails, metrics, "
           "spans, seed, shrunk fault plan) to D/postmortem-seed<N>.json; "
           "same seed -> byte-identical bundle. D must exist: a bundle that "
           "cannot be written exits 2", cli::to(postmortem_dir), kCampaign},
          {{"--verbose"}, "", "per-seed (per-window under --soak) progress "
           "lines", cli::set(verbose), kRuns},
      });
  if (!args.parse(argc, argv)) return 0;
  args.require_mode(!replay_path.empty() ? kReplay
                       : durability_smoke   ? kDurabilitySmoke
                       : churn_smoke        ? kChurnSmoke
                       : soak_seconds > 0   ? kSoak
                                            : kCampaign);
  if (burst.has_value()) config.burst = *burst;

  if (const auto why = config.range_error(); why.has_value()) {
    std::cerr << "asachaos: " << *why << "\n";
    return 2;
  }

  if (!replay_path.empty()) return run_replay(replay_path);

  if (durability_smoke) {
    std::cout << "durability smoke (seed " << seed0 << "):\n";
    const DurabilitySmokeReport smoke = run_durability_smoke(seed0);
    for (const std::string& line : smoke.notes) {
      std::cout << "  " << line << "\n";
    }
    for (const std::string& line : smoke.failures) {
      std::cout << "  FAIL: " << line << "\n";
    }
    std::cout << (smoke.ok() ? "durability smoke passed\n"
                             : "durability smoke FAILED\n");
    return smoke.ok() ? 0 : 1;
  }

  if (churn_smoke) {
    std::cout << "churn smoke (seed " << seed0
              << (no_handoff ? ", counterfactual only" : "") << "):\n";
    const DurabilitySmokeReport smoke =
        run_churn_smoke(seed0, /*handoff=*/!no_handoff);
    for (const std::string& line : smoke.notes) {
      std::cout << "  " << line << "\n";
    }
    for (const std::string& line : smoke.failures) {
      std::cout << "  FAIL: " << line << "\n";
    }
    std::cout << (smoke.ok() ? "churn smoke passed\n"
                             : "churn smoke FAILED\n");
    return smoke.ok() ? 0 : 1;
  }

  if (soak_seconds > 0) {
    config.seed = seed0;
    obs::MetricsRegistry soak_metrics(!metrics_out.empty());
    obs::MetricsRegistry* soak_sink =
        metrics_out.empty() ? nullptr : &soak_metrics;
    std::cout << "soak: " << soak_seconds << " simulated seconds in windows"
              << " of " << config.horizon << " us (seed " << seed0 << ")\n";
    const SoakReport soak =
        run_soak(config, static_cast<sim::Time>(soak_seconds) * 1'000'000,
                 soak_sink);
    for (std::size_t w = 0; w < soak.commits_per_sec.size(); ++w) {
      if (verbose) {
        std::cout << "  window " << w << ": " << soak.commits_per_sec[w]
                  << " commits/sec\n";
      }
    }
    for (const Violation& v : soak.violations) {
      std::cout << "  [" << v.invariant << "] " << v.detail << "\n";
    }
    for (const std::string& f : soak.failures) {
      std::cout << "  FAIL: " << f << "\n";
    }
    if (!metrics_out.empty()) {
      const obs::Meta meta{
          {"tool", "asachaos"},
          {"mode", "soak"},
          {"seed0", std::to_string(seed0)},
          {"windows", std::to_string(soak.windows)},
      };
      if (!cli::write_file(metrics_out,
                           obs::write_metrics_json(soak_metrics, meta))) {
        return 2;
      }
    }
    std::cout << "soak summary: " << soak.windows << " windows, "
              << soak.violations.size() << " violation(s), "
              << soak.failures.size() << " drift failure(s)\n";
    return soak.ok() ? 0 : 1;
  }

  // Equivocators split concurrent same-GUID proposals; give them some.
  if (config.equivocators > 0 && !burst.has_value()) config.burst = 2;

  std::cout << "chaos campaign: " << seeds << " seeds, " << config.nodes
            << " nodes, r=" << config.replication << " (f=" << config.f()
            << "), fault budget " << config.effective_budget()
            << ", equivocators " << config.equivocators << "\n";

  // Campaign-wide observability sinks: per-seed registries merge (counters
  // and histogram buckets add), per-seed traces concatenate behind a
  // campaign seed marker and per-seed spans behind a run boundary. Both
  // stay disabled (and free) unless requested.
  obs::MetricsRegistry campaign_metrics(!metrics_out.empty());
  obs::EventRecorder campaign_events(/*tracing=*/!trace_out.empty(),
                                     /*flight_capacity=*/0,
                                     /*spans=*/!spans_out.empty());
  obs::MetricsRegistry* metrics_sink =
      metrics_out.empty() ? nullptr : &campaign_metrics;
  obs::EventRecorder* events_sink =
      campaign_events.enabled() ? &campaign_events : nullptr;

  std::uint64_t violating_seeds = 0;
  std::uint64_t total_events = 0;
  std::uint64_t total_committed = 0;
  std::uint64_t total_fault_events = 0;
  bool reproduced = false;
  bool artefact_failed = false;  // A replay file or bundle was not written.
  for (std::uint64_t s = 0; s < seeds; ++s) {
    ChaosConfig seed_config = config;
    seed_config.seed = seed0 + s;
    sim::Rng rng(seed_config.seed ^ 0x63686170'73656564ull);  // "chaoseed"
    const sim::FaultPlan plan = generate_fault_plan(seed_config, rng);
    ChaosReport report;
    try {
      report = run_plan(seed_config, plan, metrics_sink, events_sink);
    } catch (const std::exception& e) {
      std::cerr << "seed " << seed_config.seed << " crashed: " << e.what()
                << "\n";
      if (!postmortem_dir.empty()) {
        (void)write_postmortem(postmortem_dir, seed_config, plan,
                               sim::FaultPlan());
      }
      return 3;
    }
    total_events += report.events_executed;
    total_committed += static_cast<std::uint64_t>(report.committed);
    total_fault_events += plan.size();
    if (verbose || !report.ok()) {
      std::cout << "seed " << seed_config.seed << ": " << plan.size()
                << " fault events, " << report.committed << "/"
                << seed_config.updates << " committed, "
                << report.violations.size() << " violation(s)\n";
    }
    if (report.ok()) continue;

    ++violating_seeds;
    print_violations(report);

    // Minimal reproducer + replay file.
    std::size_t shrink_runs = 0;
    const sim::FaultPlan minimal =
        shrink_plan(seed_config, plan, &shrink_runs);
    std::cout << "  shrunk " << plan.size() << " -> " << minimal.size()
              << " fault events in " << shrink_runs << " re-runs:\n";
    for (const sim::FaultEvent& event : minimal.events()) {
      std::cout << "    " << event.serialize() << "\n";
    }
    const std::string replay = encode_replay(seed_config, minimal);
    const std::string path =
        out_dir + "/chaos-seed" + std::to_string(seed_config.seed) +
        ".replay";
    if (!cli::write_file(path, replay)) artefact_failed = true;

    // The replay file must reproduce the violation byte-for-byte.
    const auto decoded = decode_replay(replay);
    const bool replay_violates =
        decoded.has_value() &&
        !run_plan(decoded->first, decoded->second).violations.empty();
    std::cout << "  replay file " << path
              << (replay_violates ? " reproduces the violation\n"
                                  : " FAILED to reproduce\n");
    if (replay_violates) reproduced = true;
    if (!postmortem_dir.empty() &&
        !write_postmortem(postmortem_dir, seed_config, plan, minimal)) {
      artefact_failed = true;
    }
    if (expect_violation) break;  // One shrunk reproducer is the goal.
  }

  std::cout << "\ncampaign summary: " << violating_seeds << " of " << seeds
            << " seeds violated invariants; " << total_fault_events
            << " fault events injected, " << total_committed
            << " updates committed, " << total_events
            << " simulation events\n";

  if (!metrics_out.empty()) {
    const obs::Meta meta{
        {"tool", "asachaos"},
        {"seeds", std::to_string(seeds)},
        {"seed0", std::to_string(seed0)},
        {"nodes", std::to_string(config.nodes)},
        {"replication", std::to_string(config.replication)},
        {"violating_seeds", std::to_string(violating_seeds)},
    };
    if (!cli::write_file(metrics_out,
                         obs::write_metrics_json(campaign_metrics, meta))) {
      return 2;
    }
    std::cout << "metrics written to " << metrics_out << "\n";
  }
  if (!trace_out.empty()) {
    if (!cli::write_file_with(trace_out, [&](std::ostream& out) {
          out << "{\"schema\":\"asa-trace/1\",\"tool\":\"asachaos\","
                 "\"seed0\":"
              << seed0 << ",\"seeds\":" << seeds << "}\n";
          campaign_events.write_trace_jsonl(out);
        })) {
      return 2;
    }
    std::cout << "trace written to " << trace_out << " ("
              << campaign_events.stream().size() << " events)\n";
  }
  if (!spans_out.empty()) {
    const obs::Meta meta{
        {"tool", "asachaos"},
        {"seeds", std::to_string(seeds)},
        {"seed0", std::to_string(seed0)},
        {"nodes", std::to_string(config.nodes)},
        {"replication", std::to_string(config.replication)},
    };
    if (!cli::write_file(spans_out,
                         obs::write_spans_json(campaign_events, meta))) {
      return 2;
    }
    std::cout << "spans written to " << spans_out << " ("
              << obs::span_count(campaign_events) << " spans)\n";
  }

  // An artefact the caller asked for and did not get is an error, whatever
  // the campaign found.
  if (artefact_failed) return 2;
  if (expect_violation) {
    if (violating_seeds > 0 && reproduced) {
      std::cout << "expected violation found, shrunk and reproduced\n";
      return 0;
    }
    std::cerr << "expected a violation (faults > f) but none "
              << (violating_seeds > 0 ? "reproduced" : "was found") << "\n";
    return 1;
  }
  return violating_seeds == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run("asachaos", [&] { return asachaos_main(argc, argv); });
}
