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
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "cli_args.hpp"
#include "obs/postmortem.hpp"
#include "storage/chaos.hpp"
#include "write_file.hpp"

using namespace asa_repro;
using namespace asa_repro::storage;

namespace {

void usage() {
  std::cout <<
      "usage: asachaos [options]\n"
      "  --seeds N          number of randomized campaigns (default 50)\n"
      "  --seed0 S          first seed (default 1)\n"
      "  --nodes N          cluster size (default 12)\n"
      "  --replication R    replication factor (default 4)\n"
      "  --updates U        version appends per run (default 8)\n"
      "  --guids G          GUIDs written per run (default 2)\n"
      "  --blocks B         data blocks stored per run (default 3)\n"
      "  --burst B          appends in flight per GUID (default 1; 2 when\n"
      "                     --equivocators is set: concurrent same-GUID\n"
      "                     updates are what equivocators can split)\n"
      "  --max-events M     scheduler event bound per run (default 2000000)\n"
      "  --faults N         concurrent node-fault budget (default f)\n"
      "  --equivocators K   force K permanent equivocators (faults > f)\n"
      "  --expect-violation exit 0 only if a violation is found, shrunk\n"
      "                     and its replay file reproduces it\n"
      "  --no-durability    volatile nodes (the pre-journal behaviour):\n"
      "                     restart recovers from peers only, and generated\n"
      "                     plans carry no disk-fault episodes\n"
      "  --durability-smoke run the deterministic journal-corruption and\n"
      "                     crash-consistency smoke instead of a campaign\n"
      "                     (torn write, bit-rot, full peer-set crash, and\n"
      "                     the volatile counterfactual); exit 0 when every\n"
      "                     expectation holds\n"
      "  --churn            membership-churn episodes in generated plans\n"
      "                     (ring joins, graceful leaves, abrupt departs)\n"
      "  --wan              per-link WAN adversity episodes in generated\n"
      "                     plans (lan/wan/sat latency classes with\n"
      "                     Gilbert-Elliott burst loss, reset before the\n"
      "                     horizon)\n"
      "  --writers W        contention workload: W concurrent writers\n"
      "                     spread --updates operations over the GUIDs by\n"
      "                     zipf popularity (0 = legacy per-GUID chains)\n"
      "  --zipf Z           zipf skew x100 for --writers (default 90)\n"
      "  --reads P          percent of workload operations that are agreed\n"
      "                     reads (default 0)\n"
      "  --open-loop        open-loop arrivals (operations fire on their\n"
      "                     generated schedule regardless of completions)\n"
      "  --churn-smoke      run the deterministic churn + handoff smoke\n"
      "                     instead of a campaign: a graceful leave wave\n"
      "                     over the whole peer set must keep the history\n"
      "                     readable, churn mid-commit must not break the\n"
      "                     commit, and the no-handoff counterfactual must\n"
      "                     provably lose acknowledged data\n"
      "  --no-handoff       with --churn-smoke: run only the counterfactual\n"
      "                     (graceful leaves with the key-range handoff\n"
      "                     suppressed — demonstrates the data loss)\n"
      "  --soak S           long-soak mode: rerun the campaign's seed 0 in\n"
      "                     consecutive horizon windows until S simulated\n"
      "                     seconds have elapsed, checking invariants per\n"
      "                     window and commit-rate drift across windows\n"
      "  --replay FILE      re-run a recorded schedule and report\n"
      "  --out DIR          directory for replay files (default .)\n"
      "  --metrics-out FILE campaign-aggregated metrics (asa-metrics/1)\n"
      "  --trace-out FILE   concatenated per-seed causal traces, each\n"
      "                     prefixed by a campaign seed marker (asa-trace/1)\n"
      "  --spans-out FILE   campaign-aggregated commit-path spans\n"
      "                     (asa-span/1), fed to asareport --critical-path\n"
      "  --postmortem-dir D on invariant violation or crash, write an\n"
      "                     asa-postmortem/1 bundle (flight-recorder tails,\n"
      "                     metrics, spans, seed, shrunk fault plan) to\n"
      "                     D/postmortem-seed<N>.json; same seed -> byte-\n"
      "                     identical bundle. D must exist: a bundle that\n"
      "                     cannot be written exits 2\n"
      "  --verbose          per-seed progress lines\n";
}

void print_violations(const ChaosReport& report) {
  for (const Violation& violation : report.violations) {
    std::cout << "  [" << violation.invariant << "] " << violation.detail
              << "\n";
  }
}

/// Build a post-mortem bundle for a violating seed by RE-RUNNING its
/// schedule with dedicated recorders. The sim is deterministic, so the
/// re-run reproduces the exact failing timeline — and two invocations on
/// the same seed produce byte-identical bundles (no wall-clock anywhere).
/// `shrunk` carries the delta-debugged minimal plan (empty for crashes
/// caught before shrinking).
std::string build_postmortem(const ChaosConfig& config,
                             const sim::FaultPlan& plan,
                             const sim::FaultPlan& shrunk) {
  obs::MetricsRegistry pm_metrics(true);
  obs::FlightRecorder pm_flight(256);
  obs::SpanRecorder pm_spans;
  obs::PostmortemViolations violations;
  std::vector<std::string> plan_lines;
  std::vector<std::string> shrunk_lines;
  for (const sim::FaultEvent& e : plan.events()) {
    plan_lines.push_back(e.serialize());
  }
  for (const sim::FaultEvent& e : shrunk.events()) {
    shrunk_lines.push_back(e.serialize());
  }
  try {
    const ChaosReport report =
        run_plan(config, plan, &pm_metrics, nullptr, &pm_flight, &pm_spans);
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
  return obs::write_postmortem_json(meta, violations, plan_lines,
                                    shrunk_lines, pm_flight, pm_metrics,
                                    pm_spans);
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
  std::ifstream in(path);
  if (!in) {
    std::cerr << "asachaos: cannot open replay file " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto decoded = decode_replay(buffer.str());
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

}  // namespace

int main(int argc, char** argv) {
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
  bool burst_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    try {
      if (arg == "-h" || arg == "--help") {
        usage();
        return 0;
      } else if (arg == "--seeds") {
        seeds = cli::unsigned_arg<std::uint64_t>(arg, next());
      } else if (arg == "--seed0") {
        seed0 = cli::unsigned_arg<std::uint64_t>(arg, next());
      } else if (arg == "--nodes") {
        config.nodes = cli::unsigned_arg<std::size_t>(arg, next());
      } else if (arg == "--replication") {
        config.replication = cli::unsigned_arg<std::uint32_t>(arg, next());
      } else if (arg == "--updates") {
        config.updates = cli::unsigned_arg<int>(arg, next());
      } else if (arg == "--guids") {
        config.guids = cli::unsigned_arg<int>(arg, next());
      } else if (arg == "--blocks") {
        config.blocks = cli::unsigned_arg<int>(arg, next());
      } else if (arg == "--burst") {
        config.burst = cli::unsigned_arg<int>(arg, next());
        burst_set = true;
      } else if (arg == "--max-events") {
        config.max_events = cli::unsigned_arg<std::size_t>(arg, next());
      } else if (arg == "--faults") {
        config.fault_budget = cli::unsigned_arg<std::uint32_t>(arg, next());
      } else if (arg == "--equivocators") {
        config.equivocators = cli::unsigned_arg<std::uint32_t>(arg, next());
      } else if (arg == "--expect-violation") {
        expect_violation = true;
      } else if (arg == "--no-durability") {
        config.durability = false;
      } else if (arg == "--durability-smoke") {
        durability_smoke = true;
      } else if (arg == "--churn") {
        config.churn = true;
      } else if (arg == "--wan") {
        config.wan = true;
      } else if (arg == "--writers") {
        config.writers = cli::unsigned_arg<int>(arg, next());
      } else if (arg == "--zipf") {
        config.zipf = cli::unsigned_arg<int>(arg, next()) / 100.0;
      } else if (arg == "--reads") {
        config.read_fraction = cli::unsigned_arg<int>(arg, next()) / 100.0;
      } else if (arg == "--open-loop") {
        config.open_loop = true;
      } else if (arg == "--churn-smoke") {
        churn_smoke = true;
      } else if (arg == "--no-handoff") {
        no_handoff = true;
      } else if (arg == "--soak") {
        soak_seconds = cli::unsigned_arg<std::uint64_t>(arg, next());
      } else if (arg == "--replay") {
        replay_path = next();
      } else if (arg == "--out") {
        out_dir = next();
      } else if (arg == "--metrics-out") {
        metrics_out = next();
      } else if (arg == "--trace-out") {
        trace_out = next();
      } else if (arg == "--spans-out") {
        spans_out = next();
      } else if (arg == "--postmortem-dir") {
        postmortem_dir = next();
      } else if (arg == "--verbose") {
        verbose = true;
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        usage();
        return 2;
      }
    } catch (const cli::BadArgument& e) {
      std::cerr << "asachaos: " << e.what() << "\n";
      return 2;
    }
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
  if (config.equivocators > 0 && !burst_set) config.burst = 2;

  std::cout << "chaos campaign: " << seeds << " seeds, " << config.nodes
            << " nodes, r=" << config.replication << " (f=" << config.f()
            << "), fault budget " << config.effective_budget()
            << ", equivocators " << config.equivocators << "\n";

  // Campaign-wide observability sinks: per-seed registries merge (counters
  // and histogram buckets add), per-seed traces concatenate behind a
  // campaign seed marker. Both stay disabled (and free) unless requested.
  obs::MetricsRegistry campaign_metrics(!metrics_out.empty());
  sim::Trace campaign_trace(!trace_out.empty());
  obs::SpanRecorder campaign_spans;
  obs::MetricsRegistry* metrics_sink =
      metrics_out.empty() ? nullptr : &campaign_metrics;
  sim::Trace* trace_sink = trace_out.empty() ? nullptr : &campaign_trace;
  obs::SpanRecorder* spans_sink = spans_out.empty() ? nullptr : &campaign_spans;

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
      report = run_plan(seed_config, plan, metrics_sink, trace_sink,
                        /*flight=*/nullptr, spans_sink);
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
    std::ostringstream out;
    out << "{\"schema\":\"asa-trace/1\",\"tool\":\"asachaos\",\"seed0\":"
        << seed0 << ",\"seeds\":" << seeds << "}\n";
    campaign_trace.dump_jsonl(out);
    if (!cli::write_file(trace_out, out.str())) return 2;
    std::cout << "trace written to " << trace_out << " ("
              << campaign_trace.events().size() << " events)\n";
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
                         obs::write_spans_json(campaign_spans, meta))) {
      return 2;
    }
    std::cout << "spans written to " << spans_out << " ("
              << campaign_spans.spans().size() << " spans)\n";
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
