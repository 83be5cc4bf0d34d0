// stackbench — end-to-end benchmark of the simulated ASA stack.
//
//   stackbench --workload NAME --seed N --seconds S --trace 0|1
//              [--commit ID] [--source-digest HEX]
//
// --trace 0 repeats the workload for S seconds with observability off
// (except on `observed`) and prints the end-to-end metrics; --trace 1 is
// the separate traced run that prints per-layer metrics. Both print a
// human-readable report, then one JSON result object as the last line.
// Exit status: 0 ok, 1 correctness gate failed, 2 bad usage, 3 the run was
// not deterministic, 4 refused (not an optimised build).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"

using namespace stackbench;

namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (arg == "--workload") {
        args.workload = value;
      } else if (arg == "--seed") {
        args.seed = std::stoull(value, &used);
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value, &used);
      } else if (arg == "--trace") {
        args.trace = std::stoi(value, &used) != 0;
      } else if (arg == "--commit") {
        args.commit = value;
      } else if (arg == "--source-digest") {
        args.source_digest = value;
      } else {
        return std::nullopt;
      }
      if (used != 0 && used != value.size()) return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || args.seconds <= 0) return std::nullopt;
  return args;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool optimised_build() {
#if defined(__OPTIMIZE__)
  const std::string type = STACKBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#else
  return false;
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB.
}

double current_rss_mb() {
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  std::cout << json << "}}" << std::endl;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Prints every gate violation of every rep; true when there is none.
bool check_reps(const std::vector<RepResult>& reps) {
  bool clean = true;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    for (const std::string& v : reps[i].violations) {
      std::cout << "GATE VIOLATION (rep " << i << "): " << v << "\n";
      clean = false;
    }
  }
  return clean;
}

bool deterministic(const std::vector<RepResult>& reps) {
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (!(reps[i].fp == reps[0].fp)) {
      std::cout << "NON-DETERMINISM BUG: rep " << i
                << " differs from rep 0 under the same seed (counts or "
                   "simulated-clock results changed)\n";
      return false;
    }
  }
  return true;
}

void print_fingerprint(const Fingerprint& fp) {
  std::cout << "fingerprint: appends=" << fp.appends
            << " commits=" << fp.commits << " failed=" << fp.failed_appends
            << " reads=" << fp.reads << " reads_failed=" << fp.reads_failed
            << " attempts=" << fp.attempts << " msgs=" << fp.msgs_sent
            << " events=" << fp.events
            << " resident=" << fp.resident_instances_end
            << " latency_hash=" << fp.latency_hash
            << " sim_end_us=" << fp.sim_end << "\n";
}

std::uint64_t attempted_ops(const RepResult& rep) {
  return rep.fp.appends + rep.fp.reads;
}
std::uint64_t failed_ops(const RepResult& rep) {
  return rep.fp.failed_appends + rep.fp.reads_failed;
}

int finish(bool correct, bool determinism_ok,
           const std::vector<RepResult>& reps,
           const std::vector<Metric>& metrics) {
  std::uint64_t attempted = 0, failed = 0;
  for (const RepResult& rep : reps) {
    attempted += attempted_ops(rep);
    failed += failed_ops(rep);
  }
  // A violation marks every operation of the run failed.
  if (!correct || !determinism_ok) failed = attempted;
  print_result(correct && determinism_ok, attempted, failed, metrics);
  if (!determinism_ok) return 3;
  return correct ? 0 : 1;
}

// CPU per commit in the last tenth ÷ the first, both read off the
// least-squares line through all ten tenths: one tenth alone is a tenth of
// a rep's CPU and moves with every short stall of the host.
double fitted_growth(const std::array<double, 10>& tenths) {
  double sum_k = 0, sum_y = 0, sum_kk = 0, sum_ky = 0;
  for (std::size_t k = 0; k < tenths.size(); ++k) {
    const auto x = static_cast<double>(k);
    sum_k += x;
    sum_y += tenths[k];
    sum_kk += x * x;
    sum_ky += x * tenths[k];
  }
  const auto n = static_cast<double>(tenths.size());
  const double slope =
      (n * sum_ky - sum_k * sum_y) / (n * sum_kk - sum_k * sum_k);
  const double first = (sum_y - slope * sum_k) / n;
  return ratio(first + slope * (n - 1), first);
}

int measure(const WorkloadSpec& spec, const Args& args) {
  std::vector<RepResult> reps;
  // Built before the first rep; its memory is kept out of peak_rss_mb.
  const double rss_before_gauge = current_rss_mb();
  HostGauge gauge;
  const double gauge_mb = current_rss_mb() - rss_before_gauge;
  // Set-ups are timed between reps, two after each, so that like the reps
  // they sample the host across the whole run; each is rescaled by the
  // gauge slices run right after it.
  constexpr int kSetupsPerRep = 2, kMinSetups = 11, kSetupSlices = 10;
  std::vector<double> setups;
  const auto timed_setup = [&] {
    const double setup_s = time_setup(spec, args.seed);
    double gauge_s = 0;
    for (int k = 0; k < kSetupSlices; ++k) gauge_s += gauge.slice();
    setups.push_back(setup_s * HostGauge::scale(kSetupSlices, gauge_s,
                                                HostGauge::kSetupSensitivity));
  };
  const double start = wall_seconds();
  double last = 0;
  do {
    const double t0 = wall_seconds();
    reps.push_back(run_rep(spec, args.seed,
                           {.observe = spec.observed, .gauge = &gauge}));
    for (int i = 0; i < kSetupsPerRep; ++i) timed_setup();
    last = wall_seconds() - t0;
  } while (wall_seconds() - start + last <= args.seconds);
  while (setups.size() < kMinSetups) timed_setup();

  // Each rep's CPU figures are rescaled by the gauge slices run inside it.
  std::vector<double> scale, raw_throughput, throughput, growth;
  for (const RepResult& rep : reps) {
    scale.push_back(HostGauge::scale(static_cast<double>(rep.gauge_slices),
                                     rep.gauge_cpu_s,
                                     HostGauge::kRunSensitivity));
    const double commits = static_cast<double>(rep.fp.commits);
    raw_throughput.push_back(ratio(commits, rep.run_cpu_s));
    throughput.push_back(ratio(commits, rep.run_cpu_s * scale.back()));
    growth.push_back(fitted_growth(rep.tenth_cpu_us_per_commit));
  }

  const bool correct = check_reps(reps);
  const bool determinism_ok = deterministic(reps);
  const RepResult& first = reps.front();
  const Fingerprint& fp = first.fp;
  const auto commits = static_cast<double>(fp.commits);
  const LayerCounts& layers = first.layers;
  const std::vector<Metric> metrics{
      {"commits_per_cpu_s", median(throughput), "1/s"},
      {"commit_latency_p50_ms", percentile(first.commit_latency_ms, 0.50),
       "ms"},
      {"commit_latency_p99_ms", percentile(first.commit_latency_ms, 0.99),
       "ms"},
      {"read_latency_p99_ms", percentile(first.read_latency_ms, 0.99), "ms"},
      {"peak_rss_mb", peak_rss_mb() - gauge_mb, "MB"},
      {"setup_s", median(setups), "s"},
  };

  const auto print_reps = [](const char* what, const std::vector<double>& v) {
    std::cout << what << " per rep:";
    for (const double x : v) std::cout << " " << x;
    std::cout << "\n";
  };
  print_reps("commits_per_cpu_s (nominal host)", throughput);
  print_reps("commits_per_cpu_s (measured CPU)", raw_throughput);
  print_reps("host scale (nominal s per measured s)", scale);
  print_reps("cost_growth", growth);
  std::cout << "host gauge: " << gauge_mb << " MB, not in peak_rss_mb; "
            << first.gauge_slices << " slices in rep 0\n";
  std::cout << "reps: " << reps.size() << " in "
            << wall_seconds() - start << " s wall; medians over reps, "
            << setups.size() << " set-ups\n";
  print_fingerprint(fp);
  std::cout << "commit latency samples: " << first.commit_latency_ms.size()
            << " per rep; read latency samples: "
            << first.read_latency_ms.size()
            << " per rep (in-run agreed reads plus one verification read "
               "per GUID)\n";
  std::cout << "end-to-end metrics:\n";
  print_metrics(metrics);
  // Not bounded in BENCHMARK.json: exact counts that read the same on
  // every clean run (0 failures, 1 attempt and r-determined messages per
  // commit), and cost_growth, which a busy host raises by itself because
  // it slows the large-history tenths more than the early ones. Failures
  // travel in the result's "failed" count; the others are per-layer
  // metrics of the traced run too.
  print_metrics({
      {"cost_growth", median(growth), "ratio"},
      {"attempts_per_commit", ratio(static_cast<double>(fp.attempts), commits),
       "ratio"},
      {"msgs_per_commit", ratio(static_cast<double>(fp.msgs_sent), commits),
       "ratio"},
      {"failed_ratio",
       ratio(static_cast<double>(failed_ops(first)),
             static_cast<double>(attempted_ops(first))),
       "ratio"},
      {"export_bytes_per_commit",
       ratio(static_cast<double>(layers.metrics_bytes + layers.spans_bytes +
                                 layers.flight_bytes),
             commits),
       "B"},
  });
  return finish(correct, determinism_ok, reps, metrics);
}

int traced(const WorkloadSpec& spec, const Args& args) {
  // Baseline reps give the CPU time the layer costs are shares of; for
  // `observed` the obs-off twin (identical simulation) gives obs's share.
  std::vector<RepResult> reps;
  std::vector<double> cpu, cpu_off;
  std::array<std::vector<double>, 10> tenth;
  for (int i = 0; i < 3; ++i) {
    reps.push_back(run_rep(spec, args.seed, {.observe = spec.observed}));
    cpu.push_back(reps.back().run_cpu_s);
    for (std::size_t k = 0; k < 10; ++k) {
      tenth[k].push_back(reps.back().tenth_cpu_us_per_commit[k]);
    }
    if (spec.observed) {
      reps.push_back(run_rep(spec, args.seed, {.observe = false}));
      cpu_off.push_back(reps.back().run_cpu_s);
    }
  }
  SpanLog spans;
  reps.push_back(run_rep(spec, args.seed,
                         {.observe = spec.observed,
                          .count_lookups = true,
                          .spans = &spans}));
  const RepResult& rep = reps.back();
  const bool correct = check_reps(reps);
  const bool determinism_ok = deterministic(reps);
  const ProbeResult probe = run_probes(spec, args.seed, rep);

  const LayerCounts& c = rep.layers;
  const auto commits = static_cast<double>(std::max<std::uint64_t>(
      rep.fp.commits, 1));
  const double run_ns = median(cpu) * 1e9;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::uint64_t message_events = c.net_delivered + c.net_to_dead;
  const std::uint64_t other_events =
      c.events_executed - std::min(c.events_executed, message_events);
  const double sim_share =
      (d(c.net_sent) * probe.ns_per_msg + d(other_events) * probe.ns_per_event) /
      run_ns;
  const double p2p_share = d(c.lookups) * probe.ns_per_lookup / run_ns;
  const double core_share = d(c.deliveries) * probe.ns_per_delivery / run_ns;
  const double commit_share = probe.peer_us_per_commit * 1e3 * commits / run_ns;
  const double durable_share = d(c.commit_records) * probe.ns_per_record / run_ns;
  const double obs_share =
      spec.observed ? 1.0 - median(cpu_off) / median(cpu) : 0.0;
  const double attributed = sim_share + p2p_share + core_share + commit_share +
                            durable_share + obs_share;
  const double append_spans = d(spans.count("append"));
  const double read_spans = d(spans.count("read"));

  std::vector<Metric> metrics{
      {"sim.events_per_commit", d(c.events_executed) / commits, "count"},
      {"sim.msgs_per_commit", d(rep.fp.msgs_sent) / commits, "count"},
      {"sim.max_queue_depth", d(c.max_queue_depth), "count"},
      {"sim.ns_per_event", probe.ns_per_event, "ns"},
      {"sim.ns_per_msg", probe.ns_per_msg, "ns"},
      {"sim.net_dropped_ratio", ratio(d(c.net_dropped), d(c.net_sent)),
       "ratio"},
      {"sim.share", sim_share, "ratio"},
      {"p2p.lookups_per_commit", d(c.lookups) / commits, "count"},
      {"p2p.hops_per_lookup", ratio(d(c.lookup_hops), d(c.lookups)), "count"},
      {"p2p.ns_per_lookup", probe.ns_per_lookup, "ns"},
      {"p2p.share", p2p_share, "ratio"},
      {"core.deliveries_per_commit", d(c.deliveries) / commits, "count"},
      {"core.ns_per_delivery", probe.ns_per_delivery, "ns"},
      {"core.share", core_share, "ratio"},
      {"commit.resident_instances_end", d(rep.fp.resident_instances_end),
       "count"},
      {"commit.aborts", d(c.aborts), "count"},
      {"commit.duplicates_dropped", d(c.duplicates_dropped), "count"},
      {"commit.retries_per_commit", d(c.retries) / commits, "ratio"},
      {"commit.attempts_per_commit", d(rep.fp.attempts) / commits, "ratio"},
      {"commit.ns_per_frame_codec", probe.ns_per_frame_codec, "ns"},
      {"commit.codec_share", d(c.net_sent) * probe.ns_per_frame_codec / run_ns,
       "ratio"},
      {"commit.peer_us_per_commit", probe.peer_us_per_commit, "us"},
      {"commit.share", commit_share, "ratio"},
      {"durable.records_per_commit", d(c.journal_records) / commits, "count"},
      {"durable.bytes_per_commit", d(c.journal_bytes) / commits, "B"},
      {"durable.snapshots", d(c.snapshots), "count"},
      {"durable.ns_per_record", probe.ns_per_record, "ns"},
      {"durable.share", durable_share, "ratio"},
      {"durable.recovery_ms", spans.total("restart_node") * 1e3, "ms"},
      {"durable.replayed_records", d(c.replayed_records), "count"},
      {"durable.entries_recovered", d(c.entries_recovered), "count"},
      {"storage.append_submit_us",
       ratio(spans.total("append") * 1e6, append_spans), "us"},
      {"storage.read_submit_us", ratio(spans.total("read") * 1e6, read_spans),
       "us"},
  };
  std::array<double, 10> median_tenths{};
  for (std::size_t k = 0; k < 10; ++k) {
    median_tenths[k] = median(tenth[k]);
    metrics.push_back({"storage.cpu_us_per_commit.w" + std::to_string(k),
                       median_tenths[k], "us"});
  }
  metrics.push_back(
      {"storage.cost_growth", fitted_growth(median_tenths), "ratio"});
  const double export_bytes =
      d(c.metrics_bytes + c.spans_bytes + c.flight_bytes);
  metrics.insert(
      metrics.end(),
      {
          {"obs.snapshot_ms", spans.total("snapshot_metrics") * 1e3, "ms"},
          {"obs.export_ms",
           (spans.total("write_metrics_json") +
            spans.total("write_spans_json") +
            spans.total("write_flight_json")) *
               1e3,
           "ms"},
          {"obs.metrics_bytes", d(c.metrics_bytes), "B"},
          {"obs.spans_bytes", d(c.spans_bytes), "B"},
          {"obs.flight_events", d(c.flight_events), "count"},
          {"obs.export_bytes_per_commit", export_bytes / commits, "B"},
          {"obs.overhead",
           spec.observed ? median(cpu) / median(cpu_off) - 1.0 : 0.0,
           "ratio"},
          {"obs.share", obs_share, "ratio"},
          {"attributed_share", attributed, "ratio"},
          {"unattributed_share", 1.0 - attributed, "ratio"},
      });

  std::cout << "traced run: " << reps.size() << " reps; shares are of the "
            << "median run-phase CPU " << median(cpu) << " s over "
            << cpu.size() << " untraced reps\n";
  print_fingerprint(rep.fp);
  std::cout << "benchmark spans (traced rep, steady_clock):\n"
            << spans.summary();
  std::cout << "per-layer metrics (probe shares are isolated-call estimates;"
               " the unattributed remainder is shown, not hidden):\n";
  print_metrics(metrics);
  return finish(correct, determinism_ok, reps, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args.has_value()) {
    std::cerr << "usage: stackbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit ID] [--source-digest HEX]\n";
    return 2;
  }
  if (!optimised_build()) {
    std::cerr << "stackbench: refusing to report numbers from a "
                 "non-optimised build (build type '"
              << STACKBENCH_BUILD_TYPE << "')\n";
    return 4;
  }
  const WorkloadSpec* spec = find_workload(args->workload);
  if (spec == nullptr) {
    std::cerr << "stackbench: unknown workload '" << args->workload << "'\n";
    return 2;
  }
  std::cout << "stackbench: workload " << spec->name << " — " << spec->why
            << "\n"
            << "meta: seed=" << args->seed
            << " build_type=" << STACKBENCH_BUILD_TYPE
            << " compiler=\"" << compiler() << "\""
            << " nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
            << " commit=" << args->commit
            << " source_digest=" << args->source_digest << "\n"
            << "shape: nodes=" << spec->nodes << " r=" << spec->r
            << " writers=" << spec->writers << " ("
            << (spec->open_loop ? "open loop, exponential arrivals, mean 25 ms"
                                : "closed loop")
            << ") guids=" << spec->guids << " zipf=" << spec->zipf
            << " operations=" << spec->operations
            << " reads=" << spec->read_fraction << " ack_loss=" << spec->ack_loss
            << " crash=" << (spec->crash_hot_replica ? "yes" : "no")
            << " observability=" << (spec->observed ? "on" : "off") << "\n"
            << "link delay: uniform 0.5-5 ms per message (simulated clock)";
  if (spec->open_loop) {
    std::cout << "; generator lateness 0 by construction (arrivals fire on "
                 "the simulated clock)";
  }
  std::cout << "\n";
  return args->trace ? traced(*spec, *args) : measure(*spec, *args);
}
