// Reproduces paper Table 1 ("Times to generate state machines of various
// complexities") and extends it across the FSM family, serial vs parallel.
//
// State counts must match exactly (they are a property of the algorithm,
// not the hardware): the five Table 1 rows against the paper's printed f,
// initial and final counts, the rows beyond it against the closed forms
// those counts follow (32r^2 initial, (2r+1)(2r+3)/3 final). Wall-clock
// times reproduce the shape of the paper's column (slow growth, never a
// limiting factor), not its 2007 MacBook values. The paper could not
// assert the relationship between state-space size and generation time
// "with any confidence from this small sample"; this sweep pins it down
// (time grows ~quadratically in r, dominated by the 32*r^2
// enumeration/transition passes plus minimization over ~(2r)^2/1.33 pruned
// states) and measures what the chunked map-reduce engine
// (core/parallel.hpp) buys: the same artefact, generated with one lane per
// hardware thread instead of one.
//
// Columns: expected counts in parentheses, serial (jobs=1) and parallel
// (jobs = hardware concurrency) best-of-N wall time, the paper's time,
// per-state throughput and speedup. Exits 1 on any count mismatch or when
// the serial and parallel artefacts differ.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "commit/commit_model.hpp"
#include "core/equivalence.hpp"
#include "core/parallel.hpp"
#include "obs/metrics.hpp"
#include "write_file.hpp"

using namespace asa_repro;

namespace {

struct Row {
  std::uint32_t f;
  std::uint32_t r;
  std::uint64_t initial_states;
  std::uint64_t final_states;
  double paper_seconds;  // 0 beyond Table 1.
};

// Paper Table 1, verbatim.
constexpr Row kTable1[] = {
    {1, 4, 512, 33, 0.10},      {2, 7, 1568, 85, 0.12},
    {4, 13, 5408, 261, 0.38},   {8, 25, 20000, 901, 2.2},
    {15, 46, 67712, 2945, 19.1},
};

// Family members beyond Table 1, all of the form r = 3f+1.
constexpr std::uint32_t kExtension[] = {10, 16, 40, 64, 100};

/// Best-of-`reps` generation wall time in milliseconds.
double best_ms(const commit::CommitModel& model,
               const fsm::GenerationOptions& options, int reps,
               fsm::GenerationReport* report) {
  double best = 1e18;
  for (int rep = 0; rep < reps; ++rep) {
    fsm::GenerationReport local;
    const auto t0 = std::chrono::steady_clock::now();
    (void)model.generate_state_machine(options, &local);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) {
      best = ms;
      if (report != nullptr) *report = local;
    }
  }
  return best;
}

}  // namespace

int bench_generation_scaling_main(int argc, char** argv) {
  std::string json_path;
  cli::Options args("usage: bench_generation_scaling [options]", {},
                    {{{"--json"}, "FILE",
                      "also write the sweep results as one asa-metrics/1 "
                      "JSON document",
                      cli::to(json_path)}});
  if (!args.parse(argc, argv)) return 0;
  // Per-r sweep results in the shared asa-metrics/1 schema. State counts
  // are deterministic; the *_us gauges are wall-clock (this bench measures
  // real time, like fsmgen --profile) and vary run to run.
  obs::MetricsRegistry registry;

  std::vector<Row> rows(std::begin(kTable1), std::end(kTable1));
  for (const std::uint32_t r : kExtension) {
    rows.push_back({(r - 1) / 3, r, 32ull * r * r,
                    (2ull * r + 1) * (2ull * r + 3) / 3, 0.0});
  }

  const unsigned jobs = fsm::hardware_jobs();
  std::printf("Table 1: times to generate state machines of various "
              "complexities, and beyond\n");
  std::printf("(expected counts in parentheses: the paper's for Table 1, "
              "32r^2 and (2r+1)(2r+3)/3 beyond)\n");
  std::printf("serial = jobs 1, parallel = jobs %u (hardware threads)\n\n",
              jobs);
  std::printf("%3s %4s %17s %15s %7s %12s %10s %10s %9s %8s\n", "f", "r",
              "initial", "final", "pruned", "serial (ms)", "par (ms)",
              "paper (s)", "Mstate/s", "speedup");

  bool counts_match = true;
  for (const Row& row : rows) {
    if (row.r == kExtension[0]) {
      std::printf("beyond Table 1:\n");
    }
    const commit::CommitModel model(row.r);
    const int reps = row.r <= 25 ? 5 : 3;

    fsm::GenerationOptions serial;
    serial.jobs = 1;
    fsm::GenerationReport report;
    const double serial_ms = best_ms(model, serial, reps, &report);

    fsm::GenerationOptions parallel;
    parallel.jobs = 0;  // Hardware concurrency.
    const double parallel_ms = best_ms(model, parallel, reps, nullptr);

    const bool match = model.max_faulty() == row.f &&
                       report.initial_states == row.initial_states &&
                       report.final_states == row.final_states;
    counts_match = counts_match && match;

    const obs::Labels labels{{"r", std::to_string(row.r)}};
    registry.counter("gen.initial_states", labels).set(report.initial_states);
    registry.counter("gen.reachable_states", labels)
        .set(report.reachable_states);
    registry.counter("gen.final_states", labels).set(report.final_states);
    registry.gauge("gen.serial_us", labels)
        .set(static_cast<std::int64_t>(serial_ms * 1000.0));
    registry.gauge("gen.parallel_us", labels)
        .set(static_cast<std::int64_t>(parallel_ms * 1000.0));

    char paper_seconds[16] = "-";
    if (row.paper_seconds > 0.0) {
      std::snprintf(paper_seconds, sizeof paper_seconds, "%.2f",
                    row.paper_seconds);
    }
    std::printf(
        "%3u %4u %7llu (%7llu) %5llu (%5llu) %7llu %12.3f %10.3f %10s "
        "%9.2f %7.2fx %s\n",
        model.max_faulty(), row.r,
        static_cast<unsigned long long>(report.initial_states),
        static_cast<unsigned long long>(row.initial_states),
        static_cast<unsigned long long>(report.final_states),
        static_cast<unsigned long long>(row.final_states),
        static_cast<unsigned long long>(report.reachable_states), serial_ms,
        parallel_ms, paper_seconds,
        static_cast<double>(report.initial_states) / (parallel_ms * 1e3),
        serial_ms / parallel_ms, match ? "OK" : "MISMATCH");
  }
  std::printf("\n%s\n", counts_match
                             ? "All state counts match exactly."
                             : "STATE COUNT MISMATCH — reproduction broken.");

  // The determinism contract, spot-checked where it is cheapest to state:
  // the parallel artefact is the serial artefact.
  bool identical = false;
  {
    const commit::CommitModel model(7);
    fsm::GenerationOptions serial;
    serial.jobs = 1;
    fsm::GenerationOptions parallel;
    parallel.jobs = 0;
    identical = fsm::trace_equivalent(model.generate_state_machine(serial),
                                      model.generate_state_machine(parallel));
    std::printf("serial/parallel artefacts trace-equivalent at r=7: %s\n",
                identical ? "yes" : "NO — BUG");
  }

  std::printf("\nConclusion: generation is never a limiting factor "
              "(milliseconds where the 2007\nhardware took seconds), and the "
              "deterministic chunked engine turns repeated\nfamily-wide "
              "sweeps from O(cores) idle into near-linear use of the "
              "machine.\n");

  if (!json_path.empty()) {
    const obs::Meta meta{
        {"tool", "bench_generation_scaling"},
        {"jobs", std::to_string(jobs)},
        {"clock", "wall"},
    };
    if (!cli::write_file(json_path,
                         obs::write_metrics_json(registry, meta))) {
      return 2;
    }
    std::printf("metrics written to %s\n", json_path.c_str());
  }
  return counts_match && identical ? 0 : 1;
}

int main(int argc, char** argv) {
  return cli::run("bench_generation_scaling",
                  [&] { return bench_generation_scaling_main(argc, argv); });
}
