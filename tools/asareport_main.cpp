// asareport — render the observability artifacts as a human summary.
//
// Consumes any of the repo's versioned observability documents and
// dispatches on the schema field:
//
//   asa-metrics/1     percentile tables, per-node protocol breakdown and
//                     (with --trace) the top-k slowest commit instances
//   asa-findings/1    fsmcheck findings listing
//   asa-span/1        commit-path spans; --critical-path attributes p50/p99
//                     commit latency to protocol phases (submit, retry,
//                     route, vote-collect, quorum, ack)
//   asa-postmortem/1  post-mortem bundle: violations, shrunk fault plan,
//                     per-node flight-recorder tails, embedded metrics and
//                     span documents
//
// With --validate it only checks the documents' and the --trace stream's
// structure and exits non-zero on malformed or unknown-schema input (CI
// gates on this).
// With --bench-compare it gates a fresh bench_execution --json run against
// a committed baseline (ns/msg per impl, +/- tolerance). A flag the run
// would ignore, or given without its value, exits 2.
//
//   asareport --metrics run.json --trace run.trace
//   asareport --spans run.spans.json --critical-path
//   asareport --metrics postmortem-seed7.json
//   asareport --metrics anything.json --validate
//   asareport --bench-compare BENCH_execution.json --metrics new.json
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

using namespace asa_repro;

namespace {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Load + parse + structurally validate one document. Returns nullopt
/// (with a message on stderr) when anything is wrong.
std::optional<obs::JsonValue> load_document(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text.has_value()) {
    std::cerr << "asareport: cannot open " << path << "\n";
    return std::nullopt;
  }
  std::optional<obs::JsonValue> doc = obs::parse_json(*text);
  if (!doc.has_value()) {
    std::cerr << "asareport: " << path << " is not valid JSON\n";
    return std::nullopt;
  }
  if (const std::optional<std::string> error =
          obs::validate_document_json(*doc);
      error.has_value()) {
    std::cerr << "asareport: " << path << ": " << *error << "\n";
    return std::nullopt;
  }
  return doc;
}

/// The schema of a document load_document accepted.
const std::string& schema_of(const obs::JsonValue& doc) {
  return doc.find("schema")->as_string();
}

// asareport's modes: each option row names the modes whose code reads it.
constexpr cli::Modes kRender = 1;
constexpr cli::Modes kValidate = 2;
constexpr cli::Modes kBenchCompare = 4;

int asareport_main(int argc, char** argv) {
  std::string metrics_path;
  std::string trace_path;
  std::string spans_path;
  std::string bench_baseline_path;
  double tolerance = 0.20;
  std::optional<std::size_t> top;
  bool validate_only = false;
  bool critical_path = false;

  cli::Options args(
      "usage: asareport [--metrics FILE] [--spans FILE] [options]\n"
      "Renders the documents (the default), validates them (--validate), or\n"
      "gates a bench run against a baseline (--bench-compare BASELINE).",
      {{kRender, "rendering"},
       {kValidate, "a --validate run"},
       {kBenchCompare, "a --bench-compare run"}},
      {
          {{"--metrics"}, "FILE", "asa-metrics/1, asa-findings/1, asa-span/1 "
           "or asa-postmortem/1 JSON document", cli::to(metrics_path)},
          {{"--spans"}, "FILE", "asa-span/1 JSON document (from --spans-out)",
           cli::to(spans_path), kRender | kValidate},
          {{"--trace"}, "FILE", "asa-trace/1 JSONL event stream (optional; "
           "rendered with a metrics document)", cli::to(trace_path),
           kRender | kValidate},
          {{"--top"}, "K", "slowest commit instances to list (default 10; "
           "needs an asa-metrics/1 document)", cli::to(top), kRender},
          {{"--critical-path"}, "", "attribute commit latency to protocol "
           "phases (needs a span document)", cli::set(critical_path),
           kRender},
          {{"--bench-compare"}, "BASELINE", "gate --metrics (a fresh bench "
           "--json run) against the BASELINE metrics document: ns/msg per "
           "impl must stay within the tolerance",
           cli::to(bench_baseline_path), kBenchCompare},
          {{"--tolerance"}, "T", "allowed relative ns/msg drift (default "
           "0.20)", cli::to(tolerance), kBenchCompare},
          {{"--validate"}, "", "validate the document(s) and the trace and "
           "exit; non-zero on malformed or unknown-schema input",
           cli::set(validate_only), kValidate},
      });
  if (!args.parse(argc, argv)) return 0;
  args.require_mode(!bench_baseline_path.empty() ? kBenchCompare
                       : validate_only              ? kValidate
                                                    : kRender);
  if (metrics_path.empty() && spans_path.empty()) {
    throw cli::BadArgument("give a --metrics or --spans document");
  }

  // Bench gate: baseline vs the fresh run in --metrics.
  if (!bench_baseline_path.empty()) {
    const std::optional<obs::JsonValue> baseline =
        load_document(bench_baseline_path);
    const std::optional<obs::JsonValue> current = load_document(metrics_path);
    if (!baseline.has_value() || !current.has_value()) return 1;
    const obs::BenchCompareResult result =
        obs::compare_bench_metrics(*baseline, *current, tolerance);
    std::cout << result.report;
    return result.ok ? 0 : 1;
  }

  std::optional<obs::JsonValue> metrics;
  if (!metrics_path.empty()) {
    metrics = load_document(metrics_path);
    if (!metrics.has_value()) return 1;
  }
  std::optional<obs::JsonValue> spans;
  if (!spans_path.empty()) {
    spans = load_document(spans_path);
    if (!spans.has_value()) return 1;
    if (schema_of(*spans) != "asa-span/1") {
      std::cerr << "asareport: " << spans_path << ": expected asa-span/1, got "
                << schema_of(*spans) << "\n";
      return 1;
    }
  }

  const auto metrics_is = [&metrics](const char* schema) {
    return metrics.has_value() && schema_of(*metrics) == schema;
  };
  if (top.has_value() && !metrics_is("asa-metrics/1")) {
    std::cerr << "asareport: --top needs an asa-metrics/1 document\n";
    return 2;
  }
  if (critical_path && !spans.has_value() && !metrics_is("asa-span/1")) {
    std::cerr << "asareport: --critical-path needs a span document\n";
    return 2;
  }

  std::vector<obs::TraceEvent> trace;
  if (!trace_path.empty()) {
    const std::optional<std::string> trace_text = read_file(trace_path);
    if (!trace_text.has_value()) {
      std::cerr << "asareport: cannot open " << trace_path << "\n";
      return 2;
    }
    std::string error;
    std::optional<std::vector<obs::TraceEvent>> parsed =
        obs::parse_trace_jsonl(*trace_text, &error);
    if (!parsed.has_value()) {
      std::cerr << "asareport: " << trace_path
                << " is not a valid asa-trace/1 stream: " << error << "\n";
      return 1;
    }
    trace = std::move(*parsed);
  }

  if (validate_only) {
    if (metrics.has_value()) {
      std::cout << metrics_path << ": valid " << schema_of(*metrics)
                << " document\n";
    }
    if (spans.has_value()) {
      std::cout << spans_path << ": valid asa-span/1 document\n";
    }
    if (!trace_path.empty()) {
      std::cout << trace_path << ": valid asa-trace/1 stream ("
                << trace.size() << " events)\n";
    }
    return 0;
  }

  if (metrics.has_value()) {
    const std::string& schema = schema_of(*metrics);
    if (schema == "asa-findings/1") {
      std::cout << obs::render_findings(*metrics);
    } else if (schema == "asa-postmortem/1") {
      std::cout << obs::render_postmortem(*metrics);
    } else if (schema == "asa-span/1") {
      std::cout << obs::render_critical_path(*metrics);
    } else {
      obs::ReportOptions report;
      if (top.has_value()) report.top_k = *top;
      std::cout << obs::render_report(*metrics, trace, report);
    }
  }
  if (spans.has_value()) {
    // --critical-path is the only span renderer; a bare --spans gets it too.
    std::cout << obs::render_critical_path(*spans);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run("asareport", [&] { return asareport_main(argc, argv); });
}
