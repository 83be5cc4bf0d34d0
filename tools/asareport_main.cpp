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
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

using namespace asa_repro;

namespace {

void usage() {
  std::cout <<
      "usage: asareport [--metrics FILE] [--spans FILE] [options]\n"
      "  --metrics FILE   asa-metrics/1, asa-findings/1, asa-span/1 or\n"
      "                   asa-postmortem/1 JSON document\n"
      "  --spans FILE     asa-span/1 JSON document (from --spans-out)\n"
      "  --trace FILE     asa-trace/1 JSONL event stream (optional;\n"
      "                   rendered with a metrics document)\n"
      "  --top K          slowest commit instances to list (default 10;\n"
      "                   needs an asa-metrics/1 document)\n"
      "  --critical-path  attribute commit latency to protocol phases\n"
      "                   (needs a span document)\n"
      "  --bench-compare BASELINE\n"
      "                   gate --metrics (a fresh bench --json run) against\n"
      "                   the BASELINE metrics document: ns/msg per impl\n"
      "                   must stay within the tolerance\n"
      "  --tolerance T    allowed relative ns/msg drift (default 0.20;\n"
      "                   needs --bench-compare)\n"
      "  --validate       validate the document(s) and the trace and exit;\n"
      "                   non-zero on malformed or unknown-schema input\n";
}

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

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path;
  std::string trace_path;
  std::string spans_path;
  std::string bench_baseline_path;
  double tolerance = 0.20;
  obs::ReportOptions options;
  bool validate_only = false;
  bool critical_path = false;
  bool tolerance_given = false;
  bool top_given = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&] { return cli::next_value(argc, argv, i); };
    try {
      if (arg == "-h" || arg == "--help") {
        usage();
        return 0;
      } else if (arg == "--metrics") {
        metrics_path = next();
      } else if (arg == "--trace") {
        trace_path = next();
      } else if (arg == "--spans") {
        spans_path = next();
      } else if (arg == "--bench-compare") {
        bench_baseline_path = next();
      } else if (arg == "--tolerance") {
        tolerance = cli::double_arg(arg, next());
        tolerance_given = true;
      } else if (arg == "--top") {
        options.top_k = cli::unsigned_arg<std::size_t>(arg, next());
        top_given = true;
      } else if (arg == "--critical-path") {
        critical_path = true;
      } else if (arg == "--validate") {
        validate_only = true;
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        usage();
        return 2;
      }
    } catch (const cli::BadArgument& e) {
      std::cerr << "asareport: " << e.what() << "\n";
      return 2;
    }
  }
  if (metrics_path.empty() && spans_path.empty()) {
    usage();
    return 2;
  }
  if (tolerance_given && bench_baseline_path.empty()) {
    std::cerr << "asareport: --tolerance needs --bench-compare\n";
    return 2;
  }

  // Bench gate: baseline vs the fresh run in --metrics.
  if (!bench_baseline_path.empty()) {
    if (metrics_path.empty()) {
      std::cerr << "asareport: --bench-compare needs --metrics (the fresh "
                   "bench --json run)\n";
      return 2;
    }
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
  if (top_given && !metrics_is("asa-metrics/1")) {
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
      std::cout << obs::render_report(*metrics, trace, options);
    }
  }
  if (spans.has_value()) {
    // --critical-path is the only span renderer; a bare --spans gets it too.
    std::cout << obs::render_critical_path(*spans);
  }
  return 0;
}
