// Run-report rendering and schema validation for the observability files.
//
// asareport consumes the artifacts the tools emit — an asa-metrics/1 JSON
// document (--metrics-out) and an asa-trace/1 JSONL event stream
// (--trace-out) — and renders the human-facing summary: histogram
// percentile tables, a per-node protocol breakdown, and the top-k slowest
// commit instances reconstructed from the causal trace.
//
// Every asa-* format is described once, as a row of one static schema
// table (a Shape per document, plus one rule function for what a field
// list cannot say). validate_document_json() and parse_trace_jsonl() both
// walk that table; CI's metrics smoke job gates producers on the former
// through asareport --validate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace_event.hpp"

namespace asa_repro::obs {

/// What one document field holds.
enum class FieldKind {
  kString,
  kNumber,
  kCount,  // Non-negative integer.
  kBool,
  kBound,  // Histogram bucket bound: a number, or "inf".
  kObject,  // Any object, or one of `shape` when given.
  kLabels,  // Object of strings.
  kStringArray,
  kArray,     // Array of `shape` objects.
  kLanes,     // Object of arrays of `shape` objects (flight lanes).
  kDocument,  // Embedded document, checked against its own row.
};

struct Shape;

struct FieldSpec {
  const char* name;
  FieldKind kind;
  bool optional = false;
  const Shape* shape = nullptr;    // kObject, kArray, kLanes.
  const char* document = nullptr;  // kDocument: the embedded schema.
};

/// The fields of one JSON object; members it does not list are ignored.
struct Shape {
  std::span<const FieldSpec> fields;
};

/// One row of the schema table. `rule` checks what a field list cannot
/// say, after the shape walk passed.
struct DocumentSchema {
  const char* name;    // The "schema" member that selects the row.
  const Shape* shape;  // The document, or a JSONL stream's header line.
  const Shape* lines;  // JSONL streams: every other line; else nullptr.
  std::optional<std::string> (*rule)(const JsonValue& doc);
};

/// The row for asa-metrics/1, asa-findings/1, asa-span/1, asa-postmortem/1
/// or asa-trace/1; nullptr for any other name.
[[nodiscard]] const DocumentSchema* find_schema(std::string_view name);

/// Validate a document against the row its "schema" member names. Returns
/// nullopt when valid, else the first problem, led by the path of the
/// field at fault ("histograms[2].buckets[0].count: expected a
/// non-negative integer"). An unknown schema is an error. A findings
/// document that lists findings is valid: failing on them is fsmcheck's
/// job.
[[nodiscard]] std::optional<std::string> validate_document_json(
    const JsonValue& root);

/// Parse an asa-trace/1 JSONL stream. Blank lines are skipped, a line with
/// a "schema" member is a header that must name asa-trace/1, and every
/// other line is an event. A bad line fails the parse; `error`, when
/// given, says which line and why.
[[nodiscard]] std::optional<std::vector<TraceEvent>> parse_trace_jsonl(
    const std::string& text, std::string* error = nullptr);

// The renderers below take documents that passed validate_document_json.

/// Render an asa-findings/1 document for humans: the run summary plus one
/// line per finding.
[[nodiscard]] std::string render_findings(const JsonValue& root);

/// Per-commit critical-path attribution from an asa-span/1 document:
/// joins every committed root span to its decisive attempt and the
/// decisive replica's vote-collect/quorum spans, decomposes the end-to-end
/// latency into named phases (submit, retry, route, vote-collect, quorum,
/// ack), and renders per-phase p50/p99 plus the p99 commit's attribution
/// with the unattributed remainder reported explicitly.
[[nodiscard]] std::string render_critical_path(const JsonValue& spans_doc);

/// Render an asa-postmortem/1 bundle for humans: violations, the shrunk
/// plan, per-lane flight-recorder tails and embedded document stats.
[[nodiscard]] std::string render_postmortem(const JsonValue& root);

/// Compare two bench_execution asa-metrics/1 documents: per-impl ns/msg
/// (exec.wall_ns / exec.messages) in `current` must stay within
/// `tolerance` (fraction, e.g. 0.20) of `baseline`. `ok` is false when any
/// baseline impl regressed, improved past the gate, or disappeared.
struct BenchCompareResult {
  std::string report;
  bool ok = true;
};
[[nodiscard]] BenchCompareResult compare_bench_metrics(
    const JsonValue& baseline, const JsonValue& current, double tolerance);

struct ReportOptions {
  std::size_t top_k = 10;  // Slowest commit instances to list.
};

/// Render the run summary from a parsed metrics document and (optionally)
/// trace events. Pure function of its inputs; deterministic.
[[nodiscard]] std::string render_report(
    const JsonValue& metrics, const std::vector<TraceEvent>& trace,
    const ReportOptions& options = {});

/// Pull `key=value` out of a trace detail string ("guid=7 update=12
/// latency=3200"); nullopt when absent or non-numeric.
[[nodiscard]] std::optional<std::uint64_t> detail_field(
    const std::string& detail, const std::string& key);

}  // namespace asa_repro::obs
