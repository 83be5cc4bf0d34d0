// Commit-path spans: a per-commit-instance phase timeline.
//
// The trace layer records point events (message fates); spans record
// *intervals* with parentage, so a whole commit decomposes into the phase
// tree the protocol actually executes:
//
//   commit (endpoint root, one per submitted update)
//   └─ attempt (one child per retry; the decisive one closes ok)
//      ├─ vote-collect (peer: instance opened → commit broadcast)
//      └─ quorum       (peer: commit broadcast → recorded)
//         ├─ journal-append (point: write-ahead sink accepted/vetoed)
//         └─ ack-sent       (point: kCommitted handed to the network)
//
// Span identity rides the protocol's existing causal ids — the client
// request id and the per-attempt update id — so asareport can join
// endpoint spans to the peer spans of the decisive replica and compute a
// per-commit critical path (--critical-path).
//
// Contract mirrors MetricsRegistry/EventRecorder: instrumented components
// hold a `SpanRecorder*` that is nullptr when disabled (one pointer test);
// ids are assigned monotonically from 1 in open order, so identical runs
// export byte-identical asa-span/1 documents.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"  // Meta.

namespace asa_repro::obs {

struct SpanRecord {
  std::uint64_t id = 0;      // 1-based, open order.
  std::uint64_t parent = 0;  // 0 = root.
  std::string name;
  std::uint32_t node = 0;        // Owning node index.
  std::string guid;              // Target GUID (short form), may be empty.
  std::uint64_t request_id = 0;  // Client-side causal id, 0 if unknown.
  std::uint64_t update_id = 0;   // Per-attempt causal id, 0 if unknown.
  std::uint64_t start = 0;       // Sim-time microseconds.
  std::uint64_t end = 0;         // == start for point spans.
  bool ok = false;
  bool closed = false;  // Open spans are exported flagged, not dropped.
  std::string detail;
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Open a span; returns its id (always > 0). `parent` is a previously
  /// returned id or 0 for a root.
  std::uint64_t open(const char* name, std::uint64_t parent,
                     std::uint32_t node, const std::string& guid,
                     std::uint64_t request_id, std::uint64_t update_id,
                     std::uint64_t start);

  /// Close a previously opened span. Closing an unknown or already-closed
  /// id is ignored (instrumentation sites race with teardown paths).
  void close(std::uint64_t id, std::uint64_t end, bool ok,
             std::string detail = {});

  /// Record an instantaneous (zero-length, already closed) span.
  std::uint64_t point(const char* name, std::uint64_t parent,
                      std::uint32_t node, const std::string& guid,
                      std::uint64_t request_id, std::uint64_t update_id,
                      std::uint64_t at, bool ok, std::string detail = {});

  /// Whether `id` refers to a span that is open (valid and not closed).
  [[nodiscard]] bool is_open(std::uint64_t id) const;

  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }

  /// Append every span of `other`, remapping ids (and parent links) past
  /// this recorder's current range. Used by campaign drivers.
  void merge(const SpanRecorder& other);

 private:
  std::vector<SpanRecord> spans_;  // spans_[id - 1], ids contiguous.
};

/// Render the recorder as one asa-span/1 JSON document:
///   {"schema":"asa-span/1","meta":{...},
///    "spans":[{"id","parent","name","node","guid","request","update",
///              "start","end","ok","closed","detail"}...]}
/// Spans appear in id order; byte-identical across identical runs. The
/// writer form streams the document as the next value of `out`; the string
/// form is the indent-1 file, newline-terminated.
void write_spans_json(JsonWriter& out, const SpanRecorder& recorder,
                      const Meta& meta);
[[nodiscard]] std::string write_spans_json(const SpanRecorder& recorder,
                                           const Meta& meta);

}  // namespace asa_repro::obs
