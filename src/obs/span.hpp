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
//
// A record is fixed-size and allocation-free, like obs::Event: the name is
// a static string literal (only the view is stored), the GUID is the
// integer itself, and the detail is a SpanDetail word with up to two
// integer arguments. Text is made only at export: the GUID as an unsigned
// decimal string and the detail by span_detail_text.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"  // Meta.

namespace asa_repro::obs {

/// How a span ended beyond `ok`, exported as its "detail" text. The
/// arguments are SpanRecord::detail_args.
enum class SpanDetail : std::uint8_t {
  kNone,      // "" (nothing to add).
  kDecisive,  // "decisive=<arg0> attempts=<arg1>": the replica whose
              // confirmation completed the quorum, and the attempt count.
  kFailed,    // "failed attempts=<arg0>": the endpoint gave up.
  kRetry,     // "retry": the attempt timed out and another started.
  kTimeout,   // "timeout": the last attempt timed out.
  kVetoed,    // "vetoed": the journal refused the append.
  kAbort,     // "abort": the stalled instance was aborted.
};

struct SpanRecord {
  std::uint64_t id = 0;          // 1-based, open order.
  std::uint64_t parent = 0;      // 0 = root.
  std::string_view name;         // A static string literal.
  std::uint64_t guid = 0;        // Target GUID.
  std::uint64_t request_id = 0;  // Client-side causal id, 0 if unknown.
  std::uint64_t update_id = 0;   // Per-attempt causal id, 0 if unknown.
  std::uint64_t start = 0;       // Sim-time microseconds.
  std::uint64_t end = 0;         // == start for point spans.
  std::uint32_t node = 0;        // Owning node index.
  std::array<std::uint32_t, 2> detail_args{};  // The detail's arguments.
  SpanDetail detail = SpanDetail::kNone;
  bool ok = false;
  bool closed = false;  // Open spans are exported flagged, not dropped.
};

/// Room for the longest detail text, "decisive=<u32> attempts=<u32>".
using SpanDetailText = std::array<char, 48>;

/// `span`'s detail text, rendered into `buf`.
[[nodiscard]] std::string_view span_detail_text(const SpanRecord& span,
                                                SpanDetailText& buf);

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Open a span; returns its id (always > 0). `name` is a string
  /// literal; `parent` is a previously returned id or 0 for a root.
  std::uint64_t open(std::string_view name, std::uint64_t parent,
                     std::uint32_t node, std::uint64_t guid,
                     std::uint64_t request_id, std::uint64_t update_id,
                     std::uint64_t start);

  /// Close a previously opened span. Closing an unknown or already-closed
  /// id is ignored (instrumentation sites race with teardown paths).
  void close(std::uint64_t id, std::uint64_t end, bool ok,
             SpanDetail detail = SpanDetail::kNone, std::uint32_t arg0 = 0,
             std::uint32_t arg1 = 0);

  /// Record an instantaneous (zero-length, already closed) span.
  std::uint64_t point(std::string_view name, std::uint64_t parent,
                      std::uint32_t node, std::uint64_t guid,
                      std::uint64_t request_id, std::uint64_t update_id,
                      std::uint64_t at, bool ok,
                      SpanDetail detail = SpanDetail::kNone);

  /// Whether `id` refers to a span that is open (valid and not closed).
  [[nodiscard]] bool is_open(std::uint64_t id) const;

  /// The spans in id order: (*this)[id - 1], iterable front to back.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const SpanRecord& operator[](std::size_t i) const {
    return blocks_[i / kBlock][i % kBlock];
  }
  class Iterator {
   public:
    Iterator(const SpanRecorder& recorder, std::size_t i)
        : recorder_(&recorder), i_(i) {}
    const SpanRecord& operator*() const { return (*recorder_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iterator& other) const { return i_ == other.i_; }

   private:
    const SpanRecorder* recorder_;
    std::size_t i_;
  };
  [[nodiscard]] Iterator begin() const { return {*this, 0}; }
  [[nodiscard]] Iterator end() const { return {*this, size_}; }

  /// Append every span of `other`, remapping ids (and parent links) past
  /// this recorder's current range. Used by campaign drivers.
  void merge(const SpanRecorder& other);

 private:
  /// Records per storage block: 512 x 88 bytes, small enough that malloc
  /// serves (and reuses) blocks from its heap rather than fresh mappings.
  static constexpr std::size_t kBlock = 512;

  SpanRecord& at(std::uint64_t id) {
    return blocks_[(id - 1) / kBlock][(id - 1) % kBlock];
  }
  /// A new record at the back, in a new block when the last is full.
  SpanRecord& append();

  // Fixed-size blocks: recording never moves a span, so growth costs one
  // allocation per block and no copy.
  std::vector<std::unique_ptr<SpanRecord[]>> blocks_;
  std::size_t size_ = 0;
};

/// Render the recorder as one asa-span/1 JSON document:
///   {"schema":"asa-span/1","meta":{...},
///    "spans":[{"id","parent","name","node","guid","request","update",
///              "start","end","ok","closed","detail"}...]}
/// Spans appear in id order; byte-identical across identical runs. "guid"
/// is the GUID's unsigned decimal string. The writer form streams the
/// document as the next value of `out`; the string form is the indent-1
/// file, newline-terminated, reserved up front from the span count.
void write_spans_json(JsonWriter& out, const SpanRecorder& recorder,
                      const Meta& meta);
[[nodiscard]] std::string write_spans_json(const SpanRecorder& recorder,
                                           const Meta& meta);

}  // namespace asa_repro::obs
