// Observability events: one typed record per event, one kind table, one
// recorder with three retention views.
//
// Components describe what happened as an obs::Event — sim time, node, a
// kind id, up to six integer fields and one word-valued field — and never
// format a string on the hot path. The kind table in event.cpp is the one
// place that names a kind's categories and detail fields. Each row renders
// the trace view and the flight view, which differ for some kinds (names,
// fields, lane) so that both exports stay what they always were.
//
// EventRecorder keeps the trace (every event, in record order, exported as
// asa-trace/1 JSONL) when `tracing` is on, the flight recorder (the last
// `capacity` events per lane: one lane per node plus a cluster lane, with
// a global sequence number across lanes) when `capacity` is non-zero, and
// the span view (every span open, close and point, in record order, in
// fixed blocks) when `spans` is on. Span kinds reach only the span view,
// and other kinds never reach it, so no view's export depends on another
// being on. Events carry sim time only, so identical runs export identical
// bytes. Components hold an `EventRecorder*` that is nullptr when every
// view is off: a disabled recorder costs one pointer test per event, and
// an event of a kind no enabled view keeps costs one bit test more.
// Span ids and parentage are derived at export (span.hpp).
//
// Text is made only at export, once per event: a detail is formatted into
// a stack buffer (EventDetailText) with to_chars, the trace's lines go
// through one JsonWriter into a block written to the stream block by
// block, and the flight view's tree is built from the rings in place.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace_event.hpp"

namespace asa_repro::obs {

enum class EventKind : std::uint8_t {
  kNetSend, kNetPart, kNetDrop, kNetDup, kNetDead, kNetDeliver,
  kInstance,       // Commit instance created.
  kRecv,           // Commit frame received (word: its message kind).
  kCommit,         // Commit recorded.
  kVeto,           // Journal append vetoed the commit.
  kAbort,          // Stalled instance aborted.
  kJournalAppend,  // Write-ahead append (word: ok | failed).
  kRecovery,       // Node recovered (word: snapshot yes | no).
  kChurn,          // Ring membership change (word: join | leave | depart).
  kQueueDepth,     // Scheduler queue-depth sample.
  kCampaign,       // Chaos campaign seed marker.
  // Span view only. Fields: guid, update, request, then a close's or a
  // point's SpanDetail and its two arguments; the word is the span name.
  kSpanOpen,
  kSpanClose,  // Without a name: see EventRecorder::end_spans.
  kSpanPoint,  // An instantaneous span, opened and closed at once.
};

/// Values of the word-valued detail field. kCommit to kAckSent name the
/// commit-path spans, the four that open and close before the two points:
///
///   commit (endpoint root, one per submitted update)
///   └─ attempt (one child per retry; the decisive one closes ok)
///      ├─ vote-collect (peer: instance opened → commit broadcast)
///      └─ quorum       (peer: commit broadcast → recorded)
///         ├─ journal-append (point: write-ahead sink accepted/vetoed)
///         └─ ack-sent       (point: kCommitted handed to the network)
enum class Word : std::uint8_t {
  kNone, kUpdate, kVote, kJoin, kLeave, kDepart, kYes, kNo, kOk, kFailed,
  kCommit, kAttempt, kVoteCollect, kQuorum, kJournalAppend, kAckSent,
};

/// How a span ended beyond `ok`, rendered as its "detail" text (field 3
/// of a close or point; fields 4 and 5 are its arguments). A span ends ok
/// when its detail is kNone or kDecisive, the two listed first.
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

using EventFields = std::array<std::uint64_t, 6>;

struct Event {
  std::uint64_t t = 0;     // Sim-time microseconds.
  std::uint32_t node = 0;  // Acting node (the trace lane).
  EventKind kind = EventKind::kNetSend;
  Word word = Word::kNone;
  EventFields fields{};  // Meaning per kind: see the kind table.
};

/// The two renderings of an event.
enum class View : std::uint8_t { kTrace, kFlight };

/// `kind`'s category in `view`; nullptr when the view omits the kind.
[[nodiscard]] const char* category(View view, EventKind kind);
/// Room for the longest detail text: a template of under 100 characters
/// with at most six 20-digit fields.
using EventDetailText = std::array<char, 256>;
/// The "key=value ..." detail text of `event` in `view`, formatted into
/// `buf` (exports format each detail once, in place); the string form is
/// for one-off callers.
[[nodiscard]] std::string_view detail(View view, const Event& event,
                                      EventDetailText& buf);
[[nodiscard]] std::string detail(View view, const Event& event);
[[nodiscard]] const char* word_name(Word word);

/// The fields of a span event: `detail` and its arguments on a close or
/// point.
[[nodiscard]] constexpr EventFields span_fields(
    std::uint64_t guid, std::uint64_t update, std::uint64_t request,
    SpanDetail detail = SpanDetail::kNone, std::uint64_t arg0 = 0,
    std::uint64_t arg1 = 0) {
  return {guid, update, request, static_cast<std::uint64_t>(detail), arg0,
          arg1};
}
/// The detail of a span close or point, formatted into `buf`, and whether
/// it ended the span ok.
[[nodiscard]] std::string_view span_detail(const Event& event,
                                           EventDetailText& buf);
[[nodiscard]] bool span_ok(const Event& event);

/// Events in fixed blocks: appending never moves an event, so growth costs
/// one allocation per block and no copy, never a doubling vector's
/// transient second copy.
class EventBlocks {
 public:
  void push_back(const Event& event);
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const Event& operator[](std::size_t i) const {
    return blocks_[i / kBlock][i % kBlock];
  }

 private:
  /// Events per block: 512 x 64 bytes, small enough that malloc serves
  /// (and reuses) blocks from its heap rather than fresh mappings.
  static constexpr std::size_t kBlock = 512;

  std::vector<std::unique_ptr<Event[]>> blocks_;
  std::size_t size_ = 0;
};
/// Write one asa-trace/1 event line {"t","node","cat","detail"}, strings
/// escaped. Writers prepend the asa-trace/1 header themselves.
void write_trace_line(std::ostream& os, const TraceEvent& event);

class EventRecorder {
 public:
  /// Flight lane of events that belong to the whole cluster.
  static constexpr std::uint32_t kClusterLane = 0xFFFFFFFFu;

  /// One flight-recorder slot: the event and its global record order.
  struct FlightEntry {
    Event event;
    std::uint64_t seq = 0;
  };

  EventRecorder(bool tracing, std::size_t capacity, bool spans = false);
  EventRecorder(const EventRecorder&) = delete;
  EventRecorder& operator=(const EventRecorder&) = delete;

  [[nodiscard]] bool tracing() const { return tracing_; }
  /// Flight slots per lane; 0 disables the flight view.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Whether the span view is on.
  [[nodiscard]] bool spans() const { return spans_; }
  [[nodiscard]] bool enabled() const {
    return tracing_ || capacity_ > 0 || spans_;
  }

  /// Record one event into every view that keeps its kind. Only the mask
  /// test is inline: a kind no view keeps costs no call, and call sites
  /// stay small (an inline Event slowed every stackbench workload ~7%).
  void record(EventKind kind, std::uint64_t t, std::uint32_t node,
              const EventFields& fields, Word word = Word::kNone) {
    if (((kept_ >> static_cast<unsigned>(kind)) & 1u) != 0) {
      keep(kind, t, node, fields, word);
    }
  }

  /// A nameless span close: `node`'s open spans stay open but nothing
  /// recorded afterwards joins them, closes them or parents under them (its
  /// peer was rebuilt); on kClusterLane, every node's (a run boundary).
  void end_spans(std::uint64_t t, std::uint32_t node) {
    record(EventKind::kSpanClose, t, node, {});
  }

  /// The span view, in record order.
  [[nodiscard]] const EventBlocks& span_events() const { return spans_view_; }

  /// The trace view, and its asa-trace/1 JSONL lines.
  [[nodiscard]] const std::vector<Event>& stream() const { return stream_; }
  /// Written to `os` in 64 KB blocks.
  void write_trace_jsonl(std::ostream& os) const;

  /// Flight lanes with events, ascending (kClusterLane last).
  [[nodiscard]] std::vector<std::uint32_t> lanes() const;
  /// A copy of a flight lane, oldest first. Empty for unknown lanes.
  [[nodiscard]] std::vector<FlightEntry> lane(std::uint32_t id) const;
  /// Flight events ever recorded, including evicted ones.
  [[nodiscard]] std::uint64_t total_recorded() const { return recorded_; }
  /// The flight view: {"<lane>":[{"t","seq","cat","detail"}...],...} in
  /// lane order; the cluster lane renders as "cluster".
  [[nodiscard]] JsonValue to_json() const;

  /// Append `other`'s trace, its flight lanes lane by lane, oldest first,
  /// re-sequenced into this recorder's order, and its span view behind a
  /// run boundary, so no span of one run joins a span of another.
  void merge(const EventRecorder& other);

 private:
  struct Ring {
    std::vector<FlightEntry> slots;  // Grows to capacity, then wraps.
    std::size_t next = 0;            // Overwrite cursor once full.
  };

  /// Add the event to each view that keeps its kind.
  void keep(EventKind kind, std::uint64_t t, std::uint32_t node,
            const EventFields& fields, Word word);
  void keep_in_flight(const Event& event);
  /// Every lane's ring, by ascending lane id (kClusterLane last).
  [[nodiscard]] std::vector<std::pair<std::uint32_t, const Ring*>>
  sorted_lanes() const;
  /// Call `f` on each of `ring`'s entries, oldest first, in place.
  template <typename F>
  static void oldest_first(const Ring& ring, F&& f);

  bool tracing_;
  std::size_t capacity_;
  bool spans_;
  std::uint32_t kept_ = 0;  // Bit k: some view keeps EventKind k.
  std::vector<Event> stream_;
  EventBlocks spans_view_;
  std::uint64_t seq_ = 0;
  std::uint64_t recorded_ = 0;
  // Hashed: a record does one lookup however many lanes there are (one per
  // node, and client endpoints sit at wide address strides).
  // sorted_lanes() sorts the keys for every ordered read.
  std::unordered_map<std::uint32_t, Ring> lanes_;
};

}  // namespace asa_repro::obs
