// Observability events: one typed record per event, one kind table, one
// recorder with two retention views.
//
// Components describe what happened as an obs::Event — sim time, node, a
// kind id, up to six integer fields and one word-valued field — and never
// format a string on the hot path. The kind table in event.cpp is the one
// place that names a kind's categories and detail fields. Each row renders
// the trace view and the flight view, which differ for some kinds (names,
// fields, lane) so that both exports stay what they always were.
//
// EventRecorder keeps the trace (every event, in record order, exported as
// asa-trace/1 JSONL) when `tracing` is on, and the flight recorder (the
// last `capacity` events per lane: one lane per node plus a cluster lane,
// with a global sequence number across lanes) when `capacity` is non-zero.
// Events carry sim time only, so identical runs export identical bytes.
// Components hold an `EventRecorder*` that is nullptr when both views are
// off: a disabled recorder costs one pointer test per event.
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
};

/// Values of the word-valued detail field.
enum class Word : std::uint8_t {
  kNone, kUpdate, kVote, kCommit, kJoin, kLeave, kDepart, kYes, kNo, kOk,
  kFailed,
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

  EventRecorder(bool tracing, std::size_t capacity)
      : tracing_(tracing), capacity_(capacity) {}
  EventRecorder(const EventRecorder&) = delete;
  EventRecorder& operator=(const EventRecorder&) = delete;

  [[nodiscard]] bool tracing() const { return tracing_; }
  /// Flight slots per lane; 0 disables the flight view.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool enabled() const { return tracing_ || capacity_ > 0; }

  /// Record one event into every view that keeps its kind.
  void record(EventKind kind, std::uint64_t t, std::uint32_t node,
              const EventFields& fields, Word word = Word::kNone);

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

  /// Append `other`'s trace, and its flight lanes lane by lane, oldest
  /// first, re-sequenced into this recorder's order.
  void merge(const EventRecorder& other);

 private:
  struct Ring {
    std::vector<FlightEntry> slots;  // Grows to capacity, then wraps.
    std::size_t next = 0;            // Overwrite cursor once full.
  };

  void keep_in_flight(const Event& event);
  /// Every lane's ring, by ascending lane id (kClusterLane last).
  [[nodiscard]] std::vector<std::pair<std::uint32_t, const Ring*>>
  sorted_lanes() const;
  /// Call `f` on each of `ring`'s entries, oldest first, in place.
  template <typename F>
  static void oldest_first(const Ring& ring, F&& f);

  bool tracing_;
  std::size_t capacity_;
  std::vector<Event> stream_;
  std::uint64_t seq_ = 0;
  std::uint64_t recorded_ = 0;
  // Hashed: a record does one lookup however many lanes there are (one per
  // node, and client endpoints sit at wide address strides).
  // sorted_lanes() sorts the keys for every ordered read.
  std::unordered_map<std::uint32_t, Ring> lanes_;
};

}  // namespace asa_repro::obs
