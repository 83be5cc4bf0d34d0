#include "obs/event.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <ostream>
#include <tuple>
#include <utility>

namespace asa_repro::obs {

namespace {

/// One view of a kind: its category (nullptr when the view omits the kind)
/// and its detail template, where {0}..{5} stand for the event's fields
/// and {w} for its word.
struct KindView {
  const char* category;
  const char* format;
};

struct KindRow {
  KindView trace;
  KindView flight;
  bool flight_on_cluster_lane = false;  // Else the event's node's lane.
  bool span = false;  // Kept by the span view (and by no other).
};

constexpr KindView kOmitted{nullptr, ""};
constexpr const char* kRoute = "id={0} from={1} to={2}";
constexpr const char* kDeliver = "id={0} from={1} to={2} latency={3}";
constexpr const char* kIds = "guid={0} update={1} request={2}";
constexpr const char* kChurn = "{w} node={0} epoch={1} ring={2}";
constexpr const char* kRecovery =
    "replayed={0} entries={1} truncated={2} skipped_crc={3} snapshot={w} "
    "reconciled={4}";

// Indexed by EventKind. Network kinds carry id, from, to, then size or
// latency; commit-path kinds guid, update, request, then latency or age;
// recv carries from, update.
constexpr KindRow kKinds[] = {
    {{"net.send", "id={0} from={1} to={2} size={3}"}, {"net.send", kRoute}},
    {{"net.part", kRoute}, {"net.part", kRoute}},
    {{"net.drop", kRoute}, {"net.drop", kRoute}},
    {{"net.dup", kRoute}, {"net.dup", kRoute}},
    {{"net.dead", kRoute}, {"net.dead", kRoute}},
    {{"net.deliver", kDeliver}, {"net.deliver", kDeliver}},
    {{"instance", "guid={0} update={1} created"}, {"commit.instance", kIds}},
    {{"recv", "{w} from={0} update={1}"}, kOmitted},
    {{"commit", "guid={0} update={1} latency={3}"},
     {"commit.record", "guid={0} update={1} request={2} latency={3}"}},
    {kOmitted, {"commit.veto", kIds}},
    {{"abort", "guid={0} update={1} age={3}"}, {"commit.abort", kIds}},
    {kOmitted, {"journal.append", "guid={0} update={1} request={2} {w}"}},
    {{"recovery", kRecovery}, {"journal.replay", kRecovery}},
    {{"churn", kChurn}, {"churn", kChurn}, /*flight_on_cluster_lane=*/true},
    {kOmitted, {"sched.queue_depth", "depth={0}"}, true},
    {{"campaign", "seed={0}"}, kOmitted},
    {kOmitted, kOmitted, false, /*span=*/true},
    {kOmitted, kOmitted, false, /*span=*/true},
    {kOmitted, kOmitted, false, /*span=*/true},
};

constexpr const char* kWords[] = {
    "",       "update",  "vote",         "join",   "leave",
    "depart", "yes",     "no",           "ok",     "failed",
    "commit", "attempt", "vote-collect", "quorum", "journal-append",
    "ack-sent"};

/// Indexed by SpanDetail: its detail template; fields 4 and 5 are its
/// arguments.
constexpr const char* kSpanDetails[] = {
    "",      "decisive={4} attempts={5}", "failed attempts={4}", "retry",
    "timeout", "vetoed",                  "abort"};

static_assert(std::size(kKinds) ==
              static_cast<std::size_t>(EventKind::kSpanPoint) + 1);
static_assert(std::size(kWords) ==
              static_cast<std::size_t>(Word::kAckSent) + 1);
static_assert(std::size(kSpanDetails) ==
              static_cast<std::size_t>(SpanDetail::kAbort) + 1);

/// The longest detail template, in characters.
constexpr std::size_t longest_format() {
  std::size_t longest = 0;
  for (const KindRow& r : kKinds) {
    for (const KindView& v : {r.trace, r.flight}) {
      std::size_t n = 0;
      while (v.format[n] != '\0') ++n;
      longest = std::max(longest, n);
    }
  }
  return longest;
}

// Each of up to six fields and the word expands to at most 20 characters.
static_assert(longest_format() + 7 * 20 <= std::tuple_size_v<EventDetailText>);

const KindRow& row(EventKind kind) {
  return kKinds[static_cast<std::size_t>(kind)];
}

const KindView& view_of(View view, EventKind kind) {
  return view == View::kTrace ? row(kind).trace : row(kind).flight;
}

/// `format` with `event`'s fields and word filled in, into `buf`.
std::string_view fill(const char* format, const Event& event,
                      EventDetailText& buf) {
  char* out = buf.data();
  char* const end = buf.data() + buf.size();
  for (const char* p = format; *p != '\0'; ++p) {
    if (*p != '{') {
      *out++ = *p;
      continue;
    }
    const char slot = p[1];
    p += 2;  // The loop's increment steps over the closing brace.
    if (slot == 'w') {
      for (const char* w = word_name(event.word); *w != '\0'; ++w) {
        *out++ = *w;
      }
    } else {
      out = std::to_chars(
                out, end,
                event.fields[static_cast<std::size_t>(slot - '0')])
                .ptr;
    }
  }
  return {buf.data(), static_cast<std::size_t>(out - buf.data())};
}

}  // namespace

const char* category(View view, EventKind kind) {
  return view_of(view, kind).category;
}

const char* word_name(Word word) {
  return kWords[static_cast<std::size_t>(word)];
}

std::string_view detail(View view, const Event& event,
                        EventDetailText& buf) {
  return fill(view_of(view, event.kind).format, event, buf);
}

std::string_view span_detail(const Event& event, EventDetailText& buf) {
  return fill(kSpanDetails[event.fields[3]], event, buf);
}

bool span_ok(const Event& event) {
  return event.fields[3] <= static_cast<std::uint64_t>(SpanDetail::kDecisive);
}

std::string detail(View view, const Event& event) {
  EventDetailText buf;
  return std::string(detail(view, event, buf));
}

namespace {

/// One asa-trace/1 event line's object, without the line break.
void write_trace_object(JsonWriter& out, std::uint64_t t, std::uint32_t node,
                        std::string_view category, std::string_view text) {
  out.begin_object()
      .member("t", t)
      .member("node", std::uint64_t{node})
      .member("cat", category)
      .member("detail", text)
      .end_object();
}

}  // namespace

void write_trace_line(std::ostream& os, const TraceEvent& event) {
  std::string line;
  JsonWriter out(line);
  write_trace_object(out, event.time, event.node, event.category,
                     event.detail);
  line += '\n';
  os << line;
}

EventRecorder::EventRecorder(bool tracing, std::size_t capacity, bool spans)
    : tracing_(tracing), capacity_(capacity), spans_(spans) {
  static_assert(std::size(kKinds) <= 32);
  for (std::size_t k = 0; k < std::size(kKinds); ++k) {
    const KindRow& r = kKinds[k];
    if ((tracing_ && r.trace.category != nullptr) ||
        (capacity_ > 0 && r.flight.category != nullptr) ||
        (spans_ && r.span)) {
      kept_ |= 1u << k;
    }
  }
}

void EventRecorder::keep(EventKind kind, std::uint64_t t, std::uint32_t node,
                         const EventFields& fields, Word word) {
  const Event event{t, node, kind, word, fields};
  const KindRow& r = row(kind);
  if (tracing_ && r.trace.category != nullptr) stream_.push_back(event);
  if (capacity_ > 0 && r.flight.category != nullptr) keep_in_flight(event);
  if (spans_ && r.span) spans_view_.push_back(event);
}

void EventBlocks::push_back(const Event& event) {
  if (size_ % kBlock == 0) {
    blocks_.push_back(std::make_unique<Event[]>(kBlock));
  }
  blocks_[size_ / kBlock][size_ % kBlock] = event;
  ++size_;
}

void EventRecorder::keep_in_flight(const Event& event) {
  Ring& ring =
      lanes_[row(event.kind).flight_on_cluster_lane ? kClusterLane
                                                    : event.node];
  const FlightEntry entry{event, seq_++};
  ++recorded_;
  if (ring.slots.size() < capacity_) {
    ring.slots.push_back(entry);
    return;
  }
  ring.slots[ring.next] = entry;
  if (++ring.next == capacity_) ring.next = 0;
}

void EventRecorder::write_trace_jsonl(std::ostream& os) const {
  // Lines accumulate in one buffer, written to the stream in blocks.
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  std::string block;
  block.reserve(kBlock + 1024);
  JsonWriter out(block);  // Each line is one root value.
  EventDetailText text;
  for (const Event& e : stream_) {
    write_trace_object(out, e.t, e.node, category(View::kTrace, e.kind),
                       detail(View::kTrace, e, text));
    block += '\n';
    if (block.size() >= kBlock) {
      os.write(block.data(), static_cast<std::streamsize>(block.size()));
      block.clear();
    }
  }
  os.write(block.data(), static_cast<std::streamsize>(block.size()));
}

std::vector<std::pair<std::uint32_t, const EventRecorder::Ring*>>
EventRecorder::sorted_lanes() const {
  std::vector<std::pair<std::uint32_t, const Ring*>> out;
  out.reserve(lanes_.size());
  for (const auto& [id, ring] : lanes_) out.emplace_back(id, &ring);
  std::sort(out.begin(), out.end());
  return out;
}

template <typename F>
void EventRecorder::oldest_first(const Ring& ring, F&& f) {
  // Before the first wrap `next` is 0 and the slots are already oldest
  // first; afterwards `next` points at the oldest surviving event.
  for (std::size_t i = ring.next; i < ring.slots.size(); ++i) {
    f(ring.slots[i]);
  }
  for (std::size_t i = 0; i < ring.next; ++i) f(ring.slots[i]);
}

std::vector<std::uint32_t> EventRecorder::lanes() const {
  std::vector<std::uint32_t> out;
  out.reserve(lanes_.size());
  for (const auto& [id, ring] : sorted_lanes()) out.push_back(id);
  return out;
}

std::vector<EventRecorder::FlightEntry> EventRecorder::lane(
    std::uint32_t id) const {
  const auto it = lanes_.find(id);
  if (it == lanes_.end()) return {};
  std::vector<FlightEntry> out;
  out.reserve(it->second.slots.size());
  oldest_first(it->second,
               [&out](const FlightEntry& entry) { out.push_back(entry); });
  return out;
}

JsonValue EventRecorder::to_json() const {
  const auto lanes = sorted_lanes();
  JsonValue root = JsonValue::object();
  root.reserve(lanes.size());
  EventDetailText text;
  for (const auto& [id, ring] : lanes) {
    JsonValue events = JsonValue::array();
    events.reserve(ring->slots.size());
    oldest_first(*ring, [&events, &text](const FlightEntry& entry) {
      JsonValue item = JsonValue::object();
      item.reserve(4);
      item.set("t", entry.event.t);
      item.set("seq", entry.seq);
      item.set("cat", category(View::kFlight, entry.event.kind));
      item.set("detail",
               std::string(detail(View::kFlight, entry.event, text)));
      events.push_back(std::move(item));
    });
    root.set(id == kClusterLane ? "cluster" : std::to_string(id),
             std::move(events));
  }
  return root;
}

void EventRecorder::merge(const EventRecorder& other) {
  if (tracing_) {
    stream_.insert(stream_.end(), other.stream_.begin(), other.stream_.end());
  }
  if (spans_) {
    end_spans(0, kClusterLane);
    for (std::size_t i = 0; i < other.spans_view_.size(); ++i) {
      spans_view_.push_back(other.spans_view_[i]);
    }
  }
  if (capacity_ == 0) return;
  for (const auto& [id, ring] : other.sorted_lanes()) {
    oldest_first(*ring, [this](const FlightEntry& entry) {
      keep_in_flight(entry.event);
    });
  }
}

}  // namespace asa_repro::obs
