#include "obs/span.hpp"

#include <array>
#include <charconv>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace asa_repro::obs {

namespace {

struct Key {
  std::uint32_t node;
  std::uint64_t guid;
  std::uint64_t id;  // The request id of an endpoint span, else the update id.
  bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    return (k.id * 0x9E3779B97F4A7C15ull) ^ (k.guid * 0xC2B2AE3D27D4EB4Full) ^
           k.node;
  }
};

/// The names a span can be held open under, kCommit to kQuorum, index an
/// Entry's slots; the point names come after them.
constexpr std::size_t kSlots = 4;
constexpr std::size_t slot_of(Word name) {
  return static_cast<std::size_t>(name) -
         static_cast<std::size_t>(Word::kCommit);
}
static_assert(slot_of(Word::kQuorum) == kSlots - 1);

/// The spans of one Key: the open span per slot and the quorum that
/// parents its points (span ids, 0 = none).
struct Entry {
  std::array<std::uint32_t, kSlots> open{};
  std::uint32_t quorum = 0;
};

/// One span's parent id and 1 + the index of the event that closed it (0
/// while open; a point closes itself).
struct Link {
  std::uint32_t parent = 0;
  std::uint32_t close = 0;
};

/// Every span's links, in id order: one pass over the view.
std::vector<Link> resolve(const EventRecorder& recorder) {
  const EventBlocks& view = recorder.span_events();
  std::vector<Link> links;
  links.reserve(view.size());  // Untouched past the spans: not resident.
  std::unordered_map<Key, Entry, KeyHash> entries;
  for (std::uint32_t i = 0; i < view.size(); ++i) {
    const Event& e = view[i];
    if (e.kind == EventKind::kSpanClose && e.word == Word::kNone) {
      std::erase_if(entries, [&e](const auto& kv) {
        return e.node == EventRecorder::kClusterLane || kv.first.node == e.node;
      });
      continue;
    }
    const bool endpoint = e.word == Word::kCommit || e.word == Word::kAttempt;
    const Key key{e.node, e.fields[0], e.fields[endpoint ? 2 : 1]};
    const std::size_t slot = slot_of(e.word);
    if (e.kind == EventKind::kSpanClose) {
      const auto it = entries.find(key);
      if (slot >= kSlots || it == entries.end()) continue;
      std::uint32_t& open = it->second.open[slot];
      if (open == 0) continue;
      links[open - 1].close = i + 1;
      open = 0;
      // A quorum closed failed (aborted) parents nothing after.
      if (e.word == Word::kQuorum && !span_ok(e)) it->second.quorum = 0;
      continue;
    }
    const auto id = static_cast<std::uint32_t>(links.size() + 1);
    Link& link = links.emplace_back();
    if (e.kind == EventKind::kSpanPoint) link.close = i + 1;
    const bool holds = e.kind == EventKind::kSpanOpen && slot < kSlots;
    const auto it = holds ? entries.try_emplace(key).first : entries.find(key);
    if (it == entries.end()) continue;
    Entry& entry = it->second;
    if (e.word == Word::kAttempt) link.parent = entry.open[0];  // The root.
    if (slot >= kSlots) link.parent = entry.quorum;
    if (!holds) continue;
    entry.open[slot] = id;
    if (e.word == Word::kQuorum) entry.quorum = id;
  }
  return links;
}

}  // namespace

std::size_t span_count(const EventRecorder& recorder) {
  const EventBlocks& view = recorder.span_events();
  std::size_t n = 0;
  for (std::size_t i = 0; i < view.size(); ++i) {
    n += view[i].kind != EventKind::kSpanClose;
  }
  return n;
}

void write_spans_json(JsonWriter& out, const EventRecorder& recorder,
                      const Meta& meta) {
  const EventBlocks& view = recorder.span_events();
  const std::vector<Link> links = resolve(recorder);
  out.begin_object().member("schema", "asa-span/1");
  write_meta(out, meta);
  out.key("spans").begin_array();
  char guid[20];  // The widest uint64_t.
  EventDetailText detail;
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < view.size(); ++i) {
    const Event& open = view[i];
    if (open.kind == EventKind::kSpanClose) continue;
    const Link& link = links[id++];
    const Event* close = link.close == 0 ? nullptr : &view[link.close - 1];
    const char* guid_end =
        std::to_chars(guid, guid + sizeof guid, open.fields[0]).ptr;
    out.begin_object()
        .member("id", id)
        .member("parent", std::uint64_t{link.parent})
        .member("name", word_name(open.word))
        .member("node", std::uint64_t{open.node})
        .member("guid", std::string_view(
                            guid, static_cast<std::size_t>(guid_end - guid)))
        .member("request", open.fields[2])
        .member("update", open.fields[1])
        .member("start", open.t)
        .member("end", close == nullptr ? open.t : close->t)
        .member("ok", close != nullptr && span_ok(*close))
        .member("closed", close != nullptr)
        .member("detail", close == nullptr
                              ? std::string_view()
                              : span_detail(*close, detail))
        .end_object();
  }
  out.end_array().end_object();
}

std::string write_spans_json(const EventRecorder& recorder,
                             const Meta& meta) {
  // An indent-1 span object is about 250 bytes with simulation-sized
  // numbers, and there are fewer spans than span events; reserving past
  // that leaves the tail untouched (and not resident) instead of doubling
  // the string near the end.
  constexpr std::size_t kBytesPerSpan = 320;
  std::string doc;
  doc.reserve(4096 + recorder.span_events().size() * kBytesPerSpan);
  JsonWriter out(doc, 1);
  write_spans_json(out, recorder, meta);
  doc += '\n';
  return doc;
}

}  // namespace asa_repro::obs
