#include "obs/span.hpp"

#include <charconv>
#include <cstring>

namespace asa_repro::obs {

std::uint64_t SpanRecorder::open(std::string_view name, std::uint64_t parent,
                                 std::uint32_t node, std::uint64_t guid,
                                 std::uint64_t request_id,
                                 std::uint64_t update_id,
                                 std::uint64_t start) {
  SpanRecord& span = append();
  span.id = size_;
  span.parent = parent;
  span.name = name;
  span.node = node;
  span.guid = guid;
  span.request_id = request_id;
  span.update_id = update_id;
  span.start = start;
  span.end = start;
  return span.id;
}

void SpanRecorder::close(std::uint64_t id, std::uint64_t end, bool ok,
                         SpanDetail detail, std::uint32_t arg0,
                         std::uint32_t arg1) {
  if (id == 0 || id > size_) return;
  SpanRecord& span = at(id);
  if (span.closed) return;
  span.end = end;
  span.ok = ok;
  span.closed = true;
  span.detail = detail;
  span.detail_args = {arg0, arg1};
}

std::uint64_t SpanRecorder::point(std::string_view name,
                                  std::uint64_t parent, std::uint32_t node,
                                  std::uint64_t guid,
                                  std::uint64_t request_id,
                                  std::uint64_t update_id, std::uint64_t at,
                                  bool ok, SpanDetail detail) {
  const std::uint64_t id =
      open(name, parent, node, guid, request_id, update_id, at);
  close(id, at, ok, detail);
  return id;
}

bool SpanRecorder::is_open(std::uint64_t id) const {
  return id > 0 && id <= size_ && !(*this)[id - 1].closed;
}

SpanRecord& SpanRecorder::append() {
  if (size_ % kBlock == 0) {
    blocks_.push_back(std::make_unique<SpanRecord[]>(kBlock));
  }
  ++size_;
  return at(size_);
}

void SpanRecorder::merge(const SpanRecorder& other) {
  const std::uint64_t offset = size_;
  for (const SpanRecord& span : other) {
    SpanRecord& copy = append();
    copy = span;
    copy.id += offset;
    if (copy.parent != 0) copy.parent += offset;
  }
}

std::string_view span_detail_text(const SpanRecord& span,
                                  SpanDetailText& buf) {
  char* p = buf.data();
  char* const end = buf.data() + buf.size();
  const auto text = [&p](std::string_view s) {
    std::memcpy(p, s.data(), s.size());
    p += s.size();
  };
  const auto number = [&p, end](std::uint32_t n) {
    p = std::to_chars(p, end, n).ptr;
  };
  switch (span.detail) {
    case SpanDetail::kNone: break;
    case SpanDetail::kDecisive:
      text("decisive=");
      number(span.detail_args[0]);
      text(" attempts=");
      number(span.detail_args[1]);
      break;
    case SpanDetail::kFailed:
      text("failed attempts=");
      number(span.detail_args[0]);
      break;
    case SpanDetail::kRetry: text("retry"); break;
    case SpanDetail::kTimeout: text("timeout"); break;
    case SpanDetail::kVetoed: text("vetoed"); break;
    case SpanDetail::kAbort: text("abort"); break;
  }
  return {buf.data(), static_cast<std::size_t>(p - buf.data())};
}

void write_spans_json(JsonWriter& out, const SpanRecorder& recorder,
                      const Meta& meta) {
  out.begin_object().member("schema", "asa-span/1");
  write_meta(out, meta);
  out.key("spans").begin_array();
  char guid[20];  // The widest uint64_t.
  SpanDetailText detail;
  for (const SpanRecord& span : recorder) {
    const char* guid_end =
        std::to_chars(guid, guid + sizeof guid, span.guid).ptr;
    out.begin_object()
        .member("id", span.id)
        .member("parent", span.parent)
        .member("name", span.name)
        .member("node", std::uint64_t{span.node})
        .member("guid", std::string_view(
                            guid, static_cast<std::size_t>(guid_end - guid)))
        .member("request", span.request_id)
        .member("update", span.update_id)
        .member("start", span.start)
        .member("end", span.end)
        .member("ok", span.ok)
        .member("closed", span.closed)
        .member("detail", span_detail_text(span, detail))
        .end_object();
  }
  out.end_array().end_object();
}

std::string write_spans_json(const SpanRecorder& recorder, const Meta& meta) {
  // An indent-1 span object is about 250 bytes with simulation-sized
  // numbers; reserving past that leaves the tail untouched (and not
  // resident) instead of doubling the string near the end.
  constexpr std::size_t kBytesPerSpan = 320;
  std::string doc;
  doc.reserve(4096 + recorder.size() * kBytesPerSpan);
  JsonWriter out(doc, 1);
  write_spans_json(out, recorder, meta);
  doc += '\n';
  return doc;
}

}  // namespace asa_repro::obs
