#include "obs/span.hpp"

#include <utility>

namespace asa_repro::obs {

std::uint64_t SpanRecorder::open(const char* name, std::uint64_t parent,
                                 std::uint32_t node, const std::string& guid,
                                 std::uint64_t request_id,
                                 std::uint64_t update_id,
                                 std::uint64_t start) {
  SpanRecord span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = name;
  span.node = node;
  span.guid = guid;
  span.request_id = request_id;
  span.update_id = update_id;
  span.start = start;
  span.end = start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::close(std::uint64_t id, std::uint64_t end, bool ok,
                         std::string detail) {
  if (id == 0 || id > spans_.size()) return;
  SpanRecord& span = spans_[id - 1];
  if (span.closed) return;
  span.end = end;
  span.ok = ok;
  span.closed = true;
  span.detail = std::move(detail);
}

std::uint64_t SpanRecorder::point(const char* name, std::uint64_t parent,
                                  std::uint32_t node,
                                  const std::string& guid,
                                  std::uint64_t request_id,
                                  std::uint64_t update_id, std::uint64_t at,
                                  bool ok, std::string detail) {
  const std::uint64_t id =
      open(name, parent, node, guid, request_id, update_id, at);
  close(id, at, ok, std::move(detail));
  return id;
}

bool SpanRecorder::is_open(std::uint64_t id) const {
  return id > 0 && id <= spans_.size() && !spans_[id - 1].closed;
}

void SpanRecorder::merge(const SpanRecorder& other) {
  const std::uint64_t offset = spans_.size();
  for (SpanRecord span : other.spans_) {
    span.id += offset;
    if (span.parent != 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

void write_spans_json(JsonWriter& out, const SpanRecorder& recorder,
                      const Meta& meta) {
  out.begin_object().member("schema", "asa-span/1");
  write_meta(out, meta);
  out.key("spans").begin_array();
  for (const SpanRecord& span : recorder.spans()) {
    out.begin_object()
        .member("id", span.id)
        .member("parent", span.parent)
        .member("name", span.name)
        .member("node", std::uint64_t{span.node})
        .member("guid", span.guid)
        .member("request", span.request_id)
        .member("update", span.update_id)
        .member("start", span.start)
        .member("end", span.end)
        .member("ok", span.ok)
        .member("closed", span.closed)
        .member("detail", span.detail)
        .end_object();
  }
  out.end_array().end_object();
}

std::string write_spans_json(const SpanRecorder& recorder, const Meta& meta) {
  std::string doc;
  JsonWriter out(doc, 1);
  write_spans_json(out, recorder, meta);
  doc += '\n';
  return doc;
}

}  // namespace asa_repro::obs
