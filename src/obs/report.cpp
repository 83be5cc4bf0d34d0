#include "obs/report.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "obs/event.hpp"

namespace asa_repro::obs {

namespace {

std::string format_labels(const JsonValue& labels) {
  std::string out;
  for (const auto& [k, v] : labels.members()) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v.as_string();
  }
  return out.empty() ? out : "{" + out + "}";
}

/// Quantile upper-bound estimate from an exported bucket array.
std::uint64_t bucket_quantile(const JsonValue& entry, double q) {
  const auto count =
      static_cast<std::uint64_t>(entry.find("count")->as_int());
  if (count == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count) + 0.999999999);
  std::uint64_t cumulative = 0;
  for (const JsonValue& bucket : entry.find("buckets")->items()) {
    cumulative += static_cast<std::uint64_t>(bucket.find("count")->as_int());
    if (cumulative >= rank) {
      const JsonValue* le = bucket.find("le");
      if (le->is_string()) {
        return static_cast<std::uint64_t>(entry.find("max")->as_int());
      }
      return static_cast<std::uint64_t>(le->as_int());
    }
  }
  return static_cast<std::uint64_t>(entry.find("max")->as_int());
}

void render_meta(std::ostringstream& out, const JsonValue& doc) {
  for (const auto& [k, v] : doc.find("meta")->members()) {
    out << "  " << k << ": " << (v.is_string() ? v.as_string() : v.dump())
        << "\n";
  }
}

std::string us_to_string(std::uint64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", static_cast<double>(us) / 1000.0);
  return buf;
}

// ---- Rules: what a field list cannot say. They run after the shape walk
// passed, so every field they read is present and of its kind. ----

std::string indexed(const std::string& array, std::size_t i) {
  return array + "[" + std::to_string(i) + "]";
}

std::optional<std::string> metrics_rule(const JsonValue& doc) {
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const std::vector<JsonValue>& series = doc.find(section)->items();
    for (std::size_t i = 0; i < series.size(); ++i) {
      const std::string where = indexed(section, i);
      const std::string& name = series[i].find("name")->as_string();
      // The workload/churn report joins on these labels: without them
      // per-writer and per-class aggregates would silently collapse.
      const char* label = name.starts_with("workload.") ? "writer"
                          : name == "net.class_latency_us" ? "class"
                                                           : nullptr;
      if (label != nullptr &&
          series[i].find("labels")->find(label) == nullptr) {
        return where + ".labels: " + name + " without a " + label + " label";
      }
      if (std::string_view(section) != "histograms") continue;
      const std::vector<JsonValue>& buckets =
          series[i].find("buckets")->items();
      if (buckets.empty() || !buckets.back().find("le")->is_string()) {
        return where + ".buckets: " + name + " does not end with le:\"inf\"";
      }
      // Counts are non-negative, so stopping once the sum passes the total
      // also keeps it from wrapping.
      const auto count =
          static_cast<std::uint64_t>(series[i].find("count")->as_int());
      std::uint64_t total = 0;
      for (std::size_t b = 0; b < buckets.size() && total <= count; ++b) {
        total += static_cast<std::uint64_t>(buckets[b].find("count")->as_int());
      }
      if (total != count) {
        return where + ".buckets: " + name + " counts do not sum to count";
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> findings_rule(const JsonValue& doc) {
  const std::size_t listed = doc.find("findings")->items().size();
  if (doc.find("summary")->find("findings")->as_int() !=
      static_cast<std::int64_t>(listed)) {
    return "summary.findings: does not match the findings array";
  }
  // The label keeps wall-clock timings out of byte-identity comparisons.
  const JsonValue* timings = doc.find("timings");
  const std::size_t n = timings == nullptr ? 0 : timings->items().size();
  for (std::size_t i = 0; i < n; ++i) {
    if (timings->items()[i].find("clock")->as_string() != "wall") {
      return indexed("timings", i) + ".clock: must be \"wall\"";
    }
  }
  return std::nullopt;
}

std::optional<std::string> spans_rule(const JsonValue& doc) {
  const std::vector<JsonValue>& spans = doc.find("spans")->items();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto field = [&](const char* key) {
      return static_cast<std::uint64_t>(spans[i].find(key)->as_int());
    };
    const char* problem =
        field("id") != i + 1          ? ".id: not contiguous from 1"
        : field("parent") > i         ? ".parent: does not precede the span"
        : field("end") < field("start") ? ".end: before the start"
                                        : nullptr;
    if (problem != nullptr) return indexed("spans", i) + problem;
  }
  return std::nullopt;
}

// ---- The schema table: one Shape per document and nested object. ----

using K = FieldKind;

constexpr FieldSpec kSeriesFields[] = {
    {"name", K::kString}, {"labels", K::kLabels}, {"value", K::kNumber}};
constexpr Shape kSeries{kSeriesFields};
constexpr FieldSpec kBucketFields[] = {{"le", K::kBound},
                                       {"count", K::kCount}};
constexpr Shape kBucket{kBucketFields};
constexpr FieldSpec kHistogramFields[] = {
    {"name", K::kString}, {"labels", K::kLabels}, {"count", K::kCount},
    {"sum", K::kCount},   {"min", K::kCount},     {"max", K::kCount},
    {"buckets", K::kArray, false, &kBucket}};
constexpr Shape kHistogram{kHistogramFields};
constexpr FieldSpec kMetricsFields[] = {
    {"meta", K::kObject},
    {"counters", K::kArray, false, &kSeries},
    {"gauges", K::kArray, false, &kSeries},
    {"histograms", K::kArray, false, &kHistogram}};
constexpr Shape kMetrics{kMetricsFields};

constexpr FieldSpec kSummaryFields[] = {{"checks_run", K::kCount},
                                        {"findings", K::kCount}};
constexpr Shape kSummary{kSummaryFields};
constexpr FieldSpec kFindingFields[] = {
    {"check", K::kString},      {"machine", K::kString},
    {"location", K::kString},   {"message", K::kString},
    {"trace", K::kStringArray}, {"schedule", K::kStringArray, true}};
constexpr Shape kFinding{kFindingFields};
constexpr FieldSpec kTimingFields[] = {
    {"group", K::kString}, {"ms", K::kNumber}, {"clock", K::kString}};
constexpr Shape kTiming{kTimingFields};
constexpr FieldSpec kFindingsFields[] = {
    {"meta", K::kObject},
    {"summary", K::kObject, false, &kSummary},
    {"findings", K::kArray, false, &kFinding},
    {"timings", K::kArray, true, &kTiming}};
constexpr Shape kFindings{kFindingsFields};

constexpr FieldSpec kSpanFields[] = {
    {"id", K::kCount},     {"parent", K::kCount}, {"name", K::kString},
    {"node", K::kCount},   {"guid", K::kString},  {"request", K::kCount},
    {"update", K::kCount}, {"start", K::kCount},  {"end", K::kCount},
    {"ok", K::kBool},      {"closed", K::kBool},  {"detail", K::kString}};
constexpr Shape kSpan{kSpanFields};
constexpr FieldSpec kSpansFields[] = {{"meta", K::kObject},
                                      {"spans", K::kArray, false, &kSpan}};
constexpr Shape kSpans{kSpansFields};

constexpr FieldSpec kViolationFields[] = {{"invariant", K::kString},
                                          {"detail", K::kString}};
constexpr Shape kViolation{kViolationFields};
constexpr FieldSpec kFlightEventFields[] = {
    {"t", K::kCount}, {"seq", K::kCount}, {"cat", K::kString},
    {"detail", K::kString}};
constexpr Shape kFlightEvent{kFlightEventFields};
constexpr FieldSpec kPostmortemFields[] = {
    {"meta", K::kObject},
    {"violations", K::kArray, false, &kViolation},
    {"plan", K::kStringArray},
    {"shrunk_plan", K::kStringArray},
    {"flight", K::kLanes, false, &kFlightEvent},
    {"metrics", K::kDocument, false, nullptr, "asa-metrics/1"},
    {"spans", K::kDocument, false, nullptr, "asa-span/1"}};
constexpr Shape kPostmortem{kPostmortemFields};

constexpr FieldSpec kTraceHeaderFields[] = {{"tool", K::kString, true}};
constexpr Shape kTraceHeader{kTraceHeaderFields};
constexpr FieldSpec kTraceEventFields[] = {
    {"t", K::kCount}, {"node", K::kCount}, {"cat", K::kString},
    {"detail", K::kString}};
constexpr Shape kTraceEvent{kTraceEventFields};

// Every document leads with the member that selects its row.
constexpr FieldSpec kDocumentFields[] = {{"schema", K::kString}};
constexpr Shape kDocument{kDocumentFields};

constexpr DocumentSchema kSchemas[] = {
    {"asa-metrics/1", &kMetrics, nullptr, metrics_rule},
    {"asa-findings/1", &kFindings, nullptr, findings_rule},
    {"asa-span/1", &kSpans, nullptr, spans_rule},
    {"asa-postmortem/1", &kPostmortem, nullptr, nullptr},
    {"asa-trace/1", &kTraceHeader, &kTraceEvent, nullptr}};

// ---- The walker. Every message starts with the path of the field. ----

std::string at(const std::string& path, const std::string& field) {
  return path.empty() ? field : path + "." + field;
}

/// nullptr when `v` is of `kind`, else what the kind expects.
const char* mismatch(const JsonValue& v, FieldKind kind) {
  switch (kind) {
    case K::kString: return v.is_string() ? nullptr : "a string";
    case K::kNumber: return v.is_number() ? nullptr : "a number";
    case K::kCount:
      return v.kind() == JsonValue::Kind::kInt && v.as_int() >= 0
                 ? nullptr
                 : "a non-negative integer";
    case K::kBool:
      return v.kind() == JsonValue::Kind::kBool ? nullptr : "true or false";
    case K::kBound:
      return v.is_number() || (v.is_string() && v.as_string() == "inf")
                 ? nullptr
                 : "a number or \"inf\"";
    case K::kStringArray:
    case K::kArray: return v.is_array() ? nullptr : "an array";
    default: return v.is_object() ? nullptr : "an object";
  }
}

std::optional<std::string> check_field(const JsonValue& v,
                                       const FieldSpec& field,
                                       const std::string& path);

std::optional<std::string> check_shape(const JsonValue& value,
                                       const Shape& shape,
                                       const std::string& path) {
  if (!value.is_object()) return "expected a JSON object";
  for (const FieldSpec& field : shape.fields) {
    const JsonValue* v = value.find(field.name);
    if (v == nullptr && !field.optional) {
      return at(path, field.name) + ": missing";
    }
    if (v == nullptr) continue;
    if (auto err = check_field(*v, field, at(path, field.name))) return err;
  }
  return std::nullopt;
}

/// `expected` is the row an embedded document or a stream header must
/// match; nullptr accepts any document row.
std::optional<std::string> check_document(const JsonValue& doc,
                                          const DocumentSchema* expected,
                                          const std::string& path) {
  if (auto err = check_shape(doc, kDocument, path)) return err;
  const std::string& name = doc.find("schema")->as_string();
  const DocumentSchema* row = find_schema(name);
  if (expected != nullptr && row != expected) {
    return at(path, "schema") + ": expected " + expected->name + ", got " +
           name;
  }
  // A JSONL stream's header line is not a document on its own.
  if (row == nullptr || (expected == nullptr && row->lines != nullptr)) {
    return at(path, "schema") + ": unknown schema " + name;
  }
  if (auto err = check_shape(doc, *row->shape, path)) return err;
  std::optional<std::string> err =
      row->rule != nullptr ? row->rule(doc) : std::nullopt;
  return err.has_value() ? at(path, *err) : err;
}

std::optional<std::string> check_field(const JsonValue& v,
                                       const FieldSpec& field,
                                       const std::string& path) {
  if (const char* expected = mismatch(v, field.kind)) {
    return path + ": expected " + expected;
  }
  // Containers check each member or item as an element field: labels and
  // string arrays hold strings, arrays hold shapes, lanes hold arrays.
  const FieldSpec element{field.name,
                          field.kind == K::kLanes ? K::kArray
                          : field.shape != nullptr ? K::kObject
                                                   : K::kString,
                          false, field.shape};
  switch (field.kind) {
    case K::kObject:
      if (field.shape == nullptr) return std::nullopt;
      return check_shape(v, *field.shape, path);
    case K::kDocument:
      return check_document(v, find_schema(field.document), path);
    case K::kLabels:
    case K::kLanes:
      for (const auto& [key, member] : v.members()) {
        if (auto err = check_field(member, element, at(path, key))) return err;
      }
      return std::nullopt;
    case K::kStringArray:
    case K::kArray:
      for (std::size_t i = 0; i < v.items().size(); ++i) {
        if (auto err = check_field(v.items()[i], element, indexed(path, i))) {
          return err;
        }
      }
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

}  // namespace

const DocumentSchema* find_schema(std::string_view name) {
  for (const DocumentSchema& row : kSchemas) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

std::optional<std::string> validate_document_json(const JsonValue& root) {
  return check_document(root, nullptr, "");
}

std::optional<std::vector<TraceEvent>> parse_trace_jsonl(
    const std::string& text, std::string* error) {
  const DocumentSchema& trace = *find_schema("asa-trace/1");
  std::vector<TraceEvent> events;
  std::istringstream lines(text);
  std::string line;
  for (std::size_t n = 1; std::getline(lines, line); ++n) {
    if (line.empty()) continue;
    const std::optional<JsonValue> value = parse_json(line);
    const bool header = value.has_value() && value->is_object() &&
                        value->find("schema") != nullptr;
    const std::optional<std::string> problem =
        !value.has_value() ? std::optional<std::string>("not valid JSON")
        : header           ? check_document(*value, &trace, "")
                           : check_shape(*value, *trace.lines, "");
    if (problem.has_value()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(n) + ": " + *problem;
      }
      return std::nullopt;
    }
    if (header) continue;
    events.push_back({static_cast<std::uint64_t>(value->find("t")->as_int()),
                      static_cast<std::uint32_t>(value->find("node")->as_int()),
                      value->find("cat")->as_string(),
                      value->find("detail")->as_string()});
  }
  return events;
}

std::string render_findings(const JsonValue& root) {
  std::ostringstream out;
  out << "=== fsmcheck findings ===\n";
  render_meta(out, root);
  const JsonValue* summary = root.find("summary");
  out << "  checks run: " << summary->find("checks_run")->as_int()
      << ", findings: " << summary->find("findings")->as_int() << "\n";
  const JsonValue* findings = root.find("findings");
  if (findings->items().empty()) {
    out << "\nno findings: all checks passed\n";
    return out.str();
  }
  out << "\n";
  for (const JsonValue& f : findings->items()) {
    out << f.find("check")->as_string() << " ["
        << f.find("machine")->as_string() << "] "
        << f.find("location")->as_string() << ": "
        << f.find("message")->as_string() << "\n";
    const JsonValue* trace = f.find("trace");
    if (!trace->items().empty()) {
      out << "    trace:";
      for (const JsonValue& m : trace->items()) {
        out << " " << m.as_string();
      }
      out << "\n";
    }
  }
  return out.str();
}

std::optional<std::uint64_t> detail_field(const std::string& detail,
                                          const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = 0;
  while ((pos = detail.find(needle, pos)) != std::string::npos) {
    // Must start a token (beginning of string or after a space).
    if (pos == 0 || detail[pos - 1] == ' ') {
      const std::size_t value_start = pos + needle.size();
      std::size_t value_end = value_start;
      while (value_end < detail.size() &&
             std::isdigit(static_cast<unsigned char>(detail[value_end]))) {
        ++value_end;
      }
      if (value_end == value_start) return std::nullopt;
      try {
        return std::stoull(detail.substr(value_start, value_end - value_start));
      } catch (const std::exception&) {
        return std::nullopt;
      }
    }
    pos += needle.size();
  }
  return std::nullopt;
}

namespace {

/// One span as read back from an asa-span/1 document: the text fields
/// stay text (the recorder keeps them typed, as span events).
struct ParsedSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::uint32_t node = 0;
  std::string guid;
  std::uint64_t request_id = 0;
  std::uint64_t update_id = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  bool ok = false;
  bool closed = false;
  std::string detail;
};

std::vector<ParsedSpan> read_spans(const JsonValue& spans_doc) {
  std::vector<ParsedSpan> out;
  for (const JsonValue& s : spans_doc.find("spans")->items()) {
    const auto count = [&s](const char* key) {
      return static_cast<std::uint64_t>(s.find(key)->as_int());
    };
    out.push_back({count("id"), count("parent"), s.find("name")->as_string(),
                   static_cast<std::uint32_t>(count("node")),
                   s.find("guid")->as_string(), count("request"),
                   count("update"), count("start"), count("end"),
                   s.find("ok")->as_bool(), s.find("closed")->as_bool(),
                   s.find("detail")->as_string()});
  }
  return out;
}

std::uint64_t sub_clamped(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

/// Exact quantile of a sample vector (sorted in place): the smallest
/// element whose rank covers q.
std::uint64_t sample_quantile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size()) + 0.999999999);
  return v[rank == 0 ? 0 : rank - 1];
}

}  // namespace

std::string render_critical_path(const JsonValue& spans_doc) {
  const std::vector<ParsedSpan> spans = read_spans(spans_doc);

  // One decomposed commit: every duration in microseconds, phases clamped
  // individually; `attributed` capped at `total`.
  struct Decomposed {
    std::string guid;
    std::uint64_t request = 0;
    std::uint64_t total = 0;
    std::uint64_t phases[6] = {0, 0, 0, 0, 0, 0};
    std::uint64_t attributed = 0;
    bool joined = false;  // Decisive peer spans were found.
  };
  static const char* kPhases[6] = {"submit",       "retry", "route",
                                   "vote-collect", "quorum", "ack"};

  // One pass indexes what each root needs, in document (= id) order: a
  // root's first attempt and its last closed ok attempt (the decisive
  // one), and per (update id, node) the last closed vote-collect and
  // quorum span plus the number of closed journal-append points.
  struct Attempts {
    const ParsedSpan* first = nullptr;
    const ParsedSpan* decisive = nullptr;
  };
  struct PeerSpans {
    const ParsedSpan* vote = nullptr;
    const ParsedSpan* quorum = nullptr;
    std::size_t journal_appends = 0;
  };
  std::map<std::uint64_t, Attempts> attempts;  // By root id.
  std::map<std::pair<std::uint64_t, std::uint64_t>, PeerSpans> peer_spans;
  for (const ParsedSpan& s : spans) {
    if (s.name == "attempt") {
      Attempts& a = attempts[s.parent];
      if (a.first == nullptr) a.first = &s;
      if (s.closed && s.ok) a.decisive = &s;
    } else if (s.closed && (s.name == "vote-collect" || s.name == "quorum" ||
                            s.name == "journal-append")) {
      PeerSpans& p = peer_spans[{s.update_id, s.node}];
      if (s.name == "vote-collect") p.vote = &s;
      if (s.name == "quorum") p.quorum = &s;
      if (s.name == "journal-append") ++p.journal_appends;
    }
  }

  std::vector<Decomposed> commits;
  std::size_t open_roots = 0;
  std::size_t journal_appends = 0;
  for (const ParsedSpan& root : spans) {
    if (root.name != "commit") continue;
    if (!root.closed || !root.ok) {
      ++open_roots;
      continue;
    }
    const auto found = attempts.find(root.id);
    if (found == attempts.end() || found->second.decisive == nullptr) continue;
    const ParsedSpan* first_attempt = found->second.first;
    const ParsedSpan* decisive = found->second.decisive;

    Decomposed d;
    d.guid = root.guid;
    d.request = root.request_id;
    d.total = sub_clamped(root.end, root.start);
    d.phases[0] = sub_clamped(first_attempt->start, root.start);  // submit
    d.phases[1] = sub_clamped(decisive->start, first_attempt->start);

    // Decisive replica: the sender of the quorum-completing confirmation,
    // recorded by the endpoint in the root span's detail.
    const std::optional<std::uint64_t> decisive_node =
        detail_field(root.detail, "decisive");
    const ParsedSpan* vote = nullptr;
    const ParsedSpan* quorum = nullptr;
    if (decisive_node.has_value()) {
      const auto peer =
          peer_spans.find({decisive->update_id, *decisive_node});
      if (peer != peer_spans.end()) {
        vote = peer->second.vote;
        quorum = peer->second.quorum;
        journal_appends += peer->second.journal_appends;
      }
    }
    if (vote != nullptr && quorum != nullptr) {
      d.joined = true;
      d.phases[2] = sub_clamped(vote->start, decisive->start);  // route
      d.phases[3] = sub_clamped(vote->end, vote->start);
      d.phases[4] = sub_clamped(quorum->end, quorum->start);
      d.phases[5] = sub_clamped(root.end, quorum->end);  // ack
    }
    std::uint64_t sum = 0;
    for (const std::uint64_t p : d.phases) sum += p;
    d.attributed = std::min(sum, d.total);
    commits.push_back(std::move(d));
  }

  std::ostringstream out;
  char line[256];
  out << "=== commit critical path ===\n";
  std::size_t joined = 0;
  for (const Decomposed& d : commits) joined += d.joined ? 1 : 0;
  out << "  committed roots: " << commits.size() << " (decisive join: "
      << joined << ", journal points: " << journal_appends
      << ", unfinished/failed roots: " << open_roots << ")\n";
  if (commits.empty()) return out.str();

  // Per-phase distribution across all committed updates.
  out << "\n";
  std::snprintf(line, sizeof line, "  %-14s %10s %10s %10s\n", "phase",
                "p50(ms)", "p99(ms)", "max(ms)");
  out << line;
  for (std::size_t p = 0; p < 6; ++p) {
    std::vector<std::uint64_t> samples;
    samples.reserve(commits.size());
    std::uint64_t max = 0;
    for (const Decomposed& d : commits) {
      samples.push_back(d.phases[p]);
      max = std::max(max, d.phases[p]);
    }
    std::snprintf(line, sizeof line, "  %-14s %10s %10s %10s\n", kPhases[p],
                  us_to_string(sample_quantile(samples, 0.50)).c_str(),
                  us_to_string(sample_quantile(samples, 0.99)).c_str(),
                  us_to_string(max).c_str());
    out << line;
  }
  {
    std::vector<std::uint64_t> totals;
    totals.reserve(commits.size());
    for (const Decomposed& d : commits) totals.push_back(d.total);
    std::snprintf(line, sizeof line, "  %-14s %10s %10s %10s\n", "total",
                  us_to_string(sample_quantile(totals, 0.50)).c_str(),
                  us_to_string(sample_quantile(totals, 0.99)).c_str(),
                  us_to_string(*std::max_element(totals.begin(),
                                                 totals.end()))
                      .c_str());
    out << line;
  }

  // The p99 commit, decomposed: which phase owns the tail latency.
  std::vector<Decomposed> by_total = commits;
  std::stable_sort(by_total.begin(), by_total.end(),
                   [](const Decomposed& a, const Decomposed& b) {
                     return a.total < b.total;
                   });
  const auto rank = static_cast<std::size_t>(
      0.99 * static_cast<double>(by_total.size()) + 0.999999999);
  const Decomposed& p99 = by_total[rank == 0 ? 0 : rank - 1];
  const double share =
      p99.total == 0 ? 100.0
                     : 100.0 * static_cast<double>(p99.attributed) /
                           static_cast<double>(p99.total);
  out << "\n=== p99 commit ===\n"
      << "  guid=" << p99.guid << " request=" << p99.request << " total="
      << us_to_string(p99.total) << "ms\n";
  for (std::size_t p = 0; p < 6; ++p) {
    if (p99.phases[p] == 0) continue;
    out << "    " << kPhases[p] << ": " << us_to_string(p99.phases[p])
        << "ms\n";
  }
  std::snprintf(line, sizeof line,
                "  attributed to named phases: %.1f%% "
                "(unattributed: %sms)\n",
                share,
                us_to_string(sub_clamped(p99.total, p99.attributed)).c_str());
  out << line;
  return out.str();
}

std::string render_postmortem(const JsonValue& root) {
  std::ostringstream out;
  out << "=== post-mortem bundle ===\n";
  render_meta(out, root);

  const JsonValue* violations = root.find("violations");
  out << "\n=== violations (" << violations->items().size() << ") ===\n";
  for (const JsonValue& v : violations->items()) {
    out << "  " << v.find("invariant")->as_string() << ": "
        << v.find("detail")->as_string() << "\n";
  }

  const JsonValue* plan = root.find("plan");
  const JsonValue* shrunk = root.find("shrunk_plan");
  out << "\n=== fault plan: " << plan->items().size()
      << " events, shrunk to " << shrunk->items().size() << " ===\n";
  for (const JsonValue& line : shrunk->items()) {
    out << "  " << line.as_string() << "\n";
  }

  const JsonValue* flight = root.find("flight");
  out << "\n=== flight-recorder tails ===\n";
  constexpr std::size_t kTail = 5;
  for (const auto& [lane, events] : flight->members()) {
    out << "  lane " << lane << " (" << events.items().size()
        << " events):\n";
    const std::size_t n = events.items().size();
    for (std::size_t i = n > kTail ? n - kTail : 0; i < n; ++i) {
      const JsonValue& e = events.items()[i];
      out << "    t=" << e.find("t")->as_int() << " "
          << e.find("cat")->as_string() << " "
          << e.find("detail")->as_string() << "\n";
    }
  }

  const JsonValue* spans = root.find("spans");
  const JsonValue* metrics = root.find("metrics");
  out << "\n=== embedded documents ===\n"
      << "  spans: " << spans->find("spans")->items().size() << " records\n"
      << "  metrics: " << metrics->find("counters")->items().size()
      << " counters\n";
  return out.str();
}

BenchCompareResult compare_bench_metrics(const JsonValue& baseline,
                                         const JsonValue& current,
                                         double tolerance) {
  // impl -> (wall_ns, messages), from the exec.* series the throughput
  // harness exports.
  const auto extract = [](const JsonValue& doc) {
    std::map<std::string, std::pair<double, double>> per_impl;
    const auto scan = [&](const char* section, const char* name,
                          bool first) {
      const JsonValue* arr = doc.find(section);
      if (arr == nullptr || !arr->is_array()) return;
      for (const JsonValue& entry : arr->items()) {
        if (entry.find("name")->as_string() != name) continue;
        const JsonValue* impl = entry.find("labels")->find("impl");
        if (impl == nullptr || !impl->is_string()) continue;
        auto& slot = per_impl[impl->as_string()];
        (first ? slot.first : slot.second) =
            entry.find("value")->as_double();
      }
    };
    scan("gauges", "exec.wall_ns", true);
    scan("counters", "exec.messages", false);
    return per_impl;
  };
  const auto base = extract(baseline);
  const auto cur = extract(current);

  BenchCompareResult result;
  std::ostringstream out;
  char line[256];
  out << "=== bench trend: ns/msg vs baseline (tolerance +/-"
      << static_cast<int>(tolerance * 100.0) << "%) ===\n";
  std::snprintf(line, sizeof line, "  %-22s %12s %12s %8s  %s\n", "impl",
                "base", "current", "ratio", "verdict");
  out << line;
  for (const auto& [impl, b] : base) {
    const auto it = cur.find(impl);
    if (it == cur.end()) {
      std::snprintf(line, sizeof line, "  %-22s %12s %12s %8s  %s\n",
                    impl.c_str(), "-", "-", "-", "MISSING");
      out << line;
      result.ok = false;
      continue;
    }
    if (b.second <= 0.0 || it->second.second <= 0.0) {
      std::snprintf(line, sizeof line, "  %-22s %12s %12s %8s  %s\n",
                    impl.c_str(), "-", "-", "-", "NO-MESSAGES");
      out << line;
      result.ok = false;
      continue;
    }
    const double base_ns = b.first / b.second;
    const double cur_ns = it->second.first / it->second.second;
    const double ratio = cur_ns / base_ns;
    const bool within =
        ratio >= 1.0 - tolerance && ratio <= 1.0 + tolerance;
    std::snprintf(line, sizeof line, "  %-22s %12.3f %12.3f %8.3f  %s\n",
                  impl.c_str(), base_ns, cur_ns, ratio,
                  within ? "ok" : "FAIL");
    out << line;
    if (!within) result.ok = false;
  }
  for (const auto& [impl, c] : cur) {
    if (base.find(impl) == base.end()) {
      out << "  " << impl << ": not in baseline (informational)\n";
    }
  }
  out << (result.ok ? "bench trend: within tolerance\n"
                    : "bench trend: GATE FAILED\n");
  result.report = out.str();
  return result;
}

std::string render_report(const JsonValue& metrics,
                          const std::vector<TraceEvent>& trace,
                          const ReportOptions& options) {
  std::ostringstream out;
  char line[256];

  out << "=== run report ===\n";
  render_meta(out, metrics);

  // Aggregation integrity: MetricsRegistry::merge counts every histogram
  // series it had to skip over mismatched bucket bounds. Data was lost —
  // say so up front instead of rendering a silently incomplete report.
  for (const JsonValue& c : metrics.find("counters")->items()) {
    const std::int64_t conflicts = c.find("value")->as_int();
    if (c.find("name")->as_string() == "metrics.merge_conflicts" &&
        conflicts > 0) {
      out << "  WARNING: " << conflicts
          << " histogram series skipped during merge"
          << " (mismatched bucket bounds) - aggregates are incomplete\n";
    }
  }

  // ---- Histogram percentile table (times in ms, counts verbatim). ----
  const JsonValue* histograms = metrics.find("histograms");
  if (!histograms->items().empty()) {
    out << "\n=== latency / distribution percentiles ===\n";
    std::snprintf(line, sizeof line, "%-44s %8s %10s %10s %10s %10s\n",
                  "series", "count", "p50", "p90", "p99", "max");
    out << line;
    for (const JsonValue& h : histograms->items()) {
      const std::string name =
          h.find("name")->as_string() + format_labels(*h.find("labels"));
      const auto count =
          static_cast<std::uint64_t>(h.find("count")->as_int());
      const bool time_like =
          h.find("name")->as_string().find("hops") == std::string::npos &&
          h.find("name")->as_string().find("attempts") == std::string::npos;
      const auto render = [&](std::uint64_t v) -> std::string {
        return time_like ? us_to_string(v) + "ms" : std::to_string(v);
      };
      std::snprintf(line, sizeof line, "%-44s %8llu %10s %10s %10s %10s\n",
                    name.c_str(), static_cast<unsigned long long>(count),
                    render(bucket_quantile(h, 0.50)).c_str(),
                    render(bucket_quantile(h, 0.90)).c_str(),
                    render(bucket_quantile(h, 0.99)).c_str(),
                    render(static_cast<std::uint64_t>(
                               h.find("max")->as_int()))
                        .c_str());
      out << line;
    }
  }

  // ---- Per-node breakdown from node-labelled gauges. ----
  const JsonValue* gauges = metrics.find("gauges");
  // node -> metric name -> value.
  std::map<std::uint64_t, std::map<std::string, std::int64_t>> per_node;
  std::set<std::string> metric_names;
  for (const JsonValue& g : gauges->items()) {
    const JsonValue* labels = g.find("labels");
    const JsonValue* node = labels->find("node");
    if (node == nullptr || !node->is_string()) continue;
    try {
      const std::uint64_t n = std::stoull(node->as_string());
      const std::string& name = g.find("name")->as_string();
      per_node[n][name] = g.find("value")->as_int();
      metric_names.insert(name);
    } catch (const std::exception&) {
      continue;
    }
  }
  if (!per_node.empty()) {
    out << "\n=== per-node breakdown ===\n";
    std::string header = "node";
    header.resize(6, ' ');
    // Strip the common "peer." prefix; column width adapts to the name.
    std::vector<std::string> columns(metric_names.begin(),
                                     metric_names.end());
    std::vector<int> widths;
    for (const std::string& name : columns) {
      std::string short_name = name;
      if (const std::size_t dot = short_name.rfind('.');
          dot != std::string::npos) {
        short_name = short_name.substr(dot + 1);
      }
      const int width =
          std::max<int>(14, static_cast<int>(short_name.size()) + 2);
      widths.push_back(width);
      std::snprintf(line, sizeof line, "%*s", width, short_name.c_str());
      header += line;
    }
    out << header << "\n";
    for (const auto& [node, values] : per_node) {
      std::string row = std::to_string(node);
      row.resize(6, ' ');
      for (std::size_t c = 0; c < columns.size(); ++c) {
        const auto it = values.find(columns[c]);
        std::snprintf(line, sizeof line, "%*lld", widths[c],
                      static_cast<long long>(
                          it == values.end() ? 0 : it->second));
        row += line;
      }
      out << row << "\n";
    }
  }

  // ---- Workload / churn summary. ----
  // Joins contention-workload counters (per-writer), churn counters and
  // gauges, and per-class WAN latency histograms into one section. Rates
  // use the sim.now_us gauge (simulated wall clock at export) as the
  // denominator. Gauge merge keeps the last run's value, so in a
  // multi-seed document the denominator is one run's duration and the
  // rate reads as campaign-wide commits per simulated second (counters
  // sum across seeds; every seed runs the same horizon).
  {
    const JsonValue* counters = metrics.find("counters");
    double now_us = 0.0;
    std::int64_t ring_size = -1;
    std::int64_t epoch = -1;
    for (const JsonValue& g : gauges->items()) {
      const std::string& name = g.find("name")->as_string();
      if (!g.find("labels")->members().empty()) continue;
      if (name == "sim.now_us") now_us = g.find("value")->as_double();
      if (name == "churn.ring_size") ring_size = g.find("value")->as_int();
      if (name == "churn.epoch") epoch = g.find("value")->as_int();
    }
    // writer -> (commits, reads).
    std::map<std::string, std::pair<double, double>> per_writer;
    std::map<std::string, double> churn_counts;
    for (const JsonValue& c : counters->items()) {
      const std::string& name = c.find("name")->as_string();
      if (name == "workload.commits" || name == "workload.reads") {
        const JsonValue* writer = c.find("labels")->find("writer");
        auto& slot = per_writer[writer->as_string()];
        (name == "workload.commits" ? slot.first : slot.second) +=
            c.find("value")->as_double();
      }
      if (name == "churn.joins" || name == "churn.leaves" ||
          name == "churn.departs") {
        churn_counts[name] += c.find("value")->as_double();
      }
    }
    if (!per_writer.empty() || !churn_counts.empty() || epoch > 0) {
      out << "\n=== workload / churn ===\n";
      if (!per_writer.empty()) {
        std::snprintf(line, sizeof line, "  %-10s %10s %10s %14s\n",
                      "writer", "commits", "reads", "commits/sec");
        out << line;
        double total_commits = 0.0, total_reads = 0.0;
        for (const auto& [writer, ops] : per_writer) {
          total_commits += ops.first;
          total_reads += ops.second;
          std::snprintf(
              line, sizeof line, "  %-10s %10.0f %10.0f %14.2f\n",
              writer.c_str(), ops.first, ops.second,
              now_us > 0.0 ? ops.first / (now_us / 1e6) : 0.0);
          out << line;
        }
        std::snprintf(
            line, sizeof line, "  %-10s %10.0f %10.0f %14.2f\n", "total",
            total_commits, total_reads,
            now_us > 0.0 ? total_commits / (now_us / 1e6) : 0.0);
        out << line;
      }
      if (!churn_counts.empty() || epoch > 0) {
        out << "  membership: epoch=" << epoch
            << " ring_size=" << ring_size;
        for (const char* name :
             {"churn.joins", "churn.leaves", "churn.departs"}) {
          const auto it = churn_counts.find(name);
          out << " " << (std::string(name).substr(6)) << "="
              << (it == churn_counts.end()
                      ? 0
                      : static_cast<std::int64_t>(it->second));
        }
        out << "\n";
      }
      for (const JsonValue& h : histograms->items()) {
        const std::string& name = h.find("name")->as_string();
        if (name == "churn.ring_size_samples") {
          out << "  ring size over time: min="
              << h.find("min")->as_int() << " p50="
              << bucket_quantile(h, 0.50) << " max="
              << h.find("max")->as_int() << " (" <<
              h.find("count")->as_int() << " samples)\n";
        }
        if (name == "net.class_latency_us") {
          const JsonValue* klass = h.find("labels")->find("class");
          std::snprintf(
              line, sizeof line,
              "  link class %-8s p50=%sms p99=%sms max=%sms "
              "(%llu deliveries)\n",
              klass->as_string().c_str(),
              us_to_string(bucket_quantile(h, 0.50)).c_str(),
              us_to_string(bucket_quantile(h, 0.99)).c_str(),
              us_to_string(
                  static_cast<std::uint64_t>(h.find("max")->as_int()))
                  .c_str(),
              static_cast<unsigned long long>(h.find("count")->as_int()));
          out << line;
        }
      }
    }
  }

  // ---- Top-k slowest commit instances from the causal trace. ----
  if (!trace.empty()) {
    struct SlowCommit {
      std::uint64_t latency;
      std::uint64_t time;
      std::uint32_t node;
      std::uint64_t guid;
      std::uint64_t update;
    };
    std::vector<SlowCommit> commits;
    std::uint64_t sends = 0, delivers = 0, drops = 0;
    const auto is = [](const TraceEvent& e, EventKind kind) {
      return e.category == category(View::kTrace, kind);
    };
    for (const TraceEvent& e : trace) {
      if (is(e, EventKind::kNetSend)) ++sends;
      if (is(e, EventKind::kNetDeliver)) ++delivers;
      if (is(e, EventKind::kNetDrop)) ++drops;
      if (!is(e, EventKind::kCommit)) continue;
      const auto latency = detail_field(e.detail, "latency");
      if (!latency.has_value()) continue;
      commits.push_back({*latency, e.time, e.node,
                         detail_field(e.detail, "guid").value_or(0),
                         detail_field(e.detail, "update").value_or(0)});
    }
    if (!commits.empty()) {
      std::stable_sort(commits.begin(), commits.end(),
                       [](const SlowCommit& a, const SlowCommit& b) {
                         return a.latency > b.latency;
                       });
      out << "\n=== top " << std::min(options.top_k, commits.size())
          << " slowest commit instances (of " << commits.size() << ") ===\n";
      std::snprintf(line, sizeof line, "%12s %8s %20s %10s %12s\n",
                    "latency(ms)", "node", "guid", "update", "at(ms)");
      out << line;
      for (std::size_t i = 0;
           i < commits.size() && i < options.top_k; ++i) {
        const SlowCommit& c = commits[i];
        std::snprintf(line, sizeof line, "%12s %8u %20llu %10llu %12s\n",
                      us_to_string(c.latency).c_str(), c.node,
                      static_cast<unsigned long long>(c.guid),
                      static_cast<unsigned long long>(c.update),
                      us_to_string(c.time).c_str());
        out << line;
      }
    }
    if (sends > 0) {
      out << "\n=== causal message trace ===\n"
          << "  " << sends << " sends, " << delivers << " deliveries, "
          << drops << " drops recorded\n";
    }
  }

  return out.str();
}

}  // namespace asa_repro::obs
