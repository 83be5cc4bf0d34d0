// Observability layer: metrics registry semantics, the JSON serialiser's
// pinned format, JSON schema round-trip
// and the field-drop sweep over the schema table, causal trace <->
// NetworkStats reconciliation, JSONL escaping, flight
// recorder rings, commit-path spans and critical-path attribution,
// post-mortem bundles, the bench trend gate, the end-to-end determinism
// contract (identical seed => byte-identical exports), and the network's
// per-message allocation budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "commit/endpoint.hpp"
#include "commit/machine_cache.hpp"
#include "commit/messages.hpp"
#include "commit/peer.hpp"
#include "schema_sweep.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "storage/chaos.hpp"
#include "storage/cluster.hpp"

// Global allocation counter backing the disabled-mode zero-allocation
// test and the network allocation budget (this test binary only; new[]
// forwards here by default).
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// The nothrow form too (std::stable_sort's temporary buffer uses it): its
// blocks are freed through the replaced operator delete below, so leaving
// it to the runtime would pair a sanitizer allocation with std::free.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}
// GCC pairs delete-expressions with the std::free inlined from these
// operators and flags a new/free mismatch; the replacement operator new
// above allocates with std::malloc, so the pairing is in fact matched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace asa_repro {
namespace {

// ---- MetricsRegistry semantics. ----

TEST(MetricsRegistry, CountersGaugesHistogramsBasics) {
  obs::MetricsRegistry reg;
  reg.counter("c").inc();
  reg.counter("c").inc(4);
  EXPECT_EQ(reg.counter("c").value(), 5u);

  reg.gauge("g").set(-3);
  reg.gauge("g").add(10);
  EXPECT_EQ(reg.gauge("g").value(), 7);

  auto& h = reg.histogram("h", {}, {10, 100});
  h.observe(5);
  h.observe(50);
  h.observe(500);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 555u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 500u);
  const std::vector<std::uint64_t> expected{1, 1, 1};
  EXPECT_EQ(h.bucket_counts(), expected);
  EXPECT_EQ(h.quantile(0.33), 10u);   // cdf(10) = 1/3 covers q = 0.33.
  EXPECT_EQ(h.quantile(0.66), 100u);  // cdf(100) = 2/3.
  EXPECT_EQ(h.quantile(1.0), 500u);   // Overflow bucket reports max().
}

TEST(MetricsRegistry, LabelOrderIsNormalised) {
  obs::MetricsRegistry reg;
  reg.counter("c", {{"a", "1"}, {"b", "2"}}).inc();
  reg.counter("c", {{"b", "2"}, {"a", "1"}}).inc();
  EXPECT_EQ(reg.counter("c", {{"a", "1"}, {"b", "2"}}).value(), 2u);
  EXPECT_EQ(reg.series_count(), 1u);
}

TEST(MetricsRegistry, DisabledRegistryExportsNothing) {
  obs::MetricsRegistry reg(false);
  reg.counter("c").inc(99);
  reg.gauge("g").set(7);
  reg.histogram("h").observe(1234);
  EXPECT_EQ(reg.series_count(), 0u);

  std::size_t visited = 0;
  reg.for_each_counter([&](const auto&, const auto&) { ++visited; });
  reg.for_each_gauge([&](const auto&, const auto&) { ++visited; });
  reg.for_each_histogram([&](const auto&, const auto&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(MetricsRegistry, MergeAddsCountersAndHistogramsAdoptsGauges) {
  obs::MetricsRegistry a;
  a.counter("c").inc(3);
  a.gauge("g").set(1);
  a.histogram("h", {}, {10}).observe(5);

  obs::MetricsRegistry b;
  b.counter("c").inc(4);
  b.counter("only_b").inc(1);
  b.gauge("g").set(9);
  b.histogram("h", {}, {10}).observe(50);
  // Mismatched bounds for the same series name must be skipped, not mixed.
  b.histogram("h2", {}, {1, 2}).observe(1);
  a.histogram("h2", {}, {1000}).observe(1);

  a.merge(b);
  EXPECT_EQ(a.counter("c").value(), 7u);
  EXPECT_EQ(a.counter("only_b").value(), 1u);
  EXPECT_EQ(a.gauge("g").value(), 9);
  EXPECT_EQ(a.histogram("h", {}, {10}).count(), 2u);
  EXPECT_EQ(a.histogram("h", {}, {10}).sum(), 55u);
  EXPECT_EQ(a.histogram("h2", {}, {1000}).count(), 1u);
}

// ---- asa-metrics/1 JSON: write, parse back, validate. ----

// The serialiser's format, pinned to what JsonValue::dump wrote when it
// formatted the tree itself: empty containers, three levels of nesting,
// every escape, the int64 extremes and shortest-form doubles.
std::vector<obs::JsonValue> serialiser_trees() {
  using obs::JsonValue;
  std::vector<JsonValue> trees;
  trees.push_back(JsonValue::object());
  trees.push_back(JsonValue::array());

  JsonValue root = JsonValue::object();
  root.set("text", JsonValue(std::string("q\"b\\s\nl\x01-\x1f.\t\r\b\f")));
  root.set("k\"ey\n", JsonValue("plain"));
  JsonValue ints = JsonValue::array();
  ints.push_back(JsonValue(std::numeric_limits<std::int64_t>::min()));
  ints.push_back(JsonValue(std::numeric_limits<std::int64_t>::max()));
  ints.push_back(JsonValue(std::int64_t{0}));
  ints.push_back(JsonValue(std::int64_t{-1}));
  root.set("ints", std::move(ints));
  JsonValue doubles = JsonValue::array();
  for (const double d : {0.5, -2.25, 1e300, 3.0, 0.1}) {
    doubles.push_back(JsonValue(d));
  }
  root.set("doubles", std::move(doubles));
  JsonValue leaf = JsonValue::object();
  leaf.set("null", JsonValue());
  leaf.set("yes", JsonValue(true));
  leaf.set("no", JsonValue(false));
  JsonValue inner = JsonValue::array();
  inner.push_back(JsonValue::object());
  inner.push_back(JsonValue::array());
  inner.push_back(std::move(leaf));
  JsonValue mid = JsonValue::object();
  mid.set("b", std::move(inner));
  JsonValue nest = JsonValue::object();
  nest.set("a", std::move(mid));
  root.set("nest", std::move(nest));
  root.set("empty", JsonValue::object());
  trees.push_back(std::move(root));
  return trees;
}

constexpr const char* kSerialised[] = {
    // dump(-1)
    "{\"text\":\"q\\\"b\\\\s\\nl\\u0001-\\u001f.\\t\\r\\b\\f\","
    "\"k\\\"ey\\n\":\"plain\",\"ints\":[-9223372036854775808,"
    "9223372036854775807,0,-1],\"doubles\":[0.5,"
    "-2.25,1e+300,3,0.1],\"nest\":{\"a\":{\"b\":[{},"
    "[],{\"null\":null,\"yes\":true,\"no\":false}]}},"
    "\"empty\":{}}",
    // dump(0)
    "{\n"
    "\"text\": \"q\\\"b\\\\s\\nl\\u0001-\\u001f.\\t\\r\\b\\f\",\n"
    "\"k\\\"ey\\n\": \"plain\",\n"
    "\"ints\": [\n"
    "-9223372036854775808,\n"
    "9223372036854775807,\n"
    "0,\n"
    "-1\n"
    "],\n"
    "\"doubles\": [\n"
    "0.5,\n"
    "-2.25,\n"
    "1e+300,\n"
    "3,\n"
    "0.1\n"
    "],\n"
    "\"nest\": {\n"
    "\"a\": {\n"
    "\"b\": [\n"
    "{},\n"
    "[],\n"
    "{\n"
    "\"null\": null,\n"
    "\"yes\": true,\n"
    "\"no\": false\n"
    "}\n"
    "]\n"
    "}\n"
    "},\n"
    "\"empty\": {}\n"
    "}",
    // dump(1)
    "{\n"
    " \"text\": \"q\\\"b\\\\s\\nl\\u0001-\\u001f.\\t\\r\\b\\f\",\n"
    " \"k\\\"ey\\n\": \"plain\",\n"
    " \"ints\": [\n"
    "  -9223372036854775808,\n"
    "  9223372036854775807,\n"
    "  0,\n"
    "  -1\n"
    " ],\n"
    " \"doubles\": [\n"
    "  0.5,\n"
    "  -2.25,\n"
    "  1e+300,\n"
    "  3,\n"
    "  0.1\n"
    " ],\n"
    " \"nest\": {\n"
    "  \"a\": {\n"
    "   \"b\": [\n"
    "    {},\n"
    "    [],\n"
    "    {\n"
    "     \"null\": null,\n"
    "     \"yes\": true,\n"
    "     \"no\": false\n"
    "    }\n"
    "   ]\n"
    "  }\n"
    " },\n"
    " \"empty\": {}\n"
    "}",
    // dump(2)
    "{\n"
    "  \"text\": \"q\\\"b\\\\s\\nl\\u0001-\\u001f.\\t\\r\\b\\f\",\n"
    "  \"k\\\"ey\\n\": \"plain\",\n"
    "  \"ints\": [\n"
    "    -9223372036854775808,\n"
    "    9223372036854775807,\n"
    "    0,\n"
    "    -1\n"
    "  ],\n"
    "  \"doubles\": [\n"
    "    0.5,\n"
    "    -2.25,\n"
    "    1e+300,\n"
    "    3,\n"
    "    0.1\n"
    "  ],\n"
    "  \"nest\": {\n"
    "    \"a\": {\n"
    "      \"b\": [\n"
    "        {},\n"
    "        [],\n"
    "        {\n"
    "          \"null\": null,\n"
    "          \"yes\": true,\n"
    "          \"no\": false\n"
    "        }\n"
    "      ]\n"
    "    }\n"
    "  },\n"
    "  \"empty\": {}\n"
    "}",
};

TEST(JsonSerialiser, DumpMatchesPinnedTextAtEveryIndent) {
  const std::vector<obs::JsonValue> trees = serialiser_trees();
  const int indents[] = {-1, 0, 1, 2};
  for (std::size_t i = 0; i < std::size(indents); ++i) {
    const int indent = indents[i];
    SCOPED_TRACE("indent " + std::to_string(indent));
    EXPECT_EQ(trees[0].dump(indent), "{}");
    EXPECT_EQ(trees[1].dump(indent), "[]");
    const std::string text = trees[2].dump(indent);
    EXPECT_EQ(text, kSerialised[i]);
    for (const obs::JsonValue& tree : trees) {
      const std::string dumped = tree.dump(indent);
      const std::optional<obs::JsonValue> back = obs::parse_json(dumped);
      ASSERT_TRUE(back.has_value()) << dumped;
      EXPECT_EQ(back->dump(indent), dumped);
    }
  }
}

TEST(JsonSerialiser, WriterCallsRenderLikeTheTree) {
  const std::vector<obs::JsonValue> trees = serialiser_trees();
  for (const int indent : {-1, 0, 1, 2}) {
    SCOPED_TRACE("indent " + std::to_string(indent));
    std::string empty_object;
    obs::JsonWriter(empty_object, indent).begin_object().end_object();
    EXPECT_EQ(empty_object, trees[0].dump(indent));
    std::string empty_array;
    obs::JsonWriter(empty_array, indent).begin_array().end_array();
    EXPECT_EQ(empty_array, trees[1].dump(indent));

    std::string text;
    obs::JsonWriter out(text, indent);
    out.begin_object()
        .member("text", "q\"b\\s\nl\x01-\x1f.\t\r\b\f")
        .member("k\"ey\n", "plain");
    out.key("ints")
        .begin_array()
        .value(std::numeric_limits<std::int64_t>::min())
        .value(std::numeric_limits<std::int64_t>::max())
        .value(std::int64_t{0})
        .value(std::int64_t{-1})
        .end_array();
    out.key("doubles").begin_array();
    for (const double d : {0.5, -2.25, 1e300, 3.0, 0.1}) out.value(d);
    out.end_array();
    out.key("nest").begin_object().key("a").begin_object().key("b");
    out.begin_array().begin_object().end_object().begin_array().end_array();
    out.begin_object()
        .key("null")
        .null()
        .member("yes", true)
        .member("no", false)
        .end_object();
    out.end_array().end_object().end_object();
    out.key("empty").begin_object().end_object();
    out.end_object();
    EXPECT_EQ(text, trees[2].dump(indent));
  }
}

// ---- JsonWriter edge cases, pinned to the bytes of the string-append
// writer the buffered one replaced (sizes and FNV-1a of the same calls). ----

/// FNV-1a 64 of `bytes`: pins a long document without spelling it out.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

/// Keys and values longer than any internal chunk: 16 KiB with a control
/// character or quote every 1000 bytes, and 20 000 plain bytes.
std::string long_token_doc(int indent) {
  std::string big(16384, 'x');
  for (std::size_t i = 0; i < big.size(); i += 1000) {
    big[i] = (i / 1000) % 2 == 0 ? '\x07' : '"';
  }
  const std::string plain(20000, 'p');
  std::string text;
  obs::JsonWriter out(text, indent);
  out.begin_object().member(big, big).member("after", std::int64_t{1});
  out.member(plain, plain).end_object();
  return text;
}

/// Arrays and objects nested `depth` deep, each holding a value before
/// the next level.
std::string deep_doc(int indent, int depth) {
  std::string text;
  obs::JsonWriter out(text, indent);
  for (int d = 0; d < depth; ++d) {
    if (d % 2 == 0) {
      out.begin_array().value(std::int64_t{d});
    } else {
      out.begin_object().member("d", std::int64_t{d}).key("next");
    }
  }
  out.null();
  for (int d = depth - 1; d >= 0; --d) {
    if (d % 2 == 0) {
      out.end_array();
    } else {
      out.end_object();
    }
  }
  return text;
}

/// Every byte below 0x80 (each escape class: named escapes, \u00XX
/// controls, quote, backslash, plain ASCII) and two high bytes, as a key
/// and as values.
std::string escape_doc(int indent) {
  std::string all;
  for (int c = 0; c < 0x80; ++c) all += static_cast<char>(c);
  all += "\x80\xff";
  std::string text;
  obs::JsonWriter out(text, indent);
  out.begin_object().member(all, all).key("items").begin_array();
  out.value(all).value("\"").value("\\").value("").end_array();
  out.end_object();
  return text;
}

std::string empty_doc(int indent) {
  std::string text;
  obs::JsonWriter out(text, indent);
  out.begin_object();
  out.key("o").begin_object().end_object();
  out.key("a").begin_array().end_array();
  out.key("mixed").begin_array();
  out.begin_object().end_object().begin_array().end_array();
  out.begin_array().begin_object().end_object().end_array();
  out.begin_object().key("e").begin_array().end_array().end_object();
  out.end_array();
  out.end_object();
  return text;
}

/// 3000 rows of every scalar kind, appended after text already in `out`:
/// about 100 chunks' worth of flushes.
std::string many_flush_doc(int indent) {
  std::string text = "prefix:";
  obs::JsonWriter out(text, indent);
  out.begin_object().key("rows").begin_array();
  for (std::int64_t i = 0; i < 3000; ++i) {
    out.begin_object()
        .member("i", i)
        .member("u", static_cast<std::uint64_t>(i) * 2654435761u)
        .member("d", static_cast<double>(i) / 7.0)
        .member("s", std::string(static_cast<std::size_t>(i % 61),
                                 static_cast<char>('a' + i % 26)))
        .member("b", i % 3 == 0)
        .key("n")
        .null()
        .end_object();
  }
  out.end_array().end_object();
  return text;
}

TEST(JsonWriterEdges, TokenLongerThanAnyChunk) {
  struct Pin {
    int indent;
    std::size_t size;
    std::uint64_t hash;
  };
  for (const Pin pin : {Pin{-1, 72897, 6058957132437307344ull},
                        Pin{0, 72904, 7855591556817003814ull},
                        Pin{1, 72907, 188433508869072288ull},
                        Pin{2, 72910, 11833660312706978462ull}}) {
    SCOPED_TRACE("indent " + std::to_string(pin.indent));
    const std::string text = long_token_doc(pin.indent);
    EXPECT_EQ(text.size(), pin.size);
    EXPECT_EQ(fnv1a(text), pin.hash);
  }
}

TEST(JsonWriterEdges, NestingDeeperThanAnyIndentRun) {
  // At indent 100 the deepest lines carry 4400 spaces of indent, more
  // than a chunk holds.
  struct Pin {
    int indent;
    int depth;
    std::size_t size;
    std::uint64_t hash;
  };
  for (const Pin pin : {Pin{-1, 300, 3344, 12532002425113727150ull},
                        Pin{2, 50, 8269, 3665185420169429204ull},
                        Pin{100, 45, 306640, 964311022613501424ull}}) {
    SCOPED_TRACE("indent " + std::to_string(pin.indent));
    const std::string text = deep_doc(pin.indent, pin.depth);
    EXPECT_EQ(text.size(), pin.size);
    EXPECT_EQ(fnv1a(text), pin.hash);
  }
}

TEST(JsonWriterEdges, EveryEscapeClassInKeysAndValues) {
  const std::string compact = escape_doc(-1);
  EXPECT_EQ(compact.size(), 849u);
  EXPECT_EQ(fnv1a(compact), 2860451802134647014ull);
  const std::string indented = escape_doc(1);
  EXPECT_EQ(indented.size(), 870u);
  EXPECT_EQ(fnv1a(indented), 5802384419422352280ull);
  // The named escapes and the \u00XX form, spelled out once.
  EXPECT_NE(compact.find(R"(\u0000\u0001)"), std::string::npos);
  EXPECT_NE(compact.find(R"(\u0007\b\t\n\u000b\f\r\u000e)"),
            std::string::npos);
  EXPECT_NE(compact.find(R"(\u001f !\"#)"), std::string::npos);
  EXPECT_NE(compact.find(R"([\\]^_)"), std::string::npos);
  EXPECT_NE(compact.find("~\x7f\x80\xff\":\""), std::string::npos);
  EXPECT_NE(compact.find(R"(,"\"","\\",""]})"), std::string::npos);
}

TEST(JsonWriterEdges, EmptyContainersAtEveryIndent) {
  EXPECT_EQ(empty_doc(-1), R"({"o":{},"a":[],"mixed":[{},[],[{}],{"e":[]}]})");
  EXPECT_EQ(empty_doc(0),
            "{\n\"o\": {},\n\"a\": [],\n\"mixed\": [\n{},\n[],\n[\n{}\n],\n"
            "{\n\"e\": []\n}\n]\n}");
  EXPECT_EQ(empty_doc(1),
            "{\n \"o\": {},\n \"a\": [],\n \"mixed\": [\n  {},\n  [],\n"
            "  [\n   {}\n  ],\n  {\n   \"e\": []\n  }\n ]\n}");
  EXPECT_EQ(empty_doc(2),
            "{\n  \"o\": {},\n  \"a\": [],\n  \"mixed\": [\n    {},\n"
            "    [],\n    [\n      {}\n    ],\n    {\n      \"e\": []\n"
            "    }\n  ]\n}");
}

TEST(JsonWriterEdges, DocumentAcrossManyFlushes) {
  const std::string compact = many_flush_doc(-1);
  EXPECT_EQ(compact.size(), 313996u);
  EXPECT_EQ(fnv1a(compact), 1235180862881181953ull);
  const std::string indented = many_flush_doc(1);
  EXPECT_EQ(indented.size(), 422002u);
  EXPECT_EQ(fnv1a(indented), 7740853447186248737ull);
}

TEST(JsonWriterEdges, OutIsCompleteOnceTheRootValueCloses) {
  // One writer, several root values, the caller's line breaks between
  // them: the JSONL pattern. Each line equals a document written alone.
  std::string lines;
  obs::JsonWriter out(lines);
  std::string expected;
  for (std::int64_t i = 0; i < 3; ++i) {
    out.begin_object().member("i", i).member("s", "x\ny").end_object();
    lines += '\n';
    std::string alone;
    obs::JsonWriter(alone).begin_object().member("i", i).member("s", "x\ny")
        .end_object();
    expected += alone + '\n';
  }
  out.value(std::int64_t{7});
  expected += "7";
  EXPECT_EQ(lines, expected);
}

TEST(MetricsJson, ExportParsesAndValidates) {
  obs::MetricsRegistry reg;
  reg.counter("events", {{"node", "3"}}).inc(12);
  reg.gauge("depth").set(-5);
  reg.histogram("lat", {}, obs::latency_buckets_us()).observe(1234);

  const std::string doc = obs::write_metrics_json(
      reg, {{"tool", "test"}, {"seed", "42"}});
  const auto parsed = obs::parse_json(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(obs::validate_document_json(*parsed), std::nullopt);

  const auto* schema = parsed->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "asa-metrics/1");
  const auto* meta = parsed->find("meta");
  ASSERT_NE(meta, nullptr);
  ASSERT_NE(meta->find("seed"), nullptr);
  EXPECT_EQ(meta->find("seed")->as_string(), "42");

  const auto* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->items().size(), 1u);
  EXPECT_EQ(counters->items()[0].find("value")->as_int(), 12);
  const auto* labels = counters->items()[0].find("labels");
  ASSERT_NE(labels, nullptr);
  EXPECT_EQ(labels->find("node")->as_string(), "3");

  // Histogram buckets end with the "inf" overflow bucket.
  const auto* hists = parsed->find("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_EQ(hists->items().size(), 1u);
  const auto& buckets = hists->items()[0].find("buckets")->items();
  ASSERT_FALSE(buckets.empty());
  EXPECT_EQ(buckets.back().find("le")->as_string(), "inf");
}

// Every metrics field the schema table lists, plus the cross-field rules.
TEST(MetricsJson, ValidatorRejectsWrongSchemaAndShape) {
  obs::MetricsRegistry reg;
  reg.counter("events", {{"node", "3"}}).inc(12);
  reg.gauge("depth", {{"node", "3"}}).set(-5);
  reg.histogram("lat", {{"node", "3"}}, obs::latency_buckets_us())
      .observe(1234);
  const std::string doc = obs::write_metrics_json(reg, {{"tool", "test"}});
  EXPECT_EQ(schema_sweep::sweep_document(
                doc, [](const obs::JsonValue& d) {
                  (void)obs::render_report(d, {});
                }),
            19u);

  const auto bad_schema =
      obs::parse_json(R"({"schema":"nonsense/9","meta":{},"counters":[],)"
                      R"("gauges":[],"histograms":[]})");
  ASSERT_TRUE(bad_schema.has_value());
  EXPECT_EQ(obs::validate_document_json(*bad_schema),
            "schema: unknown schema nonsense/9");
  const auto missing_section =
      obs::parse_json(R"({"schema":"asa-metrics/1","meta":{}})");
  ASSERT_TRUE(missing_section.has_value());
  EXPECT_EQ(obs::validate_document_json(*missing_section),
            "counters: missing");
}

TEST(MetricsJson, RulesCheckBucketsAndJoinLabels) {
  // Eight route_hops observations over bounds {1, 2, 4, 8}: five buckets,
  // the last one le:"inf".
  obs::MetricsRegistry reg;
  auto& hops = reg.histogram("chord.route_hops", {}, {1, 2, 4, 8});
  for (int i = 0; i < 8; ++i) hops.observe(1);
  const auto doc =
      obs::parse_json(obs::write_metrics_json(reg, {{"tool", "test"}}));
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(obs::validate_document_json(*doc), std::nullopt);
  const auto bucket_count = [](std::size_t b) {
    return schema_sweep::Path{
        {"histograms"}, {"", 0}, {"buckets"}, {"", b}, {"count"}};
  };
  const auto set = [](const obs::JsonValue& d, const schema_sweep::Path& at,
                      obs::JsonValue v) {
    return schema_sweep::edit(d, at, 0, std::move(v));
  };

  // Counts 9, 0, 0, 0, -1 sum to 8 only once -1 wraps around.
  obs::JsonValue wrapped =
      set(*doc, bucket_count(0), obs::JsonValue(std::uint64_t{9}));
  for (std::size_t b = 1; b < 4; ++b) {
    wrapped = set(wrapped, bucket_count(b), obs::JsonValue(std::uint64_t{0}));
  }
  wrapped = set(wrapped, bucket_count(4), obs::JsonValue(std::int64_t{-1}));
  EXPECT_EQ(obs::validate_document_json(wrapped),
            "histograms[0].buckets[4].count: expected a non-negative integer");

  EXPECT_EQ(obs::validate_document_json(
                set(*doc, bucket_count(0), obs::JsonValue(std::uint64_t{0}))),
            "histograms[0].buckets: chord.route_hops counts do not sum to "
            "count");
  EXPECT_EQ(obs::validate_document_json(set(
                *doc, {{"histograms"}, {"", 0}, {"buckets"}, {"", 4}, {"le"}},
                obs::JsonValue(std::uint64_t{16}))),
            "histograms[0].buckets: chord.route_hops does not end with "
            "le:\"inf\"");

  // The workload/churn report joins on writer and class labels.
  obs::MetricsRegistry unlabelled;
  unlabelled.counter("workload.commits").inc();
  unlabelled.histogram("net.class_latency_us").observe(5);
  const auto joins = obs::parse_json(
      obs::write_metrics_json(unlabelled, {{"tool", "test"}}));
  ASSERT_TRUE(joins.has_value());
  EXPECT_EQ(obs::validate_document_json(*joins),
            "counters[0].labels: workload.commits without a writer label");
  EXPECT_EQ(
      obs::validate_document_json(set(*joins, {{"counters"}},
                                      obs::JsonValue::array())),
      "histograms[0].labels: net.class_latency_us without a class label");
}

// ---- Trace JSONL round-trip, including hostile details. ----

TEST(TraceJsonl, RoundTripPreservesNewlinesQuotesAndControlChars) {
  const std::vector<obs::TraceEvent> written = {
      {10, 1, "cat.a", "plain detail"},
      {20, 2, "cat.b", "line one\nline two\ttabbed"},
      {30, 3, "cat.a", R"(quotes " and \ backslash)"},
      {40, 4, "cat\"c", std::string("nul \x01 ctrl")},
  };

  std::ostringstream os;
  os << R"({"schema":"asa-trace/1","tool":"test"})" << "\n";
  for (const obs::TraceEvent& e : written) obs::write_trace_line(os, e);
  os << "\n";  // Trailing blank line must be tolerated.

  const auto events = obs::parse_trace_jsonl(os.str());
  ASSERT_TRUE(events.has_value());
  ASSERT_EQ(events->size(), written.size());
  for (std::size_t i = 0; i < events->size(); ++i) {
    EXPECT_EQ((*events)[i].time, written[i].time);
    EXPECT_EQ((*events)[i].node, written[i].node);
    EXPECT_EQ((*events)[i].category, written[i].category);
    EXPECT_EQ((*events)[i].detail, written[i].detail);
  }
}

// Each bad line is reported by number; the event and header shapes are
// swept field by field.
TEST(TraceJsonl, MalformedLineFailsTheParse) {
  std::string error;
  EXPECT_FALSE(obs::parse_trace_jsonl("not json\n", &error).has_value());
  EXPECT_EQ(error, "line 1: not valid JSON");
  EXPECT_FALSE(obs::parse_trace_jsonl(
                   R"({"t":1,"node":0,"cat":"x","detail":""})" "\n\n{oops\n",
                   &error)
                   .has_value());
  EXPECT_EQ(error, "line 3: not valid JSON");
  EXPECT_FALSE(
      obs::parse_trace_jsonl(R"({"t":1,"node":0,"cat":"x"})" "\n", &error)
          .has_value());
  EXPECT_EQ(error, "line 1: detail: missing");
  EXPECT_FALSE(obs::parse_trace_jsonl("[1,2]\n").has_value());

  obs::EventRecorder trace(/*tracing=*/true, /*flight_capacity=*/0);
  trace.record(obs::EventKind::kCommit, 10, 1, {7, 12, 0, 3200});
  std::ostringstream event;
  trace.write_trace_jsonl(event);
  ASSERT_EQ(event.str(), R"({"t":10,"node":1,"cat":"commit",)"
                        R"("detail":"guid=7 update=12 latency=3200"})"
                        "\n");
  const obs::JsonValue header =
      *obs::parse_json(R"({"schema":"asa-trace/1","tool":"test","seed":3})");
  const obs::DocumentSchema& row = *obs::find_schema("asa-trace/1");
  obs::MetricsRegistry reg;
  const obs::JsonValue metrics =
      *obs::parse_json(obs::write_metrics_json(reg, {{"tool", "test"}}));
  const auto parse_line = [&](const obs::JsonValue& line) {
    std::string why;
    return obs::parse_trace_jsonl(line.dump() + "\n" + event.str(), &why)
               ? std::nullopt
               : std::optional<std::string>(why);
  };
  const auto render = [&](const obs::JsonValue& line) {
    const auto events =
        obs::parse_trace_jsonl(line.dump() + "\n" + event.str());
    ASSERT_TRUE(events.has_value());
    EXPECT_NE(obs::render_report(metrics, *events).find("slowest commit"),
              std::string::npos);
  };
  EXPECT_EQ(schema_sweep::Sweep(header, parse_line, render).run(*row.shape),
            1u);
  EXPECT_EQ(schema_sweep::Sweep(*obs::parse_json(event.str()), parse_line,
                                render)
                .run(*row.lines),
            4u);
}

// A header line must name asa-trace/1: any other schema is not a trace.
TEST(TraceJsonl, HeaderMustNameAsaTrace) {
  std::string error;
  EXPECT_FALSE(
      obs::parse_trace_jsonl(R"({"schema":"asa-metrics/1","meta":{}})" "\n",
                             &error)
          .has_value());
  EXPECT_EQ(error,
            "line 1: schema: expected asa-trace/1, got asa-metrics/1");
  EXPECT_FALSE(obs::parse_trace_jsonl(R"({"schema":7})" "\n").has_value());
  const auto events = obs::parse_trace_jsonl(
      R"({"schema":"asa-trace/1","tool":"asasim","seed":3})" "\n");
  ASSERT_TRUE(events.has_value());
  EXPECT_TRUE(events->empty());
  // A trace header is not a document on its own.
  EXPECT_EQ(obs::validate_document_json(
                *obs::parse_json(R"({"schema":"asa-trace/1"})")),
            "schema: unknown schema asa-trace/1");
}

TEST(TraceJsonl, DetailFieldExtraction) {
  EXPECT_EQ(obs::detail_field("guid=7 update=12 latency=3200", "latency"),
            std::optional<std::uint64_t>(3200));
  EXPECT_EQ(obs::detail_field("guid=7", "update"), std::nullopt);
  EXPECT_EQ(obs::detail_field("update=x", "update"), std::nullopt);
}

// ---- Causal trace <-> NetworkStats reconciliation under forced faults. ----

// The message id (field 0) of every traced event of one kind, read back
// from its rendered id= field.
std::vector<std::uint64_t> ids_in(const obs::EventRecorder& trace,
                                  obs::EventKind kind) {
  std::vector<std::uint64_t> ids;
  for (const obs::Event& e : trace.stream()) {
    if (e.kind != kind) continue;
    const std::string detail = obs::detail(obs::View::kTrace, e);
    const auto id = obs::detail_field(detail, "id");
    EXPECT_TRUE(id.has_value()) << detail;
    if (id.has_value()) ids.push_back(*id);
  }
  return ids;
}

TEST(NetworkCausalTrace, StatsReconcileUnderDropDuplicateAndPartition) {
  sim::Scheduler sched;
  sim::Network net(sched, sim::Rng(7));
  obs::EventRecorder trace(/*tracing=*/true, /*flight_capacity=*/0);
  net.set_recorder(&trace);
  net.attach(0, [](sim::NodeAddr, const std::string&) {});
  net.attach(1, [](sim::NodeAddr, const std::string&) {});

  // Phase 1: forced drops — every send is lost, with a net.drop event
  // carrying the message id.
  net.set_drop_probability(1.0);
  for (int i = 0; i < 5; ++i) net.send(0, 1, "drop me");
  // Phase 2: forced duplicates — every send delivers twice under one id.
  net.set_drop_probability(0.0);
  net.set_duplicate_probability(1.0);
  for (int i = 0; i < 4; ++i) net.send(0, 1, "dup me");
  // Phase 3: partitioned link and a message to a dead node.
  net.set_duplicate_probability(0.0);
  net.partition(0, 1);
  for (int i = 0; i < 3; ++i) net.send(0, 1, "lost to partition");
  net.heal(0, 1);
  net.send(0, 99, "nobody home");
  sched.run();

  const sim::NetworkStats& stats = net.stats();
  EXPECT_EQ(stats.sent, 13u);
  EXPECT_EQ(stats.dropped, 5u);
  EXPECT_EQ(stats.duplicated, 4u);
  EXPECT_EQ(stats.partitioned, 3u);
  EXPECT_EQ(stats.to_dead_node, 1u);
  EXPECT_EQ(stats.delivered, 8u);  // 4 sends x 2 copies.

  // Every aggregate count reconciles with per-message trace events.
  using obs::EventKind;
  EXPECT_EQ(ids_in(trace, EventKind::kNetSend).size(), stats.sent);
  EXPECT_EQ(ids_in(trace, EventKind::kNetDrop).size(), stats.dropped);
  EXPECT_EQ(ids_in(trace, EventKind::kNetDup).size(), stats.duplicated);
  EXPECT_EQ(ids_in(trace, EventKind::kNetPart).size(), stats.partitioned);
  EXPECT_EQ(ids_in(trace, EventKind::kNetDead).size(), stats.to_dead_node);
  EXPECT_EQ(ids_in(trace, EventKind::kNetDeliver).size(), stats.delivered);

  // Send ids are unique and monotonically increasing from 1.
  const auto send_ids = ids_in(trace, EventKind::kNetSend);
  ASSERT_EQ(send_ids.size(), 13u);
  for (std::size_t i = 0; i < send_ids.size(); ++i) {
    EXPECT_EQ(send_ids[i], i + 1);
  }
  EXPECT_EQ(net.next_message_id(), 14u);

  // Every outcome id refers back to a send, and the outcomes partition the
  // sends: each id is dropped, partitioned, or delivered (1 or 2 copies).
  const std::set<std::uint64_t> sent_set(send_ids.begin(), send_ids.end());
  std::set<std::uint64_t> terminal;
  for (const EventKind kind : {EventKind::kNetDrop, EventKind::kNetPart,
                               EventKind::kNetDeliver, EventKind::kNetDead}) {
    for (const std::uint64_t id : ids_in(trace, kind)) {
      EXPECT_TRUE(sent_set.contains(id))
          << obs::category(obs::View::kTrace, kind) << " id " << id;
      terminal.insert(id);
    }
  }
  EXPECT_EQ(terminal, sent_set);

  // Duplicated ids show up exactly twice in net.deliver.
  const auto deliver_ids = ids_in(trace, EventKind::kNetDeliver);
  for (const std::uint64_t id : ids_in(trace, EventKind::kNetDup)) {
    EXPECT_EQ(std::count(deliver_ids.begin(), deliver_ids.end(), id), 2)
        << "dup id " << id;
  }

  // Delivery events carry the sampled latency.
  for (const obs::Event& e : trace.stream()) {
    if (e.kind != EventKind::kNetDeliver) continue;
    const std::string detail = obs::detail(obs::View::kTrace, e);
    EXPECT_TRUE(obs::detail_field(detail, "latency").has_value()) << detail;
  }
}

TEST(NetworkCausalTrace, IdsAssignedEvenWithTracingOff) {
  sim::Scheduler sched;
  sim::Network net(sched, sim::Rng(3));
  net.attach(1, [](sim::NodeAddr, const std::string&) {});
  EXPECT_EQ(net.send(0, 1, "a"), 1u);
  EXPECT_EQ(net.send(0, 1, "b"), 2u);
  EXPECT_EQ(net.next_message_id(), 3u);
}

// ---- End-to-end determinism: identical seed => byte-identical export. ----

std::string run_cluster_and_export(std::uint64_t seed) {
  storage::ClusterConfig config;
  config.nodes = 10;
  config.replication_factor = 4;
  config.seed = seed;
  config.metrics = true;
  config.tracing = true;
  config.drop_probability = 0.05;
  storage::AsaCluster cluster(config);

  int committed = 0;
  for (int u = 0; u < 5; ++u) {
    const storage::Guid guid = storage::Guid::named("guid:" +
                                                    std::to_string(u % 2));
    const storage::Pid pid =
        storage::Pid::of(storage::block_from("update " + std::to_string(u)));
    cluster.version_history().append(
        guid, pid,
        [&](const commit::CommitResult& r) { committed += r.committed; });
    cluster.run_for(2'000);
  }
  cluster.run();
  EXPECT_GT(committed, 0);

  cluster.snapshot_metrics();
  return obs::write_metrics_json(cluster.metrics(),
                                 {{"tool", "test"},
                                  {"seed", std::to_string(seed)}});
}

TEST(MetricsDeterminism, IdenticalSeedProducesByteIdenticalJson) {
  const std::string first = run_cluster_and_export(11);
  const std::string second = run_cluster_and_export(11);
  EXPECT_EQ(first, second);
  // And the export is substantive, not vacuously equal.
  const auto parsed = obs::parse_json(first);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(obs::validate_document_json(*parsed), std::nullopt);
  EXPECT_FALSE(parsed->find("histograms")->items().empty());
}

TEST(MetricsDeterminism, DifferentSeedsDiverge) {
  EXPECT_NE(run_cluster_and_export(11), run_cluster_and_export(12));
}

// ---- Flight view: ring semantics, wraparound, merge, JSON. ----

TEST(FlightRecorder, DropOldestWraparoundKeepsOrderAndSeq) {
  obs::EventRecorder flight(/*tracing=*/false, /*flight_capacity=*/3);
  EXPECT_TRUE(flight.enabled());
  for (std::uint64_t i = 0; i < 5; ++i) {
    flight.record(obs::EventKind::kNetSend, 100 + i, 1, {i, 1, 2});
  }
  flight.record(obs::EventKind::kNetDrop, 200, 2, {9, 2, 1});
  EXPECT_EQ(flight.total_recorded(), 6u);
  EXPECT_TRUE(flight.stream().empty());  // No trace view.

  const auto lane1 = flight.lane(1);
  ASSERT_EQ(lane1.size(), 3u);  // The two oldest events were evicted.
  EXPECT_EQ(lane1[0].event.fields[0], 2u);
  EXPECT_EQ(lane1[1].event.fields[0], 3u);
  EXPECT_EQ(lane1[2].event.fields[0], 4u);
  EXPECT_LT(lane1[0].seq, lane1[1].seq);
  EXPECT_LT(lane1[1].seq, lane1[2].seq);
  // The global sequence preserves cross-lane order.
  const auto lane2 = flight.lane(2);
  ASSERT_EQ(lane2.size(), 1u);
  EXPECT_LT(lane1[2].seq, lane2[0].seq);
  EXPECT_EQ(flight.lanes(), (std::vector<std::uint32_t>{1, 2}));
}

TEST(FlightRecorder, DisabledRecorderDropsEverything) {
  obs::EventRecorder off(/*tracing=*/false, /*flight_capacity=*/0);
  EXPECT_FALSE(off.enabled());
  off.record(obs::EventKind::kNetSend, 1, 1, {1, 1, 2});
  EXPECT_EQ(off.total_recorded(), 0u);
  EXPECT_TRUE(off.lanes().empty());
  EXPECT_TRUE(off.lane(1).empty());
  EXPECT_TRUE(off.stream().empty());
}

TEST(FlightRecorder, DisabledComponentPathAllocatesNothing) {
  // Recording formats nothing: a recorder with both views off, and a warm
  // flight view whose ring has wrapped, take an event without allocating.
  obs::EventRecorder off(/*tracing=*/false, /*flight_capacity=*/0);
  obs::EventRecorder flight(/*tracing=*/false, /*flight_capacity=*/16);
  for (std::uint64_t i = 0; i < 16; ++i) {
    flight.record(obs::EventKind::kNetSend, i, 1, {i, 0, 1, 33});
  }
  const std::uint64_t before = g_allocations.load();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    off.record(obs::EventKind::kNetSend, i, 1, {i, 0, 1, 33});
    flight.record(obs::EventKind::kNetSend, i, 1, {i, 0, 1, 33});
    flight.record(obs::EventKind::kCommit, i, 1, {7, i, i, 250});
  }
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(flight.total_recorded(), 2016u);
}

TEST(FlightRecorder, MergeRerecordsPreservingTimeAndJsonNamesClusterLane) {
  obs::EventRecorder a(/*tracing=*/false, /*flight_capacity=*/2);
  obs::EventRecorder b(/*tracing=*/false, /*flight_capacity=*/2);
  a.record(obs::EventKind::kNetSend, 10, 1, {1, 1, 2});
  b.record(obs::EventKind::kNetSend, 5, 1, {1, 1, 2});
  b.record(obs::EventKind::kQueueDepth, 6, obs::EventRecorder::kClusterLane,
           {2});
  a.merge(b);
  const auto lane1 = a.lane(1);
  ASSERT_EQ(lane1.size(), 2u);
  EXPECT_EQ(lane1[0].event.t, 10u);  // Merge appends: original time, new seq.
  EXPECT_EQ(lane1[1].event.t, 5u);
  EXPECT_LT(lane1[0].seq, lane1[1].seq);
  const obs::JsonValue json = a.to_json();
  EXPECT_NE(json.find("1"), nullptr);
  EXPECT_NE(json.find("cluster"), nullptr);
  EXPECT_EQ(json.dump(),
            R"({"1":[{"t":10,"seq":0,"cat":"net.send",)"
            R"("detail":"id=1 from=1 to=2"},)"
            R"({"t":5,"seq":1,"cat":"net.send","detail":"id=1 from=1 to=2"}],)"
            R"("cluster":[{"t":6,"seq":2,"cat":"sched.queue_depth",)"
            R"("detail":"depth=2"}]})");
}

// ---- Span view: retry lifecycle, nesting, merge, JSON. ----

/// Span events at explicit times, recorded the way the endpoint and the
/// peer record them.
struct SpanScript {
  void open(obs::Word name, std::uint32_t node, std::uint64_t guid,
            std::uint64_t request, std::uint64_t update, std::uint64_t t) {
    events.record(obs::EventKind::kSpanOpen, t, node,
                  obs::span_fields(guid, update, request), name);
  }
  void close(obs::Word name, std::uint32_t node, std::uint64_t guid,
             std::uint64_t request, std::uint64_t update, std::uint64_t t,
             obs::SpanDetail detail = obs::SpanDetail::kNone,
             std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) {
    events.record(obs::EventKind::kSpanClose, t, node,
                  obs::span_fields(guid, update, request, detail, arg0, arg1),
                  name);
  }
  void point(obs::Word name, std::uint32_t node, std::uint64_t guid,
             std::uint64_t request, std::uint64_t update, std::uint64_t t,
             obs::SpanDetail detail = obs::SpanDetail::kNone) {
    events.record(obs::EventKind::kSpanPoint, t, node,
                  obs::span_fields(guid, update, request, detail), name);
  }

  obs::EventRecorder events{/*tracing=*/false, /*flight_capacity=*/0,
                            /*spans=*/true};
};

/// `events`' spans as exported: the asa-span/1 objects in id order.
std::vector<obs::JsonValue> exported_spans(const obs::EventRecorder& events) {
  const auto doc =
      obs::parse_json(obs::write_spans_json(events, {{"tool", "test"}}));
  EXPECT_TRUE(doc.has_value());
  if (!doc.has_value()) return {};
  EXPECT_EQ(obs::validate_document_json(*doc), std::nullopt);
  return doc->find("spans")->items();
}

std::uint64_t field(const obs::JsonValue& span, const char* key) {
  return static_cast<std::uint64_t>(span.find(key)->as_int());
}

TEST(SpanView, RetryLifecycleAndNesting) {
  using W = obs::Word;
  SpanScript s;
  s.open(W::kCommit, 9, 5, 7, 0, 100);
  s.open(W::kAttempt, 9, 5, 7, 71, 100);
  s.close(W::kAttempt, 9, 5, 7, 71, 180, obs::SpanDetail::kRetry);
  s.open(W::kAttempt, 9, 5, 7, 72, 180);
  s.close(W::kAttempt, 9, 5, 7, 72, 260);
  s.close(W::kCommit, 9, 5, 7, 0, 265, obs::SpanDetail::kDecisive, 3, 2);
  // A double close is ignored, and so is a close naming no open span.
  s.close(W::kCommit, 9, 5, 7, 0, 999, obs::SpanDetail::kAbort);
  s.close(W::kAttempt, 9, 5, 8, 0, 999, obs::SpanDetail::kAbort);
  EXPECT_EQ(s.events.span_events().size(), 8u);

  const std::vector<obs::JsonValue> spans = exported_spans(s.events);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].find("name")->as_string(), "commit");
  EXPECT_EQ(field(spans[0], "end"), 265u);
  EXPECT_TRUE(spans[0].find("ok")->as_bool());
  EXPECT_EQ(spans[0].find("detail")->as_string(), "decisive=3 attempts=2");
  EXPECT_EQ(field(spans[1], "parent"), 1u);
  EXPECT_FALSE(spans[1].find("ok")->as_bool());
  EXPECT_EQ(spans[1].find("detail")->as_string(), "retry");
  EXPECT_EQ(field(spans[2], "parent"), 1u);
  EXPECT_TRUE(spans[2].find("ok")->as_bool());
  EXPECT_EQ(field(spans[2], "update"), 72u);
  EXPECT_EQ(field(spans[2], "end"), 260u);
}

// The peer half: points hang under their (node, GUID, update)'s quorum
// until it closes failed; a rebuilt node's spans stay open and parent
// nothing recorded after.
TEST(SpanView, PointsHangUnderTheQuorumUntilItAbortsOrTheNodeIsRebuilt) {
  using W = obs::Word;
  SpanScript s;
  s.open(W::kVoteCollect, 3, 5, 7, 70, 10);        // 1
  s.close(W::kVoteCollect, 3, 5, 7, 70, 20);
  s.open(W::kQuorum, 3, 5, 7, 70, 20);             // 2
  s.point(W::kJournalAppend, 3, 5, 7, 70, 30);     // 3, under 2
  s.close(W::kQuorum, 3, 5, 7, 70, 30);
  s.point(W::kAckSent, 3, 5, 7, 70, 31);           // 4, under 2
  s.point(W::kAckSent, 4, 5, 7, 70, 31);           // 5: another node's
  s.open(W::kQuorum, 3, 5, 7, 80, 40);             // 6
  s.close(W::kQuorum, 3, 5, 7, 80, 50, obs::SpanDetail::kAbort);
  s.point(W::kAckSent, 3, 5, 7, 80, 60);           // 7: aborted, none
  s.open(W::kQuorum, 3, 5, 7, 90, 60);             // 8, left open
  s.events.end_spans(70, 3);
  s.close(W::kQuorum, 3, 5, 7, 90, 80);            // Joins nothing.
  s.point(W::kAckSent, 3, 5, 7, 70, 80);           // 9: rebuilt, none
  const std::vector<obs::JsonValue> spans = exported_spans(s.events);
  ASSERT_EQ(spans.size(), 9u);
  std::vector<std::uint64_t> parents;
  for (const obs::JsonValue& span : spans) {
    parents.push_back(field(span, "parent"));
  }
  EXPECT_EQ(parents, (std::vector<std::uint64_t>{0, 0, 2, 2, 0, 0, 0, 0, 0}));
  EXPECT_EQ(spans[5].find("detail")->as_string(), "abort");
  EXPECT_FALSE(spans[7].find("closed")->as_bool());
  EXPECT_EQ(field(spans[7], "end"), 60u);
}

/// Two chaos runs merged into one recorder: the second run's spans are
/// its own, renumbered past the first's. Runs reuse node addresses and
/// causal ids, so a join across the run boundary would hang a span of
/// the second run under one of the first.
TEST(SpanView, MergedRunsContinueIdsAndNeverShareAParent) {
  storage::ChaosConfig config;
  config.updates = 10;
  const auto run = [&config](std::uint64_t seed, obs::EventRecorder& into) {
    config.seed = seed;
    sim::Rng rng(seed ^ 0x63686170'73656564ull);  // asachaos' plan.
    (void)storage::run_plan(config, storage::generate_fault_plan(config, rng),
                            nullptr, &into);
  };
  const auto recorder = [] {
    return obs::EventRecorder(/*tracing=*/false, /*flight_capacity=*/0,
                              /*spans=*/true);
  };
  obs::EventRecorder first = recorder();
  obs::EventRecorder second = recorder();
  obs::EventRecorder merged = recorder();
  run(3, first);
  run(4, second);
  run(3, merged);
  run(4, merged);

  const std::vector<obs::JsonValue> a = exported_spans(first);
  const std::vector<obs::JsonValue> b = exported_spans(second);
  const std::vector<obs::JsonValue> m = exported_spans(merged);
  const std::size_t n = a.size();
  ASSERT_GT(n, 0u);
  ASSERT_EQ(m.size(), n + b.size());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(m[i].dump(), a[i].dump());
  std::size_t children = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    SCOPED_TRACE("second run's span " + std::to_string(i + 1));
    const obs::JsonValue& span = m[n + i];
    const std::uint64_t parent = field(b[i], "parent");
    children += parent != 0;
    EXPECT_EQ(field(span, "id"), n + i + 1);
    EXPECT_EQ(field(span, "parent"), parent == 0 ? 0 : parent + n);
    for (const char* key : {"name", "node", "guid", "request", "update",
                            "start", "end", "ok", "closed", "detail"}) {
      EXPECT_EQ(span.find(key)->dump(), b[i].find(key)->dump()) << key;
    }
  }
  EXPECT_GT(children, 0u);
}

// The boundary itself: what one run leaves open or parenting stays as it
// was, and the next run's spans of the same keys join none of it.
TEST(SpanView, MergeAppendsBehindARunBoundary) {
  using W = obs::Word;
  SpanScript first;
  first.open(W::kCommit, 100, 5, 7, 0, 10);          // 1, left open
  first.open(W::kQuorum, 3, 5, 7, 70, 10);           // 2, left open
  SpanScript second;
  second.open(W::kAttempt, 100, 5, 7, 71, 20);       // 3: no root here
  second.point(W::kAckSent, 3, 5, 7, 70, 20);        // 4: no quorum here
  second.close(W::kQuorum, 3, 5, 7, 70, 30);         // Joins nothing.
  second.close(W::kCommit, 100, 5, 7, 0, 30);        // Joins nothing.
  obs::EventRecorder merged(/*tracing=*/false, /*flight_capacity=*/0,
                            /*spans=*/true);
  merged.merge(first.events);
  merged.merge(second.events);
  const std::vector<obs::JsonValue> spans = exported_spans(merged);
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(field(spans[i], "id"), i + 1);
    EXPECT_EQ(field(spans[i], "parent"), 0u);
  }
  EXPECT_FALSE(spans[0].find("closed")->as_bool());
  EXPECT_FALSE(spans[1].find("closed")->as_bool());
}

// A span stores its detail as a word and its GUID as an integer; the
// export renders both to the text the recorder used to store:
// std::to_string of the GUID (unsigned, so GUIDs >= 2^63 stay positive)
// and the endpoint's and peer's detail strings.
TEST(SpansJson, DetailKindsAndWideGuidsRenderTheOldText) {
  using obs::SpanDetail;
  struct Case {
    SpanDetail detail;
    std::uint32_t arg0;
    std::uint32_t arg1;
    std::string old_text;
  };
  constexpr std::uint32_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  const Case cases[] = {
      {SpanDetail::kNone, 0, 0, ""},
      {SpanDetail::kDecisive, 3, 2,
       "decisive=" + std::to_string(3) + " attempts=" + std::to_string(2)},
      {SpanDetail::kDecisive, kMax32, 12,
       "decisive=" + std::to_string(kMax32) +
           " attempts=" + std::to_string(12)},
      {SpanDetail::kFailed, 12, 0, "failed attempts=" + std::to_string(12)},
      {SpanDetail::kFailed, kMax32, 0,
       "failed attempts=" + std::to_string(kMax32)},
      {SpanDetail::kRetry, 0, 0, "retry"},
      {SpanDetail::kTimeout, 0, 0, "timeout"},
      {SpanDetail::kVetoed, 0, 0, "vetoed"},
      {SpanDetail::kAbort, 0, 0, "abort"},
  };
  const std::uint64_t guids[] = {0, 42, std::uint64_t{1} << 63,
                                 (std::uint64_t{1} << 63) + 12345,
                                 std::numeric_limits<std::uint64_t>::max()};
  SpanScript s;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    const std::uint64_t guid = guids[i % std::size(guids)];
    s.open(obs::Word::kCommit, 1, guid, 1, 2, 10);
    s.close(obs::Word::kCommit, 1, guid, 1, 2, 20, c.detail, c.arg0, c.arg1);
  }
  const std::vector<obs::JsonValue> spans = exported_spans(s.events);
  ASSERT_EQ(spans.size(), std::size(cases));
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    EXPECT_EQ(spans[i].find("detail")->as_string(), cases[i].old_text);
    EXPECT_EQ(spans[i].find("ok")->as_bool(),
              cases[i].detail == SpanDetail::kNone ||
                  cases[i].detail == SpanDetail::kDecisive);
    EXPECT_EQ(spans[i].find("guid")->as_string(),
              std::to_string(guids[i % std::size(guids)]));
  }
  EXPECT_EQ(spans[2].find("guid")->as_string(), "9223372036854775808");
  EXPECT_EQ(spans[4].find("guid")->as_string(), "18446744073709551615");
}

// Every span field the schema table lists, plus id, parent and interval
// order.
TEST(SpansJson, ValidatorRejectsBrokenShape) {
  SpanScript s;
  s.open(obs::Word::kCommit, 1, 5, 1, 0, 10);
  s.point(obs::Word::kAttempt, 1, 5, 1, 11, 12);
  s.close(obs::Word::kCommit, 1, 5, 1, 0, 20, obs::SpanDetail::kDecisive, 1,
          1);
  const std::string doc = obs::write_spans_json(s.events, {{"tool", "test"}});
  EXPECT_EQ(schema_sweep::sweep_document(
                doc, [](const obs::JsonValue& d) {
                  (void)obs::render_critical_path(d);
                }),
            14u);
  const auto parsed = obs::parse_json(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(obs::validate_document_json(
                schema_sweep::edit(*parsed, {{"spans"}, {"", 1}, {"id"}}, 0,
                                   obs::JsonValue(std::uint64_t{3}))),
            "spans[1].id: not contiguous from 1");

  // parent must reference an earlier id.
  const auto bad_parent = obs::parse_json(
      "{\"schema\":\"asa-span/1\",\"meta\":{},\"spans\":[{\"id\":1,"
      "\"parent\":1,\"name\":\"x\",\"node\":0,\"guid\":\"\",\"request\":0,"
      "\"update\":0,\"start\":0,\"end\":1,\"ok\":true,\"closed\":true,"
      "\"detail\":\"\"}]}");
  ASSERT_TRUE(bad_parent.has_value());
  EXPECT_EQ(obs::validate_document_json(*bad_parent),
            "spans[0].parent: does not precede the span");

  // end must not precede start.
  const auto bad_interval = obs::parse_json(
      "{\"schema\":\"asa-span/1\",\"meta\":{},\"spans\":[{\"id\":1,"
      "\"parent\":0,\"name\":\"x\",\"node\":0,\"guid\":\"\",\"request\":0,"
      "\"update\":0,\"start\":5,\"end\":1,\"ok\":true,\"closed\":true,"
      "\"detail\":\"\"}]}");
  ASSERT_TRUE(bad_interval.has_value());
  EXPECT_EQ(obs::validate_document_json(*bad_interval),
            "spans[0].end: before the start");

  // spans must be an array.
  const auto bad_spans = obs::parse_json(
      "{\"schema\":\"asa-span/1\",\"meta\":{},\"spans\":{}}");
  ASSERT_TRUE(bad_spans.has_value());
  EXPECT_EQ(obs::validate_document_json(*bad_spans),
            "spans: expected an array");
}

TEST(DocumentJson, UnknownSchemaIsAnError) {
  const auto doc = obs::parse_json("{\"schema\":\"asa-bogus/9\"}");
  ASSERT_TRUE(doc.has_value());
  const auto error = obs::validate_document_json(*doc);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("unknown schema"), std::string::npos);
}

// ---- Merge-conflict accounting (the silent-skip fix) and its surfacing. ----

TEST(MetricsMerge, MismatchedHistogramBoundsAreCountedAndReported) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.histogram("h", {}, {10}).observe(1);
  b.histogram("h", {}, {20}).observe(1);
  a.merge(b);
  EXPECT_EQ(a.counter("metrics.merge_conflicts").value(), 1u);
  // The skipped series keeps its original shape.
  EXPECT_EQ(a.histogram("h", {}, {10}).count(), 1u);

  const std::string doc = obs::write_metrics_json(a, {{"tool", "t"}});
  const auto parsed = obs::parse_json(doc);
  ASSERT_TRUE(parsed.has_value());
  const std::string report = obs::render_report(*parsed, {}, {});
  EXPECT_NE(report.find("histogram series skipped during merge"),
            std::string::npos);

  // Clean merges stay warning-free.
  obs::MetricsRegistry clean;
  clean.counter("c").inc();
  const auto clean_doc =
      obs::parse_json(obs::write_metrics_json(clean, {{"tool", "t"}}));
  ASSERT_TRUE(clean_doc.has_value());
  EXPECT_EQ(obs::render_report(*clean_doc, {}, {})
                .find("skipped during merge"),
            std::string::npos);
}

// ---- Critical-path attribution. ----

TEST(CriticalPath, AttributesPhasesFromJoinedSpans) {
  // One commit: a failed attempt (retry), then the decisive attempt whose
  // peer-side spans live on node 3.
  using W = obs::Word;
  SpanScript s;
  s.open(W::kCommit, 100, 41, 7, 0, 1000);
  s.open(W::kAttempt, 100, 41, 7, 71, 1100);
  s.close(W::kAttempt, 100, 41, 7, 71, 1500, obs::SpanDetail::kRetry);
  s.open(W::kAttempt, 100, 41, 7, 72, 1500);
  s.open(W::kVoteCollect, 3, 41, 7, 72, 1600);
  s.close(W::kVoteCollect, 3, 41, 7, 72, 1900);
  s.open(W::kQuorum, 3, 41, 7, 72, 1900);
  s.point(W::kJournalAppend, 3, 41, 7, 72, 1950);
  s.point(W::kAckSent, 3, 41, 7, 72, 2000);
  s.close(W::kQuorum, 3, 41, 7, 72, 2000);
  s.close(W::kAttempt, 100, 41, 7, 72, 2100);
  s.close(W::kCommit, 100, 41, 7, 0, 2100, obs::SpanDetail::kDecisive, 3, 2);

  const auto doc =
      obs::parse_json(obs::write_spans_json(s.events, {{"tool", "t"}}));
  ASSERT_TRUE(doc.has_value());
  const std::string report = obs::render_critical_path(*doc);
  EXPECT_NE(report.find("committed roots: 1"), std::string::npos);
  EXPECT_NE(report.find("decisive join: 1"), std::string::npos);
  EXPECT_NE(report.find("journal points: 1"), std::string::npos);
  // Phase budget: submit 0.10ms, retry 0.40, route 0.10, vote-collect
  // 0.30, quorum 0.10, ack 0.10 — the full 1.10ms total is attributed.
  EXPECT_NE(report.find("retry"), std::string::npos);
  EXPECT_NE(report.find("vote-collect"), std::string::npos);
  EXPECT_NE(report.find("attributed to named phases: 100.0%"),
            std::string::npos);
  EXPECT_NE(report.find("guid=41"), std::string::npos);
}

// ---- Bench trend gate. ----

TEST(BenchCompare, GatesOnNsPerMessageDrift) {
  const auto make = [](std::int64_t wall_ns, std::uint64_t messages) {
    obs::MetricsRegistry reg;
    reg.gauge("exec.wall_ns", {{"impl", "interpreter"}}).set(wall_ns);
    reg.counter("exec.messages", {{"impl", "interpreter"}}).set(messages);
    const auto doc =
        obs::parse_json(obs::write_metrics_json(reg, {{"tool", "bench"}}));
    EXPECT_TRUE(doc.has_value());
    return *doc;
  };
  const obs::JsonValue baseline = make(1'000'000, 1000);  // 1000 ns/msg.

  const obs::BenchCompareResult within =
      obs::compare_bench_metrics(baseline, make(1'150'000, 1000), 0.20);
  EXPECT_TRUE(within.ok);
  EXPECT_NE(within.report.find("within tolerance"), std::string::npos);

  const obs::BenchCompareResult regressed =
      obs::compare_bench_metrics(baseline, make(1'300'000, 1000), 0.20);
  EXPECT_FALSE(regressed.ok);
  EXPECT_NE(regressed.report.find("GATE FAILED"), std::string::npos);

  const obs::BenchCompareResult sped_up_too_much =
      obs::compare_bench_metrics(baseline, make(700'000, 1000), 0.20);
  EXPECT_FALSE(sped_up_too_much.ok);  // Drift gates both directions.

  obs::MetricsRegistry empty;
  const auto none =
      obs::parse_json(obs::write_metrics_json(empty, {{"tool", "bench"}}));
  ASSERT_TRUE(none.has_value());
  EXPECT_FALSE(obs::compare_bench_metrics(baseline, *none, 0.20).ok);
}

// ---- End-to-end: cluster spans + flight, deterministic. ----

namespace e2e {

std::string run_cluster_spans(std::uint64_t seed) {
  storage::ClusterConfig config;
  config.nodes = 10;
  config.seed = seed;
  config.flight_capacity = 32;
  config.spans = true;
  storage::AsaCluster cluster(config);
  for (int u = 0; u < 4; ++u) {
    const storage::Guid guid =
        storage::Guid::named("g" + std::to_string(u % 2));
    const storage::Pid pid =
        storage::Pid::of(storage::block_from("u" + std::to_string(u)));
    cluster.version_history().append(guid, pid,
                                     [](const commit::CommitResult&) {});
  }
  cluster.run();
  EXPECT_GT(cluster.flight().total_recorded(), 0u);
  return obs::write_spans_json(cluster.spans(), {{"tool", "test"}});
}

/// A lossy run's three exports: its trace, flight and span documents.
struct Exports {
  std::string trace;
  std::string flight;
  std::string spans;
};

/// A lossy run: 15% message loss against two attempts per commit, so the
/// span document holds retried commits and roots that failed (8 and 4 of
/// 12), with the views given on.
Exports run_lossy_cluster(bool tracing, std::size_t flight, bool spans) {
  storage::ClusterConfig config;
  config.nodes = 10;
  config.seed = 5;
  config.tracing = tracing;
  config.flight_capacity = flight;
  config.spans = spans;
  config.drop_probability = 0.15;
  config.retry.base_timeout = 80'000;
  config.retry.max_attempts = 2;
  config.abort_scan_interval = 60'000;
  config.abort_max_age = 80'000;
  storage::AsaCluster cluster(config);
  for (int u = 0; u < 12; ++u) {
    const storage::Guid guid =
        storage::Guid::named("g" + std::to_string(u % 3));
    const storage::Pid pid =
        storage::Pid::of(storage::block_from("u" + std::to_string(u)));
    cluster.version_history().append(guid, pid,
                                     [](const commit::CommitResult&) {});
  }
  cluster.run();
  std::ostringstream trace;
  cluster.events().write_trace_jsonl(trace);
  return {trace.str(), cluster.flight().to_json().dump(),
          obs::write_spans_json(cluster.spans(), {{"tool", "test"}})};
}

std::string run_lossy_cluster_spans() {
  return run_lossy_cluster(false, 0, true).spans;
}

std::string critical_path_of(const std::string& spans_json) {
  const auto doc = obs::parse_json(spans_json);
  EXPECT_TRUE(doc.has_value());
  return doc.has_value() ? obs::render_critical_path(*doc) : "";
}

}  // namespace e2e

// The rendered critical path of two cluster runs, pinned to the size and
// FNV-1a of the text the per-root span scans produced, so indexing the
// spans cannot move a byte.
TEST(CriticalPath, RendersTheClusterSpansDocumentUnchanged) {
  const std::string report =
      e2e::critical_path_of(e2e::run_cluster_spans(11));
  EXPECT_EQ(report.size(), 742u);
  EXPECT_EQ(fnv1a(report), 5533427863917510428ull);
}

TEST(CriticalPath, RendersALossyRunWithRetriesAndFailedRootsUnchanged) {
  const std::string report =
      e2e::critical_path_of(e2e::run_lossy_cluster_spans());
  EXPECT_NE(report.find("committed roots: 8 "), std::string::npos);
  EXPECT_NE(report.find("unfinished/failed roots: 4)"), std::string::npos);
  EXPECT_EQ(report.size(), 763u);
  EXPECT_EQ(fnv1a(report), 12090431322630852298ull);
}

TEST(ClusterSpans, CommitsProduceJoinedSpansDeterministically) {
  const std::string first = e2e::run_cluster_spans(11);
  EXPECT_EQ(first, e2e::run_cluster_spans(11));

  const auto doc = obs::parse_json(first);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(obs::validate_document_json(*doc), std::nullopt);
  // The taxonomy actually appears: root commits, attempts, peer spans.
  EXPECT_NE(first.find("\"commit\""), std::string::npos);
  EXPECT_NE(first.find("\"attempt\""), std::string::npos);
  EXPECT_NE(first.find("\"vote-collect\""), std::string::npos);
  EXPECT_NE(first.find("\"quorum\""), std::string::npos);
  EXPECT_NE(first.find("\"journal-append\""), std::string::npos);
  EXPECT_NE(first.find("decisive="), std::string::npos);
  // And the critical-path renderer fully attributes the run.
  const std::string report = obs::render_critical_path(*doc);
  EXPECT_NE(report.find("attributed to named phases: 100.0%"),
            std::string::npos);
}

// Each view keeps only its own kinds: turning the others on moves no
// byte of its export.
TEST(ClusterSpans, ViewsDoNotLeakIntoEachOther) {
  const e2e::Exports spans_only = e2e::run_lossy_cluster(false, 0, true);
  const e2e::Exports all = e2e::run_lossy_cluster(true, 64, true);
  const e2e::Exports no_spans = e2e::run_lossy_cluster(true, 64, false);
  EXPECT_NE(spans_only.spans.find("\"ack-sent\""), std::string::npos);
  EXPECT_EQ(all.spans, spans_only.spans);
  EXPECT_FALSE(all.trace.empty());
  EXPECT_EQ(all.trace, no_spans.trace);
  EXPECT_NE(all.flight, "{}");
  EXPECT_EQ(all.flight, no_spans.flight);
}

// A peer rebuilt by restart_node recovers the updates it settled before
// the crash, and re-acknowledges a resent one; the quorum span its
// predecessor recorded parents nothing the rebuilt peer records.
TEST(ClusterSpans, RebuiltPeerAcknowledgesUnderNoQuorum) {
  storage::ClusterConfig config;
  config.nodes = 10;
  config.seed = 5;
  config.spans = true;
  storage::AsaCluster cluster(config);
  const storage::Guid guid = storage::Guid::named("g0");
  cluster.version_history().append(
      guid, storage::Pid::of(storage::block_from("u0")),
      [](const commit::CommitResult&) {});
  cluster.run();

  // A replica whose ack-sent hangs under its quorum span.
  const auto ack_parents = [&cluster](std::uint64_t node) {
    std::vector<std::uint64_t> parents;
    for (const obs::JsonValue& span : exported_spans(cluster.spans())) {
      if (span.find("name")->as_string() == "ack-sent" &&
          field(span, "node") == node) {
        parents.push_back(field(span, "parent"));
      }
    }
    return parents;
  };
  std::optional<sim::NodeAddr> replica;
  for (const sim::NodeAddr node : cluster.peer_set(guid)) {
    const std::vector<std::uint64_t> parents = ack_parents(node);
    if (parents.size() == 1 && parents[0] != 0) replica = node;
  }
  ASSERT_TRUE(replica.has_value());
  const std::vector<std::uint64_t> before = ack_parents(*replica);
  const commit::CommitPeer::CommittedEntry entry =
      cluster.host(*replica).peer().history(guid.to_uint64()).at(0);

  cluster.crash_node(*replica);
  cluster.restart_node(*replica);
  ASSERT_EQ(cluster.host(*replica).peer().history(guid.to_uint64()).at(0),
            entry);
  constexpr sim::NodeAddr kClient = 4'000'000;
  std::size_t acks = 0;
  cluster.network().attach(kClient, [&acks](sim::NodeAddr,
                                            std::string_view data) {
    const auto msg = commit::WireMessage::parse(data);
    acks += msg.has_value() &&
            msg->kind == commit::WireMessage::Kind::kCommitted;
  });
  cluster.network().send(
      kClient, *replica,
      commit::WireMessage{commit::WireMessage::Kind::kUpdate,
                          guid.to_uint64(), entry.update_id, entry.request_id,
                          entry.payload}
          .serialize());
  cluster.run();
  EXPECT_EQ(acks, 1u);
  EXPECT_EQ(ack_parents(*replica),
            (std::vector<std::uint64_t>{before[0], 0}));
}

// ---- Post-mortem bundles. ----

TEST(Postmortem, SameSeedProducesByteIdenticalValidBundle) {
  storage::ChaosConfig config;
  config.seed = 1;
  config.equivocators = 2;
  config.burst = 2;
  config.updates = 4;
  config.guids = 1;
  config.blocks = 1;
  const auto build = [&config]() {
    obs::MetricsRegistry metrics(true);
    obs::EventRecorder events(/*tracing=*/false, /*flight_capacity=*/64,
                              /*spans=*/true);
    const storage::ChaosReport report =
        storage::run_plan(config, sim::FaultPlan(), &metrics, &events);
    obs::PostmortemViolations violations;
    for (const storage::Violation& v : report.violations) {
      violations.emplace_back(v.invariant, v.detail);
    }
    return obs::write_postmortem_json(
        {{"tool", "test"}, {"seed", std::to_string(config.seed)}},
        violations, {"plan line"}, {}, events, metrics);
  };
  const std::string first = build();
  EXPECT_EQ(first, build());

  const auto doc = obs::parse_json(first);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(obs::validate_document_json(*doc), std::nullopt);
  // The flight tails carry causal ids from the commit path.
  EXPECT_NE(first.find("guid="), std::string::npos);
  // And the renderer accepts the bundle.
  const std::string report = obs::render_postmortem(*doc);
  EXPECT_NE(report.find("post-mortem bundle"), std::string::npos);
  EXPECT_NE(report.find("flight-recorder tails"), std::string::npos);
}

// Every post-mortem field the schema table lists, the embedded metrics and
// span documents' fields included.
TEST(Postmortem, ValidatorRejectsBrokenEmbeddedDocuments) {
  obs::EventRecorder events(/*tracing=*/false, /*flight_capacity=*/4,
                            /*spans=*/true);
  events.record(obs::EventKind::kNetSend, 10, 1, {1, 1, 2});
  obs::MetricsRegistry metrics;
  metrics.counter("events", {{"node", "1"}}).inc();
  metrics.gauge("depth", {{"node", "1"}}).set(2);
  metrics.histogram("lat", {{"node", "1"}}, {10}).observe(3);
  events.record(obs::EventKind::kSpanPoint, 5, 1, obs::span_fields(5, 1, 1),
                obs::Word::kCommit);
  const std::string doc = obs::write_postmortem_json(
      {{"tool", "test"}, {"seed", "1"}}, {{"agreement", "two values"}},
      {"crash 1 at 5"}, {"crash 1 at 5"}, events, metrics);
  EXPECT_EQ(schema_sweep::sweep_document(
                doc, [](const obs::JsonValue& d) {
                  (void)obs::render_postmortem(d);
                }),
            46u);

  const auto bad = obs::parse_json(
      "{\"schema\":\"asa-postmortem/1\",\"meta\":{},\"violations\":[],"
      "\"plan\":[],\"shrunk_plan\":[],\"flight\":{},"
      "\"metrics\":{\"schema\":\"asa-metrics/1\"},"
      "\"spans\":{\"schema\":\"asa-span/1\",\"meta\":{},\"spans\":[]}}");
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(obs::validate_document_json(*bad), "metrics.meta: missing");
  EXPECT_EQ(obs::validate_document_json(schema_sweep::edit(
                *bad, {{"metrics"}, {"schema"}}, 0, obs::JsonValue("asa-span/1"))),
            "metrics.schema: expected asa-metrics/1, got asa-span/1");
}

// ---- Allocation budget of the message path. ----

/// Total observations of every `name` series in `registry`.
std::uint64_t histogram_total(const obs::MetricsRegistry& registry,
                              const std::string& name) {
  std::uint64_t total = 0;
  registry.for_each_histogram(
      [&](const obs::MetricsRegistry::Series& s, const obs::Histogram& h) {
        if (s.name == name) total += h.count();
      });
  return total;
}

/// Sum of every `name` counter series in `registry`.
std::uint64_t counter_total(const obs::MetricsRegistry& registry,
                            const std::string& name) {
  std::uint64_t total = 0;
  registry.for_each_counter(
      [&](const obs::MetricsRegistry::Series& s, const obs::Counter& c) {
        if (s.name == name) total += c.value();
      });
  return total;
}

TEST(AllocationBudget, WarmNetworkAllocatesNothingPerMessage) {
  // From serialize to the handler a message allocates nothing: the 33-byte
  // frame sits in the payload's in-place buffer, and the send, the link
  // lookup, the scheduled delivery record, the queue and the handler call
  // all reuse storage that warm-up sized. The handlers read a
  // const std::string&, so this also covers the adapter that refills one
  // string per handler. The second input attaches a 256-slot flight
  // recorder, whose typed events fill rings that warm-up already wrapped,
  // and the third a metrics registry, whose per-link latency series
  // warm-up resolved into the link table; both must stay at zero too.
  struct Input {
    std::size_t flight_capacity;
    bool metrics;
  };
  for (const Input input : {Input{0, false}, Input{256, false},
                            Input{0, true}}) {
    SCOPED_TRACE("flight capacity " + std::to_string(input.flight_capacity) +
                 (input.metrics ? ", metrics" : ""));
    sim::Scheduler sched;
    sim::Network net(sched, sim::Rng(3));
    obs::EventRecorder flight(/*tracing=*/false, input.flight_capacity);
    if (flight.enabled()) net.set_recorder(&flight);
    obs::MetricsRegistry metrics;
    if (input.metrics) net.set_metrics(&metrics);
    constexpr sim::NodeAddr kNodes = 8;
    std::uint64_t bytes = 0;
    for (sim::NodeAddr a = 0; a < kNodes; ++a) {
      net.attach(a, [&bytes](sim::NodeAddr, const std::string& payload) {
        bytes += payload.size();
      });
    }
    // Each cycle keeps every ordered pair's message in flight at once,
    // then drains them, so the queue holds kNodes * (kNodes - 1)
    // deliveries.
    std::uint64_t sent = 0;
    const auto cycle = [&](std::uint64_t round) {
      for (sim::NodeAddr from = 0; from < kNodes; ++from) {
        for (sim::NodeAddr to = 0; to < kNodes; ++to) {
          if (from == to) continue;
          const commit::WireMessage msg{commit::WireMessage::Kind::kVote,
                                        from, round, to, sent};
          net.send(from, to, msg.serialize());
          ++sent;
        }
      }
      sched.run();
    };
    // 20 rounds record 14 events per node lane each: 280 > 256 slots.
    for (std::uint64_t round = 0; round < 20; ++round) cycle(round);
    const std::uint64_t warm_sent = sent;
    const std::uint64_t before = g_allocations.load();
    for (std::uint64_t round = 20; round < 220; ++round) cycle(round);
    const std::uint64_t allocations = g_allocations.load() - before;
    const std::uint64_t messages = sent - warm_sent;
    EXPECT_EQ(messages, 200u * kNodes * (kNodes - 1));
    EXPECT_EQ(allocations, 0u);
    EXPECT_EQ(net.stats().delivered, sent);
    EXPECT_EQ(bytes, sent * 33);
    EXPECT_EQ(flight.total_recorded(),
              input.flight_capacity == 0 ? 0 : 2 * sent);
    EXPECT_EQ(histogram_total(metrics, "net.latency_us"),
              input.metrics ? sent : 0);
    EXPECT_EQ(histogram_total(metrics, "net.class_latency_us"),
              input.metrics ? sent : 0);
  }
}

// The same warm network with the commit runtime's long timers riding
// along: every cycle arms an 80 ms retry timer and a 60 ms abort timer,
// both beyond the scheduler's wheel span, and cancels the abort timer, as
// a commit that finishes in time does. About eight cycles' timers are in
// flight at once, so each cycle's messages are delivered while earlier
// timers wait beyond the span, migrate into the wheel as the clock
// advances, and fire or are discarded there. The heap beyond the span and
// the bucket lists reuse capacity that warm-up sized: zero allocations
// per event.
TEST(AllocationBudget, WarmSchedulerWithLongTimersAllocatesNothingPerEvent) {
  sim::Scheduler sched;
  sim::Network net(sched, sim::Rng(5));
  constexpr sim::NodeAddr kNodes = 8;
  std::uint64_t received = 0;
  for (sim::NodeAddr a = 0; a < kNodes; ++a) {
    net.attach(a, [&received](sim::NodeAddr, std::string_view) {
      ++received;
    });
  }
  std::uint64_t retries = 0;
  std::uint64_t sent = 0;
  const auto cycle = [&](std::uint64_t round) {
    sched.schedule_after(80'000, [&retries] { ++retries; });
    const std::uint64_t abort =
        sched.schedule_after(60'000, [&retries] { ++retries; });
    for (sim::NodeAddr from = 0; from < kNodes; ++from) {
      for (sim::NodeAddr to = 0; to < kNodes; ++to) {
        if (from == to) continue;
        const commit::WireMessage msg{commit::WireMessage::Kind::kVote,
                                      from, round, to, sent};
        net.send(from, to, msg.serialize());
        ++sent;
      }
    }
    sched.cancel(abort);
    sched.run_until(sched.now() + 10'000);
  };
  for (std::uint64_t round = 0; round < 40; ++round) cycle(round);
  const sim::SchedulerStats warm = sched.stats();
  const std::uint64_t before = g_allocations.load();
  for (std::uint64_t round = 40; round < 440; ++round) cycle(round);
  const std::uint64_t allocations = g_allocations.load() - before;
  const sim::SchedulerStats& stats = sched.stats();
  EXPECT_EQ(stats.scheduled - warm.scheduled,
            400u * (2 + kNodes * (kNodes - 1)));
  EXPECT_EQ(stats.discarded - warm.discarded, 400u);
  EXPECT_GE(sched.pending(), 14u);  // Timers still in flight at the end.
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(received, sent);
  EXPECT_EQ(retries, stats.executed - received);
}

// The commit peer's half of the per-message path. In a warm peer set,
// every vote or commit delivery that opens no instance allocates nothing:
// the GUID context and the instance are found in place, the SenderSets
// hold every sender inline up to r = 13, and each broadcast frame is held
// inline by the network. The one delivery per peer and update that
// finishes the instance appends to the GUID's history and settled table;
// both double, so across the window they allocate at most a few times per
// (peer, GUID), never per message.
TEST(AllocationBudget, WarmPeerDeliveriesAllocateNothing) {
  commit::MachineCache cache;
  for (const std::uint32_t r : {4u, 13u}) {
    SCOPED_TRACE("r=" + std::to_string(r));
    sim::Scheduler sched;
    sim::Network net(sched, sim::Rng(r));
    std::vector<sim::NodeAddr> addrs;
    for (sim::NodeAddr a = 0; a < r; ++a) addrs.push_back(a);
    const fsm::StateMachine& machine = cache.machine_for(r);
    std::vector<std::unique_ptr<commit::CommitPeer>> peers;
    for (const sim::NodeAddr a : addrs) {
      peers.push_back(std::make_unique<commit::CommitPeer>(
          net, a, addrs, machine, commit::Behaviour::kHonest, nullptr,
          /*attach_to_network=*/false));
    }
    constexpr sim::NodeAddr kClient = 100;
    std::uint64_t acks = 0;
    net.attach(kClient, [&acks](sim::NodeAddr, std::string_view) { ++acks; });
    bool measuring = false;
    std::uint64_t quiet = 0;           // Deliveries that open or finish none.
    std::uint64_t quiet_allocations = 0;
    std::uint64_t finishing = 0;
    std::uint64_t finishing_allocations = 0;
    for (const sim::NodeAddr a : addrs) {
      net.attach(a, [&, a](sim::NodeAddr from, std::string_view frame) {
        commit::CommitPeer& peer = *peers[a];
        const auto msg = commit::WireMessage::parse(frame);
        const std::size_t resident = peer.resident_instances(msg->guid);
        const std::uint64_t committed = peer.stats().committed;
        const std::uint64_t before = g_allocations.load();
        peer.handle_frame(from, frame);
        const std::uint64_t allocations = g_allocations.load() - before;
        if (!measuring || msg->kind == commit::WireMessage::Kind::kUpdate ||
            peer.resident_instances(msg->guid) > resident) {
          return;  // Requests and instance openings are outside the budget.
        }
        if (peer.stats().committed > committed) {
          ++finishing;
          finishing_allocations += allocations;
        } else {
          ++quiet;
          quiet_allocations += allocations;
        }
      });
    }
    constexpr std::uint64_t kGuids = 8;
    std::uint64_t update_id = 0;
    const auto round = [&] {
      for (std::uint64_t guid = 1; guid <= kGuids; ++guid) {
        ++update_id;
        const commit::WireMessage update{commit::WireMessage::Kind::kUpdate,
                                         guid, update_id, update_id,
                                         update_id * 7};
        for (const sim::NodeAddr a : addrs) {
          net.send(kClient, a, update.serialize());
        }
      }
      sched.run();
    };
    for (int i = 0; i < 20; ++i) round();
    measuring = true;
    constexpr int kRounds = 40;
    for (int i = 0; i < kRounds; ++i) round();
    EXPECT_EQ(acks, update_id * r);  // Every update committed everywhere.
    EXPECT_EQ(finishing, kRounds * kGuids * r);
    EXPECT_GT(quiet, 2 * (r - 2) * finishing);  // Votes and commits alike.
    EXPECT_EQ(quiet_allocations, 0u);
    // Histories grow from 20 to 60 entries in the window: at most two
    // doublings each for the history and the settled table.
    EXPECT_LE(finishing_allocations, 4 * kGuids * r);
  }
}

// Spans cost no allocation of their own. A warm r=4 cluster commits the
// same updates with spans off and on; spans never touch the schedule, so
// both are the same run, and the allocations they make may differ only by
// the amortised growth of the span view (a block per 512 span events),
// never by one per span.
TEST(AllocationBudget, SpansAllocateNothingPerSpan) {
  constexpr int kGuids = 8;
  constexpr std::uint32_t kR = 4;
  struct Window {
    std::uint64_t commits = 0;
    std::uint64_t allocations = 0;
    std::size_t spans = 0;
  };
  const auto run = [](bool spans) {
    storage::ClusterConfig config;
    config.nodes = 16;
    config.replication_factor = kR;
    config.seed = 7;
    config.spans = spans;
    storage::AsaCluster cluster(config);
    std::uint64_t commits = 0;
    int next = 0;
    const auto round = [&] {
      for (int g = 0; g < kGuids; ++g) {
        cluster.version_history().append(
            storage::Guid::named("g" + std::to_string(g)),
            storage::Pid::of(
                storage::block_from("u" + std::to_string(next++))),
            [&commits](const commit::CommitResult& result) {
              if (result.committed) ++commits;
            });
      }
      cluster.run();
    };
    for (int i = 0; i < 20; ++i) round();
    Window window;
    const std::uint64_t commits_before = commits;
    const std::size_t spans_before = obs::span_count(cluster.spans());
    const std::uint64_t before = g_allocations.load();
    for (int i = 0; i < 40; ++i) round();
    window.allocations = g_allocations.load() - before;
    window.commits = commits - commits_before;
    window.spans = obs::span_count(cluster.spans()) - spans_before;
    return window;
  };
  const Window off = run(false);
  const Window on = run(true);
  EXPECT_EQ(off.commits, 40u * kGuids);
  EXPECT_EQ(on.commits, off.commits);
  EXPECT_EQ(off.spans, 0u);
  // Each commit opens a root, an attempt and per replica a vote-collect,
  // a quorum and the journal-append and ack-sent points.
  EXPECT_GE(on.spans, on.commits * (2 + 4 * kR));
  ASSERT_GE(on.allocations, off.allocations);
  // The span view may allocate once per 256 spans (it takes a block per
  // 512 span events, 28 per 18 spans here, plus at most two doublings of
  // its block list); nothing else allocates per span.
  EXPECT_LE(on.allocations - off.allocations, on.spans / 256 + 3);
}

// Hot sites keep resolved metric handles; these pin the moments a handle
// must be dropped. A link's class series follows its profile, whether the
// profile changes between deliveries or while a message is in flight
// (the class is the one the link has when the copy is delivered).
TEST(MetricHandles, ClassSeriesFollowsTheLinkProfile) {
  sim::Scheduler sched;
  sim::Network net(sched, sim::Rng(5));
  obs::MetricsRegistry metrics;
  net.set_metrics(&metrics);
  for (const sim::NodeAddr a : {0u, 1u}) {
    net.attach(a, [](sim::NodeAddr, const std::string&) {});
  }
  const auto send = [&](int n) {
    for (int i = 0; i < n; ++i) net.send(0, 1, "frame");
    sched.run();
  };
  send(3);
  net.set_link_profile(0, 1, *sim::link_profile("lan"));
  send(4);
  sim::LinkProfile slow;
  slow.name = "slow";
  slow.latency = {9'000, 9'000};
  net.set_link_profile(0, 1, slow);
  send(2);
  net.send(0, 1, "in flight");
  net.clear_link_profile(0, 1);
  send(5);
  const auto count = [&](const char* cls) {
    return metrics
        .histogram("net.class_latency_us", {{"class", cls}},
                   obs::latency_buckets_us())
        .count();
  };
  EXPECT_EQ(count("default"), 9u);
  EXPECT_EQ(count("lan"), 4u);
  EXPECT_EQ(count("slow"), 2u);
  EXPECT_EQ(metrics.histogram("net.latency_us", {{"link", "0->1"}}).count(),
            15u);
  EXPECT_EQ(histogram_total(metrics, "net.class_latency_us"), 15u);
}

// After set_metrics attaches a second registry, the network, the peers and
// the endpoint observe only into it: nothing they resolved against the
// first registry is used again.
TEST(MetricHandles, SetMetricsMovesEveryHotSiteToTheNewRegistry) {
  commit::MachineCache cache;
  const fsm::StateMachine& machine = cache.machine_for(4);
  sim::Scheduler sched;
  sim::Network net(sched, sim::Rng(7));
  const std::vector<sim::NodeAddr> addrs{0, 1, 2, 3};
  std::vector<std::unique_ptr<commit::CommitPeer>> peers;
  for (const sim::NodeAddr a : addrs) {
    peers.push_back(
        std::make_unique<commit::CommitPeer>(net, a, addrs, machine));
  }
  commit::CommitEndpoint endpoint(
      net, 100, addrs, commit::EndpointAbstraction::deployed(1, {}), {},
      sim::Rng(11));
  const auto attach = [&](obs::MetricsRegistry* metrics) {
    net.set_metrics(metrics);
    for (const auto& peer : peers) peer->set_metrics(metrics);
    endpoint.set_metrics(metrics);
  };
  sim::Time deadline = 0;
  const auto commit_one = [&](std::uint64_t payload) {
    bool committed = false;
    endpoint.submit(77, payload, [&](const commit::CommitResult& r) {
      committed = r.committed;
    });
    deadline += 1'000'000;
    sched.run_until(deadline);
    EXPECT_TRUE(committed);
  };
  const auto totals = [](const obs::MetricsRegistry& metrics) {
    return std::vector<std::uint64_t>{
        histogram_total(metrics, "net.latency_us"),
        histogram_total(metrics, "net.class_latency_us"),
        histogram_total(metrics, "endpoint.commit_latency_us"),
        histogram_total(metrics, "endpoint.attempts"),
        counter_total(metrics, "commit.instances_opened"),
        histogram_total(metrics, "commit.instance_latency_us")};
  };

  obs::MetricsRegistry first;
  attach(&first);
  commit_one(1);
  const std::uint64_t first_deliveries = net.stats().delivered;
  const std::vector<std::uint64_t> first_totals = totals(first);
  EXPECT_EQ(first_totals,
            (std::vector<std::uint64_t>{first_deliveries, first_deliveries,
                                        1, 1, 4, 4}));

  obs::MetricsRegistry second;
  attach(&second);
  commit_one(2);
  commit_one(3);
  const std::uint64_t later = net.stats().delivered - first_deliveries;
  EXPECT_EQ(totals(first), first_totals);
  EXPECT_EQ(totals(second),
            (std::vector<std::uint64_t>{later, later, 2, 2, 8, 8}));
}

}  // namespace
}  // namespace asa_repro
