// Observability layer: metrics registry semantics, JSON schema round-trip,
// causal trace <-> NetworkStats reconciliation, JSONL escaping, flight
// recorder rings, commit-path spans and critical-path attribution,
// post-mortem bundles, the bench trend gate, and the end-to-end
// determinism contract (identical seed => byte-identical exports).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "storage/chaos.hpp"
#include "storage/cluster.hpp"

// Global allocation counter backing the disabled-mode zero-allocation
// test (this test binary only; new[] forwards here by default).
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

TEST(MetricsJson, ExportParsesAndValidates) {
  obs::MetricsRegistry reg;
  reg.counter("events", {{"node", "3"}}).inc(12);
  reg.gauge("depth").set(-5);
  reg.histogram("lat", {}, obs::latency_buckets_us()).observe(1234);

  const std::string doc = obs::write_metrics_json(
      reg, {{"tool", "test"}, {"seed", "42"}});
  const auto parsed = obs::parse_json(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(obs::validate_metrics_json(*parsed), std::nullopt);

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

TEST(MetricsJson, ValidatorRejectsWrongSchemaAndShape) {
  const auto bad_schema =
      obs::parse_json(R"({"schema":"nonsense/9","meta":{},"counters":[],)"
                      R"("gauges":[],"histograms":[]})");
  ASSERT_TRUE(bad_schema.has_value());
  EXPECT_NE(obs::validate_metrics_json(*bad_schema), std::nullopt);

  const auto missing_section =
      obs::parse_json(R"({"schema":"asa-metrics/1","meta":{}})");
  ASSERT_TRUE(missing_section.has_value());
  EXPECT_NE(obs::validate_metrics_json(*missing_section), std::nullopt);
}

// ---- Trace JSONL round-trip, including hostile details. ----

TEST(TraceJsonl, RoundTripPreservesNewlinesQuotesAndControlChars) {
  sim::Trace trace;
  trace.record(10, 1, "cat.a", "plain detail");
  trace.record(20, 2, "cat.b", "line one\nline two\ttabbed");
  trace.record(30, 3, "cat.a", R"(quotes " and \ backslash)");
  trace.record(40, 4, "cat\"c", std::string("nul \x01 ctrl"));

  std::ostringstream os;
  os << R"({"schema":"asa-trace/1","tool":"test"})" << "\n";
  trace.dump_jsonl(os);
  os << "\n";  // Trailing blank line must be tolerated.

  const auto events = sim::Trace::parse_jsonl(os.str());
  ASSERT_TRUE(events.has_value());
  ASSERT_EQ(events->size(), trace.events().size());
  for (std::size_t i = 0; i < events->size(); ++i) {
    EXPECT_EQ((*events)[i].time, trace.events()[i].time);
    EXPECT_EQ((*events)[i].node, trace.events()[i].node);
    EXPECT_EQ((*events)[i].category, trace.events()[i].category);
    EXPECT_EQ((*events)[i].detail, trace.events()[i].detail);
  }

  // The decoupled report-side parser agrees.
  const auto report_events = obs::parse_trace_jsonl(os.str());
  ASSERT_TRUE(report_events.has_value());
  ASSERT_EQ(report_events->size(), trace.events().size());
  EXPECT_EQ((*report_events)[1].detail, "line one\nline two\ttabbed");
}

TEST(TraceJsonl, MalformedLineFailsTheParse) {
  EXPECT_FALSE(sim::Trace::parse_jsonl("not json\n").has_value());
  EXPECT_FALSE(
      sim::Trace::parse_jsonl(R"({"t":1,"node":0,"cat":"x"})" "\n{oops\n")
          .has_value());
}

TEST(TraceJsonl, DetailFieldExtraction) {
  EXPECT_EQ(obs::detail_field("guid=7 update=12 latency=3200", "latency"),
            std::optional<std::uint64_t>(3200));
  EXPECT_EQ(obs::detail_field("guid=7", "update"), std::nullopt);
  EXPECT_EQ(obs::detail_field("update=x", "update"), std::nullopt);
}

// ---- Causal trace <-> NetworkStats reconciliation under forced faults. ----

// Collect the id= field of every event in a category.
std::vector<std::uint64_t> ids_in(const sim::Trace& trace,
                                  const std::string& category) {
  std::vector<std::uint64_t> ids;
  trace.for_each_in_category(category, [&](const sim::TraceEvent& e) {
    const auto id = obs::detail_field(e.detail, "id");
    EXPECT_TRUE(id.has_value()) << category << ": " << e.detail;
    if (id.has_value()) ids.push_back(*id);
  });
  return ids;
}

TEST(NetworkCausalTrace, StatsReconcileUnderDropDuplicateAndPartition) {
  sim::Scheduler sched;
  sim::Network net(sched, sim::Rng(7));
  sim::Trace trace;
  net.set_trace(&trace);
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
  EXPECT_EQ(trace.count("net.send"), stats.sent);
  EXPECT_EQ(trace.count("net.drop"), stats.dropped);
  EXPECT_EQ(trace.count("net.dup"), stats.duplicated);
  EXPECT_EQ(trace.count("net.part"), stats.partitioned);
  EXPECT_EQ(trace.count("net.dead"), stats.to_dead_node);
  EXPECT_EQ(trace.count("net.deliver"), stats.delivered);

  // Send ids are unique and monotonically increasing from 1.
  const auto send_ids = ids_in(trace, "net.send");
  ASSERT_EQ(send_ids.size(), 13u);
  for (std::size_t i = 0; i < send_ids.size(); ++i) {
    EXPECT_EQ(send_ids[i], i + 1);
  }
  EXPECT_EQ(net.next_message_id(), 14u);

  // Every outcome id refers back to a send, and the outcomes partition the
  // sends: each id is dropped, partitioned, or delivered (1 or 2 copies).
  const std::set<std::uint64_t> sent_set(send_ids.begin(), send_ids.end());
  std::set<std::uint64_t> terminal;
  for (const char* cat : {"net.drop", "net.part", "net.deliver", "net.dead"}) {
    for (const std::uint64_t id : ids_in(trace, cat)) {
      EXPECT_TRUE(sent_set.contains(id)) << cat << " id " << id;
      terminal.insert(id);
    }
  }
  EXPECT_EQ(terminal, sent_set);

  // Duplicated ids show up exactly twice in net.deliver.
  const auto deliver_ids = ids_in(trace, "net.deliver");
  for (const std::uint64_t id : ids_in(trace, "net.dup")) {
    EXPECT_EQ(std::count(deliver_ids.begin(), deliver_ids.end(), id), 2)
        << "dup id " << id;
  }

  // Delivery events carry the sampled latency.
  trace.for_each_in_category("net.deliver", [&](const sim::TraceEvent& e) {
    EXPECT_TRUE(obs::detail_field(e.detail, "latency").has_value())
        << e.detail;
  });
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
  EXPECT_EQ(obs::validate_metrics_json(*parsed), std::nullopt);
  EXPECT_FALSE(parsed->find("histograms")->items().empty());
}

TEST(MetricsDeterminism, DifferentSeedsDiverge) {
  EXPECT_NE(run_cluster_and_export(11), run_cluster_and_export(12));
}

// ---- Flight recorder: ring semantics, wraparound, merge, JSON. ----

TEST(FlightRecorder, DropOldestWraparoundKeepsOrderAndSeq) {
  obs::FlightRecorder flight(3);
  EXPECT_TRUE(flight.enabled());
  for (int i = 0; i < 5; ++i) {
    flight.record(static_cast<std::uint64_t>(100 + i), 1, "cat",
                  "i=" + std::to_string(i));
  }
  flight.record(200, 2, "other", "x");
  EXPECT_EQ(flight.total_recorded(), 6u);

  const auto lane1 = flight.lane(1);
  ASSERT_EQ(lane1.size(), 3u);  // The two oldest events were evicted.
  EXPECT_EQ(lane1[0].detail, "i=2");
  EXPECT_EQ(lane1[1].detail, "i=3");
  EXPECT_EQ(lane1[2].detail, "i=4");
  EXPECT_LT(lane1[0].seq, lane1[1].seq);
  EXPECT_LT(lane1[1].seq, lane1[2].seq);
  // The global sequence preserves cross-lane order.
  const auto lane2 = flight.lane(2);
  ASSERT_EQ(lane2.size(), 1u);
  EXPECT_LT(lane1[2].seq, lane2[0].seq);
  EXPECT_EQ(flight.lanes(), (std::vector<std::uint32_t>{1, 2}));
}

TEST(FlightRecorder, DisabledRecorderDropsEverything) {
  obs::FlightRecorder off(0);
  EXPECT_FALSE(off.enabled());
  off.record(1, 1, "cat", "detail");
  EXPECT_EQ(off.total_recorded(), 0u);
  EXPECT_TRUE(off.lanes().empty());
  EXPECT_TRUE(off.lane(1).empty());
}

TEST(FlightRecorder, DisabledComponentPathAllocatesNothing) {
  // Components guard every event behind one pointer test; with a null
  // recorder the detail string is never even built, so the instrumented
  // hot path performs zero allocations.
  obs::FlightRecorder* flight = nullptr;
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    if (flight != nullptr) {
      flight->record(static_cast<std::uint64_t>(i), 1, "net.send",
                     "id=" + std::to_string(i) + " from=0 to=1");
    }
  }
  EXPECT_EQ(g_allocations.load(), before);
}

TEST(FlightRecorder, MergeRerecordsPreservingTimeAndJsonNamesClusterLane) {
  obs::FlightRecorder a(2);
  obs::FlightRecorder b(2);
  a.record(10, 1, "a", "1");
  b.record(5, 1, "b", "1");
  b.record(6, obs::FlightRecorder::kClusterLane, "b", "2");
  a.merge(b);
  const auto lane1 = a.lane(1);
  ASSERT_EQ(lane1.size(), 2u);
  EXPECT_EQ(lane1[0].t, 10u);  // Merge appends: original time, new seq.
  EXPECT_EQ(lane1[1].t, 5u);
  EXPECT_LT(lane1[0].seq, lane1[1].seq);
  const obs::JsonValue json = a.to_json();
  EXPECT_NE(json.find("1"), nullptr);
  EXPECT_NE(json.find("cluster"), nullptr);
}

// ---- Span recorder: retry lifecycle, nesting, merge, JSON. ----

TEST(SpanRecorder, RetryLifecycleAndNesting) {
  obs::SpanRecorder rec;
  const std::uint64_t root = rec.open("commit", 0, 9, "g", 7, 0, 100);
  const std::uint64_t a1 = rec.open("attempt", root, 9, "g", 7, 71, 100);
  EXPECT_TRUE(rec.is_open(root));
  EXPECT_TRUE(rec.is_open(a1));
  rec.close(a1, 180, false, "retry");
  EXPECT_FALSE(rec.is_open(a1));
  const std::uint64_t a2 = rec.open("attempt", root, 9, "g", 7, 72, 180);
  rec.close(a2, 260, true);
  rec.close(root, 265, true, "decisive=3 attempts=2");
  rec.close(root, 999, false, "late");  // Double close is ignored.
  rec.close(0, 999, false);             // Id 0 (no span) is ignored.

  const auto& spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "commit");
  EXPECT_EQ(spans[0].end, 265u);
  EXPECT_TRUE(spans[0].ok);
  EXPECT_EQ(spans[0].detail, "decisive=3 attempts=2");
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_FALSE(spans[1].ok);
  EXPECT_EQ(spans[1].detail, "retry");
  EXPECT_TRUE(spans[2].ok);
  EXPECT_EQ(spans[2].update_id, 72u);
}

TEST(SpanRecorder, MergeOffsetsIdsAndParentLinks) {
  obs::SpanRecorder a;
  obs::SpanRecorder b;
  a.open("x", 0, 1, "g", 1, 1, 0);
  const std::uint64_t broot = b.open("y", 0, 2, "g", 2, 2, 5);
  b.point("p", broot, 2, "g", 2, 2, 9, true, "d");
  a.merge(b);
  ASSERT_EQ(a.spans().size(), 3u);
  EXPECT_EQ(a.spans()[1].id, 2u);
  EXPECT_EQ(a.spans()[1].parent, 0u);  // b's root stays a root.
  EXPECT_EQ(a.spans()[2].parent, 2u);  // b's child re-based onto new id.
  EXPECT_TRUE(a.spans()[2].closed);
  EXPECT_EQ(a.spans()[2].start, a.spans()[2].end);
}

TEST(SpansJson, ExportParsesAndValidates) {
  obs::SpanRecorder rec;
  const std::uint64_t root = rec.open("commit", 0, 1, "g", 1, 0, 10);
  rec.close(root, 20, true, "decisive=1 attempts=1");
  const std::string doc = obs::write_spans_json(rec, {{"tool", "test"}});
  const auto parsed = obs::parse_json(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(obs::validate_spans_json(*parsed), std::nullopt);
  EXPECT_EQ(obs::validate_document_json(*parsed), std::nullopt);
}

TEST(SpansJson, ValidatorRejectsBrokenShape) {
  // parent must reference an earlier id.
  const auto bad_parent = obs::parse_json(
      "{\"schema\":\"asa-span/1\",\"meta\":{},\"spans\":[{\"id\":1,"
      "\"parent\":1,\"name\":\"x\",\"node\":0,\"guid\":\"\",\"request\":0,"
      "\"update\":0,\"start\":0,\"end\":1,\"ok\":true,\"closed\":true,"
      "\"detail\":\"\"}]}");
  ASSERT_TRUE(bad_parent.has_value());
  EXPECT_NE(obs::validate_spans_json(*bad_parent), std::nullopt);

  // end must not precede start.
  const auto bad_interval = obs::parse_json(
      "{\"schema\":\"asa-span/1\",\"meta\":{},\"spans\":[{\"id\":1,"
      "\"parent\":0,\"name\":\"x\",\"node\":0,\"guid\":\"\",\"request\":0,"
      "\"update\":0,\"start\":5,\"end\":1,\"ok\":true,\"closed\":true,"
      "\"detail\":\"\"}]}");
  ASSERT_TRUE(bad_interval.has_value());
  EXPECT_NE(obs::validate_spans_json(*bad_interval), std::nullopt);

  // spans must be an array.
  const auto bad_spans = obs::parse_json(
      "{\"schema\":\"asa-span/1\",\"meta\":{},\"spans\":{}}");
  ASSERT_TRUE(bad_spans.has_value());
  EXPECT_NE(obs::validate_spans_json(*bad_spans), std::nullopt);
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
  obs::SpanRecorder rec;
  const std::uint64_t root = rec.open("commit", 0, 100, "g1", 7, 0, 1000);
  const std::uint64_t a1 = rec.open("attempt", root, 100, "g1", 7, 71, 1100);
  rec.close(a1, 1500, false, "retry");
  const std::uint64_t a2 = rec.open("attempt", root, 100, "g1", 7, 72, 1500);
  const std::uint64_t vote = rec.open("vote-collect", 0, 3, "g1", 7, 72, 1600);
  rec.close(vote, 1900, true);
  const std::uint64_t quorum = rec.open("quorum", 0, 3, "g1", 7, 72, 1900);
  rec.point("journal-append", quorum, 3, "g1", 7, 72, 1950, true);
  rec.point("ack-sent", quorum, 3, "g1", 7, 72, 2000, true);
  rec.close(quorum, 2000, true);
  rec.close(a2, 2100, true);
  rec.close(root, 2100, true, "decisive=3 attempts=2");

  const auto doc =
      obs::parse_json(obs::write_spans_json(rec, {{"tool", "t"}}));
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
  EXPECT_NE(report.find("guid=g1"), std::string::npos);
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

}  // namespace e2e

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
    obs::FlightRecorder flight(64);
    obs::SpanRecorder spans;
    const storage::ChaosReport report = storage::run_plan(
        config, sim::FaultPlan(), &metrics, nullptr, &flight, &spans);
    obs::PostmortemViolations violations;
    for (const storage::Violation& v : report.violations) {
      violations.emplace_back(v.invariant, v.detail);
    }
    return obs::write_postmortem_json(
        {{"tool", "test"}, {"seed", std::to_string(config.seed)}},
        violations, {"plan line"}, {}, flight, metrics, spans);
  };
  const std::string first = build();
  EXPECT_EQ(first, build());

  const auto doc = obs::parse_json(first);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(obs::validate_postmortem_json(*doc), std::nullopt);
  EXPECT_EQ(obs::validate_document_json(*doc), std::nullopt);
  // The flight tails carry causal ids from the commit path.
  EXPECT_NE(first.find("guid="), std::string::npos);
  // And the renderer accepts the bundle.
  const std::string report = obs::render_postmortem(*doc);
  EXPECT_NE(report.find("post-mortem bundle"), std::string::npos);
  EXPECT_NE(report.find("flight-recorder tails"), std::string::npos);
}

TEST(Postmortem, ValidatorRejectsBrokenEmbeddedDocuments) {
  const auto bad = obs::parse_json(
      "{\"schema\":\"asa-postmortem/1\",\"meta\":{},\"violations\":[],"
      "\"plan\":[],\"shrunk_plan\":[],\"flight\":{},"
      "\"metrics\":{\"schema\":\"asa-metrics/1\"},"
      "\"spans\":{\"schema\":\"asa-span/1\",\"meta\":{},\"spans\":[]}}");
  ASSERT_TRUE(bad.has_value());
  const auto error = obs::validate_postmortem_json(*bad);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("embedded metrics"), std::string::npos);
}

}  // namespace
}  // namespace asa_repro
