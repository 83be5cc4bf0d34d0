// Golden event order for the simulated stack.
//
// Four fixed-seed AsaCluster runs are pinned to what the simulator did
// with them: r=4, r=13, r=4 under 5% message loss plus 5% duplication
// with agreed reads and block stores riding along (their timeouts, retries
// and timer cancels included), and an open-loop run whose timers reach far
// past any message delay. Each run is reduced to a hash of every
// message copy the network delivered — time, from, to, message id, send
// time and payload bytes, in delivery order — plus the final NetworkStats
// and SchedulerStats. The first three were captured from the simulator
// before its scheduler held typed delivery events, the open-loop one from
// the binary-heap scheduler before the bucket wheel replaced it, so a
// change to the scheduler, the network or the commit runtime that moves
// one event, one RNG draw or one byte fails here.
//
// GoldenExports pins what the observability exports make of one chaos
// run that reaches every event kind: the trace and flight views, the
// metrics and span documents, and a post-mortem bundle over all of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include <sstream>

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/span.hpp"
#include "sim/workload.hpp"
#include "storage/chaos.hpp"
#include "storage/cluster.hpp"

namespace asa_repro::storage {
namespace {

struct Fingerprint {
  std::uint64_t deliveries = 0;
  std::uint64_t hash = 0xCBF29CE484222325ull;  // FNV-1a 64 offset basis.
  int committed = 0;
  std::uint64_t attempts = 0;  // Commit attempts, retries included.
  sim::NetworkStats net;
  sim::SchedulerStats sched;
};

void mix(std::uint64_t& hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= 0x100000001B3ull;
  }
}

void mix(std::uint64_t& hash, std::string_view bytes) {
  mix(hash, bytes.size());
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001B3ull;
  }
}

// Hash every message copy the network delivers into `fp`.
void observe(AsaCluster& cluster, Fingerprint& fp) {
  cluster.network().set_delivery_observer([&cluster,
                                           &fp](const sim::Delivery& d) {
    ++fp.deliveries;
    mix(fp.hash, cluster.scheduler().now());
    mix(fp.hash, d.from);
    mix(fp.hash, d.to);
    mix(fp.hash, d.message_id);
    mix(fp.hash, d.sent_at);
    mix(fp.hash, d.payload);
  });
}

struct RunSpec {
  std::uint32_t r;
  std::size_t nodes;
  std::uint64_t seed;
  double loss;           // Drop and duplicate probability alike.
  bool reads_and_stores;
};

Fingerprint run(const RunSpec& spec) {
  ClusterConfig config;
  config.nodes = spec.nodes;
  config.replication_factor = spec.r;
  config.seed = spec.seed;
  config.drop_probability = spec.loss;
  config.abort_scan_interval = 60'000;
  config.abort_max_age = 80'000;
  config.retry.base_timeout = 80'000;
  config.retry.max_attempts = 25;
  AsaCluster cluster(config);
  cluster.network().set_duplicate_probability(spec.loss);

  Fingerprint fp;
  observe(cluster, fp);

  constexpr int kGuids = 12;
  sim::Time deadline = 0;
  for (int round = 0; round < 3; ++round) {
    for (int g = 0; g < kGuids; ++g) {
      const Guid guid = Guid::named("golden:" + std::to_string(g));
      const std::string tag =
          "round " + std::to_string(round) + " guid " + std::to_string(g);
      cluster.version_history().append(
          guid, Pid::of(block_from(tag)),
          [&](const commit::CommitResult& r) { fp.committed += r.committed; });
      if (spec.reads_and_stores && g % 3 == round % 3) {
        cluster.version_history().read(guid,
                                       [](const HistoryReadResult&) {});
        (void)cluster.data_store().store(block_from("block " + tag),
                                         [](const StoreResult&) {});
      }
    }
    deadline += 30'000;
    cluster.scheduler().run_until(deadline);
  }
  cluster.run();
  fp.net = cluster.network().stats();
  fp.sched = cluster.scheduler().stats();
  return fp;
}

void expect_stats(const Fingerprint& fp, const sim::NetworkStats& net,
                  const sim::SchedulerStats& sched) {
  EXPECT_EQ(fp.net, net);
  EXPECT_EQ(fp.sched, sched);
}

TEST(GoldenEventOrder, ReplicationFactorFour) {
  const Fingerprint fp = run({4, 16, 101, 0.0, false});
  EXPECT_EQ(fp.committed, 36);
  EXPECT_EQ(fp.deliveries, 1152u);
  EXPECT_EQ(fp.hash, 7466666345071436167ull);
  expect_stats(fp, {1152, 1152, 0, 0, 0, 0, 0}, {1217, 1181, 36, 36, 208});
}

TEST(GoldenEventOrder, ReplicationFactorThirteen) {
  const Fingerprint fp = run({13, 32, 102, 0.0, false});
  EXPECT_EQ(fp.committed, 36);
  EXPECT_EQ(fp.deliveries, 9816u);
  EXPECT_EQ(fp.hash, 3376226098012856348ull);
  expect_stats(fp, {9816, 9816, 0, 0, 0, 0, 0},
               {9913, 9877, 36, 36, 1471});
}

TEST(GoldenEventOrder, LossAndDuplicationWithReadsAndStores) {
  const Fingerprint fp = run({4, 16, 103, 0.05, true});
  EXPECT_EQ(fp.committed, 36);
  EXPECT_EQ(fp.deliveries, 1324u);
  EXPECT_EQ(fp.hash, 6101869123756981850ull);
  // The captured scheduler counted 60 cancels: these 53, each discarded
  // when its event came up, plus 7 made by timed-out reads and stores on
  // their own timer after it had fired. Cancelling a fired event is now a
  // no-op and counts nothing.
  expect_stats(fp, {1332, 1324, 73, 65, 0, 0, 0},
               {1417, 1364, 53, 53, 223});
}

// The long-timer path: open-loop arrivals for every operation scheduled
// at t=0, up to ~400 ms ahead; 10% message loss, so 80 ms commit retries
// and 60 ms abort scans fire; agreed reads with their own timeouts; and a
// replica crash and durable restart in the middle of the arrivals. Most of
// these events are scheduled far beyond the delay of any message, so the
// constants pin the queue's handling of distant timers against the
// binary-heap scheduler they were captured on.
Fingerprint run_open_loop() {
  ClusterConfig config;
  config.nodes = 24;
  config.replication_factor = 4;
  config.seed = 104;
  config.drop_probability = 0.1;
  config.abort_scan_interval = 60'000;
  config.abort_max_age = 80'000;
  config.retry.base_timeout = 80'000;
  config.retry.max_attempts = 25;
  AsaCluster cluster(config);
  cluster.version_history().set_serialize_appends(true);

  Fingerprint fp;
  observe(cluster, fp);

  sim::WorkloadConfig workload;
  workload.writers = 4;
  workload.keys = 8;
  workload.operations = 64;
  workload.read_fraction = 0.2;
  workload.open_loop = true;
  const auto ops = sim::generate_workload(workload, config.seed);
  sim::Scheduler& sched = cluster.scheduler();
  for (const auto& writer : ops) {
    for (const sim::WorkloadOp& op : writer) {
      sched.schedule_at(op.at, [&cluster, &fp, op] {
        const Guid guid = Guid::named("golden:" + std::to_string(op.key));
        if (op.read) {
          cluster.version_history().read(guid,
                                         [](const HistoryReadResult&) {});
          return;
        }
        cluster.version_history().append(
            guid,
            Pid::of(block_from("w" + std::to_string(op.writer) + " op" +
                               std::to_string(op.sequence))),
            [&fp](const commit::CommitResult& r) {
              fp.committed += r.committed;
              fp.attempts += r.attempts;
            });
      });
    }
  }
  // A replica of the hottest GUID crashes and later recovers from its
  // journal.
  const std::size_t victim = cluster.peer_set(Guid::named("golden:0")).back();
  sched.schedule_at(200'000,
                    [&cluster, victim] { cluster.crash_node(victim); });
  sched.schedule_at(450'000,
                    [&cluster, victim] { cluster.restart_node(victim); });
  cluster.run();
  fp.net = cluster.network().stats();
  fp.sched = cluster.scheduler().stats();
  return fp;
}

TEST(GoldenEventOrder, OpenLoopArrivalsLossCrashAndRestart) {
  const Fingerprint fp = run_open_loop();
  EXPECT_EQ(fp.committed, 54);
  EXPECT_EQ(fp.attempts, 58u);  // Four retries, after 80 and 160 ms.
  EXPECT_EQ(fp.deliveries, 1690u);
  EXPECT_EQ(fp.hash, 3705164355787039604ull);
  expect_stats(fp, {1862, 1690, 172, 0, 0, 0, 0}, {1942, 1883, 59, 59, 108});
}

// Every observability event kind, exported through both views: one chaos
// run over a hand-written fault plan with drop, duplicate and partition
// windows, a crash and a durable restart, a disk stall while commits are
// running, and a join, a leave and a depart. The asa-trace/1 JSONL and the
// flight JSON are pinned to hashes captured when the trace and the flight
// recorder still built their detail strings at each emission site, so a
// change to any category, field, lane or event order fails here. The
// asa-metrics/1, asa-span/1 and asa-postmortem/1 documents of the same run
// are pinned to hashes captured when each export still built a JsonValue
// tree and dumped it, so the streaming writer must match them byte for
// byte.
struct Exports {
  std::string trace;
  std::string flight;
  std::string metrics;
  std::string spans;
  std::string postmortem;
};

Exports run_exports() {
  ChaosConfig config;
  config.nodes = 12;
  config.replication = 4;
  config.seed = 21;
  config.updates = 12;
  config.guids = 2;
  config.blocks = 1;
  config.horizon = 1'500'000;
  using Kind = sim::FaultEvent::Kind;
  sim::FaultPlan plan;
  plan.add({.at = 40'000, .kind = Kind::kDropRate, .rate = 0.1});
  plan.add({.at = 90'000, .kind = Kind::kCrash, .node = 3});
  plan.add({.at = 120'000, .kind = Kind::kDropRate, .rate = 0.0});
  plan.add({.at = 150'000, .kind = Kind::kDupRate, .rate = 0.2});
  plan.add({.at = 200'000, .kind = Kind::kPartition, .node = 1, .peer = 11});
  plan.add({.at = 255'000, .kind = Kind::kDiskStall, .node = 11});
  plan.add({.at = 260'000, .kind = Kind::kDupRate, .rate = 0.0});
  plan.add({.at = 300'000, .kind = Kind::kRestart, .node = 3});
  plan.add({.at = 330'000, .kind = Kind::kHeal, .node = 1, .peer = 11});
  plan.add({.at = 400'000, .kind = Kind::kJoin, .node = 12});
  plan.add({.at = 420'000, .kind = Kind::kDiskOk, .node = 11});
  plan.add({.at = 450'000, .kind = Kind::kLeave, .node = 5});
  plan.add({.at = 500'000, .kind = Kind::kDepart, .node = 7});

  obs::EventRecorder events(/*tracing=*/true, /*flight_capacity=*/64,
                            /*spans=*/true);
  obs::MetricsRegistry metrics;
  (void)run_plan(config, plan, &metrics, &events);
  std::ostringstream jsonl;
  events.write_trace_jsonl(jsonl);
  const obs::Meta meta{{"tool", "golden"}, {"seed", "21"}};
  return {jsonl.str(),
          events.to_json().dump(),
          obs::write_metrics_json(metrics, meta),
          obs::write_spans_json(events, meta),
          obs::write_postmortem_json(
              meta, {{"agreement", "guid 1: \"split\"\tdecision"}},
              {"at=90000 crash node=3", "at=300000 restart node=3"},
              {"at=90000 crash node=3"}, events, metrics)};
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

TEST(GoldenExports, TraceAndFlightViewsOfEveryKind) {
  const Exports exports = run_exports();
  for (const char* category :
       {"instance", "commit.instance", "commit", "commit.record", "abort",
        "commit.abort", "net.send", "recovery", "journal.replay", "churn",
        "recv", "campaign", "commit.veto", "journal.append",
        "sched.queue_depth", "net.part", "net.drop", "net.dup", "net.dead",
        "net.deliver"}) {
    const std::string key = "\"cat\":\"" + std::string(category) + "\"";
    EXPECT_TRUE(exports.trace.find(key) != std::string::npos ||
                exports.flight.find(key) != std::string::npos)
        << category;
  }
  EXPECT_EQ(exports.trace.size(), 117145u);
  EXPECT_EQ(fnv1a(exports.trace), 8551398378880968903ull);
  EXPECT_EQ(exports.flight.size(), 52063u);
  EXPECT_EQ(fnv1a(exports.flight), 3670464484329650996ull);
}

TEST(GoldenExports, MetricsSpansAndPostmortemDocuments) {
  const Exports exports = run_exports();
  for (const char* series :
       {"net.latency_us", "net.class_latency_us", "endpoint.commit_latency_us",
        "endpoint.attempts", "commit.instances_opened",
        "commit.instance_latency_us"}) {
    EXPECT_NE(exports.metrics.find("\"" + std::string(series) + "\""),
              std::string::npos)
        << series;
  }
  EXPECT_EQ(exports.metrics.size(), 82792u);
  EXPECT_EQ(fnv1a(exports.metrics), 14997975857435062192ull);
  EXPECT_EQ(exports.spans.size(), 58135u);
  EXPECT_EQ(fnv1a(exports.spans), 12647540320419785271ull);
  EXPECT_EQ(exports.postmortem.size(), 222633u);
  EXPECT_EQ(fnv1a(exports.postmortem), 17879298427445025715ull);
}

}  // namespace
}  // namespace asa_repro::storage
