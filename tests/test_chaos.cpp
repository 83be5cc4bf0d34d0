// Chaos campaign engine: fault-plan serialisation, invariant checking,
// randomized budgeted campaigns, delta-debugged shrinking and replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "sim/fault_plan.hpp"
#include "storage/chaos.hpp"
#include "storage/invariant_checker.hpp"

namespace asa_repro::storage {
namespace {

using sim::FaultEvent;
using sim::FaultPlan;

// ---- FaultPlan data model. ----

TEST(FaultPlan, EventSerializationRoundTrips) {
  const FaultEvent events[] = {
      {.at = 0, .kind = FaultEvent::Kind::kCrash, .node = 3},
      {.at = 120'000, .kind = FaultEvent::Kind::kRestart, .node = 3},
      {.at = 5, .kind = FaultEvent::Kind::kPartition, .node = 1, .peer = 7},
      {.at = 6, .kind = FaultEvent::Kind::kHeal, .node = 1, .peer = 7},
      {.at = 7, .kind = FaultEvent::Kind::kDropRate, .rate = 0.25},
      {.at = 8, .kind = FaultEvent::Kind::kDupRate, .rate = 0.0},
      {.at = 9,
       .kind = FaultEvent::Kind::kByzantine,
       .node = 2,
       .behaviour = "equivocator"},
      {.at = 10, .kind = FaultEvent::Kind::kCorrupt, .node = 5},
      {.at = 11, .kind = FaultEvent::Kind::kUncorrupt, .node = 5},
  };
  for (const FaultEvent& event : events) {
    const auto parsed = FaultEvent::parse(event.serialize());
    ASSERT_TRUE(parsed.has_value()) << event.serialize();
    EXPECT_EQ(*parsed, event) << event.serialize();
  }
}

TEST(FaultPlan, RejectsMalformedEvents) {
  for (const char* line :
       {"", "crash", "12 nonsense 1", "12 crash", "12 byzantine 1 sneaky",
        "12 drop-rate 1.5", "12 drop-rate -0.1", "x crash 1",
        "12 partition 1", "12 crash 1 junk",
        // Numbers span their whole token and are never wrapped negatives.
        "-5 crash 3", "12 crash -1", "12x crash 1", "12 crash 1x",
        "12 partition 1 -2", "12 drop-rate 0.5x"}) {
    EXPECT_FALSE(FaultEvent::parse(line).has_value()) << line;
  }
}

TEST(FaultPlan, PlanSerializationRoundTrips) {
  FaultPlan plan;
  plan.add({.at = 50'000, .kind = FaultEvent::Kind::kCrash, .node = 2});
  plan.add({.at = 90'000, .kind = FaultEvent::Kind::kRestart, .node = 2});
  plan.add({.at = 10'000, .kind = FaultEvent::Kind::kDropRate, .rate = 0.1});
  const auto parsed = FaultPlan::parse(plan.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, plan);
}

TEST(FaultPlan, ParseSkipsBlankAndCommentLines) {
  const auto plan =
      FaultPlan::parse("# header\n\n100 crash 4\n\n# tail\n200 restart 4\n");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->size(), 2u);
}

TEST(FaultPlan, WithoutRemovesPositions) {
  FaultPlan plan;
  for (std::uint32_t i = 0; i < 5; ++i) {
    plan.add({.at = 100 * i, .kind = FaultEvent::Kind::kCrash, .node = i});
  }
  const FaultPlan reduced = plan.without({1, 3});
  ASSERT_EQ(reduced.size(), 3u);
  EXPECT_EQ(reduced.events()[0].node, 0u);
  EXPECT_EQ(reduced.events()[1].node, 2u);
  EXPECT_EQ(reduced.events()[2].node, 4u);
}

TEST(FaultPlan, SortByTimeIsStable) {
  FaultPlan plan;
  plan.add({.at = 200, .kind = FaultEvent::Kind::kCrash, .node = 1});
  plan.add({.at = 100, .kind = FaultEvent::Kind::kCrash, .node = 2});
  plan.add({.at = 100, .kind = FaultEvent::Kind::kRestart, .node = 2});
  plan.sort_by_time();
  EXPECT_EQ(plan.events()[0].kind, FaultEvent::Kind::kCrash);
  EXPECT_EQ(plan.events()[1].kind, FaultEvent::Kind::kRestart);
  EXPECT_EQ(plan.events()[2].node, 1u);
}

// ---- Replay files. ----

TEST(ChaosReplay, EncodeDecodeRoundTrips) {
  ChaosConfig config;
  config.seed = 99;
  config.nodes = 10;
  config.equivocators = 2;
  config.burst = 2;
  config.fault_budget = 3;
  FaultPlan plan;
  plan.add({.at = 70'000,
            .kind = FaultEvent::Kind::kByzantine,
            .node = 1,
            .behaviour = "withholder"});
  const auto decoded = decode_replay(encode_replay(config, plan));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first.seed, 99u);
  EXPECT_EQ(decoded->first.nodes, 10u);
  EXPECT_EQ(decoded->first.equivocators, 2u);
  EXPECT_EQ(decoded->first.burst, 2);
  EXPECT_EQ(decoded->first.fault_budget, 3u);
  EXPECT_EQ(decoded->second, plan);
}

TEST(ChaosReplay, AutoBudgetRoundTrips) {
  const auto decoded = decode_replay(encode_replay(ChaosConfig{}, {}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first.fault_budget, ChaosConfig::kAutoBudget);
}

TEST(ChaosReplay, SplitsAtThePlanLineNotAtTheWord) {
  const auto decoded = decode_replay(
      "# asachaos replay v1, a shrunk plan\nseed 3\nplan\n100 crash 2\n");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first.seed, 3u);
  ASSERT_EQ(decoded->second.events().size(), 1u);
  EXPECT_EQ(decoded->second.events()[0].kind, FaultEvent::Kind::kCrash);
  EXPECT_EQ(decoded->second.events()[0].node, 2u);
  EXPECT_FALSE(decode_replay("# a shrunk plan\nseed 3\n100 crash 2\n")
                   .has_value());
}

TEST(ChaosReplay, RejectsMalformedInput) {
  EXPECT_FALSE(decode_replay("no marker at all").has_value());
  EXPECT_FALSE(decode_replay("unknown-key 3\nplan\n").has_value());
  EXPECT_FALSE(decode_replay("nodes 12\nplan\n99 bogus 1\n").has_value());
  EXPECT_FALSE(decode_replay("plan\n-5 crash 3\n").has_value());
  for (const char* header : {"nodes 12x", "updates -5", "seed -1", "zipf 9.5",
                             "fault-budget -1", "nodes 12 13", "churn maybe"}) {
    EXPECT_FALSE(decode_replay(std::string(header) + "\nplan\n").has_value())
        << header;
  }
}

// ---- Wire text, pinned. ----
//
// A round trip passes even when the writer and the reader drift together;
// these goldens hold the bytes an earlier build wrote.

// One event of every kind, in FaultEvent::Kind order.
FaultPlan every_kind_plan() {
  using Kind = FaultEvent::Kind;
  return FaultPlan({
      {.at = 100, .kind = Kind::kCrash, .node = 3},
      {.at = 200, .kind = Kind::kRestart, .node = 3},
      {.at = 300, .kind = Kind::kPartition, .node = 1, .peer = 7},
      {.at = 400, .kind = Kind::kHeal, .node = 1, .peer = 7},
      {.at = 500, .kind = Kind::kDropRate, .rate = 0.25},
      {.at = 600, .kind = Kind::kDupRate, .rate = 0.1},
      {.at = 700, .kind = Kind::kByzantine, .node = 2,
       .behaviour = "equivocator"},
      {.at = 800, .kind = Kind::kCorrupt, .node = 5},
      {.at = 900, .kind = Kind::kUncorrupt, .node = 5},
      {.at = 1000, .kind = Kind::kTornWrite, .node = 4},
      {.at = 1100, .kind = Kind::kFlushDrop, .node = 4, .arg = 2},
      {.at = 1200, .kind = Kind::kBitRot, .node = 4, .arg = 123'456},
      {.at = 1300, .kind = Kind::kDiskStall, .node = 6},
      {.at = 1400, .kind = Kind::kDiskFull, .node = 6, .arg = 64},
      {.at = 1500, .kind = Kind::kDiskOk, .node = 6},
      {.at = 1600, .kind = Kind::kJoin, .node = 12},
      {.at = 1700, .kind = Kind::kLeave, .node = 8},
      {.at = 1800, .kind = Kind::kDepart, .node = 9},
      {.at = 1900, .kind = Kind::kLinkProfile, .node = 0, .peer = 11,
       .behaviour = "sat"},
  });
}

// Every header key away from its default, except fault-budget (auto).
ChaosConfig every_key_config() {
  ChaosConfig config;
  config.nodes = 10;
  config.replication = 7;
  config.seed = 1282;
  config.updates = 40;
  config.guids = 3;
  config.blocks = 5;
  config.burst = 2;
  config.max_events = 500'000;
  config.equivocators = 1;
  config.horizon = 3'000'000;
  config.durability = false;
  config.churn = true;
  config.wan = true;
  config.writers = 4;
  config.zipf = 120 / 100.0;
  config.read_fraction = 20 / 100.0;
  config.open_loop = true;
  return config;
}

TEST(FaultPlan, WireTextIsPinned) {
  constexpr const char* kGolden =
      "100 crash 3\n"
      "200 restart 3\n"
      "300 partition 1 7\n"
      "400 heal 1 7\n"
      "500 drop-rate 0.25\n"
      "600 dup-rate 0.1\n"
      "700 byzantine 2 equivocator\n"
      "800 corrupt 5\n"
      "900 uncorrupt 5\n"
      "1000 torn-write 4\n"
      "1100 flush-drop 4 2\n"
      "1200 bit-rot 4 123456\n"
      "1300 disk-stall 6\n"
      "1400 disk-full 6 64\n"
      "1500 disk-ok 6\n"
      "1600 join 12\n"
      "1700 leave 8\n"
      "1800 depart 9\n"
      "1900 link-profile 0 11 sat\n";
  EXPECT_EQ(every_kind_plan().serialize(), kGolden);
  EXPECT_EQ(FaultPlan::parse(kGolden), every_kind_plan());
}

TEST(ChaosReplay, WireTextIsPinned) {
  constexpr const char* kGolden =
      "# asachaos replay v1\n"
      "nodes 10\n"
      "replication 7\n"
      "seed 1282\n"
      "updates 40\n"
      "guids 3\n"
      "blocks 5\n"
      "burst 2\n"
      "max-events 500000\n"
      "equivocators 1\n"
      "fault-budget auto\n"
      "horizon 3000000\n"
      "durability off\n"
      "churn on\n"
      "wan on\n"
      "writers 4\n"
      "zipf 120\n"
      "reads 20\n"
      "open-loop on\n"
      "plan\n"
      "5 drop-rate 0.05\n";
  const FaultPlan plan(
      {{.at = 5, .kind = FaultEvent::Kind::kDropRate, .rate = 0.05}});
  EXPECT_EQ(encode_replay(every_key_config(), plan), kGolden);
  EXPECT_EQ(decode_replay(kGolden), std::make_pair(every_key_config(), plan));
}

// Every plan a campaign generates comes back from its replay file as the
// plan that ran, rates included, under the default, volatile and
// churn/WAN/contention configs.
TEST(ChaosReplay, GeneratedPlansRoundTripExactly) {
  ChaosConfig configs[3];
  configs[1].durability = false;
  configs[2].churn = true;
  configs[2].wan = true;
  configs[2].writers = 4;
  configs[2].zipf = 120 / 100.0;
  configs[2].read_fraction = 20 / 100.0;
  for (ChaosConfig config : configs) {
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
      config.seed = seed;
      sim::Rng rng(seed ^ 0x63686170'73656564ull);  // As asachaos seeds it.
      const FaultPlan plan = generate_fault_plan(config, rng);
      EXPECT_EQ(FaultPlan::parse(plan.serialize()), plan)
          << "seed " << seed << ":\n" << plan;
      EXPECT_EQ(decode_replay(encode_replay(config, plan)),
                std::make_pair(config, plan))
          << "seed " << seed;
    }
  }
}

// ---- Plan generation respects the budget. ----

TEST(ChaosGenerate, PlansAreDeterministicPerSeed) {
  ChaosConfig config;
  sim::Rng a(7), b(7), c(8);
  const FaultPlan plan_a = generate_fault_plan(config, a);
  EXPECT_EQ(plan_a, generate_fault_plan(config, b));
  // Different stream, (almost surely) different plan.
  EXPECT_NE(plan_a.serialize(), generate_fault_plan(config, c).serialize());
}

TEST(ChaosGenerate, EveryInjectedFaultHeals) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ChaosConfig config;
    sim::Rng rng(seed);
    const FaultPlan plan = generate_fault_plan(config, rng);
    int crashes = 0, restarts = 0, partitions = 0, heals = 0;
    double final_drop = 0.0, final_dup = 0.0;
    for (const FaultEvent& e : plan.events()) {
      switch (e.kind) {
        case FaultEvent::Kind::kCrash: ++crashes; break;
        case FaultEvent::Kind::kRestart: ++restarts; break;
        case FaultEvent::Kind::kPartition: ++partitions; break;
        case FaultEvent::Kind::kHeal: ++heals; break;
        case FaultEvent::Kind::kDropRate: final_drop = e.rate; break;
        case FaultEvent::Kind::kDupRate: final_dup = e.rate; break;
        default: break;
      }
    }
    EXPECT_EQ(crashes, restarts) << "seed " << seed;
    EXPECT_EQ(partitions, heals) << "seed " << seed;
    EXPECT_EQ(final_drop, 0.0) << "seed " << seed;
    EXPECT_EQ(final_dup, 0.0) << "seed " << seed;
  }
}

TEST(ChaosGenerate, ZeroBudgetMeansNoNodeFaults) {
  ChaosConfig config;
  config.fault_budget = 0;
  sim::Rng rng(5);
  const FaultPlan plan = generate_fault_plan(config, rng);
  for (const FaultEvent& e : plan.events()) {
    EXPECT_TRUE(e.kind == FaultEvent::Kind::kPartition ||
                e.kind == FaultEvent::Kind::kHeal ||
                e.kind == FaultEvent::Kind::kDropRate ||
                e.kind == FaultEvent::Kind::kDupRate)
        << e.serialize();
  }
}

// ---- Invariant checker. ----

TEST(InvariantChecker, CleanClusterHasNoViolations) {
  ClusterConfig config;
  config.nodes = 12;
  config.replication_factor = 4;
  config.seed = 31;
  AsaCluster cluster(config);
  InvariantChecker checker(cluster);
  const Guid guid = Guid::named("clean");
  const Pid pid = Pid::of(block_from("clean v0"));
  checker.note_submitted(guid, pid.to_uint64());
  int committed = 0;
  cluster.version_history().append(
      guid, pid, [&](const commit::CommitResult& r) {
        committed += r.committed;
      });
  cluster.run();
  ASSERT_EQ(committed, 1);
  EXPECT_TRUE(checker.check().empty());
}

TEST(InvariantChecker, DetectsFabricatedDivergence) {
  ClusterConfig config;
  config.nodes = 12;
  config.replication_factor = 4;
  config.seed = 37;
  AsaCluster cluster(config);
  InvariantChecker checker(cluster);
  const Guid guid = Guid::named("forged");
  checker.note_submitted(guid, 1);
  checker.note_submitted(guid, 2);

  // Forge divergent histories on two honest members: same updates, opposite
  // orders — exactly what Byzantine equivocation produces.
  const auto members = cluster.peer_set(guid);
  ASSERT_GE(members.size(), 2u);
  const std::uint64_t key = guid.to_uint64();
  using Entry = commit::CommitPeer::CommittedEntry;
  ASSERT_EQ(cluster.host(members[0]).peer().reconcile_history(
                key, {Entry{10, 100, 1}, Entry{11, 101, 2}}),
            2u);
  ASSERT_EQ(cluster.host(members[1]).peer().reconcile_history(
                key, {Entry{11, 101, 2}, Entry{10, 100, 1}}),
            2u);

  const auto violations = checker.check();
  ASSERT_FALSE(violations.empty());
  EXPECT_TRUE(std::any_of(violations.begin(), violations.end(),
                          [](const Violation& v) {
                            return v.invariant == "history-prefix";
                          }));
  // Disabling the order check (lossy schedules) suppresses exactly that
  // category; the other invariants still run.
  for (const Violation& v : checker.check(/*check_order=*/false)) {
    EXPECT_NE(v.invariant, "history-prefix") << v.detail;
  }
}

TEST(InvariantChecker, DetectsNeverSubmittedPayload) {
  ClusterConfig config;
  config.nodes = 12;
  config.replication_factor = 4;
  config.seed = 41;
  AsaCluster cluster(config);
  InvariantChecker checker(cluster);
  const Guid guid = Guid::named("conjured");
  checker.note_submitted(guid, 7);  // Only payload 7 is legitimate.

  const auto members = cluster.peer_set(guid);
  using Entry = commit::CommitPeer::CommittedEntry;
  ASSERT_EQ(cluster.host(members[0]).peer().reconcile_history(
                guid.to_uint64(), {Entry{10, 100, 999}}),
            1u);

  const auto violations = checker.check();
  ASSERT_FALSE(violations.empty());
  EXPECT_TRUE(std::any_of(violations.begin(), violations.end(),
                          [](const Violation& v) {
                            return v.invariant == "validity";
                          }));
}

TEST(InvariantChecker, ExcludesCrashedAndByzantineMembers) {
  ClusterConfig config;
  config.nodes = 12;
  config.replication_factor = 4;
  config.seed = 43;
  AsaCluster cluster(config);
  InvariantChecker checker(cluster);
  const Guid guid = Guid::named("excluded");
  const auto members = cluster.peer_set(guid);
  const auto before = checker.honest_members(guid).size();
  ASSERT_GE(before, 2u);
  cluster.crash_node(static_cast<std::size_t>(members[0]));
  cluster.make_byzantine(static_cast<std::size_t>(members[1]),
                         commit::Behaviour::kEquivocator);
  // The peer set itself may shift after the crash re-routes the ring; the
  // surviving honest members must exclude the equivocator.
  for (sim::NodeAddr addr : checker.honest_members(guid)) {
    EXPECT_NE(addr, members[1]);
    EXPECT_EQ(cluster.behaviour(static_cast<std::size_t>(addr)),
              commit::Behaviour::kHonest);
  }
}

// ---- End-to-end campaigns. ----

TEST(ChaosRun, BudgetedCampaignIsViolationFree) {
  // A miniature version of the asachaos acceptance campaign: every seed's
  // generated schedule keeps concurrent faults <= f, so all invariants and
  // the liveness expectations must hold.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ChaosConfig config;
    config.seed = seed;
    config.updates = 6;
    sim::Rng rng(seed ^ 0x63686170'73656564ull);
    const FaultPlan plan = generate_fault_plan(config, rng);
    const ChaosReport report = run_plan(config, plan);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.violations.size() << " violations, '"
                             << (report.violations.empty()
                                     ? ""
                                     : report.violations[0].invariant +
                                           ": " +
                                           report.violations[0].detail)
                             << "'";
    EXPECT_TRUE(report.quiesced);
    EXPECT_EQ(report.committed, config.updates);
    EXPECT_EQ(report.failed, 0);
  }
}

TEST(ChaosRun, EquivocatorsPastFBreakAgreementAndShrink) {
  // Two equivocators at r = 4 exceed f = 1; with concurrent same-GUID
  // submissions they let conflicting proposals both commit, which the
  // checker must flag — and the shrinker must reduce the schedule to a
  // minimal reproducer whose replay still violates.
  ChaosConfig config;
  config.equivocators = 2;
  config.burst = 2;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 5 && !found; ++seed) {
    config.seed = seed;
    sim::Rng rng(seed ^ 0x63686170'73656564ull);
    const FaultPlan plan = generate_fault_plan(config, rng);
    const ChaosReport report = run_plan(config, plan);
    if (report.ok()) continue;
    found = true;
    EXPECT_TRUE(std::any_of(report.violations.begin(),
                            report.violations.end(), [](const Violation& v) {
                              return v.invariant == "history-prefix";
                            }));

    std::size_t runs = 0;
    const FaultPlan minimal = shrink_plan(config, plan, &runs);
    EXPECT_LE(minimal.size(), 5u);
    EXPECT_LE(minimal.size(), plan.size());
    EXPECT_GE(runs, 1u);

    // The replay file reproduces the violation deterministically.
    const auto decoded = decode_replay(encode_replay(config, minimal));
    ASSERT_TRUE(decoded.has_value());
    const ChaosReport replayed =
        run_plan(decoded->first, decoded->second);
    EXPECT_FALSE(replayed.ok());
    // Determinism: the same run again yields the same violation list.
    const ChaosReport again = run_plan(decoded->first, decoded->second);
    ASSERT_EQ(replayed.violations.size(), again.violations.size());
    for (std::size_t i = 0; i < replayed.violations.size(); ++i) {
      EXPECT_EQ(replayed.violations[i].detail, again.violations[i].detail);
    }
  }
  EXPECT_TRUE(found) << "no seed in 1..5 produced a violation at 2 "
                        "equivocators past f";
}

// ---- Durability faults (disk-level chaos). ----

TEST(FaultPlan, DurabilityEventSerializationRoundTrips) {
  const FaultEvent events[] = {
      {.at = 10, .kind = FaultEvent::Kind::kTornWrite, .node = 3},
      {.at = 11, .kind = FaultEvent::Kind::kFlushDrop, .node = 3, .arg = 2},
      {.at = 12,
       .kind = FaultEvent::Kind::kBitRot,
       .node = 4,
       .arg = 123'456},
      {.at = 13, .kind = FaultEvent::Kind::kDiskStall, .node = 5},
      {.at = 14, .kind = FaultEvent::Kind::kDiskFull, .node = 5, .arg = 64},
      {.at = 15, .kind = FaultEvent::Kind::kDiskOk, .node = 5},
  };
  for (const FaultEvent& event : events) {
    const auto parsed = FaultEvent::parse(event.serialize());
    ASSERT_TRUE(parsed.has_value()) << event.serialize();
    EXPECT_EQ(*parsed, event) << event.serialize();
  }
  // Arg-carrying kinds without the arg are malformed.
  EXPECT_FALSE(FaultEvent::parse("11 flush-drop 3").has_value());
  EXPECT_FALSE(FaultEvent::parse("12 bit-rot 4").has_value());
  EXPECT_FALSE(FaultEvent::parse("14 disk-full 5").has_value());
}

TEST(ChaosReplay, DurabilityFlagAndFaultsRoundTrip) {
  ChaosConfig config;
  config.seed = 7;
  config.durability = false;
  FaultPlan plan;
  plan.add({.at = 100, .kind = FaultEvent::Kind::kTornWrite, .node = 1});
  plan.add({.at = 200, .kind = FaultEvent::Kind::kBitRot, .node = 1,
            .arg = 99});
  const std::string replay = encode_replay(config, plan);
  EXPECT_NE(replay.find("durability off"), std::string::npos);
  const auto decoded = decode_replay(replay);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->first.durability);
  EXPECT_EQ(decoded->second, plan);
  // Headers predating the flag parse to the default (on); junk is refused.
  const auto old = ChaosConfig::parse("nodes 12\nseed 3\n");
  ASSERT_TRUE(old.has_value());
  EXPECT_TRUE(old->durability);
  EXPECT_FALSE(ChaosConfig::parse("durability maybe\n").has_value());
}

TEST(ChaosGenerate, DurabilityEpisodesAppearOnlyWhenEnabled) {
  const auto is_disk_fault = [](const FaultEvent& e) {
    return e.kind == FaultEvent::Kind::kTornWrite ||
           e.kind == FaultEvent::Kind::kFlushDrop ||
           e.kind == FaultEvent::Kind::kBitRot ||
           e.kind == FaultEvent::Kind::kDiskStall ||
           e.kind == FaultEvent::Kind::kDiskFull ||
           e.kind == FaultEvent::Kind::kDiskOk;
  };
  int with = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ChaosConfig config;
    sim::Rng rng(seed);
    const FaultPlan plan = generate_fault_plan(config, rng);
    with += std::any_of(plan.events().begin(), plan.events().end(),
                        is_disk_fault);
    ChaosConfig volatile_config;
    volatile_config.durability = false;
    sim::Rng rng2(seed);
    const FaultPlan volatile_plan =
        generate_fault_plan(volatile_config, rng2);
    EXPECT_TRUE(std::none_of(volatile_plan.events().begin(),
                             volatile_plan.events().end(), is_disk_fault))
        << "seed " << seed;
  }
  EXPECT_GE(with, 5) << "disk-fault episodes should be common across seeds";
}

TEST(ChaosRun, HandWrittenDurabilityFaultScheduleStaysClean) {
  // Torn write folded into a crash, bit-rot while down, partial flush on a
  // second node — the mix the CI campaign relies on, as one fixed plan.
  ChaosConfig config;
  config.seed = 13;
  config.updates = 6;
  FaultPlan plan;
  plan.add({.at = 70'000, .kind = FaultEvent::Kind::kTornWrite, .node = 2});
  plan.add({.at = 130'000, .kind = FaultEvent::Kind::kCrash, .node = 2});
  plan.add({.at = 300'000, .kind = FaultEvent::Kind::kBitRot, .node = 2,
            .arg = 1'000'003});
  plan.add({.at = 700'000, .kind = FaultEvent::Kind::kRestart, .node = 2});
  plan.add({.at = 900'000, .kind = FaultEvent::Kind::kCrash, .node = 7});
  plan.add({.at = 1'000'000, .kind = FaultEvent::Kind::kFlushDrop,
            .node = 7, .arg = 2});
  plan.add({.at = 1'400'000, .kind = FaultEvent::Kind::kRestart, .node = 7});
  const ChaosReport report = run_plan(config, plan);
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations[0].detail);
  EXPECT_EQ(report.committed, 6);
}

// ---- Membership churn + WAN adversity + contention workload. ----

TEST(FaultPlan, ChurnAndLinkEventSerializationRoundTrips) {
  const FaultEvent events[] = {
      {.at = 10, .kind = FaultEvent::Kind::kJoin, .node = 0},
      {.at = 11, .kind = FaultEvent::Kind::kLeave, .node = 4},
      {.at = 12, .kind = FaultEvent::Kind::kDepart, .node = 9},
      {.at = 13,
       .kind = FaultEvent::Kind::kLinkProfile,
       .node = 1,
       .peer = 7,
       .behaviour = "wan"},
      {.at = 14,
       .kind = FaultEvent::Kind::kLinkProfile,
       .node = 7,
       .peer = 1,
       .behaviour = "default"},
  };
  for (const FaultEvent& event : events) {
    const auto parsed = FaultEvent::parse(event.serialize());
    ASSERT_TRUE(parsed.has_value()) << event.serialize();
    EXPECT_EQ(*parsed, event) << event.serialize();
  }
}

TEST(FaultPlan, RejectsMalformedChurnAndLinkEvents) {
  for (const char* line :
       {"10 join", "10 leave", "10 depart", "10 join 1 2",
        "10 link-profile 1 2", "10 link-profile 1 2 dialup",
        "10 link-profile 1", "10 link-profile 1 2 wan junk"}) {
    EXPECT_FALSE(FaultEvent::parse(line).has_value()) << line;
  }
}

TEST(ChaosReplay, ChurnWanAndWorkloadKeysRoundTrip) {
  ChaosConfig config;
  config.seed = 5;
  config.churn = true;
  config.wan = true;
  config.writers = 4;
  config.zipf = 1.2;
  config.read_fraction = 0.25;
  config.open_loop = true;
  FaultPlan plan;
  plan.add({.at = 200'000, .kind = FaultEvent::Kind::kJoin, .node = 0});
  plan.add({.at = 400'000,
            .kind = FaultEvent::Kind::kLinkProfile,
            .node = 2,
            .peer = 5,
            .behaviour = "sat"});
  const std::string replay = encode_replay(config, plan);
  const auto decoded = decode_replay(replay);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->first.churn);
  EXPECT_TRUE(decoded->first.wan);
  EXPECT_EQ(decoded->first.writers, 4);
  EXPECT_NEAR(decoded->first.zipf, 1.2, 0.01);
  EXPECT_NEAR(decoded->first.read_fraction, 0.25, 0.01);
  EXPECT_TRUE(decoded->first.open_loop);
  EXPECT_EQ(decoded->second, plan);
  // Headers predating the knobs parse to the defaults (all off).
  const auto old = ChaosConfig::parse("nodes 12\nseed 3\n");
  ASSERT_TRUE(old.has_value());
  EXPECT_FALSE(old->churn);
  EXPECT_FALSE(old->wan);
  EXPECT_EQ(old->writers, 0);
  EXPECT_FALSE(old->open_loop);
  // Junk values are refused.
  EXPECT_FALSE(ChaosConfig::parse("churn maybe\n").has_value());
  EXPECT_FALSE(ChaosConfig::parse("wan always\n").has_value());
  EXPECT_FALSE(ChaosConfig::parse("writers -2\n").has_value());
}

TEST(ChaosGenerate, ChurnAndWanEpisodesAppearOnlyWhenEnabled) {
  const auto is_churn = [](const FaultEvent& e) {
    return e.kind == FaultEvent::Kind::kJoin ||
           e.kind == FaultEvent::Kind::kLeave ||
           e.kind == FaultEvent::Kind::kDepart;
  };
  const auto is_link = [](const FaultEvent& e) {
    return e.kind == FaultEvent::Kind::kLinkProfile;
  };
  int churn_plans = 0, link_plans = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ChaosConfig off;
    sim::Rng rng_off(seed);
    const FaultPlan plain = generate_fault_plan(off, rng_off);
    EXPECT_TRUE(std::none_of(plain.events().begin(), plain.events().end(),
                             [&](const FaultEvent& e) {
                               return is_churn(e) || is_link(e);
                             }))
        << "seed " << seed;

    ChaosConfig on;
    on.churn = true;
    on.wan = true;
    sim::Rng rng_on(seed);
    const FaultPlan adverse = generate_fault_plan(on, rng_on);
    churn_plans += std::any_of(adverse.events().begin(),
                               adverse.events().end(), is_churn);
    link_plans += std::any_of(adverse.events().begin(),
                              adverse.events().end(), is_link);
    // Every profiled link is reset to defaults before the horizon, so the
    // last link-profile event per directed pair must be "default".
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> last;
    FaultPlan sorted = adverse;
    sorted.sort_by_time();
    for (const FaultEvent& e : sorted.events()) {
      if (is_link(e)) last[{e.node, e.peer}] = e.behaviour;
    }
    for (const auto& [link, klass] : last) {
      EXPECT_EQ(klass, "default")
          << "seed " << seed << " link " << link.first << "->"
          << link.second << " left on " << klass;
    }
  }
  EXPECT_GE(churn_plans, 8);
  EXPECT_GE(link_plans, 8);
}

TEST(ChaosRun, ChurnWanContentionCampaignStaysClean) {
  // The acceptance campaign in miniature: ring churn, WAN link adversity
  // and a zipf multi-writer contention workload, all at once, with zero
  // invariant violations.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ChaosConfig config;
    config.seed = seed;
    config.updates = 8;
    config.churn = true;
    config.wan = true;
    config.writers = 4;
    config.zipf = 1.2;
    config.read_fraction = 0.2;
    sim::Rng rng(seed ^ 0x63686170'73656564ull);
    const FaultPlan plan = generate_fault_plan(config, rng);
    const ChaosReport report = run_plan(config, plan);
    EXPECT_TRUE(report.ok())
        << "seed " << seed << ": "
        << (report.violations.empty()
                ? ""
                : report.violations[0].invariant + ": " +
                      report.violations[0].detail);
    EXPECT_TRUE(report.quiesced) << "seed " << seed;
    EXPECT_GT(report.committed, 0) << "seed " << seed;
  }
}

TEST(ChaosRun, HandWrittenChurnScheduleStaysClean) {
  // A fixed plan mixing a join, a graceful leave and an abrupt departure
  // with commits in flight — the deterministic core of the churn story.
  ChaosConfig config;
  config.seed = 17;
  config.updates = 8;
  config.churn = true;
  FaultPlan plan;
  plan.add({.at = 200'000, .kind = FaultEvent::Kind::kJoin, .node = 0});
  plan.add({.at = 500'000, .kind = FaultEvent::Kind::kLeave, .node = 3});
  plan.add({.at = 900'000, .kind = FaultEvent::Kind::kDepart, .node = 7});
  plan.add({.at = 1'100'000, .kind = FaultEvent::Kind::kJoin, .node = 0});
  const ChaosReport report = run_plan(config, plan);
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations[0].invariant + ": " +
                                         report.violations[0].detail);
  EXPECT_EQ(report.committed, 8);
}

TEST(ChaosRun, ChurnSmokePassesAndCounterfactualLosesData) {
  const DurabilitySmokeReport smoke = run_churn_smoke(1);
  EXPECT_TRUE(smoke.ok()) << (smoke.failures.empty() ? ""
                                                     : smoke.failures[0]);
  EXPECT_FALSE(smoke.notes.empty());
  // handoff=false runs only the counterfactual, whose expectations are
  // that acknowledged data IS lost and the handoff-ack invariant fires.
  const DurabilitySmokeReport loss = run_churn_smoke(1, /*handoff=*/false);
  EXPECT_TRUE(loss.ok()) << (loss.failures.empty() ? "" : loss.failures[0]);
}

TEST(ChaosRun, SoakWindowsAreCleanAndReproducible) {
  ChaosConfig config;
  config.seed = 3;
  config.updates = 6;
  const SoakReport soak = run_soak(config, 2 * config.horizon);
  EXPECT_TRUE(soak.ok()) << (soak.failures.empty()
                                 ? (soak.violations.empty()
                                        ? ""
                                        : soak.violations[0].detail)
                                 : soak.failures[0]);
  EXPECT_EQ(soak.windows, 2);
  ASSERT_EQ(soak.commits_per_sec.size(), 2u);
  for (const double rate : soak.commits_per_sec) EXPECT_GT(rate, 0.0);
  // Window seeds are derived, not sequential: the same soak re-run is
  // bit-identical.
  const SoakReport again = run_soak(config, 2 * config.horizon);
  EXPECT_EQ(soak.commits_per_sec, again.commits_per_sec);
}

TEST(ChaosRun, RestartMidCommitRecovers) {
  // A hand-written plan: crash a node early, restart it mid-workload. The
  // run must stay violation-free and every update must commit.
  ChaosConfig config;
  config.seed = 11;
  config.updates = 4;
  FaultPlan plan;
  plan.add({.at = 80'000, .kind = FaultEvent::Kind::kCrash, .node = 2});
  plan.add({.at = 600'000, .kind = FaultEvent::Kind::kRestart, .node = 2});
  const ChaosReport report = run_plan(config, plan);
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations[0].detail);
  EXPECT_EQ(report.committed, 4);
}

}  // namespace
}  // namespace asa_repro::storage
