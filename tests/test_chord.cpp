// The Chord overlay: lookup correctness against brute force, logarithmic
// routing, and resilience to joins, graceful leaves and crash failures.
#include <gtest/gtest.h>

#include "p2p/chord.hpp"
#include "sim/rng.hpp"

namespace asa_repro::p2p {
namespace {

NodeId key_of(int i) { return NodeId::hash_of("key:" + std::to_string(i)); }

TEST(Chord, SingleNodeOwnsEverything) {
  ChordRing ring;
  const NodeId id = ring.add_node(NodeId::hash_of("solo"));
  ring.run_maintenance(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ring.lookup(key_of(i)), id);
  }
}

TEST(Chord, TwoNodesSplitTheRing) {
  ChordRing ring;
  ring.add_node(NodeId::hash_of("a"));
  ring.add_node(NodeId::hash_of("b"));
  ring.run_maintenance(10);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ring.lookup(key_of(i)), ring.true_successor(key_of(i)))
        << "key " << i;
  }
}

TEST(Chord, VersionMovesWithEveryMutationAndOnlyThen) {
  ChordRing ring;
  ring.build(12);
  const std::vector<NodeId> ids = ring.node_ids();
  std::uint64_t last = ring.version();
  EXPECT_GT(last, 0u);
  const auto moved = [&] {
    const bool changed = ring.version() != last;
    last = ring.version();
    return changed;
  };
  (void)ring.lookup(key_of(1));
  (void)ring.true_successor(key_of(1));
  EXPECT_FALSE(moved()) << "lookups are reads";
  ring.add_node(NodeId::hash_of("late joiner"));
  EXPECT_TRUE(moved()) << "add_node";
  ring.maintenance_round();
  EXPECT_TRUE(moved()) << "maintenance_round";
  ring.leave(ids[3]);
  EXPECT_TRUE(moved()) << "leave";
  ring.fail(ids[5]);
  EXPECT_TRUE(moved()) << "fail";
  ring.leave(ids[3]);
  ring.fail(ids[5]);
  EXPECT_FALSE(moved()) << "leaving or failing an absent node is a no-op";
}

class ChordLookup : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChordLookup, RoutedLookupMatchesBruteForce) {
  ChordRing ring;
  ring.build(GetParam());
  for (int i = 0; i < 200; ++i) {
    const NodeId key = key_of(i);
    EXPECT_EQ(ring.lookup(key), ring.true_successor(key)) << "key " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RingSizes, ChordLookup,
                         ::testing::Values(2u, 3u, 8u, 32u, 64u, 128u));

TEST(Chord, LookupFromEveryNodeAgrees) {
  ChordRing ring;
  ring.build(24);
  for (int i = 0; i < 20; ++i) {
    const NodeId key = key_of(i);
    const NodeId expected = ring.true_successor(key);
    for (const NodeId& id : ring.node_ids()) {
      EXPECT_EQ(ring.node(id)->find_successor(key), expected);
    }
  }
}

TEST(Chord, HopsScaleLogarithmically) {
  // "routing performance that scales logarithmically with the size of the
  // network" — mean hops for 256 nodes must stay well under log2(n)+c and,
  // crucially, far under the linear walk n/2.
  ChordRing ring;
  ring.build(256);
  double total_hops = 0;
  const int lookups = 300;
  for (int i = 0; i < lookups; ++i) {
    std::size_t hops = 0;
    (void)ring.lookup(key_of(i), &hops);
    total_hops += static_cast<double>(hops);
  }
  const double mean = total_hops / lookups;
  EXPECT_LT(mean, 12.0);   // ~log2(256) = 8, generous slack.
  EXPECT_GT(mean, 1.0);    // Sanity: routing actually routes.
}

TEST(Chord, JoinsIntegrateNewNodes) {
  ChordRing ring;
  ring.build(16);
  const NodeId fresh = NodeId::hash_of("late-joiner");
  ring.add_node(fresh);
  ring.run_maintenance(30);
  // The new node owns the keys between its predecessor and itself.
  EXPECT_EQ(ring.lookup(fresh), fresh);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.lookup(key_of(i)), ring.true_successor(key_of(i)));
  }
}

TEST(Chord, GracefulLeaveHandsOverKeyspace) {
  ChordRing ring;
  ring.build(16);
  const std::vector<NodeId> ids = ring.node_ids();
  ring.leave(ids[5]);
  ring.run_maintenance(20);
  EXPECT_EQ(ring.size(), 15u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.lookup(key_of(i)), ring.true_successor(key_of(i)));
  }
}

TEST(Chord, CrashFailuresHealThroughSuccessorLists) {
  ChordRing ring;
  ring.build(32);
  sim::Rng rng(17);
  // Fail a quarter of the ring without warning.
  std::vector<NodeId> ids = ring.node_ids();
  for (int k = 0; k < 8; ++k) {
    const NodeId victim = ids[rng.below(ids.size())];
    if (ring.alive(victim) && ring.size() > 1) ring.fail(victim);
  }
  ring.run_maintenance(40);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.lookup(key_of(i)), ring.true_successor(key_of(i)))
        << "key " << i;
  }
}

TEST(Chord, ChurnJoinsAndFailuresInterleaved) {
  ChordRing ring;
  ring.build(20);
  sim::Rng rng(23);
  for (int round = 0; round < 10; ++round) {
    ring.add_node(NodeId::hash_of("churn:" + std::to_string(round)));
    ring.run_maintenance(4);
    const std::vector<NodeId> ids = ring.node_ids();
    if (ids.size() > 4) {
      ring.fail(ids[rng.below(ids.size())]);
    }
    ring.run_maintenance(4);
  }
  ring.run_maintenance(30);
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(ring.lookup(key_of(i)), ring.true_successor(key_of(i)))
        << "key " << i;
  }
}

TEST(Chord, SuccessorListsPopulated) {
  ChordRing ring;
  ring.build(16);
  for (const NodeId& id : ring.node_ids()) {
    const auto& list = ring.node(id)->successor_list();
    EXPECT_GE(list.size(), 2u) << id.short_hex();
    // The first entry is the true successor.
    EXPECT_EQ(list.front(), ring.true_successor(
                                id.plus(NodeId::from_uint64(1))));
  }
}

TEST(Chord, PredecessorsConverge) {
  ChordRing ring;
  ring.build(16);
  for (const NodeId& id : ring.node_ids()) {
    const auto pred = ring.node(id)->predecessor();
    ASSERT_TRUE(pred.has_value()) << id.short_hex();
    // id is the successor of (pred + 1).
    EXPECT_EQ(ring.true_successor(pred->plus(NodeId::from_uint64(1))), id);
  }
}

TEST(Chord, FingersPointAtTrueSuccessors) {
  ChordRing ring;
  ring.build(32);
  const NodeId id = ring.node_ids()[0];
  const ChordNode* node = ring.node(id);
  std::size_t populated = 0;
  for (unsigned i = 0; i < ChordNode::kBits; ++i) {
    const auto& f = node->fingers()[i];
    if (!f.has_value()) continue;
    ++populated;
    EXPECT_EQ(*f,
              ring.true_successor(id.plus(NodeId::power_of_two(i))))
        << "finger " << i;
  }
  EXPECT_GT(populated, 100u);  // Maintenance populated the table.
}

}  // namespace
}  // namespace asa_repro::p2p
