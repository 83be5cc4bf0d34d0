// Full-stack integration: the AsaCluster wiring Chord + storage nodes +
// commit peers + client services, exercising the paper's two services
// (data storage, version history) end to end on the simulated network.
#include <gtest/gtest.h>

#include <algorithm>

#include "storage/cluster.hpp"

namespace asa_repro::storage {
namespace {

ClusterConfig small_cluster(std::uint64_t seed = 42) {
  ClusterConfig config;
  config.nodes = 12;
  config.replication_factor = 4;
  config.seed = seed;
  return config;
}

// ---- Data storage service (section 2.1). ----

TEST(ClusterDataStore, StoreThenRetrieve) {
  AsaCluster cluster(small_cluster());
  StoreResult stored;
  const Pid pid = cluster.data_store().store(
      block_from("the first block"),
      [&](const StoreResult& r) { stored = r; });
  cluster.run();
  EXPECT_TRUE(stored.ok);
  EXPECT_EQ(stored.pid, pid);
  EXPECT_GE(stored.acks, 3u);  // r - f = 3.

  RetrieveResult got;
  cluster.data_store().retrieve(pid, [&](const RetrieveResult& r) { got = r; });
  cluster.run();
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.block, block_from("the first block"));
}

TEST(ClusterDataStore, RetrieveUnknownPidFails) {
  AsaCluster cluster(small_cluster());
  RetrieveResult got;
  bool done = false;
  cluster.data_store().retrieve(Pid::of(block_from("never stored")),
                                [&](const RetrieveResult& r) {
                                  got = r;
                                  done = true;
                                });
  cluster.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.replicas_tried, 4u);
}

TEST(ClusterDataStore, CorruptReplicaDetectedAndFailedOver) {
  AsaCluster cluster(small_cluster(7));
  StoreResult stored;
  const Pid pid = cluster.data_store().store(
      block_from("verify me"), [&](const StoreResult& r) { stored = r; });
  cluster.run();
  ASSERT_TRUE(stored.ok);

  // Corrupt every node (they lie on the wire); retrieval must fail after
  // exhausting replicas, counting verification failures.
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    cluster.corrupt_node(i);
  }
  RetrieveResult got;
  cluster.data_store().retrieve(pid, [&](const RetrieveResult& r) { got = r; });
  cluster.run();
  EXPECT_FALSE(got.ok);
  EXPECT_GT(got.verification_failures, 0u);

  // Heal one replica holder: retrieval succeeds again via failover.
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    cluster.host(i).store().set_corrupt(false);
  }
  cluster.data_store().retrieve(pid, [&](const RetrieveResult& r) { got = r; });
  cluster.run();
  EXPECT_TRUE(got.ok);
}

TEST(ClusterDataStore, StoreFailsWhenQuorumUnreachable) {
  // With more than f replicas refusing writes, the (r-f) store quorum is
  // unreachable and the operation must fail cleanly.
  AsaCluster cluster(small_cluster(15));
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    cluster.host(i).store().set_refuse_writes(true);
  }
  StoreResult stored;
  bool done = false;
  cluster.data_store().store(block_from("doomed"), [&](const StoreResult& r) {
    stored = r;
    done = true;
  });
  cluster.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(stored.ok);
  EXPECT_EQ(stored.acks, 0u);
}

TEST(ClusterDataStore, ClosenessOrderIsDeterministic) {
  // The closeness policy tries replicas in a fixed order, so repeated
  // retrievals hit the same (nearest) replica first.
  AsaCluster cluster(small_cluster(29));
  cluster.data_store().set_retrieve_order(RetrieveOrder::kCloseness);
  StoreResult stored;
  const Pid pid = cluster.data_store().store(
      block_from("near me"), [&](const StoreResult& r) { stored = r; });
  cluster.run();
  ASSERT_TRUE(stored.ok);
  for (int i = 0; i < 3; ++i) {
    RetrieveResult got;
    cluster.data_store().retrieve(pid,
                                  [&](const RetrieveResult& r) { got = r; });
    cluster.run();
    ASSERT_TRUE(got.ok);
    EXPECT_EQ(got.replicas_tried, 1u);  // Always first try, same node.
  }
}

TEST(ClusterDataStore, ManyBlocksRoundTrip) {
  AsaCluster cluster(small_cluster(9));
  std::vector<Pid> pids;
  int stored_ok = 0;
  for (int i = 0; i < 20; ++i) {
    pids.push_back(cluster.data_store().store(
        block_from("block number " + std::to_string(i)),
        [&](const StoreResult& r) { stored_ok += r.ok ? 1 : 0; }));
  }
  cluster.run();
  EXPECT_EQ(stored_ok, 20);
  int retrieved_ok = 0;
  for (const Pid& pid : pids) {
    cluster.data_store().retrieve(
        pid, [&](const RetrieveResult& r) { retrieved_ok += r.ok ? 1 : 0; });
  }
  cluster.run();
  EXPECT_EQ(retrieved_ok, 20);
}

// ---- Version history service (section 2.2). ----

TEST(ClusterVersionHistory, AppendAndRead) {
  AsaCluster cluster(small_cluster(3));
  const Guid guid = Guid::named("document.txt");
  const Pid v1 = Pid::of(block_from("version 1"));
  const Pid v2 = Pid::of(block_from("version 2"));

  int committed = 0;
  cluster.version_history().append(
      guid, v1, [&](const commit::CommitResult& r) {
        committed += r.committed ? 1 : 0;
      });
  cluster.run();
  cluster.version_history().append(
      guid, v2, [&](const commit::CommitResult& r) {
        committed += r.committed ? 1 : 0;
      });
  cluster.run();
  EXPECT_EQ(committed, 2);

  HistoryReadResult read;
  cluster.version_history().read(
      guid, [&](const HistoryReadResult& r) { read = r; });
  cluster.run();
  EXPECT_TRUE(read.ok);
  ASSERT_EQ(read.versions.size(), 2u);
  EXPECT_EQ(read.versions[0], v1.to_uint64());
  EXPECT_EQ(read.versions[1], v2.to_uint64());
}

TEST(ClusterVersionHistory, IndependentGuidsDoNotInterfere) {
  AsaCluster cluster(small_cluster(5));
  const Guid a = Guid::named("a");
  const Guid b = Guid::named("b");
  int committed = 0;
  cluster.version_history().append(
      a, Pid::of(block_from("a1")),
      [&](const commit::CommitResult& r) { committed += r.committed; });
  cluster.version_history().append(
      b, Pid::of(block_from("b1")),
      [&](const commit::CommitResult& r) { committed += r.committed; });
  cluster.run();
  EXPECT_EQ(committed, 2);

  HistoryReadResult read_a, read_b;
  cluster.version_history().read(
      a, [&](const HistoryReadResult& r) { read_a = r; });
  cluster.version_history().read(
      b, [&](const HistoryReadResult& r) { read_b = r; });
  cluster.run();
  ASSERT_EQ(read_a.versions.size(), 1u);
  ASSERT_EQ(read_b.versions.size(), 1u);
  EXPECT_EQ(read_a.versions[0], Pid::of(block_from("a1")).to_uint64());
  EXPECT_EQ(read_b.versions[0], Pid::of(block_from("b1")).to_uint64());
}

TEST(ClusterVersionHistory, ReadToleratesCorruptHistoryServer) {
  // One Byzantine peer in the GUID's peer set cannot change the agreed
  // read (f+1 consistency rule).
  AsaCluster cluster(small_cluster(8));
  const Guid guid = Guid::named("attacked");
  const Pid v1 = Pid::of(block_from("true version"));
  bool committed = false;
  cluster.version_history().append(
      guid, v1,
      [&](const commit::CommitResult& r) { committed = r.committed; });
  cluster.run();
  ASSERT_TRUE(committed);

  // Crash one member of the peer set (fewer replies, still >= f+1).
  const auto peers = cluster.peer_set(guid);
  ASSERT_GE(peers.size(), 3u);
  cluster.network().detach(peers[0]);

  HistoryReadResult read;
  cluster.version_history().read(
      guid, [&](const HistoryReadResult& r) { read = r; });
  cluster.run();
  EXPECT_TRUE(read.ok);
  ASSERT_EQ(read.versions.size(), 1u);
  EXPECT_EQ(read.versions[0], v1.to_uint64());
}

// ---- Replica maintenance (background repair). ----

TEST(ClusterMaintenance, RepairsDamagedReplicasInPlace) {
  AsaCluster cluster(small_cluster(11));
  StoreResult stored;
  const Pid pid = cluster.data_store().store(
      block_from("keep me alive"), [&](const StoreResult& r) { stored = r; });
  cluster.run();
  ASSERT_TRUE(stored.ok);
  cluster.maintainer().track(pid);

  // Damage one replica at rest.
  NodeHost& victim = cluster.host_for_key(pid.as_key());
  victim.store().corrupt_stored(pid);
  EXPECT_FALSE(victim.store().holds_intact(pid));

  EXPECT_GE(cluster.maintainer().scan(), 1u);
  EXPECT_TRUE(victim.store().holds_intact(pid));
}

// ---- Peer-set membership maintenance (section 2.2). ----

TEST(ClusterMembership, ReplacementMemberAdoptsHistory) {
  ClusterConfig cfg = small_cluster(17);
  cfg.nodes = 16;
  AsaCluster cluster(cfg);
  const Guid guid = Guid::named("migrating-history");

  // Commit two versions.
  int committed = 0;
  for (const char* text : {"v0", "v1"}) {
    cluster.version_history().append(
        guid, Pid::of(block_from(text)),
        [&](const commit::CommitResult& r) { committed += r.committed; });
    cluster.run();
  }
  ASSERT_EQ(committed, 2);

  // Crash one member; the ring heals and the peer set gains a replacement
  // node with no local history.
  const auto old_peers = cluster.peer_set(guid);
  cluster.crash_node(old_peers[0]);
  const auto new_peers = cluster.peer_set(guid);
  ASSERT_NE(new_peers, old_peers);
  bool has_empty_member = false;
  for (sim::NodeAddr addr : new_peers) {
    if (cluster.host(addr).peer().history(guid.to_uint64()).empty()) {
      has_empty_member = true;
    }
  }
  ASSERT_TRUE(has_empty_member);

  // The background maintenance bootstraps the newcomer.
  EXPECT_GE(cluster.migrate_version_history(guid), 1u);
  for (sim::NodeAddr addr : new_peers) {
    EXPECT_EQ(cluster.host(addr).peer().history(guid.to_uint64()).size(),
              2u)
        << "node " << addr;
  }

  // Reads keep working through the reconfiguration.
  HistoryReadResult read;
  cluster.version_history().read(
      guid, [&](const HistoryReadResult& r) { read = r; });
  cluster.run();
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.versions.size(), 2u);

  // A second migration is a no-op.
  EXPECT_EQ(cluster.migrate_version_history(guid), 0u);
}

TEST(ClusterMembership, MigrationWithNothingToDoIsZero) {
  AsaCluster cluster(small_cluster(19));
  EXPECT_EQ(cluster.migrate_version_history(Guid::named("never-written")),
            0u);
}

// ---- Crash + reconfiguration. ----

TEST(ClusterChurn, SurvivesNodeCrashForNewOperations) {
  ClusterConfig config = small_cluster(13);
  config.nodes = 16;
  AsaCluster cluster(config);
  // Store before the crash.
  StoreResult stored;
  const Pid pid = cluster.data_store().store(
      block_from("pre-crash"), [&](const StoreResult& r) { stored = r; });
  cluster.run();
  ASSERT_TRUE(stored.ok);

  // Crash a node that is NOT in this block's replica set, then verify both
  // old and new operations work.
  const auto keys = replica_keys(pid.as_key(), 4);
  std::set<sim::NodeAddr> replica_addrs;
  for (const auto& k : keys) replica_addrs.insert(cluster.addr_for_key(k));
  std::size_t victim = 0;
  while (replica_addrs.contains(
      cluster.host(victim).address())) {
    ++victim;
  }
  cluster.crash_node(victim);

  RetrieveResult got;
  cluster.data_store().retrieve(pid, [&](const RetrieveResult& r) { got = r; });
  cluster.run();
  EXPECT_TRUE(got.ok);

  StoreResult stored2;
  cluster.data_store().store(block_from("post-crash"),
                             [&](const StoreResult& r) { stored2 = r; });
  cluster.run();
  EXPECT_TRUE(stored2.ok);
}

// ---- Crash -> restart -> recovery (paper 2.2's faulty-member repair). ----

TEST(ClusterRecovery, RestartedNodeRejoinsAndAdoptsHistory) {
  ClusterConfig config = small_cluster(23);
  config.nodes = 16;
  AsaCluster cluster(config);
  const Guid guid = Guid::named("recovering-history");

  int committed = 0;
  for (const char* text : {"v0", "v1", "v2"}) {
    cluster.version_history().append(
        guid, Pid::of(block_from(text)),
        [&](const commit::CommitResult& r) { committed += r.committed; });
    cluster.run();
  }
  ASSERT_EQ(committed, 3);

  // Crash a peer-set member: it leaves the ring and drops its history.
  const auto victim = static_cast<std::size_t>(cluster.peer_set(guid)[0]);
  cluster.crash_node(victim);
  ASSERT_TRUE(cluster.crashed(victim));

  // Restart: the node re-attaches under its original ring id and
  // bootstraps the (f+1)-agreed history from the surviving members.
  EXPECT_GE(cluster.restart_node(victim), 1u);
  EXPECT_FALSE(cluster.crashed(victim));
  EXPECT_EQ(cluster.host(victim).peer().history(guid.to_uint64()).size(),
            3u);
  // Back in the ring under the old id: the peer set includes it again.
  const auto peers = cluster.peer_set(guid);
  EXPECT_NE(std::find(peers.begin(), peers.end(),
                      static_cast<sim::NodeAddr>(victim)),
            peers.end());

  // Restarting a live node is a no-op.
  EXPECT_EQ(cluster.restart_node(victim), 0u);

  // Subsequent commits land on the restarted node too.
  int committed2 = 0;
  cluster.version_history().append(
      guid, Pid::of(block_from("v3")),
      [&](const commit::CommitResult& r) { committed2 += r.committed; });
  cluster.run();
  ASSERT_EQ(committed2, 1);
  EXPECT_EQ(cluster.host(victim).peer().history(guid.to_uint64()).size(),
            4u);

  // Reads agree on the full four-version history.
  HistoryReadResult read;
  cluster.version_history().read(
      guid, [&](const HistoryReadResult& r) { read = r; });
  cluster.run();
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.versions.size(), 4u);
}

TEST(ClusterRecovery, RepairAfterSimultaneousCorruptionAndCrash) {
  ClusterConfig config = small_cluster(29);
  config.nodes = 16;
  AsaCluster cluster(config);

  StoreResult stored;
  const Pid pid = cluster.data_store().store(
      block_from("battered block"), [&](const StoreResult& r) { stored = r; });
  cluster.run();
  ASSERT_TRUE(stored.ok);
  cluster.maintainer().track(pid);

  // Hit the replica set twice at once (f = 1 each for the storage layer's
  // corruption detection and the ring's crash healing): corrupt one
  // replica at rest and crash another.
  const auto keys = replica_keys(pid.as_key(), 4);
  const auto corrupted = static_cast<std::size_t>(
      cluster.addr_for_key(keys[0]));
  std::size_t crashed = cluster.node_count();
  for (const auto& k : keys) {
    const auto addr = static_cast<std::size_t>(cluster.addr_for_key(k));
    if (addr != corrupted) {
      crashed = addr;
      break;
    }
  }
  ASSERT_LT(crashed, cluster.node_count());
  cluster.host(corrupted).store().corrupt_stored(pid);
  cluster.crash_node(crashed);

  // Maintenance re-replicates onto the healed ring and fixes the damaged
  // copy from an intact one.
  EXPECT_GE(cluster.maintainer().scan(), 1u);
  cluster.run();

  RetrieveResult got;
  cluster.data_store().retrieve(pid, [&](const RetrieveResult& r) { got = r; });
  cluster.run();
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.block, block_from("battered block"));

  // The restarted node is folded back in and repaired as well.
  cluster.restart_node(crashed);
  EXPECT_GE(cluster.maintainer().scan(), 0u);
  RetrieveResult again;
  cluster.data_store().retrieve(pid,
                                [&](const RetrieveResult& r) { again = r; });
  cluster.run();
  EXPECT_TRUE(again.ok);
}

// ---- Membership churn: true ring joins and departures (not crashes). ----

TEST(ClusterChurn, AddNodeGrowsRingAndBumpsEpoch) {
  AsaCluster cluster(small_cluster(51));
  const std::size_t before = cluster.node_count();
  EXPECT_EQ(cluster.membership_epoch(), 0u);
  const std::size_t fresh = cluster.add_node();
  EXPECT_EQ(fresh, before);  // Indices are never reused.
  EXPECT_EQ(cluster.node_count(), before + 1);
  EXPECT_EQ(cluster.membership_epoch(), 1u);
  EXPECT_EQ(cluster.joined_epoch(fresh), 1u);
  EXPECT_EQ(cluster.joined_epoch(0), 0u);  // Initial members: epoch 0.
  EXPECT_FALSE(cluster.departed(fresh));

  // The grown ring still commits and reads.
  const Guid guid = Guid::named("post-join");
  int committed = 0;
  cluster.version_history().append(
      guid, Pid::of(block_from("after the join")),
      [&](const commit::CommitResult& r) { committed += r.committed; });
  cluster.run();
  EXPECT_EQ(committed, 1);
}

TEST(ClusterChurn, GracefulLeaveWaveHandsHistoryToNewOwners) {
  ClusterConfig config = small_cluster(53);
  config.nodes = 16;
  AsaCluster cluster(config);
  const Guid guid = Guid::named("handed-off");

  for (int i = 0; i < 3; ++i) {
    int committed = 0;
    cluster.version_history().append(
        guid, Pid::of(block_from("survivor " + std::to_string(i))),
        [&](const commit::CommitResult& r) { committed += r.committed; });
    cluster.run();
    ASSERT_EQ(committed, 1) << "baseline update " << i;
  }

  // Remove every original peer-set member, one graceful leave at a time.
  // Each leave hands the key range (and the history) to the new owners.
  const auto original = cluster.peer_set(guid);
  ASSERT_EQ(original.size(), 4u);
  for (sim::NodeAddr member : original) {
    ASSERT_TRUE(cluster.remove_node(static_cast<std::size_t>(member),
                                    /*graceful=*/true));
    EXPECT_TRUE(cluster.departed(static_cast<std::size_t>(member)));
    EXPECT_TRUE(
        cluster.departed_gracefully(static_cast<std::size_t>(member)));
    cluster.run();
  }
  EXPECT_EQ(cluster.membership_epoch(), 4u);

  // The peer set fully rotated, and the acknowledged history survived
  // into it.
  for (sim::NodeAddr member : cluster.peer_set(guid)) {
    EXPECT_EQ(std::count(original.begin(), original.end(), member), 0);
  }
  HistoryReadResult read;
  cluster.version_history().read(
      guid, [&](const HistoryReadResult& r) { read = r; });
  cluster.run();
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.versions.size(), 3u);
}

TEST(ClusterChurn, SuppressedHandoffLosesTheHistory) {
  // The counterfactual behind asachaos --churn-smoke --no-handoff: the
  // same graceful leave wave, minus the data handoff, must lose the
  // acknowledged history once every original owner is gone.
  ClusterConfig config = small_cluster(53);
  config.nodes = 16;
  AsaCluster cluster(config);
  const Guid guid = Guid::named("handed-off");  // Same ring layout above.
  int committed = 0;
  cluster.version_history().append(
      guid, Pid::of(block_from("doomed update")),
      [&](const commit::CommitResult& r) { committed += r.committed; });
  cluster.run();
  ASSERT_EQ(committed, 1);

  for (sim::NodeAddr member : cluster.peer_set(guid)) {
    ASSERT_TRUE(cluster.remove_node(static_cast<std::size_t>(member),
                                    /*graceful=*/true, /*handoff=*/false));
    cluster.run();
  }
  HistoryReadResult read;
  cluster.version_history().read(
      guid, [&](const HistoryReadResult& r) { read = r; });
  cluster.run();
  EXPECT_TRUE(read.versions.empty())
      << "history survived without handoff - the counterfactual is broken";
}

TEST(ClusterChurn, AbruptDepartureIsHealedByMigration) {
  ClusterConfig config = small_cluster(59);
  config.nodes = 16;
  AsaCluster cluster(config);
  const Guid guid = Guid::named("abrupt");
  int committed = 0;
  cluster.version_history().append(
      guid, Pid::of(block_from("replicated widely")),
      [&](const commit::CommitResult& r) { committed += r.committed; });
  cluster.run();
  ASSERT_EQ(committed, 1);

  // One member vanishes without handoff; the other r-1 replicas still
  // hold the history, and migration bootstraps the replacement member.
  const auto members = cluster.peer_set(guid);
  ASSERT_TRUE(cluster.remove_node(static_cast<std::size_t>(members[0]),
                                  /*graceful=*/false));
  EXPECT_FALSE(
      cluster.departed_gracefully(static_cast<std::size_t>(members[0])));
  cluster.run();
  (void)cluster.migrate_version_history(guid);
  cluster.run();

  HistoryReadResult read;
  cluster.version_history().read(
      guid, [&](const HistoryReadResult& r) { read = r; });
  cluster.run();
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.versions.size(), 1u);
}

TEST(ClusterChurn, RemoveNodeGuardsInvalidAndDeparted) {
  AsaCluster cluster(small_cluster(61));
  EXPECT_FALSE(cluster.remove_node(cluster.node_count(), true));
  ASSERT_TRUE(cluster.remove_node(2, /*graceful=*/true));
  EXPECT_FALSE(cluster.remove_node(2, true));   // Already gone.
  EXPECT_FALSE(cluster.remove_node(2, false));  // Still gone.
  EXPECT_EQ(cluster.membership_epoch(), 1u);    // Refused calls don't bump.
  // A departed member never restarts.
  EXPECT_EQ(cluster.restart_node(2), 0u);
  EXPECT_TRUE(cluster.departed(2));
}

// ---- Peer-set memo: resolved once per ring version. ----

/// The peer set recomputed from scratch: one Chord walk per replica key.
std::vector<sim::NodeAddr> fresh_peer_set(AsaCluster& cluster,
                                          const Guid& guid) {
  std::vector<sim::NodeAddr> addrs;
  for (const p2p::NodeId& key :
       replica_keys(guid.as_key(), cluster.config().replication_factor)) {
    const sim::NodeAddr addr = cluster.addr_for_key(key);
    if (std::find(addrs.begin(), addrs.end(), addr) == addrs.end()) {
      addrs.push_back(addr);
    }
  }
  return addrs;
}

std::vector<Guid> memo_guids(int count) {
  std::vector<Guid> guids;
  for (int g = 0; g < count; ++g) {
    guids.push_back(Guid::named("memo:" + std::to_string(g)));
  }
  return guids;
}

TEST(ClusterPeerSetMemo, MatchesFreshLookupsThroughRandomMembershipChanges) {
  ClusterConfig config = small_cluster(71);
  config.nodes = 16;
  AsaCluster cluster(config);
  const std::vector<Guid> guids = memo_guids(64);
  // Memoise every GUID, then compare each memo against a fresh walk.
  const auto stale = [&] {
    std::size_t mismatches = 0;
    for (const Guid& guid : guids) {
      if (cluster.peer_set(guid) != fresh_peer_set(cluster, guid)) {
        ++mismatches;
      }
    }
    return mismatches;
  };
  ASSERT_EQ(stale(), 0u);

  sim::Rng rng(71);
  std::size_t restarts = 0, crashes = 0, joins = 0, leaves = 0;
  for (int step = 0; step < 48; ++step) {
    std::vector<std::size_t> live, down;
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      if (cluster.departed(i)) continue;
      (cluster.crashed(i) ? down : live).push_back(i);
    }
    const std::uint64_t op = rng.below(5);
    std::string what;
    if (op == 4 && !down.empty()) {
      const std::size_t node = down[rng.below(down.size())];
      (void)cluster.restart_node(node);
      what = "restart " + std::to_string(node);
      ++restarts;
    } else if (op >= 1 && op <= 3 && live.size() > 8) {
      const std::size_t node = live[rng.below(live.size())];
      if (op == 3) {
        cluster.crash_node(node);
        what = "crash " + std::to_string(node);
        ++crashes;
      } else {
        ASSERT_TRUE(cluster.remove_node(node, /*graceful=*/op == 1));
        what = (op == 1 ? "leave " : "depart ") + std::to_string(node);
        ++leaves;
      }
    } else {
      what = "join " + std::to_string(cluster.add_node());
      ++joins;
    }
    ASSERT_EQ(stale(), 0u) << "after step " << step << " (" << what << ")";
  }
  // The interleaving really mixed every kind of membership change.
  EXPECT_GT(restarts, 0u);
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(joins, 0u);
  EXPECT_GT(leaves, 0u);
}

TEST(ClusterPeerSetMemo, FaultFreeRunWalksEachReplicaKeyOncePerRingVersion) {
  ClusterConfig config = small_cluster(73);
  config.nodes = 16;
  config.metrics = true;
  AsaCluster cluster(config);
  const std::vector<Guid> guids = memo_guids(64);
  const std::uint64_t version = cluster.ring().version();

  int committed = 0;
  for (int round = 0; round < 3; ++round) {
    for (const Guid& guid : guids) {
      cluster.version_history().append(
          guid, Pid::of(block_from(std::to_string(round))),
          [&](const commit::CommitResult& r) { committed += r.committed; });
    }
    cluster.run();
  }
  ASSERT_EQ(committed, 3 * 64);
  ASSERT_EQ(cluster.ring().version(), version);  // No ring change.

  // Every vote, commit and endpoint attempt resolved a peer set; only the
  // first resolution of each GUID walked the ring.
  const std::uint64_t walks =
      cluster.metrics()
          .histogram("chord.route_hops", {}, obs::small_count_buckets())
          .count();
  EXPECT_GT(walks, 0u);
  EXPECT_LE(walks, guids.size() * config.replication_factor);
}

TEST(ClusterPeerSetMemo, DroppingTheMemoEveryWindowChangesNothing) {
  struct Outcome {
    sim::NetworkStats net;
    sim::SchedulerStats sched;
    std::vector<commit::PeerStats> peers;
    std::vector<std::vector<commit::CommitPeer::CommittedEntry>> histories;
    int committed = 0;
    std::uint64_t walks = 0;
  };
  const std::vector<Guid> guids = memo_guids(24);
  const auto run = [&](bool forget_every_window) {
    ClusterConfig config = small_cluster(79);
    config.nodes = 16;
    config.drop_probability = 0.02;
    config.metrics = true;
    AsaCluster cluster(config);
    Outcome out;
    const auto victim =
        static_cast<std::size_t>(cluster.peer_set(guids[0]).front());
    for (int window = 0; window < 12; ++window) {
      for (std::size_t g = window % 2; g < guids.size(); g += 2) {
        cluster.version_history().append(
            guids[g],
            Pid::of(block_from("w" + std::to_string(window) + " g" +
                               std::to_string(g))),
            [&](const commit::CommitResult& r) {
              out.committed += r.committed;
            });
      }
      // Ring changes between windows: the memo must follow them.
      if (window == 3) cluster.crash_node(victim);
      if (window == 6) (void)cluster.restart_node(victim);
      if (window == 8) (void)cluster.add_node();
      if (window == 10) (void)cluster.remove_node(2, /*graceful=*/true);
      cluster.run_for(20'000);
      if (forget_every_window) cluster.forget_peer_sets();
    }
    cluster.run();
    out.net = cluster.network().stats();
    out.sched = cluster.scheduler().stats();
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      out.peers.push_back(cluster.host(i).peer().stats());
      for (const Guid& guid : guids) {
        out.histories.push_back(
            cluster.host(i).peer().history(guid.to_uint64()));
      }
    }
    out.walks = cluster.metrics()
                    .histogram("chord.route_hops", {},
                               obs::small_count_buckets())
                    .count();
    return out;
  };

  const Outcome memo = run(false);
  const Outcome forgetful = run(true);
  EXPECT_GT(memo.committed, 0);
  EXPECT_EQ(memo.committed, forgetful.committed);
  EXPECT_EQ(memo.net, forgetful.net);
  EXPECT_EQ(memo.sched, forgetful.sched);
  EXPECT_EQ(memo.peers, forgetful.peers);
  EXPECT_EQ(memo.histories, forgetful.histories);
  // Same behaviour, different cost: the memo saved ring walks.
  EXPECT_LT(memo.walks, forgetful.walks);
}

// ---- Commit instance lifecycle: memory follows live updates. ----

TEST(ClusterInstanceLifecycle, ResidentInstancesFollowLiveUpdates) {
  ClusterConfig config = small_cluster(83);
  config.nodes = 64;
  AsaCluster cluster(config);
  const std::vector<Guid> guids = memo_guids(32);
  const auto resident = [&] {
    std::size_t n = 0;
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      for (const Guid& guid : guids) {
        n += cluster.host(i).peer().resident_instances(guid.to_uint64());
      }
    }
    return n;
  };

  constexpr int kWindows = 6;
  int committed = 0;
  std::vector<std::size_t> peaks;
  for (int window = 0; window < kWindows; ++window) {
    for (const Guid& guid : guids) {
      cluster.version_history().append(
          guid, Pid::of(block_from("w" + std::to_string(window))),
          [&](const commit::CommitResult& r) { committed += r.committed; });
    }
    // Sample every 500 us of simulated time until the window drains.
    std::size_t peak = 0;
    for (sim::Time t = cluster.scheduler().now();
         cluster.scheduler().pending() > 0;) {
      t += 500;
      cluster.scheduler().run_until(t);
      peak = std::max(peak, resident());
    }
    // Quiescent: every instance settled and was released.
    EXPECT_EQ(resident(), 0u) << "window " << window;
    peaks.push_back(peak);
  }
  EXPECT_EQ(committed, kWindows * static_cast<int>(guids.size()));
  // One update per GUID is in flight at a time, on at most r peers; the
  // peak is bounded by that, not by the updates committed so far.
  for (int window = 0; window < kWindows; ++window) {
    EXPECT_GT(peaks[window], 0u) << "window " << window;
    EXPECT_LE(peaks[window], guids.size() * config.replication_factor)
        << "window " << window;
    EXPECT_LE(peaks[window], peaks[0]) << "window " << window;
  }
}

}  // namespace
}  // namespace asa_repro::storage
