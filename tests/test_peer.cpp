// Peer-set member corner cases driven with hand-crafted frames: node-lock
// serialisation (free/not_free), abort and recovery, history import, and
// Byzantine behaviour mechanics; plus contending clients driven through a
// whole peer set by real endpoints.
#include <gtest/gtest.h>

#include <memory>

#include "commit/endpoint.hpp"
#include "commit/machine_cache.hpp"
#include "commit/peer.hpp"

namespace asa_repro::commit {
namespace {

constexpr std::uint64_t kGuid = 5;

struct PeerHarness {
  explicit PeerHarness(std::uint32_t r = 4,
                       Behaviour behaviour = Behaviour::kHonest)
      : machine(cache.machine_for(r)),
        network(sched, sim::Rng(1), sim::LatencyModel{100, 100}) {
    std::vector<sim::NodeAddr> addrs;
    for (std::uint32_t i = 0; i < r; ++i) addrs.push_back(i);
    peer = std::make_unique<CommitPeer>(network, 0, addrs, machine,
                                        behaviour, &trace);
    // Capture the peer's outgoing traffic at the other addresses.
    for (std::uint32_t i = 1; i < r; ++i) {
      network.attach(i, [this, i](sim::NodeAddr, const std::string& data) {
        const auto msg = WireMessage::parse(data);
        if (msg.has_value()) outgoing[i].push_back(*msg);
      });
    }
    network.attach(100, [this](sim::NodeAddr, const std::string& data) {
      const auto msg = WireMessage::parse(data);
      if (msg.has_value()) client_inbox.push_back(*msg);
    });
  }

  void send(sim::NodeAddr from, WireMessage::Kind kind,
            std::uint64_t update_id, std::uint64_t request_id = 0) {
    WireMessage m{kind, kGuid, update_id,
                  request_id == 0 ? update_id : request_id, update_id * 10};
    network.send(from, 0, m.serialize());
    // Bounded advance: deliver the frame (100us latency) without firing
    // far-future timers such as abort scans.
    sched.run_until(sched.now() + 1'000);
  }

  std::size_t votes_sent_for(std::uint64_t update_id) const {
    std::size_t n = 0;
    for (const auto& [addr, msgs] : outgoing) {
      for (const auto& m : msgs) {
        if (m.kind == WireMessage::Kind::kVote && m.update_id == update_id) {
          ++n;
        }
      }
    }
    return n;
  }

  MachineCache cache;
  const fsm::StateMachine& machine;
  sim::Scheduler sched;
  sim::Network network;
  sim::Trace trace;
  std::unique_ptr<CommitPeer> peer;
  std::map<sim::NodeAddr, std::vector<WireMessage>> outgoing;
  std::vector<WireMessage> client_inbox;
};

TEST(Peer, UpdateWhileFreeVotesToAllOtherMembers) {
  PeerHarness h;
  h.send(100, WireMessage::Kind::kUpdate, 1);
  // One vote to each of the 3 other members, none to itself or the client.
  EXPECT_EQ(h.votes_sent_for(1), 3u);
  EXPECT_EQ(h.peer->stats().votes_sent, 1u);
}

TEST(Peer, SecondUpdateLockedOutUntilFirstFinishes) {
  PeerHarness h;
  h.send(100, WireMessage::Kind::kUpdate, 1);
  h.send(100, WireMessage::Kind::kUpdate, 2);
  // Update 2 arrived while update 1 holds the node lock: no vote for it.
  EXPECT_EQ(h.votes_sent_for(2), 0u);
  EXPECT_EQ(h.peer->live_instances(kGuid), 2u);

  // Drive update 1 to completion: 2 peer votes reach the threshold (with
  // the local vote), then 2 commits finish it.
  h.send(1, WireMessage::Kind::kVote, 1);
  h.send(2, WireMessage::Kind::kVote, 1);
  h.send(1, WireMessage::Kind::kCommit, 1);
  h.send(2, WireMessage::Kind::kCommit, 1);
  ASSERT_EQ(h.peer->history(kGuid).size(), 1u);
  // The freed lock passes to the pending update, which votes at once.
  EXPECT_EQ(h.votes_sent_for(2), 3u);
}

TEST(Peer, CompletionNotifiesTheClientOnce) {
  PeerHarness h;
  h.send(100, WireMessage::Kind::kUpdate, 1);
  h.send(1, WireMessage::Kind::kVote, 1);
  h.send(2, WireMessage::Kind::kVote, 1);
  h.send(1, WireMessage::Kind::kCommit, 1);
  h.send(2, WireMessage::Kind::kCommit, 1);
  ASSERT_EQ(h.client_inbox.size(), 1u);
  EXPECT_EQ(h.client_inbox[0].kind, WireMessage::Kind::kCommitted);
  EXPECT_EQ(h.client_inbox[0].update_id, 1u);
  // A resent update for the finished attempt is re-acknowledged (the
  // original notification may have been lost).
  h.send(100, WireMessage::Kind::kUpdate, 1);
  EXPECT_EQ(h.client_inbox.size(), 2u);
  // But unrelated traffic is not.
  h.send(1, WireMessage::Kind::kVote, 1);
  EXPECT_EQ(h.client_inbox.size(), 2u);
}

TEST(Peer, AbortFreesTheLockForPendingUpdates) {
  PeerHarness h;
  h.peer->enable_abort(5'000, 8'000);
  h.send(100, WireMessage::Kind::kUpdate, 1);  // Chooses, locks the node.
  h.send(100, WireMessage::Kind::kUpdate, 2);  // Pending.
  EXPECT_EQ(h.votes_sent_for(2), 0u);
  // No votes ever arrive for update 1: it stalls and is aborted.
  h.sched.run_until(h.sched.now() + 40'000);
  EXPECT_GE(h.peer->stats().aborted, 1u);
  // Update 2 inherited the lock and voted... unless it was aborted too
  // (both exceeded max_age). Verify via the lock: a THIRD update arriving
  // now must vote immediately.
  h.send(100, WireMessage::Kind::kUpdate, 3);
  EXPECT_EQ(h.votes_sent_for(3), 3u);
}

TEST(Peer, ImportHistoryOnlyIntoEmpty) {
  PeerHarness h;
  std::vector<CommitPeer::CommittedEntry> entries = {{10, 10, 100},
                                                     {11, 11, 110}};
  EXPECT_TRUE(h.peer->import_history(kGuid, entries));
  EXPECT_EQ(h.peer->history(kGuid).size(), 2u);
  // Non-empty: refuse.
  EXPECT_FALSE(h.peer->import_history(kGuid, {{12, 12, 120}}));
  EXPECT_EQ(h.peer->history(kGuid).size(), 2u);
}

TEST(Peer, CrashBehaviourIsSilent) {
  PeerHarness h(4, Behaviour::kCrash);
  h.send(100, WireMessage::Kind::kUpdate, 1);
  h.send(1, WireMessage::Kind::kVote, 1);
  EXPECT_TRUE(h.outgoing.empty() ||
              (h.outgoing[1].empty() && h.outgoing[2].empty()));
  EXPECT_TRUE(h.client_inbox.empty());
  EXPECT_EQ(h.peer->stats().votes_sent, 0u);
}

TEST(Peer, EquivocatorBlastsOncePerUpdate) {
  PeerHarness h(4, Behaviour::kEquivocator);
  h.send(1, WireMessage::Kind::kVote, 7);
  h.send(2, WireMessage::Kind::kVote, 7);  // Same update: no second blast.
  std::size_t votes = 0, commits = 0;
  for (const auto& [addr, msgs] : h.outgoing) {
    for (const auto& m : msgs) {
      votes += m.kind == WireMessage::Kind::kVote;
      commits += m.kind == WireMessage::Kind::kCommit;
    }
  }
  EXPECT_EQ(votes, 3u);    // One vote to each other member.
  EXPECT_EQ(commits, 3u);  // One commit to each other member.
}

TEST(Peer, WithholderOnlyReachesLowerHalf) {
  PeerHarness h(4, Behaviour::kWithholder);
  h.send(100, WireMessage::Kind::kUpdate, 1);
  // Peers are {0,1,2,3}; the withholder (0) sends votes only to the lower
  // half of the OTHER members by rank: ranks of 1,2,3 are 1,2,3; size/2=2,
  // so only rank<2 receives, i.e. peer 1.
  EXPECT_EQ(h.outgoing[1].size(), 1u);
  EXPECT_TRUE(h.outgoing[2].empty());
  EXPECT_TRUE(h.outgoing[3].empty());
}

TEST(Peer, CollectFinishedReleasesMemoryAndAbsorbsLateTraffic) {
  PeerHarness h;
  // Commit update 1 end to end.
  h.send(100, WireMessage::Kind::kUpdate, 1);
  h.send(1, WireMessage::Kind::kVote, 1);
  h.send(2, WireMessage::Kind::kVote, 1);
  h.send(1, WireMessage::Kind::kCommit, 1);
  h.send(2, WireMessage::Kind::kCommit, 1);
  ASSERT_EQ(h.peer->history(kGuid).size(), 1u);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 1u);

  EXPECT_EQ(h.peer->collect_finished(), 1u);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 0u);

  // A straggler vote for the settled update must not resurrect it.
  h.send(3, WireMessage::Kind::kVote, 1);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 0u);
  // A resent update request is re-confirmed from the settled record.
  const std::size_t before = h.client_inbox.size();
  h.send(100, WireMessage::Kind::kUpdate, 1);
  ASSERT_EQ(h.client_inbox.size(), before + 1);
  EXPECT_EQ(h.client_inbox.back().kind, WireMessage::Kind::kCommitted);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 0u);
  // History is untouched.
  EXPECT_EQ(h.peer->history(kGuid).size(), 1u);
}

TEST(Peer, CollectFinishedSkipsLiveInstances) {
  PeerHarness h;
  h.send(100, WireMessage::Kind::kUpdate, 1);  // In progress.
  EXPECT_EQ(h.peer->collect_finished(), 0u);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 1u);
}

TEST(Peer, HistoryForUnknownGuidIsEmpty) {
  PeerHarness h;
  EXPECT_TRUE(h.peer->history(999).empty());
  EXPECT_EQ(h.peer->live_instances(999), 0u);
}

// ---- Contending clients through the whole peer set ----

/// Four peers with stall aborts on, and `clients` endpoints each racing
/// one update for the same GUID. Returns the committed clients; every
/// peer's history must be the same.
int run_contention(std::uint64_t seed, int clients) {
  MachineCache cache;
  const fsm::StateMachine& machine = cache.machine_for(4);
  sim::Scheduler sched;
  sim::Network network(sched, sim::Rng(seed), sim::LatencyModel{500, 5'000});
  const std::vector<sim::NodeAddr> addrs{0, 1, 2, 3};
  std::vector<std::unique_ptr<CommitPeer>> peers;
  for (const sim::NodeAddr a : addrs) {
    peers.push_back(std::make_unique<CommitPeer>(network, a, addrs, machine));
    peers.back()->enable_abort(50'000, 60'000);
  }

  RetryPolicy policy;
  policy.base_timeout = 70'000;
  policy.max_attempts = 20;
  int committed = 0;
  std::vector<std::unique_ptr<CommitEndpoint>> endpoints;
  for (int c = 0; c < clients; ++c) {
    endpoints.push_back(std::make_unique<CommitEndpoint>(
        network, static_cast<sim::NodeAddr>(100 + c), addrs, 1, policy,
        sim::Rng(seed * 31 + c)));
    endpoints.back()->submit(kGuid, 7'000 + c, [&](const CommitResult& r) {
      committed += r.committed ? 1 : 0;
    });
  }
  sched.run();
  for (const auto& p : peers) {
    EXPECT_EQ(p->history(kGuid), peers.front()->history(kGuid));
  }
  return committed;
}

class PeerContention : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeerContention, EveryClientCommits) {
  for (const int clients : {1, 3}) {
    EXPECT_EQ(run_contention(GetParam(), clients), clients)
        << clients << " client(s)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeerContention,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

}  // namespace
}  // namespace asa_repro::commit
