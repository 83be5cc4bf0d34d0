// The deployed commit protocol: peer-set members + service endpoint over
// the simulated network. Covers the no-contention path, concurrent-update
// serialisation, deadlock + timeout/retry, and Byzantine tolerance — the
// behaviour the paper claims (section 2.2) but never tests.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "commit/endpoint.hpp"
#include "commit/machine_cache.hpp"
#include "commit/peer.hpp"
#include "storage/version_history.hpp"

namespace asa_repro::commit {
namespace {

constexpr std::uint64_t kGuid = 77;

/// A little harness: r peers (addresses 0..r-1) plus client endpoints at
/// 100, 101, ...
struct Harness {
  explicit Harness(std::uint32_t r, std::uint64_t seed = 1,
                   RetryPolicy policy = {},
                   sim::LatencyModel latency = {500, 5'000})
      : machine(cache.machine_for(r)),
        network(sched, sim::Rng(seed), latency),
        f((r - 1) / 3) {
    for (std::uint32_t i = 0; i < r; ++i) peer_addrs.push_back(i);
    for (std::uint32_t i = 0; i < r; ++i) {
      peers.push_back(std::make_unique<CommitPeer>(
          network, i, peer_addrs, machine, Behaviour::kHonest, &trace));
    }
    policy_ = policy;
  }

  CommitEndpoint& endpoint(std::uint32_t index = 0) {
    while (endpoints.size() <= index) {
      endpoints.push_back(std::make_unique<CommitEndpoint>(
          network, static_cast<sim::NodeAddr>(100 + endpoints.size()),
          peer_addrs, EndpointAbstraction::deployed(f, policy_), policy_,
          sim::Rng(9000 + endpoints.size())));
    }
    return *endpoints[index];
  }

  void make_byzantine(std::uint32_t index, Behaviour behaviour) {
    peers[index] = std::make_unique<CommitPeer>(
        network, index, peer_addrs, machine, behaviour, &trace);
  }

  /// All honest peers' committed update-id sequences for kGuid.
  std::vector<std::vector<std::uint64_t>> honest_histories() const {
    std::vector<std::vector<std::uint64_t>> out;
    for (const auto& p : peers) {
      if (p->behaviour() != Behaviour::kHonest) continue;
      std::vector<std::uint64_t> h;
      for (const auto& e : p->history(kGuid)) h.push_back(e.update_id);
      out.push_back(std::move(h));
    }
    return out;
  }

  MachineCache cache;
  const fsm::StateMachine& machine;
  sim::Scheduler sched;
  sim::Network network;
  obs::EventRecorder trace{/*tracing=*/true, /*flight_capacity=*/0};
  std::uint32_t f;
  std::vector<sim::NodeAddr> peer_addrs;
  std::vector<std::unique_ptr<CommitPeer>> peers;
  std::vector<std::unique_ptr<CommitEndpoint>> endpoints;
  RetryPolicy policy_;
};

/// No pair of honest nodes commits two updates in opposite orders.
void expect_pairwise_order_consistent(
    const std::vector<std::vector<std::uint64_t>>& histories) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> order;
  for (const auto& h : histories) {
    for (std::size_t i = 0; i < h.size(); ++i) {
      for (std::size_t j = i + 1; j < h.size(); ++j) {
        const auto key = std::minmax(h[i], h[j]);
        const int dir = h[i] < h[j] ? 1 : -1;
        const auto [it, inserted] = order.emplace(key, dir);
        if (!inserted) {
          EXPECT_EQ(it->second, dir)
              << "updates " << key.first << " and " << key.second
              << " committed in opposite orders on different honest nodes";
        }
      }
    }
  }
}

// ---- Single update, no contention. ----

class SingleUpdate : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SingleUpdate, CommitsOnAllPeersAndConfirms) {
  const std::uint32_t r = GetParam();
  Harness h(r);
  CommitResult result;
  bool done = false;
  h.endpoint().submit(kGuid, 4242, [&](const CommitResult& cr) {
    result = cr;
    done = true;
  });
  h.sched.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(result.attempts, 1u);
  // Every peer committed it.
  for (const auto& p : h.peers) {
    ASSERT_EQ(p->history(kGuid).size(), 1u);
    EXPECT_EQ(p->history(kGuid)[0].payload, 4242u);
    EXPECT_EQ(p->live_instances(kGuid), 0u);
  }
  EXPECT_EQ(h.endpoint().stats().retries, 0u);
}

INSTANTIATE_TEST_SUITE_P(ReplicationFactors, SingleUpdate,
                         ::testing::Values(4u, 7u, 13u));

TEST(SingleUpdateDetail, VoteAndCommitCountsAreExact) {
  // 4 honest peers, one update: each sends exactly one vote and one commit.
  Harness h(4);
  bool done = false;
  h.endpoint().submit(kGuid, 1, [&](const CommitResult&) { done = true; });
  h.sched.run();
  ASSERT_TRUE(done);
  for (const auto& p : h.peers) {
    EXPECT_EQ(p->stats().votes_sent, 1u);
    EXPECT_EQ(p->stats().commits_sent, 1u);
  }
}

// ---- Sequential updates serialise cleanly. ----

TEST(SequentialUpdates, AllCommitInSubmissionOrder) {
  Harness h(4);
  std::vector<std::uint64_t> committed_ids;
  int done = 0;
  for (int k = 0; k < 5; ++k) {
    // Chain submissions so each starts after the previous completes.
    std::function<void()> submit = [&, k] {
      h.endpoint().submit(kGuid, 1000 + k, [&](const CommitResult& cr) {
        EXPECT_TRUE(cr.committed);
        committed_ids.push_back(cr.update_id);
        ++done;
      });
    };
    if (k == 0) {
      submit();
      h.sched.run();
    } else {
      submit();
      h.sched.run();
    }
  }
  EXPECT_EQ(done, 5);
  const auto histories = h.honest_histories();
  for (const auto& hist : histories) {
    EXPECT_EQ(hist, committed_ids);
  }
}

// ---- Concurrent updates: agreement under contention. ----

class ConcurrentUpdates : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConcurrentUpdates, HistoriesOrderConsistently) {
  RetryPolicy policy;
  policy.backoff = RetryPolicy::Backoff::kExponential;
  policy.base_timeout = 80'000;
  Harness h(4, GetParam(), policy);
  for (auto& p : h.peers) p->enable_abort(50'000, 60'000);

  int committed = 0;
  const int kClients = 3;
  for (int c = 0; c < kClients; ++c) {
    h.endpoint(c).submit(kGuid, 500 + c, [&](const CommitResult& cr) {
      if (cr.committed) ++committed;
    });
  }
  h.sched.run();
  EXPECT_EQ(committed, kClients);

  const auto histories = h.honest_histories();
  expect_pairwise_order_consistent(histories);
  // With aborts and retries, all honest peers end with identical histories
  // once the network is quiet and every client succeeded.
  for (std::size_t i = 1; i < histories.size(); ++i) {
    EXPECT_EQ(histories[i], histories[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentUpdates,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---- Deadlock and the timeout/retry scheme (paper section 2.2). ----

TEST(Deadlock, VoteSplitIsBrokenByRetry) {
  // Two concurrent updates on 4 peers can split 2-2 and deadlock; the
  // endpoint's retry with fresh attempts plus peer-side aborts must ensure
  // both clients eventually succeed.
  RetryPolicy policy;
  policy.backoff = RetryPolicy::Backoff::kRandom;
  policy.base_timeout = 60'000;
  policy.max_attempts = 20;
  bool saw_retry_somewhere = false;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Harness h(4, seed, policy, sim::LatencyModel{400, 600});
    for (auto& p : h.peers) p->enable_abort(40'000, 50'000);
    int committed = 0;
    h.endpoint(0).submit(kGuid, 1, [&](const CommitResult& cr) {
      if (cr.committed) ++committed;
    });
    h.endpoint(1).submit(kGuid, 2, [&](const CommitResult& cr) {
      if (cr.committed) ++committed;
    });
    h.sched.run();
    EXPECT_EQ(committed, 2) << "seed " << seed;
    expect_pairwise_order_consistent(h.honest_histories());
    if (h.endpoint(0).stats().retries + h.endpoint(1).stats().retries > 0) {
      saw_retry_somewhere = true;
    }
  }
  // Across a dozen seeds, at least one run must actually have deadlocked
  // and retried — otherwise this test exercises nothing.
  EXPECT_TRUE(saw_retry_somewhere);
}

// ---- Byzantine behaviours (f faulty of 3f+1). ----

struct ByzCase {
  std::uint32_t r;
  Behaviour behaviour;
  std::uint64_t seed;
};

class ByzantineTolerance : public ::testing::TestWithParam<ByzCase> {};

TEST_P(ByzantineTolerance, HonestPeersStillCommitAndServiceReadsAgree) {
  const ByzCase c = GetParam();
  RetryPolicy policy;
  policy.base_timeout = 100'000;
  policy.max_attempts = 20;
  Harness h(c.r, c.seed, policy);
  const std::uint32_t f = h.f;
  for (std::uint32_t i = 0; i < f; ++i) h.make_byzantine(i, c.behaviour);
  for (auto& p : h.peers) p->enable_abort(60'000, 80'000);

  int committed = 0;
  h.endpoint(0).submit(kGuid, 11, [&](const CommitResult& cr) {
    if (cr.committed) ++committed;
  });
  h.endpoint(1).submit(kGuid, 22, [&](const CommitResult& cr) {
    if (cr.committed) ++committed;
  });
  h.sched.run();

  EXPECT_EQ(committed, 2);

  // A Byzantine member can drive two updates through their thresholds
  // concurrently, so honest peers' *local finish orders* may differ — a
  // reproduction finding documented in EXPERIMENTS.md. The protocol-level
  // guarantee that must hold is at the service layer: every honest peer
  // ends with the same committed set (by request id), and the f+1 read
  // rule resolves a full-length agreed history.
  const auto histories = h.honest_histories();
  ASSERT_FALSE(histories.empty());
  std::set<std::uint64_t> reference;
  for (const auto& p : h.peers) {
    if (p->behaviour() != Behaviour::kHonest) continue;
    std::set<std::uint64_t> requests;
    for (const auto& e : p->history(kGuid)) requests.insert(e.request_id);
    if (reference.empty()) {
      reference = requests;
    } else {
      EXPECT_EQ(requests, reference);
    }
  }
  EXPECT_EQ(reference.size(), 2u);  // Both logical updates everywhere.

  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      request_histories;
  for (const auto& p : h.peers) {
    if (p->behaviour() != Behaviour::kHonest) continue;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> hist;
    for (const auto& e : p->history(kGuid)) {
      hist.emplace_back(e.request_id, e.payload);
    }
    request_histories.push_back(std::move(hist));
  }
  const auto agreed = storage::agree_history(request_histories, f);
  EXPECT_EQ(agreed.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ByzantineTolerance,
    ::testing::Values(ByzCase{4, Behaviour::kCrash, 1},
                      ByzCase{4, Behaviour::kCrash, 2},
                      ByzCase{4, Behaviour::kEquivocator, 1},
                      ByzCase{4, Behaviour::kEquivocator, 2},
                      ByzCase{4, Behaviour::kWithholder, 1},
                      ByzCase{7, Behaviour::kCrash, 1},
                      ByzCase{7, Behaviour::kEquivocator, 1},
                      ByzCase{7, Behaviour::kWithholder, 1}),
    [](const ::testing::TestParamInfo<ByzCase>& info) {
      const char* b = info.param.behaviour == Behaviour::kCrash
                          ? "Crash"
                          : info.param.behaviour == Behaviour::kEquivocator
                                ? "Equivocator"
                                : "Withholder";
      return std::string(b) + "R" + std::to_string(info.param.r) + "S" +
             std::to_string(info.param.seed);
    });

TEST(ByzantineLimits, MoreThanFCrashesStallsButStaysSafe) {
  // With f+1 crash faults (beyond the tolerance bound) the protocol cannot
  // gather 2f+1 votes; the endpoint must fail cleanly after max_attempts,
  // and no honest node commits anything.
  RetryPolicy policy;
  policy.base_timeout = 50'000;
  policy.max_attempts = 3;
  Harness h(4, 3, policy);
  h.make_byzantine(0, Behaviour::kCrash);
  h.make_byzantine(1, Behaviour::kCrash);

  bool done = false;
  CommitResult result;
  h.endpoint().submit(kGuid, 9, [&](const CommitResult& cr) {
    result = cr;
    done = true;
  });
  h.sched.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.committed);
  EXPECT_EQ(result.attempts, 3u);
  for (const auto& histories = h.honest_histories();
       const auto& hist : histories) {
    EXPECT_TRUE(hist.empty());
  }
}

TEST(ByzantineDetail, EquivocatorCannotForgeCommit) {
  // A single equivocator on 4 peers votes+commits for a update no client
  // ever confirmed to a quorum... here: equivocator alone must not drive
  // any honest node to commit, because f byzantine commits are below the
  // f+1 finish threshold and no honest votes exist.
  Harness h(4);
  h.make_byzantine(0, Behaviour::kEquivocator);
  // Inject a vote frame from nowhere to wake the equivocator only.
  WireMessage spark{WireMessage::Kind::kVote, kGuid, 555, 555, 0};
  h.network.send(99, 0, spark.serialize());
  h.sched.run_until(5'000'000);
  for (const auto& hist : h.honest_histories()) {
    EXPECT_TRUE(hist.empty());
  }
}

// ---- Message-loss robustness. ----

TEST(MessageLoss, RetriesOvercomeDrops) {
  RetryPolicy policy;
  policy.base_timeout = 80'000;
  policy.max_attempts = 30;
  Harness h(4, 5, policy);
  h.network.set_drop_probability(0.10);
  for (auto& p : h.peers) p->enable_abort(60'000, 70'000);

  int committed = 0;
  h.endpoint().submit(kGuid, 77, [&](const CommitResult& cr) {
    if (cr.committed) ++committed;
  });
  h.sched.run();
  EXPECT_EQ(committed, 1);
  expect_pairwise_order_consistent(h.honest_histories());
}

TEST(MessageDuplication, ProtocolSurvivesDuplicatedFrames) {
  // Networks duplicate; the per-sender deduplication at honest peers must
  // keep vote/commit counts honest so the run behaves exactly like a clean
  // one (same histories, same agreement).
  RetryPolicy policy;
  policy.base_timeout = 80'000;
  Harness h(4, 7, policy);
  h.network.set_duplicate_probability(0.4);
  for (auto& p : h.peers) p->enable_abort(60'000, 70'000);
  int committed = 0;
  h.endpoint(0).submit(kGuid, 1, [&](const CommitResult& cr) {
    if (cr.committed) ++committed;
  });
  h.endpoint(1).submit(kGuid, 2, [&](const CommitResult& cr) {
    if (cr.committed) ++committed;
  });
  h.sched.run();
  EXPECT_EQ(committed, 2);
  expect_pairwise_order_consistent(h.honest_histories());
  // Duplicates were actually delivered and dropped at the protocol layer.
  EXPECT_GT(h.network.stats().duplicated, 0u);
  std::uint64_t dropped = 0;
  for (const auto& p : h.peers) dropped += p->stats().duplicates_dropped;
  EXPECT_GT(dropped, 0u);
}

// ---- Duplicate protection. ----

TEST(Duplicates, SecondVoteFromSamePeerDropped) {
  Harness h(4);
  // Craft two identical votes from peer 1 to peer 0.
  WireMessage vote{WireMessage::Kind::kVote, kGuid, 5, 5, 0};
  h.network.send(1, 0, vote.serialize());
  h.network.send(1, 0, vote.serialize());
  h.sched.run();
  EXPECT_EQ(h.peers[0]->stats().votes_received, 2u);
  EXPECT_EQ(h.peers[0]->stats().duplicates_dropped, 1u);
}

TEST(Duplicates, GarbageFramesIgnored) {
  Harness h(4);
  h.network.send(1, 0, "not a frame");
  h.network.send(1, 0, std::string(33, '\xFF'));
  h.sched.run();
  EXPECT_EQ(h.peers[0]->stats().votes_received, 0u);
  EXPECT_EQ(h.peers[0]->stats().updates_received, 0u);
}

// ---- Retry policy corners all drive to success under contention. ----

class RetrySchemes : public ::testing::TestWithParam<int> {};

TEST_P(RetrySchemes, AllCornersSucceed) {
  RetryPolicy policy;
  policy.backoff = GetParam() / 2 == 0 ? RetryPolicy::Backoff::kRandom
                                       : RetryPolicy::Backoff::kExponential;
  policy.order = GetParam() % 2 == 0 ? RetryPolicy::ServerOrder::kFixed
                                     : RetryPolicy::ServerOrder::kRandom;
  policy.base_timeout = 70'000;
  policy.max_attempts = 25;
  Harness h(4, 11 + GetParam(), policy);
  for (auto& p : h.peers) p->enable_abort(50'000, 60'000);
  int committed = 0;
  for (int c = 0; c < 3; ++c) {
    h.endpoint(c).submit(kGuid, c, [&](const CommitResult& cr) {
      if (cr.committed) ++committed;
    });
  }
  h.sched.run();
  EXPECT_EQ(committed, 3);
}

INSTANTIATE_TEST_SUITE_P(Corners, RetrySchemes, ::testing::Values(0, 1, 2, 3));

// ---- Machine cache (generation policy, section 4.2). ----

TEST(MachineCacheTest, GeneratesOncePerFactor) {
  MachineCache cache;
  const fsm::StateMachine& a = cache.machine_for(4);
  const fsm::StateMachine& b = cache.machine_for(4);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(cache.size(), 1u);
  (void)cache.machine_for(7);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.contains(7));
  EXPECT_FALSE(cache.contains(13));
}

}  // namespace
}  // namespace asa_repro::commit
