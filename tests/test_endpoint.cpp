// The service endpoint in isolation: quorum counting, stale-attempt
// confirmations, retry give-up, and distinct-sender requirements — driven
// with hand-crafted frames rather than live peers.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "commit/endpoint.hpp"

namespace asa_repro::commit {
namespace {

struct EndpointHarness {
  explicit EndpointHarness(RetryPolicy policy = {}, std::uint32_t f = 1)
      : network(sched, sim::Rng(3), sim::LatencyModel{100, 100}),
        endpoint(network, 100, {0, 1, 2, 3},
                 EndpointAbstraction::deployed(f, policy), policy,
                 sim::Rng(5)) {
    // Capture everything peers would receive.
    for (sim::NodeAddr addr : {0u, 1u, 2u, 3u}) {
      network.attach(addr, [this, addr](sim::NodeAddr,
                                        const std::string& data) {
        const auto msg = WireMessage::parse(data);
        if (msg.has_value()) received[addr].push_back(*msg);
      });
    }
  }

  /// A peer confirms the given attempt.
  void confirm(sim::NodeAddr from, const WireMessage& update) {
    WireMessage done = update;
    done.kind = WireMessage::Kind::kCommitted;
    network.send(from, 100, done.serialize());
  }

  sim::Scheduler sched;
  sim::Network network;
  CommitEndpoint endpoint;
  std::map<sim::NodeAddr, std::vector<WireMessage>> received;
};

TEST(Endpoint, SendsUpdateToEveryPeer) {
  EndpointHarness h;
  h.endpoint.submit(9, 1234, nullptr);
  h.sched.run_until(10'000);
  for (sim::NodeAddr addr : {0u, 1u, 2u, 3u}) {
    ASSERT_EQ(h.received[addr].size(), 1u) << addr;
    EXPECT_EQ(h.received[addr][0].kind, WireMessage::Kind::kUpdate);
    EXPECT_EQ(h.received[addr][0].guid, 9u);
    EXPECT_EQ(h.received[addr][0].payload, 1234u);
  }
}

TEST(Endpoint, QuorumOfDistinctConfirmationsCompletes) {
  EndpointHarness h;  // f=1: quorum is 2 distinct peers.
  CommitResult result;
  bool done = false;
  h.endpoint.submit(9, 1, [&](const CommitResult& r) {
    result = r;
    done = true;
  });
  h.sched.run_until(5'000);
  const WireMessage update = h.received[0][0];
  // The same peer confirming twice is one vote toward the quorum.
  h.confirm(0, update);
  h.confirm(0, update);
  h.sched.run_until(20'000);
  EXPECT_FALSE(done);
  h.confirm(1, update);
  h.sched.run_until(30'000);
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(result.attempts, 1u);
}

TEST(Endpoint, StaleAttemptConfirmationsIgnored) {
  RetryPolicy policy;
  policy.base_timeout = 30'000;  // Long enough that attempt 2 stays live
  policy.backoff = RetryPolicy::Backoff::kFixed;  // through the test.
  EndpointHarness h(policy);
  bool done = false;
  h.endpoint.submit(9, 1, [&](const CommitResult&) { done = true; });
  h.sched.run_until(5'000);
  const WireMessage first_attempt = h.received[0][0];
  // Let the first attempt time out; a retry with a fresh update id ships.
  h.sched.run_until(35'000);
  ASSERT_GE(h.received[0].size(), 2u);
  const WireMessage second_attempt = h.received[0].back();
  EXPECT_NE(first_attempt.update_id, second_attempt.update_id);
  EXPECT_EQ(first_attempt.request_id, second_attempt.request_id);

  // Confirmations of the stale attempt must not complete the request.
  h.confirm(0, first_attempt);
  h.confirm(1, first_attempt);
  h.sched.run_until(36'000);
  EXPECT_FALSE(done);
  // Confirmations of the live attempt do.
  h.confirm(2, second_attempt);
  h.confirm(3, second_attempt);
  h.sched.run_until(40'000);
  EXPECT_TRUE(done);
}

TEST(Endpoint, GivesUpAfterMaxAttempts) {
  RetryPolicy policy;
  policy.base_timeout = 5'000;
  policy.backoff = RetryPolicy::Backoff::kFixed;
  policy.max_attempts = 4;
  EndpointHarness h(policy);
  CommitResult result;
  bool done = false;
  h.endpoint.submit(9, 1, [&](const CommitResult& r) {
    result = r;
    done = true;
  });
  h.sched.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.committed);
  EXPECT_EQ(result.attempts, 4u);
  EXPECT_EQ(h.endpoint.stats().failures, 1u);
  EXPECT_EQ(h.endpoint.stats().retries, 3u);
  // 4 attempts reached each peer.
  EXPECT_EQ(h.received[0].size(), 4u);
}

TEST(Endpoint, StaggeredSendsArriveSpacedOut) {
  RetryPolicy policy;
  policy.stagger = 2'000;
  EndpointHarness h(policy);
  h.endpoint.submit(9, 1, nullptr);
  h.sched.run_until(1'500);
  // Only the first peer contacted so far (latency 100 + stagger steps).
  std::size_t delivered = 0;
  for (const auto& [addr, msgs] : h.received) delivered += msgs.size();
  EXPECT_EQ(delivered, 1u);
  h.sched.run_until(30'000);
  delivered = 0;
  for (const auto& [addr, msgs] : h.received) delivered += msgs.size();
  EXPECT_EQ(delivered, 4u);
}

TEST(Endpoint, RandomOrderStillReachesAllPeers) {
  RetryPolicy policy;
  policy.order = RetryPolicy::ServerOrder::kRandom;
  EndpointHarness h(policy);
  h.endpoint.submit(9, 1, nullptr);
  h.sched.run_until(10'000);
  for (sim::NodeAddr addr : {0u, 1u, 2u, 3u}) {
    EXPECT_EQ(h.received[addr].size(), 1u) << addr;
  }
}

TEST(Endpoint, ConcurrentRequestsKeptSeparate) {
  EndpointHarness h;
  int committed = 0;
  const auto id_a = h.endpoint.submit(9, 1, [&](const CommitResult& r) {
    committed += r.committed ? 1 : 0;
  });
  const auto id_b = h.endpoint.submit(9, 2, [&](const CommitResult& r) {
    committed += r.committed ? 1 : 0;
  });
  EXPECT_NE(id_a, id_b);
  h.sched.run_until(5'000);
  // Two distinct updates reached the peers.
  ASSERT_EQ(h.received[0].size(), 2u);
  const WireMessage a = h.received[0][0];
  const WireMessage b = h.received[0][1];
  EXPECT_NE(a.update_id, b.update_id);
  // Confirming only A completes only A.
  h.confirm(0, a);
  h.confirm(1, a);
  h.sched.run_until(9'000);
  EXPECT_EQ(committed, 1);
  h.confirm(2, b);
  h.confirm(3, b);
  h.sched.run_until(15'000);
  EXPECT_EQ(committed, 2);
}

TEST(Endpoint, ExponentialBackoffIsClampedAtHighAttemptCounts) {
  // Enough attempts to overflow an unclamped base_timeout << attempt many
  // times over. With the clamp, inter-attempt gaps plateau at max_backoff
  // instead of wrapping to near-zero (a silent retry storm).
  RetryPolicy policy;
  policy.backoff = RetryPolicy::Backoff::kExponential;
  policy.base_timeout = 1'000;
  policy.max_backoff = 8'000;
  policy.max_attempts = 200;
  sim::Scheduler sched;
  sim::Network network(sched, sim::Rng(3), sim::LatencyModel{100, 100});
  CommitEndpoint endpoint(network, 100, {0, 1, 2, 3},
                          EndpointAbstraction::deployed(1, policy), policy,
                          sim::Rng(5));
  std::vector<sim::Time> arrivals;
  network.attach(0, [&](sim::NodeAddr, const std::string&) {
    arrivals.push_back(sched.now());
  });
  bool done = false;
  CommitResult result;
  endpoint.submit(9, 1, [&](const CommitResult& r) {
    result = r;
    done = true;
  });
  sched.run_until(5'000'000);  // Never confirmed: all 200 attempts fire.
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.committed);
  EXPECT_EQ(result.attempts, 200u);
  ASSERT_EQ(arrivals.size(), 200u);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    const sim::Time gap = arrivals[i] - arrivals[i - 1];
    // Delay is clamped backoff + jitter below base_timeout; latency adds a
    // little slack either way. An overflow wrap would collapse the gap.
    EXPECT_LE(gap, policy.max_backoff + policy.base_timeout + 400)
        << "attempt " << i;
    EXPECT_GE(gap, 800u) << "attempt " << i;
  }
}

TEST(Endpoint, ExponentialBackoffSurvivesHugeBaseTimeouts) {
  // A pathological base_timeout near the top of the 64-bit range must not
  // wrap the retry arithmetic: the endpoint still walks through its
  // attempts and gives up, rather than hanging or retry-storming.
  RetryPolicy policy;
  policy.backoff = RetryPolicy::Backoff::kExponential;
  policy.base_timeout = sim::Time{1} << 62;
  policy.max_attempts = 4;
  EndpointHarness h(policy);
  bool done = false;
  CommitResult result;
  h.endpoint.submit(9, 1, [&](const CommitResult& r) {
    result = r;
    done = true;
  });
  h.sched.run_until(std::numeric_limits<sim::Time>::max());
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.committed);
  EXPECT_EQ(result.attempts, 4u);
}

}  // namespace
}  // namespace asa_repro::commit
