// The service endpoint driving the commit protocol (paper section 2.2).
//
// A client submits an update for a GUID by sending an update request to all
// members of that GUID's peer set, then waits for f+1 consistent completion
// notifications (the same rule the paper uses for reads: a result is
// trusted once f+1 members agree). Because concurrent updates can split the
// vote and deadlock, the endpoint operates a timeout/retry scheme; the
// paper names the design space — random or exponential back-off, fixed or
// random server ordering — and this class implements all four corners so
// the bench can compare them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "commit/endpoint_model.hpp"
#include "commit/messages.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"

namespace asa_repro::commit {

/// Timeout/retry configuration (section 2.2's scheme space).
struct RetryPolicy {
  enum class Backoff {
    kFixed,        // Retry after base_timeout, every time.
    kRandom,       // Retry after uniform [base_timeout, 2*base_timeout).
    kExponential,  // Retry after base_timeout * 2^attempt, with jitter.
  };
  enum class ServerOrder {
    kFixed,   // Update requests sent to peers in address order.
    kRandom,  // Fresh random permutation per attempt.
  };

  Backoff backoff = Backoff::kExponential;
  ServerOrder order = ServerOrder::kFixed;
  sim::Time base_timeout = 60'000;  // 60 ms of simulated time.
  sim::Time stagger = 0;            // Delay between sends to successive peers.
  std::uint32_t max_attempts = 12;  // Via EndpointAbstraction::deployed.
  /// Ceiling for the exponential back-off delay. sim::Time is unsigned
  /// 64-bit, so an unclamped base_timeout << attempt overflows (wrapping
  /// to a near-zero delay — a silent retry storm) once a long-lived retry
  /// loop pushes the shift past ~64. One simulated hour by default, far
  /// above anything the stock policies reach.
  sim::Time max_backoff = 3'600'000'000;
};

/// Outcome of one submitted update.
struct CommitResult {
  bool committed = false;
  std::uint64_t request_id = 0;
  std::uint64_t update_id = 0;   // The attempt that committed (if any).
  std::uint32_t attempts = 0;
  sim::Time latency = 0;         // Submission to f+1 confirmations.
};

/// Endpoint statistics for benches.
struct EndpointStats {
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t retries = 0;
  std::uint64_t failures = 0;  // Gave up after max_attempts.
};

class CommitEndpoint {
 public:
  using Callback = std::function<void(const CommitResult&)>;

  /// `peers` is the peer set for the GUIDs this endpoint updates. `rule`
  /// decides acknowledge, retry and give-up (for a peer set tolerating f
  /// faulty members, EndpointAbstraction::deployed(f, policy): f+1
  /// confirmations, policy.max_attempts attempts); `policy` paces and
  /// orders the attempts. `events` (nullptr disables) gets the endpoint's
  /// spans: a root "commit" per submitted update with one "attempt" per
  /// protocol attempt; the decisive replica's address lands in the root's
  /// detail (`decisive=N`) so asareport can join endpoint spans to peer
  /// spans.
  CommitEndpoint(sim::Network& network, sim::NodeAddr self,
                 std::vector<sim::NodeAddr> peers, EndpointAbstraction rule,
                 RetryPolicy policy, sim::Rng rng,
                 obs::EventRecorder* events = nullptr);

  CommitEndpoint(const CommitEndpoint&) = delete;
  CommitEndpoint& operator=(const CommitEndpoint&) = delete;

  /// Submit an update of `guid` to `payload`. The callback fires exactly
  /// once: on success (the rule's quorum of confirmations of one attempt)
  /// or on final failure (the rule's attempts exhausted).
  /// Returns the request id identifying the logical update.
  std::uint64_t submit(std::uint64_t guid, std::uint64_t payload,
                       Callback callback);

  [[nodiscard]] const EndpointStats& stats() const { return stats_; }
  [[nodiscard]] sim::NodeAddr address() const { return self_; }

  /// Attach a metrics registry: end-to-end commit latency and per-request
  /// attempt histograms, per-GUID retry counters. nullptr disables. The
  /// two histograms are resolved on the first commit and kept; attaching
  /// a registry drops them.
  void set_metrics(obs::MetricsRegistry* metrics) {
    metrics_ = metrics;
    commit_latency_ = nullptr;
    attempts_ = nullptr;
  }

  /// Install a live peer-set resolver. When set, every attempt re-resolves
  /// the peer set before sending, so a retry that straddles a membership
  /// change targets the keys' current owners instead of the set captured
  /// at construction — without this, a commit in flight across a ring
  /// rotation would retry into departed nodes until its attempts run out.
  void set_peer_resolver(std::function<std::vector<sim::NodeAddr>()> resolver) {
    peer_resolver_ = std::move(resolver);
  }

 private:
  struct Pending {
    std::uint64_t guid = 0;
    std::uint64_t payload = 0;
    std::uint64_t current_update_id = 0;
    std::uint32_t attempt = 0;
    sim::Time submitted_at = 0;
    std::set<sim::NodeAddr> confirmations;  // For the current attempt.
    std::uint64_t timer = 0;
    Callback callback;
  };

  void handle(sim::NodeAddr from, std::string_view data);
  /// Record a span event of `request_id` at the current time, if recording.
  void note_span(obs::EventKind kind, obs::Word name,
                 std::uint64_t request_id, const Pending& p,
                 obs::SpanDetail detail = obs::SpanDetail::kNone,
                 std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);
  void start_attempt(std::uint64_t request_id);
  void on_timeout(std::uint64_t request_id);
  [[nodiscard]] sim::Time backoff_delay(std::uint32_t attempt);

  sim::Network& network_;
  sim::NodeAddr self_;
  std::vector<sim::NodeAddr> peers_;
  std::function<std::vector<sim::NodeAddr>()> peer_resolver_;
  EndpointAbstraction rule_;
  RetryPolicy policy_;
  sim::Rng rng_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Histogram* commit_latency_ = nullptr;  // endpoint.commit_latency_us.
  obs::Histogram* attempts_ = nullptr;        // endpoint.attempts.
  obs::EventRecorder* events_;
  EndpointStats stats_;
  std::map<std::uint64_t, Pending> pending_;  // By request id.
  std::uint64_t next_request_id_;
  std::uint64_t next_update_id_ = 1;
};

}  // namespace asa_repro::commit
