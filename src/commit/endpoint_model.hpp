// The endpoint's commit rule: when a submitted update is acknowledged,
// retried, or abandoned. CommitEndpoint and the composition model checker
// (src/check/composition.cpp) both decide through its two predicates, so
// the checker explores exactly this abstraction — quorum counting over
// distinct confirmations plus a bounded attempt budget — and a change here
// is a change to the checked protocol, not just to runtime behaviour.
#pragma once

#include <cstddef>
#include <cstdint>

namespace asa_repro::commit {

struct RetryPolicy;

struct EndpointAbstraction {
  /// Distinct peer confirmations of the current attempt required before
  /// the client callback reports success (paper section 2.2: f+1 members
  /// must agree before a result is trusted).
  std::uint32_t quorum = 1;

  /// Attempts (initial send plus retries) before the endpoint gives up and
  /// reports failure.
  std::uint32_t max_attempts = 1;

  /// `distinct` confirmations of the current attempt acknowledge it.
  [[nodiscard]] bool acknowledged(std::size_t distinct) const {
    return distinct >= quorum;
  }

  /// A request whose `attempt`-th attempt timed out retries, or fails.
  [[nodiscard]] bool may_retry(std::uint32_t attempt) const {
    return attempt < max_attempts;
  }

  /// The deployed endpoint's rule for a peer set tolerating `f` faulty
  /// members under `policy`. Backoff delays and server ordering are
  /// deliberately absent: under nondeterministic delivery they only affect
  /// which interleavings are likely, not which are possible, so the
  /// checker quantifies over all of them.
  [[nodiscard]] static EndpointAbstraction deployed(std::uint32_t f,
                                                    const RetryPolicy& policy);
};

}  // namespace asa_repro::commit
