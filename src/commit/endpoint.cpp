#include "commit/endpoint.hpp"

#include <algorithm>

namespace asa_repro::commit {

EndpointAbstraction EndpointAbstraction::deployed(std::uint32_t f,
                                                  const RetryPolicy& policy) {
  return {f + 1, policy.max_attempts};
}

CommitEndpoint::CommitEndpoint(sim::Network& network, sim::NodeAddr self,
                               std::vector<sim::NodeAddr> peers,
                               EndpointAbstraction rule, RetryPolicy policy,
                               sim::Rng rng, obs::EventRecorder* events)
    : network_(network),
      self_(self),
      peers_(std::move(peers)),
      rule_(rule),
      policy_(policy),
      rng_(rng),
      events_(events),
      // Partition the request-id space by endpoint address so concurrent
      // endpoints never collide.
      next_request_id_((std::uint64_t{self} << 32) | 1) {
  network_.attach(self_, [this](sim::NodeAddr from, std::string_view data) {
    handle(from, data);
  });
}

std::uint64_t CommitEndpoint::submit(std::uint64_t guid,
                                     std::uint64_t payload,
                                     Callback callback) {
  const std::uint64_t request_id = next_request_id_++;
  Pending p;
  p.guid = guid;
  p.payload = payload;
  p.submitted_at = network_.scheduler().now();
  p.callback = std::move(callback);
  note_span(obs::EventKind::kSpanOpen, obs::Word::kCommit, request_id, p);
  pending_.emplace(request_id, std::move(p));
  ++stats_.submitted;
  start_attempt(request_id);
  return request_id;
}

void CommitEndpoint::start_attempt(std::uint64_t request_id) {
  Pending& p = pending_.at(request_id);
  ++p.attempt;
  p.confirmations.clear();
  // Each attempt is a distinct update in the protocol's eyes; the shared
  // request id lets the storage layer collapse duplicate commits of
  // retried updates.
  if (p.attempt > 1) {
    note_span(obs::EventKind::kSpanClose, obs::Word::kAttempt, request_id, p,
              obs::SpanDetail::kRetry);
  }
  p.current_update_id = (std::uint64_t{self_} << 32) | next_update_id_++;
  note_span(obs::EventKind::kSpanOpen, obs::Word::kAttempt, request_id, p);

  if (peer_resolver_) peers_ = peer_resolver_();
  std::vector<sim::NodeAddr> order = peers_;
  if (policy_.order == RetryPolicy::ServerOrder::kRandom) {
    // Fisher-Yates with the endpoint's deterministic stream.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng_.below(i)]);
    }
  }

  const WireMessage msg{WireMessage::Kind::kUpdate, p.guid,
                        p.current_update_id, request_id, p.payload};
  sim::Time delay = 0;
  for (sim::NodeAddr peer : order) {
    if (policy_.stagger == 0) {
      network_.send(self_, peer, msg.serialize());
    } else {
      network_.scheduler().schedule_after(
          delay, [this, peer, frame = msg.serialize()] {
            network_.send(self_, peer, frame);
          });
      delay += policy_.stagger;
    }
  }

  p.timer = network_.scheduler().schedule_after(
      backoff_delay(p.attempt) + delay,
      [this, request_id] { on_timeout(request_id); });
}

void CommitEndpoint::note_span(obs::EventKind kind, obs::Word name,
                               std::uint64_t request_id, const Pending& p,
                               obs::SpanDetail detail, std::uint64_t arg0,
                               std::uint64_t arg1) {
  if (events_ == nullptr) return;
  events_->record(kind, network_.scheduler().now(), self_,
                  obs::span_fields(p.guid, p.current_update_id, request_id,
                                   detail, arg0, arg1),
                  name);
}

sim::Time CommitEndpoint::backoff_delay(std::uint32_t attempt) {
  switch (policy_.backoff) {
    case RetryPolicy::Backoff::kFixed:
      return policy_.base_timeout;
    case RetryPolicy::Backoff::kRandom:
      return policy_.base_timeout + rng_.below(policy_.base_timeout);
    case RetryPolicy::Backoff::kExponential: {
      // Clamp the shift AND the shifted value: sim::Time is unsigned, so
      // base_timeout << shift would otherwise wrap for large attempt
      // counts and turn the longest back-off into a retry storm. The
      // overflow-safe comparison divides instead of shifting up.
      const std::uint32_t shift = std::min(attempt - 1, 10u);
      sim::Time base = policy_.base_timeout;
      if (base > (policy_.max_backoff >> shift)) {
        base = policy_.max_backoff;
      } else {
        base <<= shift;
      }
      return base + rng_.below(policy_.base_timeout);
    }
  }
  return policy_.base_timeout;
}

void CommitEndpoint::on_timeout(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (!rule_.may_retry(p.attempt)) {
    ++stats_.failures;
    note_span(obs::EventKind::kSpanClose, obs::Word::kAttempt, request_id, p,
              obs::SpanDetail::kTimeout);
    note_span(obs::EventKind::kSpanClose, obs::Word::kCommit, request_id, p,
              obs::SpanDetail::kFailed, p.attempt);
    CommitResult result;
    result.committed = false;
    result.request_id = request_id;
    result.attempts = p.attempt;
    result.latency = network_.scheduler().now() - p.submitted_at;
    Callback cb = std::move(p.callback);
    pending_.erase(it);
    if (cb) cb(result);
    return;
  }
  ++stats_.retries;
  if (metrics_ != nullptr) {
    metrics_->counter("endpoint.retries", {{"guid", std::to_string(p.guid)}})
        .inc();
  }
  start_attempt(request_id);
}

void CommitEndpoint::handle(sim::NodeAddr from, std::string_view data) {
  const std::optional<WireMessage> msg = WireMessage::parse(data);
  if (!msg.has_value() || msg->kind != WireMessage::Kind::kCommitted) return;
  const auto it = pending_.find(msg->request_id);
  if (it == pending_.end()) return;  // Late confirmation of a done request.
  Pending& p = it->second;
  // Only confirmations of the current attempt count toward the quorum;
  // Byzantine members cannot forge f+1 of them.
  if (msg->update_id != p.current_update_id) return;
  p.confirmations.insert(from);
  if (!rule_.acknowledged(p.confirmations.size())) return;

  network_.scheduler().cancel(p.timer);
  ++stats_.committed;
  note_span(obs::EventKind::kSpanClose, obs::Word::kAttempt, msg->request_id,
            p);
  // `decisive` names the replica whose confirmation completed the quorum —
  // the peer whose vote-collect/quorum spans bound the commit's critical
  // path.
  note_span(obs::EventKind::kSpanClose, obs::Word::kCommit, msg->request_id,
            p, obs::SpanDetail::kDecisive, from, p.attempt);
  CommitResult result;
  result.committed = true;
  result.request_id = msg->request_id;
  result.update_id = p.current_update_id;
  result.attempts = p.attempt;
  result.latency = network_.scheduler().now() - p.submitted_at;
  if (metrics_ != nullptr) {
    if (commit_latency_ == nullptr) {
      const obs::Labels node{{"node", std::to_string(self_)}};
      commit_latency_ = &metrics_->histogram(
          "endpoint.commit_latency_us", node, obs::latency_buckets_us());
      attempts_ = &metrics_->histogram("endpoint.attempts", node,
                                       obs::small_count_buckets());
    }
    commit_latency_->observe(result.latency);
    attempts_->observe(result.attempts);
  }
  Callback cb = std::move(p.callback);
  pending_.erase(it);
  if (cb) cb(result);
}

}  // namespace asa_repro::commit
