#include "storage/version_history.hpp"

#include <map>
#include <set>

namespace asa_repro::storage {

std::vector<std::uint64_t> agree_history(
    const std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>&
        histories,
    std::uint32_t f) {
  // Deduplicate each peer's history by request id (retried attempts of one
  // logical update commit at most once per reader).
  std::vector<std::vector<std::uint64_t>> deduped;
  deduped.reserve(histories.size());
  for (const auto& h : histories) {
    std::set<std::uint64_t> seen;
    std::vector<std::uint64_t> d;
    for (const auto& [request_id, payload] : h) {
      if (seen.insert(request_id).second) d.push_back(payload);
    }
    deduped.push_back(std::move(d));
  }
  return agree_prefix(deduped, f);
}

std::vector<std::uint64_t> agree_prefix(
    const std::vector<std::vector<std::uint64_t>>& deduped, std::uint32_t f) {
  // Element-wise prefix voting: position i's value is "the (only possible)
  // one that is returned consistently by at least f+1 nodes" (paper 2.2).
  // No unique such value ends the agreed prefix.
  std::vector<std::uint64_t> agreed;
  for (std::size_t i = 0;; ++i) {
    std::map<std::uint64_t, std::uint32_t> votes;
    for (const auto& d : deduped) {
      if (i < d.size()) ++votes[d[i]];
    }
    std::uint64_t winner = 0;
    std::uint32_t winners = 0;
    for (const auto& [value, count] : votes) {
      if (count >= f + 1) {
        winner = value;
        ++winners;
      }
    }
    if (winners != 1) break;
    agreed.push_back(winner);
  }
  return agreed;
}

std::vector<std::uint64_t> dedup_payloads(
    const std::vector<commit::CommitPeer::CommittedEntry>& entries) {
  std::vector<std::uint64_t> payloads;
  std::set<std::uint64_t> seen;
  for (const auto& e : entries) {
    if (seen.insert(e.request_id).second) payloads.push_back(e.payload);
  }
  return payloads;
}

VersionHistoryService::VersionHistoryService(sim::Network& network,
                                             sim::NodeAddr self,
                                             PeerSetResolver resolver,
                                             std::uint32_t r, std::uint32_t f,
                                             commit::RetryPolicy policy,
                                             sim::Rng rng,
                                             obs::EventRecorder* events)
    : network_(network),
      self_(self),
      resolver_(std::move(resolver)),
      r_(r),
      f_(f),
      policy_(policy),
      rng_(rng),
      events_(events),
      next_endpoint_addr_(self + 1) {
  network_.attach(self_, [this](sim::NodeAddr from, std::string_view data) {
    handle(from, data);
  });
}

commit::CommitEndpoint& VersionHistoryService::endpoint_for(const Guid& guid) {
  const std::uint64_t key = guid.to_uint64();
  const auto it = endpoints_.find(key);
  if (it != endpoints_.end()) return *it->second;
  auto endpoint = std::make_unique<commit::CommitEndpoint>(
      network_, next_endpoint_addr_++, resolver_(guid),
      commit::EndpointAbstraction::deployed(f_, policy_), policy_,
      rng_.fork(), events_);
  endpoint->set_metrics(metrics_);
  // Endpoints outlive membership changes; re-resolve the owners on every
  // attempt so appends submitted (or retried) after churn reach the
  // current ring, the way read() already does.
  endpoint->set_peer_resolver([this, guid] { return resolver_(guid); });
  return *endpoints_.emplace(key, std::move(endpoint)).first->second;
}

void VersionHistoryService::append(const Guid& guid, const Pid& pid,
                                   AppendCallback callback) {
  if (!serialize_appends_) {
    endpoint_for(guid).submit(guid.to_uint64(), pid.to_uint64(),
                              std::move(callback));
    return;
  }
  const std::uint64_t key = guid.to_uint64();
  if (append_inflight_.count(key) != 0) {
    append_queue_[key].emplace_back(pid, std::move(callback));
    return;
  }
  append_inflight_.insert(key);
  submit_serialized(guid, pid, std::move(callback));
}

void VersionHistoryService::submit_serialized(const Guid& guid, const Pid& pid,
                                              AppendCallback callback) {
  endpoint_for(guid).submit(
      guid.to_uint64(), pid.to_uint64(),
      [this, guid, callback = std::move(callback)](
          const commit::CommitResult& result) {
        // The caller's callback runs first: a closed-loop writer's next
        // append lands behind any queued contenders, keeping FIFO order.
        if (callback) callback(result);
        const std::uint64_t key = guid.to_uint64();
        const auto it = append_queue_.find(key);
        if (it == append_queue_.end() || it->second.empty()) {
          append_inflight_.erase(key);
          if (it != append_queue_.end()) append_queue_.erase(it);
          return;
        }
        auto next = std::move(it->second.front());
        it->second.pop_front();
        if (it->second.empty()) append_queue_.erase(it);
        submit_serialized(guid, next.first, std::move(next.second));
      });
}

void VersionHistoryService::read(const Guid& guid, ReadCallback callback,
                                 sim::Time timeout) {
  const std::uint64_t ticket = next_ticket_++;
  const std::vector<sim::NodeAddr> peers = resolver_(guid);

  PendingRead p;
  p.expected = static_cast<std::uint32_t>(peers.size());
  p.callback = std::move(callback);
  p.timer = network_.scheduler().schedule_after(
      timeout, [this, ticket] { finish_read(ticket); });
  reads_.emplace(ticket, std::move(p));

  StorageFrame frame;
  frame.op = StorageFrame::Op::kHistoryGet;
  frame.ticket = ticket;
  frame.id = guid.digest();
  const std::string wire = frame.serialize();
  for (sim::NodeAddr peer : peers) {
    network_.send(self_, peer, wire);
  }
}

void VersionHistoryService::handle(sim::NodeAddr from,
                                   std::string_view data) {
  (void)from;
  const std::optional<StorageFrame> frame = StorageFrame::parse(data);
  if (!frame.has_value() ||
      frame->op != StorageFrame::Op::kHistoryReply) {
    return;
  }
  const auto it = reads_.find(frame->ticket);
  if (it == reads_.end()) return;
  PendingRead& p = it->second;
  p.histories.push_back(decode_history(frame->payload));
  if (p.histories.size() >= p.expected) finish_read(frame->ticket);
}

void VersionHistoryService::finish_read(std::uint64_t ticket) {
  const auto it = reads_.find(ticket);
  if (it == reads_.end()) return;
  PendingRead p = std::move(it->second);
  reads_.erase(it);
  network_.scheduler().cancel(p.timer);

  HistoryReadResult result;
  result.replies = static_cast<std::uint32_t>(p.histories.size());
  result.versions = agree_history(p.histories, f_);
  // A read is trustworthy once f+1 members replied (fewer cannot agree).
  result.ok = result.replies >= f_ + 1;
  if (p.callback) p.callback(result);
}

}  // namespace asa_repro::storage
