#include "storage/data_store.hpp"

#include <algorithm>

namespace asa_repro::storage {

DataStoreClient::DataStoreClient(sim::Network& network, sim::NodeAddr self,
                                 KeyResolver resolver, std::uint32_t r,
                                 std::uint32_t f, sim::Rng rng)
    : network_(network),
      self_(self),
      resolver_(std::move(resolver)),
      r_(r),
      quorum_(r - f),
      rng_(rng) {
  network_.attach(self_, [this](sim::NodeAddr from, std::string_view data) {
    handle(from, data);
  });
}

Pid DataStoreClient::store(Block block, StoreCallback callback,
                           sim::Time timeout) {
  ++stats_.stores;
  const Pid pid = Pid::of(block);
  const std::uint64_t ticket = next_ticket_++;

  PendingStore p;
  p.result.pid = pid;
  p.callback = std::move(callback);

  StorageFrame frame;
  frame.op = StorageFrame::Op::kPut;
  frame.ticket = ticket;
  frame.id = pid.digest();
  frame.payload = std::move(block);

  // One put per replica key; distinct keys may resolve to the same node in
  // a small ring, so the quorum is counted over keys, not nodes.
  const std::vector<p2p::NodeId> keys = replica_keys(pid.as_key(), r_);
  p.expected = static_cast<std::uint32_t>(keys.size());
  const std::string wire = frame.serialize();
  for (const p2p::NodeId& key : keys) {
    network_.send(self_, resolver_(key), wire);
  }

  p.timer = network_.scheduler().schedule_after(
      timeout, [this, ticket] { finish_store(ticket, false); });
  stores_.emplace(ticket, std::move(p));
  return pid;
}

void DataStoreClient::finish_store(std::uint64_t ticket, bool ok) {
  const auto it = stores_.find(ticket);
  if (it == stores_.end()) return;
  PendingStore p = std::move(it->second);
  stores_.erase(it);
  network_.scheduler().cancel(p.timer);
  p.result.ok = ok;
  if (ok) ++stats_.store_successes;
  if (p.callback) p.callback(p.result);
}

void DataStoreClient::retrieve(const Pid& pid, RetrieveCallback callback,
                               sim::Time per_replica_timeout) {
  ++stats_.retrieves;
  const std::uint64_t ticket = next_ticket_++;

  PendingRetrieve p;
  p.pid = pid;
  p.per_replica_timeout = per_replica_timeout;
  p.callback = std::move(callback);

  // "It is then sufficient to pick a single replica node (at random, or
  // guided by some 'closeness' metric) and request the data block from it"
  // — order the failover sequence per the configured policy.
  for (const p2p::NodeId& key : replica_keys(pid.as_key(), r_)) {
    p.order.push_back(resolver_(key));
  }
  if (retrieve_order_ == RetrieveOrder::kRandom) {
    for (std::size_t i = p.order.size(); i > 1; --i) {
      std::swap(p.order[i - 1], p.order[rng_.below(i)]);
    }
  } else {
    std::sort(p.order.begin(), p.order.end(),
              [this](sim::NodeAddr a, sim::NodeAddr b) {
                const auto dist = [this](sim::NodeAddr x) {
                  return x > self_ ? x - self_ : self_ - x;
                };
                return dist(a) < dist(b);
              });
  }

  retrieves_.emplace(ticket, std::move(p));
  try_next_replica(ticket);
}

void DataStoreClient::try_next_replica(std::uint64_t ticket) {
  const auto it = retrieves_.find(ticket);
  if (it == retrieves_.end()) return;
  PendingRetrieve& p = it->second;
  if (p.next >= p.order.size()) {
    RetrieveResult result = std::move(p.result);
    RetrieveCallback cb = std::move(p.callback);
    retrieves_.erase(it);
    if (cb) cb(result);  // Every replica failed.
    return;
  }

  const sim::NodeAddr target = p.order[p.next++];
  ++p.result.replicas_tried;
  StorageFrame frame;
  frame.op = StorageFrame::Op::kGet;
  frame.ticket = ticket;
  frame.id = p.pid.digest();
  network_.send(self_, target, frame.serialize());
  p.timer = network_.scheduler().schedule_after(
      p.per_replica_timeout, [this, ticket] { try_next_replica(ticket); });
}

void DataStoreClient::handle(sim::NodeAddr from, std::string_view data) {
  (void)from;
  const std::optional<StorageFrame> frame = StorageFrame::parse(data);
  if (!frame.has_value()) return;

  switch (frame->op) {
    case StorageFrame::Op::kPutAck: {
      const auto it = stores_.find(frame->ticket);
      if (it == stores_.end()) return;
      PendingStore& p = it->second;
      ++p.replies;
      if (frame->status == 1) ++p.result.acks;
      if (p.result.acks >= quorum_) {
        finish_store(frame->ticket, true);
      } else if (p.replies >= p.expected) {
        finish_store(frame->ticket, false);  // All replied, quorum missed.
      }
      break;
    }
    case StorageFrame::Op::kGetReply: {
      const auto it = retrieves_.find(frame->ticket);
      if (it == retrieves_.end()) return;
      PendingRetrieve& p = it->second;
      network_.scheduler().cancel(p.timer);
      if (frame->status == 1 && p.pid.matches(frame->payload)) {
        ++stats_.retrieve_successes;
        p.result.ok = true;
        p.result.block = frame->payload;
        RetrieveResult result = std::move(p.result);
        RetrieveCallback cb = std::move(p.callback);
        retrieves_.erase(it);
        if (cb) cb(result);
        return;
      }
      // Miss or hash mismatch: the secure hash detected a bad replica; try
      // another node (paper: "If this check fails, another node can be
      // tried").
      if (frame->status == 1) {
        ++p.result.verification_failures;
        ++stats_.verification_failures;
      }
      try_next_replica(frame->ticket);
      break;
    }
    default:
      break;  // Requests are for hosts, not clients.
  }
}

}  // namespace asa_repro::storage
