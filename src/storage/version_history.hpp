// The version history service (paper section 2.2).
//
// Maps a GUID to a sequence of PIDs. Appending a version runs the BFT
// commit protocol among the GUID's peer set; reading queries all members
// and accepts the longest prefix on which at least f+1 agree — no single
// member can be trusted, since a GUID may map to any PID.
//
// Retried commit attempts share a request id; readers collapse duplicate
// commits of the same logical update (first occurrence wins), so histories
// remain consistent even when a deadlocked attempt is retried.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "commit/endpoint.hpp"
#include "commit/peer.hpp"
#include "sim/network.hpp"
#include "storage/pid.hpp"
#include "storage/storage_messages.hpp"

namespace asa_repro::storage {

struct HistoryReadResult {
  bool ok = false;
  /// Agreed sequence of committed payloads (PID low-64s), deduplicated by
  /// request id, longest (f+1)-agreed prefix.
  std::vector<std::uint64_t> versions;
  std::uint32_t replies = 0;
};

class VersionHistoryService {
 public:
  /// `peer_addresses` maps a GUID to its peer set's network addresses (the
  /// cluster derives this from replica keys + Chord).
  using PeerSetResolver =
      std::function<std::vector<sim::NodeAddr>(const Guid&)>;

  /// Every commit endpoint the service creates records its spans into
  /// `events` (nullptr disables).
  VersionHistoryService(sim::Network& network, sim::NodeAddr self,
                        PeerSetResolver resolver, std::uint32_t r,
                        std::uint32_t f, commit::RetryPolicy policy,
                        sim::Rng rng, obs::EventRecorder* events = nullptr);

  VersionHistoryService(const VersionHistoryService&) = delete;
  VersionHistoryService& operator=(const VersionHistoryService&) = delete;

  using AppendCallback = std::function<void(const commit::CommitResult&)>;
  using ReadCallback = std::function<void(const HistoryReadResult&)>;

  /// Append `pid` as the next version of `guid` via the commit protocol.
  void append(const Guid& guid, const Pid& pid, AppendCallback callback);

  /// Serialize appends per GUID — the protocol's supported usage: one
  /// update in flight per GUID at a time (paper 2.2's serialized writer).
  /// While an append for a GUID is outstanding, later appends queue FIFO
  /// and submit as each completes, so several contending writers funnel
  /// through this service the way they would through the GUID's
  /// maintainer; replicas then agree on one append order. Off by default
  /// because the chaos equivocator amplifier deliberately races
  /// concurrent same-GUID appends to demonstrate the violation.
  void set_serialize_appends(bool on) { serialize_appends_ = on; }

  /// Read the agreed version history of `guid`.
  void read(const Guid& guid, ReadCallback callback,
            sim::Time timeout = 150'000);

  /// Aggregate statistics across every commit endpoint this service owns.
  [[nodiscard]] commit::EndpointStats total_stats() const {
    commit::EndpointStats total;
    for (const auto& [key, endpoint] : endpoints_) {
      const commit::EndpointStats& s = endpoint->stats();
      total.submitted += s.submitted;
      total.committed += s.committed;
      total.retries += s.retries;
      total.failures += s.failures;
    }
    return total;
  }

  /// Attach a metrics registry, propagated to every commit endpoint this
  /// service owns (existing and future). nullptr disables.
  void set_metrics(obs::MetricsRegistry* metrics) {
    metrics_ = metrics;
    for (auto& [key, endpoint] : endpoints_) endpoint->set_metrics(metrics);
  }

 private:
  struct PendingRead {
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        histories;                 // One per replying peer.
    std::uint32_t expected = 0;
    std::uint64_t timer = 0;
    ReadCallback callback;
  };

  commit::CommitEndpoint& endpoint_for(const Guid& guid);
  void submit_serialized(const Guid& guid, const Pid& pid,
                         AppendCallback callback);
  void handle(sim::NodeAddr from, std::string_view data);
  void finish_read(std::uint64_t ticket);

  sim::Network& network_;
  sim::NodeAddr self_;
  PeerSetResolver resolver_;
  std::uint32_t r_;
  std::uint32_t f_;
  commit::RetryPolicy policy_;
  sim::Rng rng_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::EventRecorder* events_;
  // One commit endpoint per GUID (peer sets differ); endpoints own distinct
  // network addresses carved from a reserved range above self_.
  std::map<std::uint64_t, std::unique_ptr<commit::CommitEndpoint>> endpoints_;
  sim::NodeAddr next_endpoint_addr_;
  std::uint64_t next_ticket_ = 1;
  std::map<std::uint64_t, PendingRead> reads_;
  bool serialize_appends_ = false;
  std::set<std::uint64_t> append_inflight_;
  std::map<std::uint64_t, std::deque<std::pair<Pid, AppendCallback>>>
      append_queue_;
};

/// Compute the (f+1)-agreed longest prefix across peer histories, after
/// per-peer deduplication by request id. Exposed for unit testing.
[[nodiscard]] std::vector<std::uint64_t> agree_history(
    const std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>&
        histories,
    std::uint32_t f);

/// agree_history's vote, over already-deduplicated payload sequences.
[[nodiscard]] std::vector<std::uint64_t> agree_prefix(
    const std::vector<std::vector<std::uint64_t>>& deduped, std::uint32_t f);

/// A replica's payload sequence collapsed by request id (first wins).
[[nodiscard]] std::vector<std::uint64_t> dedup_payloads(
    const std::vector<commit::CommitPeer::CommittedEntry>& entries);

}  // namespace asa_repro::storage
