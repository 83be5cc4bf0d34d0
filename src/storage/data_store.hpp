// The data storage service endpoint (paper section 2.1).
//
// Store: compute the PID (SHA-1 of the contents), derive the r evenly
// spaced replica keys, locate the replica nodes through the routing layer,
// and send each a copy; the operation completes once (r-f) nodes have
// acknowledged, so that even if f acknowledgements are misleading, at least
// f+1 correct nodes hold replicas.
//
// Retrieve: locate the replica nodes the same way, ask one (in randomised
// order), verify the received block against the PID with the secure hash,
// and fail over to another replica if verification fails.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "p2p/node_id.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"
#include "storage/key_gen.hpp"
#include "storage/pid.hpp"
#include "storage/storage_messages.hpp"

namespace asa_repro::storage {

/// Resolves a ring key to the network address of the node responsible for
/// it (Chord lookup + address book, supplied by the cluster).
using KeyResolver = std::function<sim::NodeAddr(const p2p::NodeId&)>;

struct StoreResult {
  bool ok = false;
  Pid pid;
  std::uint32_t acks = 0;  // Successful replica acknowledgements.
};

struct RetrieveResult {
  bool ok = false;
  Block block;
  std::uint32_t replicas_tried = 0;
  std::uint32_t verification_failures = 0;
};

struct DataStoreStats {
  std::uint64_t stores = 0;
  std::uint64_t store_successes = 0;
  std::uint64_t retrieves = 0;
  std::uint64_t retrieve_successes = 0;
  std::uint64_t verification_failures = 0;
};

/// Replica selection for retrieval (paper 2.1: "pick a single replica node
/// (at random, or guided by some 'closeness' metric)").
enum class RetrieveOrder {
  kRandom,     // Uniform random permutation per retrieval.
  kCloseness,  // Ascending network distance (|replica addr - self|), a
               // latency proxy in the simulation's flat address space.
};

class DataStoreClient {
 public:
  /// `r` is the data replication factor; `f` the tolerated faulty replicas
  /// (store quorum is r-f).
  DataStoreClient(sim::Network& network, sim::NodeAddr self,
                  KeyResolver resolver, std::uint32_t r, std::uint32_t f,
                  sim::Rng rng);

  DataStoreClient(const DataStoreClient&) = delete;
  DataStoreClient& operator=(const DataStoreClient&) = delete;

  using StoreCallback = std::function<void(const StoreResult&)>;
  using RetrieveCallback = std::function<void(const RetrieveResult&)>;

  /// Store a block on its r replica nodes; completes at r-f acks or fails
  /// at timeout. Returns the PID immediately (content addressing).
  Pid store(Block block, StoreCallback callback,
            sim::Time timeout = 200'000);

  /// Retrieve and verify the block named by `pid`, failing over across
  /// replicas.
  void retrieve(const Pid& pid, RetrieveCallback callback,
                sim::Time per_replica_timeout = 100'000);

  /// Choose the replica-selection policy for subsequent retrievals.
  void set_retrieve_order(RetrieveOrder order) { retrieve_order_ = order; }

  [[nodiscard]] const DataStoreStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t replication_factor() const { return r_; }

 private:
  struct PendingStore {
    StoreResult result;
    std::uint32_t replies = 0;
    std::uint32_t expected = 0;
    std::uint64_t timer = 0;
    StoreCallback callback;
    bool done = false;
  };
  struct PendingRetrieve {
    Pid pid;
    std::vector<sim::NodeAddr> order;  // Remaining replicas to try.
    std::size_t next = 0;
    RetrieveResult result;
    sim::Time per_replica_timeout = 0;
    std::uint64_t timer = 0;
    RetrieveCallback callback;
  };

  void handle(sim::NodeAddr from, std::string_view data);
  void finish_store(std::uint64_t ticket, bool ok);
  void try_next_replica(std::uint64_t ticket);

  sim::Network& network_;
  sim::NodeAddr self_;
  KeyResolver resolver_;
  std::uint32_t r_;
  std::uint32_t quorum_;  // r - f.
  RetrieveOrder retrieve_order_ = RetrieveOrder::kRandom;
  sim::Rng rng_;
  DataStoreStats stats_;
  std::uint64_t next_ticket_ = 1;
  std::map<std::uint64_t, PendingStore> stores_;
  std::map<std::uint64_t, PendingRetrieve> retrieves_;
};

}  // namespace asa_repro::storage
