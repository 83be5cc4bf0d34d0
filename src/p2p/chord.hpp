// Chord key-based routing overlay (paper section 2; Stoica et al. [6]).
//
// The ASA storage layer locates the nodes responsible for a key through a
// P2P routing layer; the paper's prototype used a Java Chord
// implementation. This is an in-process simulation of Chord: nodes are
// organised into a logical circle, each maintains a successor list and a
// finger table of "chords" across the circle, and lookups route greedily,
// visiting O(log N) nodes. Joins, graceful leaves, and crash failures are
// supported, repaired by the standard stabilize/fix-fingers maintenance.
//
// RPCs are direct method calls through the ring registry with per-lookup
// hop accounting — behaviour-preserving for the layers above (they see only
// lookup(key) -> node) while keeping simulations deterministic.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "p2p/node_id.hpp"
#include "sim/rng.hpp"

namespace asa_repro::p2p {

class ChordRing;

/// One participating node.
class ChordNode {
 public:
  static constexpr unsigned kBits = 160;
  static constexpr std::size_t kSuccessorListSize = 8;

  ChordNode(NodeId id, ChordRing& ring) : id_(id), ring_(ring) {}

  [[nodiscard]] const NodeId& id() const { return id_; }
  [[nodiscard]] std::optional<NodeId> predecessor() const {
    return predecessor_;
  }
  [[nodiscard]] NodeId successor() const;
  [[nodiscard]] const std::vector<NodeId>& successor_list() const {
    return successors_;
  }
  [[nodiscard]] const std::array<std::optional<NodeId>, kBits>& fingers()
      const {
    return fingers_;
  }

  /// Join the ring via any live node. First node: pass its own id.
  void join(const NodeId& bootstrap);

  /// Find the node responsible for `key` (its successor on the circle),
  /// counting nodes visited into `hops` when non-null.
  [[nodiscard]] NodeId find_successor(const NodeId& key,
                                      std::size_t* hops = nullptr) const;

  // ---- Maintenance (run periodically by the ring). ----
  void stabilize();
  void notify(const NodeId& candidate);
  void fix_finger(unsigned index);
  void check_predecessor();

 private:
  friend class ChordRing;

  [[nodiscard]] NodeId closest_preceding_node(const NodeId& key) const;
  [[nodiscard]] NodeId first_live_successor() const;

  NodeId id_;
  ChordRing& ring_;
  std::optional<NodeId> predecessor_;
  std::vector<NodeId> successors_;  // successors_[0] is the successor.
  std::array<std::optional<NodeId>, kBits> fingers_{};
  unsigned next_finger_ = 0;
};

/// Registry and simulation driver for a set of Chord nodes.
class ChordRing {
 public:
  explicit ChordRing(sim::Rng rng = sim::Rng(1)) : rng_(rng) {}

  /// Create a node with the given id and join it via `bootstrap` (or as the
  /// first node when the ring is empty). Returns the node's id.
  NodeId add_node(const NodeId& id);

  /// Create `n` nodes with ids hash("node:<i>") and stabilise the ring.
  void build(std::size_t n, std::size_t stabilization_rounds = 0);

  /// Graceful departure: hands keyspace to the successor via one final
  /// stabilisation nudge, then removes the node.
  void leave(const NodeId& id);

  /// Crash failure: the node vanishes without notice; the ring heals
  /// through successor lists and maintenance rounds.
  void fail(const NodeId& id);

  [[nodiscard]] bool alive(const NodeId& id) const {
    return by_id_.contains(id);
  }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] ChordNode* node(const NodeId& id);
  [[nodiscard]] const ChordNode* node(const NodeId& id) const;

  /// All live node ids, in ring order.
  [[nodiscard]] std::vector<NodeId> node_ids() const;

  /// Run one maintenance round on every node (stabilize + one finger fix +
  /// predecessor check), in random order.
  void maintenance_round();
  void run_maintenance(std::size_t rounds);

  /// Route a lookup from an arbitrary live node. Returns the responsible
  /// node id; hops counts visited nodes. Consumes no randomness: the answer
  /// is a pure function of the ring state, so it holds until version()
  /// changes.
  [[nodiscard]] NodeId lookup(const NodeId& key,
                              std::size_t* hops = nullptr) const;

  /// Ring-state version: bumped by every mutator (add_node, leave, fail,
  /// maintenance_round; build and run_maintenance go through them). Node
  /// maintenance runs only inside maintenance_round, so two lookups of one
  /// key at the same version return the same node. Callers memoise lookup
  /// results against it.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Attach a metrics registry: every lookup() feeds the chord.route_hops
  /// histogram. Callers that memoise results against version()
  /// (AsaCluster's peer sets) call lookup() only on a memo miss, so the
  /// histogram counts real ring walks, not answers served from a memo.
  /// nullptr (default) disables.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Ground truth: the live node owning `key` by brute-force scan
  /// (successor of key on the circle). Used to verify routed lookups.
  [[nodiscard]] NodeId true_successor(const NodeId& key) const;

 private:
  /// Folds all 20 id bytes, so ids that differ only in their low bytes
  /// (tests build such ids) still spread over the buckets.
  struct IdHash {
    std::size_t operator()(const NodeId& id) const {
      std::uint64_t hi = 0, mid = 0;
      std::uint32_t lo = 0;
      std::memcpy(&hi, id.bytes().data(), sizeof hi);
      std::memcpy(&mid, id.bytes().data() + 8, sizeof mid);
      std::memcpy(&lo, id.bytes().data() + 16, sizeof lo);
      return static_cast<std::size_t>(
          (hi ^ (mid * 0x9E3779B97F4A7C15ull) ^ lo) * 0xBF58476D1CE4E5B9ull);
    }
  };

  std::map<NodeId, std::unique_ptr<ChordNode>> nodes_;  // Ring order.
  /// The same nodes by id: alive() and node() run on every routing hop
  /// and every maintenance step, so they skip the ordered tree walk.
  std::unordered_map<NodeId, ChordNode*, IdHash> by_id_;
  sim::Rng rng_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::uint64_t version_ = 0;
};

}  // namespace asa_repro::p2p
