#include "p2p/chord.hpp"

#include <algorithm>
#include <cassert>

namespace asa_repro::p2p {

// ---------------------------------------------------------------- ChordNode

NodeId ChordNode::successor() const {
  return successors_.empty() ? id_ : successors_.front();
}

NodeId ChordNode::first_live_successor() const {
  for (const NodeId& s : successors_) {
    if (ring_.alive(s)) return s;
  }
  return id_;  // Degenerate: no live successor known; route via self.
}

void ChordNode::join(const NodeId& bootstrap) {
  if (bootstrap == id_ || !ring_.alive(bootstrap)) {
    // First node in the ring: it is its own successor.
    successors_.assign(1, id_);
    predecessor_.reset();
    return;
  }
  const NodeId succ = ring_.node(bootstrap)->find_successor(id_);
  successors_.assign(1, succ);
  predecessor_.reset();
}

NodeId ChordNode::closest_preceding_node(const NodeId& key) const {
  // Scan fingers from farthest to nearest for a live node in (id, key).
  for (unsigned i = kBits; i-- > 0;) {
    const std::optional<NodeId>& f = fingers_[i];
    if (!f.has_value() || !ring_.alive(*f)) continue;
    if (NodeId::in_interval_open_open(*f, id_, key)) return *f;
  }
  // Fall back to the successor list.
  for (std::size_t i = successors_.size(); i-- > 0;) {
    if (ring_.alive(successors_[i]) &&
        NodeId::in_interval_open_open(successors_[i], id_, key)) {
      return successors_[i];
    }
  }
  return id_;
}

NodeId ChordNode::find_successor(const NodeId& key, std::size_t* hops) const {
  const ChordNode* current = this;
  if (hops != nullptr) *hops = 0;
  // Bounded walk: fingers halve the remaining distance, so 160 + list
  // length suffices; the cap guards degenerate rings mid-churn.
  for (std::size_t step = 0; step < kBits + ring_.size() + 8; ++step) {
    const NodeId succ = current->first_live_successor();
    if (succ == current->id_ ||
        NodeId::in_interval_open_closed(key, current->id_, succ)) {
      return succ;
    }
    const NodeId next = current->closest_preceding_node(key);
    if (next == current->id_) return succ;
    const ChordNode* next_node = ring_.node(next);
    if (next_node == nullptr) return succ;  // Raced with a failure.
    current = next_node;
    if (hops != nullptr) ++(*hops);
  }
  return current->first_live_successor();
}

void ChordNode::stabilize() {
  NodeId succ = first_live_successor();
  if (succ == id_ && predecessor_.has_value() && *predecessor_ != id_ &&
      ring_.alive(*predecessor_)) {
    // Bootstrap/healing: we are our own successor but somebody has notified
    // us (the classic two-node case) — adopt the predecessor as successor
    // so the ring closes.
    succ = *predecessor_;
    successors_.assign(1, succ);
  }
  if (succ == id_) {
    // Single-node ring (or every known successor failed): stay self-linked
    // until a notify arrives.
    successors_.assign(1, id_);
  } else {
    const ChordNode* succ_node = ring_.node(succ);
    const std::optional<NodeId> x = succ_node->predecessor();
    if (x.has_value() && ring_.alive(*x) &&
        NodeId::in_interval_open_open(*x, id_, succ)) {
      succ = *x;
      succ_node = ring_.node(succ);
    }
    // Rebuild the successor list from the (possibly new) successor's list.
    std::vector<NodeId> fresh;
    fresh.push_back(succ);
    for (const NodeId& s : succ_node->successor_list()) {
      if (s == id_) continue;
      if (fresh.size() >= kSuccessorListSize) break;
      if (std::find(fresh.begin(), fresh.end(), s) == fresh.end() &&
          ring_.alive(s)) {
        fresh.push_back(s);
      }
    }
    successors_ = std::move(fresh);
  }
  if (const NodeId succ_now = first_live_successor(); succ_now != id_) {
    ring_.node(succ_now)->notify(id_);
  } else {
    predecessor_ = id_;  // Single-node ring.
  }
}

void ChordNode::notify(const NodeId& candidate) {
  if (!predecessor_.has_value() || !ring_.alive(*predecessor_) ||
      *predecessor_ == id_ ||
      NodeId::in_interval_open_open(candidate, *predecessor_, id_)) {
    predecessor_ = candidate;
  }
}

void ChordNode::fix_finger(unsigned index) {
  assert(index < kBits);
  const NodeId target = id_.plus(NodeId::power_of_two(index));
  fingers_[index] = find_successor(target);
}

void ChordNode::check_predecessor() {
  if (predecessor_.has_value() && !ring_.alive(*predecessor_)) {
    predecessor_.reset();
  }
}

// ---------------------------------------------------------------- ChordRing

NodeId ChordRing::add_node(const NodeId& id) {
  assert(!nodes_.contains(id) && "duplicate node id");
  ++version_;
  const NodeId bootstrap = nodes_.empty() ? id : nodes_.begin()->first;
  auto node = std::make_unique<ChordNode>(id, *this);
  ChordNode* raw = node.get();
  nodes_.emplace(id, std::move(node));
  by_id_.emplace(id, raw);
  raw->join(bootstrap);
  return id;
}

void ChordRing::build(std::size_t n, std::size_t stabilization_rounds) {
  for (std::size_t i = 0; i < n; ++i) {
    add_node(NodeId::hash_of("node:" + std::to_string(i)));
    // A few maintenance rounds per join keep successor chains usable while
    // the ring grows (as periodic stabilization would in a deployment).
    run_maintenance(2);
  }
  if (stabilization_rounds == 0) {
    // Enough rounds for every node to populate its finger table: each
    // round fixes 8 fingers per node.
    stabilization_rounds = ChordNode::kBits / 8 + 5;
  }
  run_maintenance(stabilization_rounds);
}

void ChordRing::leave(const NodeId& id) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  ++version_;
  ChordNode& node = *it->second;
  // Graceful handover: link predecessor and successor directly.
  const NodeId succ = node.first_live_successor();
  const std::optional<NodeId> pred = node.predecessor();
  if (succ != id && alive(succ) && pred.has_value() && *pred != id &&
      alive(*pred)) {
    ChordNode* succ_node = nodes_.at(succ).get();
    ChordNode* pred_node = nodes_.at(*pred).get();
    succ_node->predecessor_ = pred;
    auto& plist = pred_node->successors_;
    plist.erase(std::remove(plist.begin(), plist.end(), id), plist.end());
    plist.insert(plist.begin(), succ);
  }
  by_id_.erase(id);
  nodes_.erase(it);
}

void ChordRing::fail(const NodeId& id) {
  by_id_.erase(id);
  if (nodes_.erase(id) != 0) ++version_;
}

ChordNode* ChordRing::node(const NodeId& id) {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

const ChordNode* ChordRing::node(const NodeId& id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

std::vector<NodeId> ChordRing::node_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) ids.push_back(id);
  return ids;
}

void ChordRing::maintenance_round() {
  ++version_;
  std::vector<NodeId> order = node_ids();
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng_.below(i)]);
  }
  for (const NodeId& id : order) {
    ChordNode* n = node(id);
    if (n == nullptr) continue;  // Departed mid-round.
    n->check_predecessor();
    n->stabilize();
    for (int k = 0; k < 8; ++k) {
      n->fix_finger(n->next_finger_);
      n->next_finger_ = (n->next_finger_ + 1) % ChordNode::kBits;
    }
  }
}

void ChordRing::run_maintenance(std::size_t rounds) {
  for (std::size_t i = 0; i < rounds; ++i) maintenance_round();
}

NodeId ChordRing::lookup(const NodeId& key, std::size_t* hops) const {
  assert(!nodes_.empty());
  std::size_t local_hops = 0;
  const NodeId result =
      nodes_.begin()->second->find_successor(key, &local_hops);
  if (hops != nullptr) *hops = local_hops;
  if (metrics_ != nullptr) {
    metrics_->histogram("chord.route_hops", {}, obs::small_count_buckets())
        .observe(local_hops);
  }
  return result;
}

NodeId ChordRing::true_successor(const NodeId& key) const {
  assert(!nodes_.empty());
  // Successor of key: the first node id >= key, wrapping to the smallest.
  const auto it = nodes_.lower_bound(key);
  return it == nodes_.end() ? nodes_.begin()->first : it->first;
}

}  // namespace asa_repro::p2p
