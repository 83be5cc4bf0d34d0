// The peer-local commit cascade: everything one delivered message sets off
// on one node (paper section 2.2's node lock, Fig 9's free/not_free).
//
// A node runs one commit machine per pending update of a GUID; the
// machines of one GUID are siblings. A delivery steps one machine's
// compiled table and runs its actions by compiled action id: vote and
// commit go out through the host; not_free takes the node lock and is
// queued to every unfinished sibling; free releases the lock and offers it
// to the unfinished siblings one at a time, in sibling order, until one
// retakes it. Queued deliveries drain FIFO; after each step of a finished
// machine the host's finish hook runs. A member's vote or commit reaches
// its machine only as the dedup rule admits it. CommitPeer and fsmcheck's
// composition checker both instantiate this template, so the checker
// explores the cascade that ships.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "commit/commit_model.hpp"
#include "core/compiled_machine.hpp"

namespace asa_repro::commit {

/// What one compiled action id does on a node.
enum class Action : std::uint8_t { kNone, kVote, kCommit, kFree, kNotFree };

/// Action kind per compiled action id, by name; a name outside the four
/// the protocol knows is a no-op.
inline std::vector<Action> translate_actions(
    const fsm::CompiledMachine& machine) {
  std::vector<Action> kinds;
  kinds.reserve(machine.action_names().size());
  for (const std::string& name : machine.action_names()) {
    kinds.push_back(name == kActionVote      ? Action::kVote
                    : name == kActionCommit  ? Action::kCommit
                    : name == kActionFree    ? Action::kFree
                    : name == kActionNotFree ? Action::kNotFree
                                             : Action::kNone);
  }
  return kinds;
}

/// One vote and one commit per member per update: the deployed rule
/// admits a member's first copy only; comp.dup_vote's variant
/// (variants.hpp) admits every copy.
struct Dedup {
  bool admit_repeats = false;
};

/// `Host`, the effects policy, is a cheap view of one GUID's siblings:
///   using Key = ...;           sibling identity; siblings sort by key
///   Key key(const Cell&);      Cell* find(Key) (nullptr once dropped)
///   fsm::CompiledInstance::Delivery step(Cell&, fsm::MessageId);
///   bool finished(const Cell&);
///   std::size_t siblings();    Cell& sibling(i);
///   std::size_t after(Key);    index of the first sibling above a key
///   bool locked();  bool holds_lock(Key);  void take_lock(Key);
///   void clear_lock();
///   void vote(Cell&);  void commit(Cell&);  void finish(Cell&);
/// `finish` may drop the finished cell (and call free() for it).
template <class Cell, class Host>
class Cascade {
 public:
  using Key = typename Host::Key;

  Cascade(const fsm::CompiledMachine& machine, Dedup dedup)
      : actions_(translate_actions(machine)), dedup_(dedup) {}

  /// Deliver one copy of a member's vote or commit (`first_copy`: its
  /// first for this update) if the dedup rule admits it; false if not.
  bool deliver_copy(Host& host, Cell& cell, fsm::MessageId message,
                    bool first_copy) {
    if (!first_copy && !dedup_.admit_repeats) return false;
    deliver(host, cell, message);
    return true;
  }

  /// Deliver `message` to `cell` and run the whole cascade. A delivery
  /// made while a cascade runs joins its queue instead.
  void deliver(Host& host, Cell& cell, fsm::MessageId message) {
    if (draining_) {
      queue_.emplace_back(host.key(cell), message);
      return;
    }
    draining_ = true;
    step(host, cell, message);
    drain(host);
  }

  /// The free action of `source`: release the node lock if `source` holds
  /// it, then offer it to the siblings one at a time until one retakes
  /// it. The rest must not see a stale free, or several pending updates
  /// could vote at once — the serialisation the lock exists for. Outside
  /// a running cascade the resulting queue drains at once.
  void free(Host& host, Key source) {
    const bool outermost = !draining_;
    draining_ = true;
    if (host.holds_lock(source)) host.clear_lock();
    std::size_t i = 0;
    while (!host.locked() && i < host.siblings()) {
      Cell& sibling = host.sibling(i);
      const Key key = host.key(sibling);
      if (key == source || host.finished(sibling)) {
        ++i;
        continue;
      }
      step(host, sibling, kFree);
      // The step may drop siblings: resume after the one just offered.
      i = host.after(key);
    }
    if (outermost) drain(host);
  }

 private:
  void step(Host& host, Cell& cell, fsm::MessageId message) {
    const fsm::CompiledInstance::Delivery delivery = host.step(cell, message);
    const Key key = host.key(cell);
    // The ids point into the compiled arena, which no effect touches.
    for (std::uint32_t i = 0; i < delivery.count; ++i) {
      switch (actions_[delivery.ids[i]]) {
        case Action::kVote:
          host.vote(cell);
          break;
        case Action::kCommit:
          host.commit(cell);
          break;
        case Action::kNotFree:
          // not_free never triggers further actions: queueing it is safe.
          host.take_lock(key);
          for (std::size_t s = 0; s < host.siblings(); ++s) {
            const Cell& sibling = host.sibling(s);
            if (host.key(sibling) != key && !host.finished(sibling)) {
              queue_.emplace_back(host.key(sibling), kNotFree);
            }
          }
          break;
        case Action::kFree:
          // free is the last action of the finishing transition: a
          // sibling the offer finishes may be dropped, never this cell.
          free(host, key);
          break;
        case Action::kNone:
          break;
      }
    }
    if (host.finished(cell)) host.finish(cell);
  }

  void drain(Host& host) {
    while (head_ < queue_.size()) {
      const auto [key, message] = queue_[head_++];
      if (Cell* cell = host.find(key)) step(host, *cell, message);
    }
    queue_.clear();
    head_ = 0;
    draining_ = false;
  }

  std::vector<Action> actions_;  // Per compiled action id.
  std::vector<std::pair<Key, fsm::MessageId>> queue_;  // FIFO from head_.
  std::size_t head_ = 0;
  bool draining_ = false;
  Dedup dedup_;
};

}  // namespace asa_repro::commit
