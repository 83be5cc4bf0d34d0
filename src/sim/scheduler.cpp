#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/network.hpp"

namespace asa_repro::sim {

std::uint32_t Scheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (slots_.size() > kSlotMask) {
    throw std::length_error("Scheduler: more than 2^24 pending events");
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

std::uint64_t Scheduler::enqueue(Time when, std::uint32_t slot) {
  const std::uint64_t id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].id = id;
  heap_.push_back({when, id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++stats_.scheduled;
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, heap_.size());
  return id;
}

std::uint64_t Scheduler::schedule_at(Time when, Action action) {
  const std::uint32_t slot = acquire_slot();
  slots_[slot].body.emplace<Action>(std::move(action));
  return enqueue(when, slot);
}

std::uint64_t Scheduler::schedule_delivery(Time when, Delivery delivery) {
  const std::uint32_t slot = acquire_slot();
  slots_[slot].body.emplace<Delivery>(std::move(delivery));
  return enqueue(when, slot);
}

void Scheduler::cancel(std::uint64_t id) {
  const std::uint64_t slot = id & kSlotMask;
  // Only a pending event's slot carries its id: a fired, unknown or reused
  // id leaves no trace and counts nothing. The key stays in the heap and
  // is discarded when it comes up.
  if (id == 0 || slot >= slots_.size() || slots_[slot].id != id ||
      std::holds_alternative<std::monostate>(slots_[slot].body)) {
    return;
  }
  slots_[slot].body = std::monostate{};
  ++stats_.cancelled;
}

bool Scheduler::fire_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  const auto index = static_cast<std::uint32_t>(key.id & kSlotMask);
  Slot& slot = slots_[index];
  slot.id = 0;
  free_slots_.push_back(index);
  // Cancelled events are discarded without advancing the clock: nothing
  // happened at their time, and time measurements must not see them.
  if (std::holds_alternative<std::monostate>(slot.body)) {
    ++stats_.discarded;
    return false;
  }
  now_ = key.when;
  // Move the body out and free the slot before running it: the body may
  // schedule events, which can reuse this slot or grow the pool.
  if (Delivery* copy = std::get_if<Delivery>(&slot.body)) {
    const Delivery delivery = std::move(*copy);
    slot.body = std::monostate{};
    delivery.network->deliver_copy(delivery);
  } else {
    const Action action = std::move(std::get<Action>(slot.body));
    slot.body = std::monostate{};
    action();
  }
  return true;
}

std::size_t Scheduler::run_until(Time deadline) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    if (fire_next()) ++executed;
  }
  stats_.executed += executed;
  if (now_ < deadline && heap_.empty()) now_ = deadline;
  return executed;
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t executed = 0;
  while (!heap_.empty() && executed < max_events) {
    if (fire_next()) ++executed;
  }
  stats_.executed += executed;
  return executed;
}

}  // namespace asa_repro::sim
