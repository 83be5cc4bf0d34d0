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
  slots_[slot].is_delivery = false;
  slots_[slot].action = std::move(action);
  return enqueue(when, slot);
}

std::uint64_t Scheduler::schedule_delivery(Time when, Delivery delivery) {
  const std::uint32_t slot = acquire_slot();
  slots_[slot].is_delivery = true;
  slots_[slot].delivery = std::move(delivery);
  return enqueue(when, slot);
}

void Scheduler::cancel(std::uint64_t id) {
  const std::uint64_t slot = id & kSlotMask;
  // Only a pending event's slot carries its id: a fired, unknown or reused
  // id leaves no trace and counts nothing.
  if (id == 0 || slot >= slots_.size() || slots_[slot].id != id ||
      slots_[slot].cancelled) {
    return;
  }
  slots_[slot].cancelled = true;
  ++stats_.cancelled;
}

bool Scheduler::fire_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  const auto index = static_cast<std::uint32_t>(key.id & kSlotMask);
  Slot& slot = slots_[index];
  const bool cancelled = slot.cancelled;
  const bool is_delivery = slot.is_delivery;
  // Move the body out and free the slot before running it: the body may
  // schedule events, which can reuse this slot or grow the pool.
  Delivery delivery;
  Action action;
  if (is_delivery) {
    delivery = std::move(slot.delivery);
  } else {
    action = std::exchange(slot.action, nullptr);
  }
  slot.id = 0;
  slot.cancelled = false;
  free_slots_.push_back(index);
  // Cancelled events are discarded without advancing the clock: nothing
  // happened at their time, and time measurements must not see them.
  if (cancelled) {
    ++stats_.discarded;
    return false;
  }
  now_ = key.when;
  if (is_delivery) {
    delivery.network->deliver_copy(delivery);
  } else {
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
