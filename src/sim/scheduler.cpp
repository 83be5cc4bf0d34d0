#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/network.hpp"

namespace asa_repro::sim {

void Scheduler::check_not_past(Time when) const {
  if (when < now_) {
    throw std::invalid_argument("Scheduler: event at " + std::to_string(when) +
                                " is before now " + std::to_string(now_));
  }
}

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

void Scheduler::push_bucket(Time when, std::uint32_t slot) {
  const auto bucket = static_cast<std::uint32_t>(when & kBucketMask);
  std::uint32_t& tail = tails_[bucket];
  if (tail == kNoSlot) {
    slots_[slot].next = slot;
    const std::uint32_t word = bucket >> 6;
    occupied_[word] |= 1ull << (bucket & 63);
    summary_ |= 1ull << (word >> 1);
  } else {
    slots_[slot].next = slots_[tail].next;
    slots_[tail].next = slot;
  }
  tail = slot;
  ++in_wheel_;
}

std::uint32_t Scheduler::pop_bucket(std::uint32_t bucket) {
  std::uint32_t& tail = tails_[bucket];
  const std::uint32_t head = slots_[tail].next;
  if (head == tail) {
    tail = kNoSlot;
    const std::uint32_t word = bucket >> 6;
    occupied_[word] &= ~(1ull << (bucket & 63));
    if ((occupied_[word] | occupied_[word ^ 1]) == 0) {
      summary_ &= ~(1ull << (word >> 1));
    }
  } else {
    slots_[tail].next = slots_[head].next;
  }
  --in_wheel_;
  return head;
}

std::uint32_t Scheduler::next_bucket() const {
  const auto start = static_cast<std::uint32_t>(now_ & kBucketMask);
  const std::uint32_t word = start >> 6;
  // The rest of now()'s own word, then its partner under the same summary
  // bit, then the next summary bit round the wheel (which may wrap back to
  // this one: the buckets below `start` hold the window's far end).
  const auto first = [this](std::uint32_t w) {
    return w << 6 | static_cast<std::uint32_t>(std::countr_zero(occupied_[w]));
  };
  const std::uint64_t rest = occupied_[word] & (~0ull << (start & 63));
  if (rest != 0) {
    return word << 6 | static_cast<std::uint32_t>(std::countr_zero(rest));
  }
  if ((word & 1) == 0 && occupied_[word + 1] != 0) return first(word + 1);
  const std::uint32_t group = word >> 1;
  std::uint64_t later = group == 63 ? 0 : summary_ & (~0ull << (group + 1));
  if (later == 0) later = summary_;
  const auto next = static_cast<std::uint32_t>(std::countr_zero(later)) << 1;
  return first(occupied_[next] != 0 ? next : next + 1);
}

void Scheduler::migrate() {
  // Every heap entry is at or after now(): it was beyond the window when
  // scheduled, and the clock only reaches the earliest queued time.
  while (!overflow_.empty() && overflow_.front().when - now_ < kWheelSpan) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    const Key key = overflow_.back();
    overflow_.pop_back();
    push_bucket(key.when, static_cast<std::uint32_t>(key.id & kSlotMask));
  }
}

std::uint64_t Scheduler::enqueue(Time when, std::uint32_t slot) {
  const std::uint64_t id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].id = id;
  if (when - now_ < kWheelSpan) {
    push_bucket(when, slot);
  } else {
    overflow_.push_back({when, id});
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
  ++stats_.scheduled;
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, pending());
  return id;
}

std::uint64_t Scheduler::schedule_at(Time when, Action action) {
  check_not_past(when);
  const std::uint32_t slot = acquire_slot();
  slots_[slot].body.emplace<Action>(std::move(action));
  return enqueue(when, slot);
}

std::uint64_t Scheduler::schedule_delivery(Time when, Delivery delivery) {
  check_not_past(when);
  const std::uint32_t slot = acquire_slot();
  slots_[slot].body.emplace<Delivery>(std::move(delivery));
  return enqueue(when, slot);
}

void Scheduler::cancel(std::uint64_t id) {
  const std::uint64_t slot = id & kSlotMask;
  // Only a pending event's slot carries its id: a fired, unknown or reused
  // id leaves no trace and counts nothing. The event stays queued and is
  // discarded when it comes up.
  if (id == 0 || slot >= slots_.size() || slots_[slot].id != id ||
      std::holds_alternative<std::monostate>(slots_[slot].body)) {
    return;
  }
  slots_[slot].body = std::monostate{};
  ++stats_.cancelled;
}

Scheduler::Step Scheduler::step(Time deadline) {
  Time when = 0;
  std::uint32_t index = 0;
  if (in_wheel_ != 0) {
    // The window holds everything before the heap's first entry.
    const std::uint32_t bucket = next_bucket();
    when = now_ + ((bucket - now_) & kBucketMask);
    if (when > deadline) return Step::kIdle;
    index = pop_bucket(bucket);
  } else {
    if (overflow_.empty() || overflow_.front().when > deadline) {
      return Step::kIdle;
    }
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    when = overflow_.back().when;
    index = static_cast<std::uint32_t>(overflow_.back().id & kSlotMask);
    overflow_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.id = 0;
  free_slots_.push_back(index);
  // Cancelled events are discarded without advancing the clock: nothing
  // happened at their time, and time measurements must not see them.
  if (std::holds_alternative<std::monostate>(slot.body)) {
    ++stats_.discarded;
    return Step::kDiscarded;
  }
  if (when != now_) {
    now_ = when;
    migrate();
  }
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
  return Step::kFired;
}

std::size_t Scheduler::run_until(Time deadline) {
  std::size_t executed = 0;
  for (Step s; (s = step(deadline)) != Step::kIdle;) {
    if (s == Step::kFired) ++executed;
  }
  stats_.executed += executed;
  if (now_ < deadline && pending() == 0) now_ = deadline;
  return executed;
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t executed = 0;
  for (Step s; executed < max_events && (s = step(kNever)) != Step::kIdle;) {
    if (s == Step::kFired) ++executed;
  }
  stats_.executed += executed;
  return executed;
}

}  // namespace asa_repro::sim
