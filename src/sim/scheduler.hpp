// Discrete-event scheduler with a simulated clock.
//
// The paper's system ran on a physical network (Java/Chord); this repo
// substitutes a deterministic discrete-event simulation so that Byzantine
// fault injection, message reordering, and deadlock scenarios are exactly
// reproducible. Events fire in (time, sequence) order, so ties are broken
// by scheduling order and runs are deterministic for a fixed seed.
//
// Event layout: an event's body lives in a slot of a reusable pool. A body
// is either a closure (timers, workload steps) or a typed Delivery record
// (one message copy in flight, its frame held inline), so the network's
// per-message path builds no type-erased closure and allocates nothing. A
// slot holds one body or the other, never both. Bodies are moved out of
// their slot when they fire, never copied; cancelling an event destroys
// its body at once, and a freed slot is reused by the next event.
//
// Queue: a bucket wheel of kWheelSpan one-microsecond buckets covers the
// window [now(), now() + kWheelSpan). Each bucket is a FIFO list threaded
// through the slots, and a two-level occupancy bitmap finds the next
// non-empty bucket in a few word operations. Events at or beyond the
// window's end (retry and abort timers, arrivals scheduled up front) wait
// in a small (time, id) binary heap and move into the wheel, in heap
// order, when an advance of the clock brings them into the window.
//
// FIFO per bucket is exactly (time, id) order. Ids grow with scheduling
// order. An event for time t reaches the heap only while t is still
// outside the window, so before any event for t could go straight into
// its bucket; it migrates at the advance that brings t into the window,
// before anything runs at the new time. A bucket therefore holds its
// migrated events first, in id order, then direct inserts in id order.
// The window starts at now(), which only a fired event moves: a
// discarded (cancelled) event moves neither the clock nor the window.
#pragma once

#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "sim/payload.hpp"

namespace asa_repro::sim {

/// Simulated time in microseconds.
using Time = std::uint64_t;

/// Network-level node address.
using NodeAddr = std::uint32_t;

class Network;

/// One message copy in flight, owned by the scheduler (or by the network's
/// manual-mode buffer) until it is delivered, dropped or discarded.
struct Delivery {
  Network* network = nullptr;  // Hands the copy to its receiver.
  NodeAddr from = 0;
  NodeAddr to = 0;
  std::uint64_t message_id = 0;  // Network causal id (shared by duplicates).
  Time sent_at = 0;
  Payload payload;
};

/// Scheduler-level statistics (always on: a handful of integer updates per
/// event, snapshotted into the metrics registry at export time).
struct SchedulerStats {
  std::uint64_t scheduled = 0;        // Events scheduled (closures + copies).
  std::uint64_t executed = 0;         // Events actually run.
  std::uint64_t cancelled = 0;        // cancel() calls on pending events.
  std::uint64_t discarded = 0;        // Cancelled events skipped at fire.
  std::size_t max_queue_depth = 0;    // Peak pending-event count.
  friend bool operator==(const SchedulerStats&,
                         const SchedulerStats&) = default;
};

/// Discrete-event scheduler. Not thread-safe: the simulation is
/// single-threaded by design (determinism).
class Scheduler {
 public:
  using Action = std::function<void()>;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `action` to run at absolute time `when`. Returns an id
  /// usable with cancel(). Throws std::invalid_argument when `when` is
  /// before now(): the clock never runs backwards.
  std::uint64_t schedule_at(Time when, Action action);

  /// Schedule `action` to run `delay` after the current time.
  std::uint64_t schedule_after(Time delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Schedule one message copy for absolute time `when`; when it fires the
  /// record is handed to `delivery.network` (which must be set and outlive
  /// the event). Returns an id usable with cancel(). Throws
  /// std::invalid_argument when `when` is before now().
  std::uint64_t schedule_delivery(Time when, Delivery delivery);

  /// Cancel a pending event: it is discarded when it comes up, without
  /// running and without advancing the clock. Cancelling an event that
  /// already fired (or is firing), was already cancelled, or an unknown id
  /// is a no-op that changes nothing — common for timeout events raced by
  /// completions.
  void cancel(std::uint64_t id);

  /// Run events until the queue is empty or `deadline` is passed.
  /// Returns the number of events executed.
  std::size_t run_until(Time deadline);

  /// Run all events to quiescence (or until `max_events` as a safety bound).
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = 50'000'000);

  /// Pending (not yet fired, possibly cancelled) event count.
  [[nodiscard]] std::size_t pending() const {
    return in_wheel_ + overflow_.size();
  }

  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }

 private:
  // An id is the event's scheduling sequence number above its slot index:
  // ordering keys by id orders them by sequence, and cancel() finds the
  // slot without a lookup table. 24 slot bits allow 16M pending events; 40
  // sequence bits allow 10^12 events per scheduler.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  // The wheel: 8192 buckets of 1 us, so every message copy (0.5-5 ms by
  // default) goes straight into its bucket. It costs 33 KB per scheduler:
  // a 4-byte tail per bucket plus the bitmap.
  static constexpr Time kWheelSpan = 8192;
  static constexpr Time kBucketMask = kWheelSpan - 1;
  static constexpr std::size_t kWords = kWheelSpan / 64;  // Leaf bitmap.
  static_assert(kWords == 128, "one summary bit per two leaf words");
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr Time kNever = ~Time{0};

  struct Key {
    Time when;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };
  struct Slot {
    std::uint64_t id = 0;  // The pending event's id; 0 while free or firing.
    // The next slot of the bucket list (circular: the tail links the head).
    std::uint32_t next = kNoSlot;
    // Empty while free, firing or cancelled.
    std::variant<std::monostate, Action, Delivery> body;
  };
  enum class Step { kIdle, kDiscarded, kFired };

  /// Throw std::invalid_argument unless `when` >= now().
  void check_not_past(Time when) const;
  /// A free slot index (reused first, else a new slot).
  std::uint32_t acquire_slot();
  /// Stamp `slot` with a fresh id and queue it for `when`.
  std::uint64_t enqueue(Time when, std::uint32_t slot);
  /// Append `slot` to the bucket of `when` (inside the window).
  void push_bucket(Time when, std::uint32_t slot);
  /// Remove and return the head of the non-empty bucket `bucket`.
  std::uint32_t pop_bucket(std::uint32_t bucket);
  /// The first non-empty bucket at or after now() round the wheel (the
  /// wheel must hold an event).
  [[nodiscard]] std::uint32_t next_bucket() const;
  /// Move every heap entry that the window now covers into its bucket.
  void migrate();
  /// Take the earliest queued event if it is due by `deadline` and run it;
  /// a cancelled one is discarded (clock untouched).
  Step step(Time deadline);

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t in_wheel_ = 0;  // Events queued in the buckets.
  std::uint64_t summary_ = 0;  // Bit i: leaf word 2i or 2i+1 is non-zero.
  std::uint64_t occupied_[kWords] = {};  // Bit b: bucket b is non-empty.
  // Each bucket's tail slot, kNoSlot while empty.
  std::vector<std::uint32_t> tails_ =
      std::vector<std::uint32_t>(kWheelSpan, kNoSlot);
  // Events at or beyond the window's end: a min-heap on (when, id).
  std::vector<Key> overflow_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  SchedulerStats stats_;
};

}  // namespace asa_repro::sim
