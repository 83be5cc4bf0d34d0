// Discrete-event scheduler with a simulated clock.
//
// The paper's system ran on a physical network (Java/Chord); this repo
// substitutes a deterministic discrete-event simulation so that Byzantine
// fault injection, message reordering, and deadlock scenarios are exactly
// reproducible. Events fire in (time, sequence) order, so ties are broken
// by scheduling order and runs are deterministic for a fixed seed.
//
// Event layout: the binary heap holds 16-byte keys (time, id) and nothing
// else; an event's body lives in a slot of a reusable pool. A body is
// either a closure (timers, workload steps) or a typed Delivery record
// (one message copy in flight, its frame held inline), so the network's
// per-message path builds no type-erased closure and allocates nothing. A
// slot holds one body or the other, never both. Bodies are moved out of
// their slot when they fire, never copied; cancelling an event destroys
// its body at once, and a freed slot is reused by the next event.
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

  /// Schedule `action` to run at absolute time `when` (must be >= now()).
  /// Returns an id usable with cancel().
  std::uint64_t schedule_at(Time when, Action action);

  /// Schedule `action` to run `delay` after the current time.
  std::uint64_t schedule_after(Time delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Schedule one message copy for absolute time `when`; when it fires the
  /// record is handed to `delivery.network` (which must be set and outlive
  /// the event). Returns an id usable with cancel().
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
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }

 private:
  // An id is the event's scheduling sequence number above its slot index:
  // ordering keys by id orders them by sequence, and cancel() finds the
  // slot without a lookup table. 24 slot bits allow 16M pending events; 40
  // sequence bits allow 10^12 events per scheduler.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

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
    // Empty while free, firing or cancelled.
    std::variant<std::monostate, Action, Delivery> body;
  };

  /// A free slot index (reused first, else a new slot).
  std::uint32_t acquire_slot();
  /// Stamp `slot` with a fresh id and push its key.
  std::uint64_t enqueue(Time when, std::uint32_t slot);
  /// Pop the earliest event and run it; false when it was cancelled
  /// (discarded, clock untouched).
  bool fire_next();

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::vector<Key> heap_;  // Min-heap on (when, id) via Later.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  SchedulerStats stats_;
};

}  // namespace asa_repro::sim
