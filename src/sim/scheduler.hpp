// Discrete-event scheduler with a simulated clock.
//
// The paper's system ran on a physical network (Java/Chord); this repo
// substitutes a deterministic discrete-event simulation so that Byzantine
// fault injection, message reordering, and deadlock scenarios are exactly
// reproducible. Events fire in (time, sequence) order, so ties are broken
// by scheduling order and runs are deterministic for a fixed seed.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

namespace asa_repro::sim {

/// Simulated time in microseconds.
using Time = std::uint64_t;

/// Scheduler-level statistics (always on: a handful of integer updates per
/// event, snapshotted into the metrics registry at export time).
struct SchedulerStats {
  std::uint64_t scheduled = 0;        // schedule_at/schedule_after calls.
  std::uint64_t executed = 0;         // Actions actually run.
  std::uint64_t cancelled = 0;        // cancel() calls registered.
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
  std::uint64_t schedule_at(Time when, Action action) {
    const std::uint64_t id = next_id_++;
    queue_.push(Event{when, id, std::move(action)});
    ++stats_.scheduled;
    if (queue_.size() > stats_.max_queue_depth) {
      stats_.max_queue_depth = queue_.size();
    }
    return id;
  }

  /// Schedule `action` to run `delay` after the current time.
  std::uint64_t schedule_after(Time delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Cancel a pending event. Cancelling an already-fired or unknown id is a
  /// harmless no-op (common for timeout events raced by completions).
  void cancel(std::uint64_t id) {
    if (cancelled_.insert(id).second) ++stats_.cancelled;
  }

  /// Run events until the queue is empty or `deadline` is passed.
  /// Returns the number of events executed.
  std::size_t run_until(Time deadline);

  /// Run all events to quiescence (or until `max_events` as a safety bound).
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = 50'000'000);

  /// Pending (not yet fired, possibly cancelled) event count.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }

 private:
  struct Event {
    Time when;
    std::uint64_t id;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };

  bool is_cancelled(std::uint64_t id);

  Time now_ = 0;
  std::uint64_t next_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  // Cancelled-but-not-yet-fired ids. O(1) lookup/erase: endpoint retry
  // timers make cancel-then-fire a hot path under chaos fault load, where
  // the former linear scan was quadratic in outstanding timeouts.
  std::unordered_set<std::uint64_t> cancelled_;
  SchedulerStats stats_;
};

}  // namespace asa_repro::sim
