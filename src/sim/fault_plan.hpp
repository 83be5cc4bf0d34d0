// A fault plan: a serialisable timeline of fault events executed on the
// scheduler mid-run.
//
// Before this layer existed, faults could only be configured once, before
// the simulation started (static Byzantine membership, a fixed drop rate).
// A FaultPlan instead describes *when* each fault is injected and healed —
// crash and restart, directed partitions, loss/duplication rate changes,
// Byzantine behaviour flips, block corruption — so adversarial schedules
// can hit the protocol mid-flight, which is where BFT bugs live.
//
// The plan is pure data: it names nodes by index and carries no references
// into any particular simulation, so the same plan can be generated,
// mutated (delta-debugging), serialised into a replay file, parsed back and
// re-executed deterministically. storage::run_plan executes a plan,
// mapping each event onto concrete cluster operations (apply_fault in
// chaos.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/scheduler.hpp"

namespace asa_repro::sim {

/// kByzantine's behaviour words, in commit::Behaviour order: the commit
/// layer sits above sim and converts a word by its position here.
inline constexpr std::array<std::string_view, 4> kBehaviours = {
    "honest", "crash", "equivocator", "withholder"};

/// One scheduled fault event. `node`/`peer` are cluster node indices;
/// which fields are meaningful depends on `kind`.
struct FaultEvent {
  enum class Kind {
    kCrash,      // node: fail-stop, detach from the network.
    kRestart,    // node: re-attach, rejoin ring, bootstrap state.
    kPartition,  // node <-> peer: sever the link bidirectionally.
    kHeal,       // node <-> peer: restore the link.
    kDropRate,   // rate: set the network message-loss probability.
    kDupRate,    // rate: set the network duplication probability.
    kByzantine,  // node, behaviour: flip commit behaviour mid-run
                 //   ("honest" models replacing the faulty member).
    kCorrupt,    // node: serve tampered bytes AND damage blocks at rest.
    kUncorrupt,  // node: stop tampering (at-rest damage stays until
                 //   repaired by maintenance).
    // ---- Durability faults (the node's simulated disk). ----
    kTornWrite,  // node: arm a one-shot torn write — the next journal
                 //   append persists only a prefix and fails.
    kFlushDrop,  // node, arg: drop up to `arg` whole records from the
                 //   journal's unsynced tail (un-fsynced page cache lost;
                 //   never cuts acknowledged commits).
    kBitRot,     // node, arg: XOR-flip one journal byte at offset
                 //   arg % journal_size.
    kDiskStall,  // node: the disk refuses every write until kDiskOk.
    kDiskFull,   // node, arg: cap the disk at used + arg spare bytes.
    kDiskOk,     // node: heal the disk — clear stall and capacity cap.
    // ---- Membership churn (true ring changes, not crash/restart). ----
    kJoin,       // node: a brand-new member joins the ring (the index is
                 //   informational — executors append at the next free
                 //   slot and bootstrap it with key-range handoff).
    kLeave,      // node: graceful departure — hand off histories to the
                 //   new key-range owners, then leave the ring.
    kDepart,     // node: abrupt departure — vanish without handoff.
    // ---- Per-link WAN adversity. ----
    kLinkProfile,  // node <-> peer, behaviour: install the link_profile
                   //   class it names on both directions of the link;
                   //   "default" restores network defaults.
  };

  Time at = 0;
  Kind kind = Kind::kCrash;
  std::uint32_t node = 0;
  std::uint32_t peer = 0;       // kPartition/kHeal/kLinkProfile only.
  std::uint32_t arg = 0;        // kFlushDrop/kBitRot/kDiskFull only.
  double rate = 0.0;            // kDropRate/kDupRate only.
  std::string behaviour{};      // kByzantine: a kBehaviours word.
                                // kLinkProfile: a link_profile name.

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;

  /// One-line wire form, e.g. "120000 partition 3 7": the time, then the
  /// kind's name and operands from the kind table that parse reads too.
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static std::optional<FaultEvent> parse(
      const std::string& line);
};

/// A timeline of fault events. Events execute in (time, insertion) order —
/// the same tie-break rule as the scheduler, so a plan replays identically.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<FaultEvent> events)
      : events_(std::move(events)) {}

  void add(FaultEvent event) { events_.push_back(std::move(event)); }
  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Stable-sort by time (insertion order breaks ties).
  void sort_by_time();

  /// A copy without the events at the given (sorted ascending) positions —
  /// the delta-debugging primitive.
  [[nodiscard]] FaultPlan without(const std::vector<std::size_t>& positions)
      const;

  /// Text form: one serialised event per line.
  [[nodiscard]] std::string serialize() const;

  /// Parse the text form. Returns nullopt on any malformed line.
  [[nodiscard]] static std::optional<FaultPlan> parse(
      const std::string& text);

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::vector<FaultEvent> events_;
};

std::ostream& operator<<(std::ostream& out, const FaultPlan& plan);

}  // namespace asa_repro::sim
