// Machine-checked protocol invariants over a running cluster.
//
// The paper asserts that the generated commit protocol tolerates
// f = floor((r-1)/3) Byzantine peer-set members, but never tests it. This
// checker turns the claim into executable predicates evaluated across the
// honest, live members of every GUID's peer set:
//
//  * history agreement — pairwise prefix-consistency of the committed
//    version sequences (deduplicated by request id, the same collapsing
//    rule readers apply): no two honest replicas may ever disagree on the
//    order or content of the prefix both have seen. This invariant assumes
//    protocol messages are not silently lost: under message-drop windows an
//    honest replica can miss an update's commit round entirely, abort its
//    local instance, and adopt the client's retry later than its siblings —
//    a legitimate laggard reordering that read-side (f+1)-agreement absorbs
//    but pairwise comparison would flag. Callers disable the order check
//    for lossy schedules (see check());
//  * validity — every committed payload was actually submitted by a
//    client (nothing is conjured by faulty members);
//  * no duplicate commits — no honest replica commits the same update
//    instance twice;
//  * conflicting payloads — a logical update (request id) resolves to one
//    payload everywhere, locally and across replicas;
//  * durable acks — no commit a node ever acknowledged to a client may be
//    absent from that node's current history. The cluster's ack ledger
//    (populated at acknowledgement time, surviving crashes) is the ground
//    truth; a recovered node's history is the union of its replayed
//    journal and its reconciliation delta, so this is exactly the
//    crash-consistency guarantee of the write-ahead discipline. Compared
//    by request id: a retried request re-commits under a fresh update id,
//    and either attempt discharges the acknowledgement. A request acked
//    more than once (a resent update) is one obligation, held to its
//    last acknowledged payload;
//  * handoff acks — every commit a gracefully-departed member ever
//    acknowledged must still be held by at least one live honest member
//    of the GUID's current peer set: the graceful-leave key-range handoff
//    is what carries acknowledged state out of a leaving node, and
//    suppressing it (AsaCluster::remove_node handoff=false) makes this
//    invariant fire. Abrupt departures are exempt — a vanished node had
//    no chance to hand off, and its acknowledged commits are covered by
//    replication only while departures stay within the fault budget.
//
// Membership epochs: the cluster stamps every join/leave/depart with a
// monotonically increasing epoch and records each node's joining epoch.
// History agreement stays sound across ring changes because a member that
// joined at epoch > 0 may legitimately hold only a suffix of the GUID's
// history (it bootstrapped from whatever was (f+1)-agreed at join time,
// or from a graceful leaver's handoff). For pairs involving a late
// joiner the checker therefore aligns the later joiner's first committed
// payload inside the other member's sequence and compares the overlap;
// pairs of initial members keep the strict prefix comparison.
//
// Liveness-side checks (bounded completion when faulty <= f) live in the
// chaos engine, which knows the workload's expected outcomes.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "storage/cluster.hpp"

namespace asa_repro::storage {

/// One invariant violation. `invariant` is a stable category name
/// (history-prefix, validity, duplicate-commit, conflicting-payload,
/// durable-ack, handoff-ack); `detail` is human-readable context for the
/// report.
struct Violation {
  std::string invariant;
  std::string detail;
};

class InvariantChecker {
 public:
  explicit InvariantChecker(AsaCluster& cluster) : cluster_(cluster) {}

  /// Record a client submission of `payload` (PID low-64) for `guid`.
  /// Validity is only checked once at least one submission was recorded
  /// (an untracked checker cannot know the legitimate payload set).
  void note_submitted(const Guid& guid, std::uint64_t payload);

  /// Evaluate every safety invariant across the honest, live members of
  /// each known GUID's peer set. Empty result == all invariants hold.
  /// `check_order` enables the pairwise history-prefix comparison; pass
  /// false for schedules that drop protocol messages (see file comment).
  [[nodiscard]] std::vector<Violation> check(bool check_order = true) const;

  /// The honest (non-Byzantine), attached members of `guid`'s peer set.
  [[nodiscard]] std::vector<sim::NodeAddr> honest_members(
      const Guid& guid) const;

 private:
  /// Positions into one node's ack ledger, ordered by (guid, request id,
  /// position): a GUID's records form one run, and the last record of a
  /// request's run is the one that wins. Built once per check().
  using LedgerIndex = std::vector<std::uint32_t>;

  void check_guid(const Guid& guid, bool check_order,
                  const std::vector<LedgerIndex>& ledgers,
                  std::vector<Violation>& out) const;

  AsaCluster& cluster_;
  std::map<std::uint64_t, std::set<std::uint64_t>> submitted_;
};

}  // namespace asa_repro::storage
