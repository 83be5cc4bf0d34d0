// The integrated ASA cluster simulation (paper Fig 1's stack, in one box).
//
// Wires together every substrate: a discrete-event scheduler and lossy
// network, a Chord ring locating replica nodes, one member record per
// participant (ring id, NodeHost = block store + commit peer, the
// journal attached to that peer, its disk and ack ledger), and
// client-side services (data store, version history with the BFT commit
// protocol, replica maintenance). Every membership change (crash,
// restart, join, leave) goes through one routine, and repair after it
// through repair(). Examples, integration tests and protocol benches
// build on this.
//
// Address plan: hosts occupy [0, n); client services are allocated from
// kClientAddrBase upward, with a sub-range per service for the commit
// endpoints it spawns.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "commit/machine_cache.hpp"
#include "durable/durable_log.hpp"
#include "durable/storage_medium.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "p2p/chord.hpp"
#include "sim/network.hpp"
#include "storage/data_store.hpp"
#include "storage/maintenance.hpp"
#include "storage/node_host.hpp"
#include "storage/version_history.hpp"

namespace asa_repro::storage {

struct ClusterConfig {
  std::size_t nodes = 16;
  std::uint32_t replication_factor = 4;  // r; f = floor((r-1)/3).
  std::uint64_t seed = 42;
  sim::LatencyModel latency{};
  double drop_probability = 0.0;
  commit::RetryPolicy retry{};
  bool tracing = false;
  /// Enable the metrics registry: live histograms (per-link latency, commit
  /// lifecycle, route hops) plus a snapshot of every layer's flat stats at
  /// snapshot_metrics() time. Off by default: components see a disabled
  /// registry and instrumentation costs one pointer test per event.
  bool metrics = false;
  /// When non-zero, every peer (including ones rebuilt by fault injection
  /// or restart) aborts stalled commit instances: scan every
  /// `abort_scan_interval`, abort instances older than `abort_max_age`.
  sim::Time abort_scan_interval = 0;
  sim::Time abort_max_age = 0;
  /// Give every node a durable write-ahead journal on an in-memory medium
  /// (write-ahead discipline: a commit is journaled before it is
  /// acknowledged) and make restart_node recover by snapshot load +
  /// journal replay + peer reconciliation instead of a pure f+1
  /// bootstrap. Journaling is synchronous (no scheduler events), so the
  /// event timeline is identical with the flag on or off.
  bool durability = true;
  /// Minimum cadence of a node's snapshots, in commit records (0 disables
  /// snapshots). A snapshot also waits for the journal to reach the last
  /// snapshot's size (see durable_log.hpp).
  std::size_t snapshot_every = 64;
  /// Per-node capacity of the flight recorder (recent structured events:
  /// message fates, commit-instance phases, journal appends/replays,
  /// queue-depth samples). 0 (default) disables it entirely — components
  /// see a null recorder and pay one pointer test per event.
  std::size_t flight_capacity = 0;
  /// Record commit-path spans (root commit / attempt on the endpoint side,
  /// vote-collect / quorum with journal-append & ack-sent points on the
  /// peer side) in the event recorder's span view. Off by default.
  bool spans = false;
};

class AsaCluster {
 public:
  static constexpr sim::NodeAddr kClientAddrBase = 1'000'000;

  explicit AsaCluster(ClusterConfig config);

  AsaCluster(const AsaCluster&) = delete;
  AsaCluster& operator=(const AsaCluster&) = delete;

  [[nodiscard]] sim::Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] sim::Network& network() { return network_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  /// The event recorder: its trace view keeps every event when `tracing`
  /// is on, its flight view the last `flight_capacity` per lane.
  [[nodiscard]] obs::EventRecorder& events() { return events_; }
  /// The same recorder, named for its flight view (to_json()).
  [[nodiscard]] obs::EventRecorder& flight() { return events_; }
  /// The same recorder, named for its span view (obs::write_spans_json).
  [[nodiscard]] obs::EventRecorder& spans() { return events_; }
  [[nodiscard]] p2p::ChordRing& ring() { return ring_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t f() const {
    return (config_.replication_factor - 1) / 3;
  }

  [[nodiscard]] std::size_t node_count() const { return members_.size(); }
  [[nodiscard]] NodeHost& host(std::size_t index) {
    return *members_[index].host;
  }

  /// The host responsible for a ring key (via Chord lookup).
  [[nodiscard]] NodeHost& host_for_key(const p2p::NodeId& key);
  [[nodiscard]] sim::NodeAddr addr_for_key(const p2p::NodeId& key);

  /// Network addresses of the peer set for a GUID (one per replica key; a
  /// small ring may repeat addresses — deduplicated, preserving order).
  /// Registers the GUID. The set is a function of the ring (paper section
  /// 2.2: members adjust their views "as the topology of the P2P network
  /// changes"), so it is memoised per GUID against ring().version() and the
  /// r Chord lookups run again only after the ring has changed.
  [[nodiscard]] std::vector<sim::NodeAddr> peer_set(const Guid& guid);

  /// Drop every memoised peer set; the next resolution of each GUID walks
  /// the ring again. Answers are identical either way, only the cost
  /// differs. The membership methods call it next to their edits of the
  /// ring-id -> host map, the memo's one input besides the ring itself.
  void forget_peer_sets();

  /// Client services (constructed lazily, one each).
  [[nodiscard]] DataStoreClient& data_store();
  [[nodiscard]] VersionHistoryService& version_history();
  [[nodiscard]] ReplicaMaintainer& maintainer();

  /// Background membership maintenance for one GUID (paper section 2.2:
  /// peer-set members "adjust their views of the set membership as the
  /// topology of the P2P network changes" and faulty members are replaced):
  /// recomputes the peer set via the routing layer and bootstraps members
  /// with no local history from the (f+1)-agreed history of the others.
  /// Returns the number of members that adopted a history.
  std::size_t migrate_version_history(const Guid& guid);

  /// Every GUID a client has touched (registered via peer_set()).
  [[nodiscard]] std::vector<Guid> known_guids() const;

  /// The repair pass after a membership change: migrate_version_history
  /// for every known GUID, then a replica scan if a maintainer exists.
  /// Joins, graceful handoffs and chaos replacements/departures enter here.
  void repair();

  // ---- Membership churn (true ring changes, not crash/restart). ----

  /// A brand-new member joins the Chord ring mid-run: a fresh host (new
  /// ring id, new address == new index), ring join with maintenance, and
  /// key-range handoff — the newcomer adopts the (f+1)-agreed history of
  /// every GUID it now serves and replica repair re-homes tracked blocks.
  /// Safe while commits are in flight: in-flight instances settle against
  /// the old peer set; client retries resolve the new one. Bumps the
  /// membership epoch. Returns the new node's index.
  std::size_t add_node();

  /// A member leaves the ring for good (indices are never reused; the
  /// departed slot stays allocated but permanently detached).
  ///
  /// graceful: hand keyspace to the ring successor AND hand off data —
  /// every history the leaver holds is pushed to the GUID's new owners
  /// before departure, so acknowledged commits survive even when the
  /// leaver was the last member holding them. abrupt (graceful=false):
  /// vanish without notice; survivors re-replicate what they can.
  ///
  /// `handoff=false` suppresses the data handoff on a graceful leave (the
  /// ring part stays graceful) — the counterfactual that demonstrates the
  /// handoff, not luck, carries state through churn.
  ///
  /// Bumps the membership epoch. Returns false when the index is invalid
  /// or already departed.
  bool remove_node(std::size_t index, bool graceful, bool handoff = true);

  /// True when the node has permanently left the ring via remove_node.
  [[nodiscard]] bool departed(std::size_t index) const {
    return members_[index].departed;
  }
  /// True when the node departed via a graceful leave (with or without
  /// data handoff).
  [[nodiscard]] bool departed_gracefully(std::size_t index) const {
    return members_[index].graceful_leave;
  }
  /// Monotonic membership-change counter: bumped by every add_node and
  /// remove_node. Epoch 0 is the initial membership.
  [[nodiscard]] std::uint64_t membership_epoch() const {
    return membership_epoch_;
  }
  /// The epoch at which the node joined (0 for initial members).
  [[nodiscard]] std::uint64_t joined_epoch(std::size_t index) const {
    return members_[index].joined_epoch;
  }

  // ---- Fault injection. ----
  void make_byzantine(std::size_t index, commit::Behaviour behaviour);
  void corrupt_node(std::size_t index) {
    host(index).store().set_corrupt(true);
  }
  /// The node's History stays readable until restart_node rebuilds it.
  void crash_node(std::size_t index);

  /// Recovery path for a crashed node (paper section 2.2: "background
  /// processes ... replace faulty nodes"). With durability on this is a
  /// three-phase recovery: (1) snapshot load + (2) journal replay with
  /// torn-tail truncation and CRC-skip of corrupt records seed the rebuilt
  /// node's histories from its own medium, then (3) f+1 peer
  /// reconciliation adopts only the delta the node missed while down.
  /// With durability off (or a lost journal) the node restarts empty and
  /// falls back to the pure f+1 bootstrap. Either way the node rejoins
  /// the Chord ring under its original id and replica repair runs for
  /// tracked blocks. Returns history entries recovered from the journal
  /// plus entries/histories adopted from peers cluster-wide.
  /// No-op (returns 0) when the node is not crashed.
  std::size_t restart_node(std::size_t index);

  // ---- Durability (see src/durable/). ----

  /// One kCommitted acknowledgement a node sent.
  struct AckRecord {
    std::uint64_t guid;
    std::uint64_t request_id;
    std::uint64_t payload;
  };
  /// Acknowledged commits per node, one record per acknowledgement in the
  /// order they were sent (a resent update acknowledged again appends
  /// again; for a (guid, request id) the last record wins). Appended by
  /// the ack sink at the moment a node sends a kCommitted
  /// acknowledgement, and deliberately kept OUTSIDE the node (it survives
  /// crashes): it is the ground truth the durable-ack invariant checks
  /// recovered nodes against.
  using AckLedger = std::vector<AckRecord>;

  /// The node's simulated disk. Persists across crash/restart; the chaos
  /// engine injects torn writes, stalls, capacity limits and bit-rot here.
  [[nodiscard]] durable::MemMedium& medium(std::size_t index) {
    return *members_[index].medium;
  }
  /// The node's journal, or nullptr when durability is disabled.
  [[nodiscard]] durable::DurableLog* durable_log(std::size_t index) {
    return members_[index].log.get();
  }
  [[nodiscard]] const AckLedger& acked_commits(std::size_t index) const {
    return members_[index].acked;
  }
  /// What the node's most recent restart recovered (zero-initialised
  /// until the first restart).
  [[nodiscard]] const durable::RecoveryStats& last_recovery(
      std::size_t index) const {
    return members_[index].last_recovery;
  }

  /// True when the node is detached from the network (crashed).
  [[nodiscard]] bool crashed(std::size_t index) const {
    return !network_.attached(members_[index].host->address());
  }
  /// The node's current commit-protocol behaviour.
  [[nodiscard]] commit::Behaviour behaviour(std::size_t index) const {
    return members_[index].host->peer().behaviour();
  }

  /// Run the simulation until quiescent or for a bounded number of events.
  std::size_t run(std::size_t max_events = 10'000'000) {
    return scheduler_.run(max_events);
  }
  std::size_t run_for(sim::Time duration) {
    return scheduler_.run_until(scheduler_.now() + duration);
  }

  /// Sample the scheduler's queue depth into the flight recorder's cluster
  /// lane every `every` microseconds until `until` (inclusive start at the
  /// current time). Horizon-bounded by design: a self-rescheduling sampler
  /// would keep the scheduler from ever going quiescent. No-op when the
  /// flight recorder is disabled.
  void schedule_flight_sampling(sim::Time until, sim::Time every);

  /// Mirror every layer's always-on flat stats into the metrics registry:
  /// scheduler and network totals as counters, per-node peer outcomes as
  /// gauges, endpoint totals as counters. Idempotent (gauges adopt, counter
  /// series are set to the current totals); call once after a run, before
  /// obs::write_metrics_json. No-op when metrics are disabled.
  void snapshot_metrics();

 private:
  ClusterConfig config_;
  sim::Scheduler scheduler_;
  sim::Rng rng_;
  sim::Network network_;
  obs::EventRecorder events_;
  obs::MetricsRegistry metrics_;
  /// One node for life (indices are never reused: a departed member keeps
  /// its detached record and its ack ledger).
  struct Member {
    Member(const p2p::NodeId& ring_id, std::uint64_t epoch)
        : id(ring_id), joined_epoch(epoch) {}
    p2p::NodeId id;  // Ring id.
    std::unique_ptr<durable::MemMedium> medium =  // Survives crashes.
        std::make_unique<durable::MemMedium>();
    std::unique_ptr<durable::DurableLog> log;  // Outlives `host`'s peer.
    std::unique_ptr<NodeHost> host;
    AckLedger acked;  // Outside the host: survives crashes.
    durable::RecoveryStats last_recovery{};
    bool departed = false;        // Permanently left via remove_node.
    bool graceful_leave = false;  // Departed via graceful leave.
    std::uint64_t joined_epoch = 0;  // 0 for initial members.
  };

  /// Build a fresh host at `index`'s address with the given behaviour and
  /// wire its peer resolver (shared by construction, fault flips, restart).
  /// With durability on, a fresh DurableLog over the node's (persistent)
  /// medium is wired in too — the log is unaware of any existing journal
  /// bytes until recover() is called, so restart_node MUST recover before
  /// the scheduler runs.
  void rebuild_host(std::size_t index, commit::Behaviour behaviour);

  /// After every ring edit: drop the peer-set memo, run ring maintenance
  /// and journal the change on every live member — `index` itself only
  /// when `self_records` (a restarted node notes its rejoin, a newcomer
  /// not its join; crashed and departed nodes never record).
  void change_membership(std::size_t index, bool joined, bool self_records);

  /// Donor entry list covering the f+1-agreed history for `guid`, or
  /// nullptr when nothing is agreed / no member covers it.
  [[nodiscard]] const std::vector<commit::CommitPeer::CommittedEntry>*
  find_donor(const Guid& guid);

  /// Record a membership change: churn counters, ring-size gauge and
  /// over-time samples, epoch gauge, trace/flight events.
  void note_churn(obs::Word kind, std::size_t index);

  static constexpr std::uint64_t kUnresolved = ~std::uint64_t{0};

  /// A GUID a client has touched, with its peer set as resolved at ring
  /// version `ring_version` (kUnresolved: never, or since forgotten).
  /// Entries are keyed by the GUID's low 64 bits, the only part commit
  /// frames carry; the first GUID registered under a key owns the entry.
  struct GuidEntry {
    Guid guid;
    std::uint64_t ring_version = kUnresolved;
    std::vector<sim::NodeAddr> peers;
  };

  /// The entry's peer set, re-resolved through the ring only when the ring
  /// version moved since it was last computed.
  const std::vector<sim::NodeAddr>& resolve(GuidEntry& entry);

  p2p::ChordRing ring_;
  commit::MachineCache machines_;
  std::vector<Member> members_;  // By index == network address.
  std::uint64_t membership_epoch_ = 0;
  std::size_t spawn_counter_ = 0;  // Next "node:<i>" identity to mint.
  std::map<p2p::NodeId, std::size_t> host_by_id_;
  std::map<std::uint64_t, GuidEntry> guid_registry_;  // Keyed by low 64 bits.
  std::unique_ptr<DataStoreClient> data_store_;
  std::unique_ptr<VersionHistoryService> version_history_;
  std::unique_ptr<ReplicaMaintainer> maintainer_;
  sim::NodeAddr next_client_addr_ = kClientAddrBase;
};

}  // namespace asa_repro::storage
