#include "storage/cluster.hpp"

#include <algorithm>

namespace asa_repro::storage {

AsaCluster::AsaCluster(ClusterConfig config)
    : config_(config),
      rng_(config.seed),
      network_(scheduler_, sim::Rng(config.seed ^ 0x6E6574ull),
               config.latency),
      events_(config.tracing, config.flight_capacity, config.spans),
      metrics_(config.metrics),
      ring_(sim::Rng(config.seed ^ 0x72696E67ull)) {
  network_.set_drop_probability(config_.drop_probability);
  // The network records no span kind.
  if (config.tracing || config.flight_capacity > 0) {
    network_.set_recorder(&events_);
  }
  if (config_.metrics) {
    network_.set_metrics(&metrics_);
    ring_.set_metrics(&metrics_);
  }

  // Build the Chord ring and one member per node; index == NodeAddr.
  ring_.build(config_.nodes);
  spawn_counter_ = config_.nodes;
  for (const p2p::NodeId& id : ring_.node_ids()) {
    host_by_id_.emplace(id, members_.size());
    members_.emplace_back(id, 0);
    // Peer sets are located per GUID via the ring; commit peers resolve
    // them through the cluster's registry of full GUIDs (populated on first
    // client contact — an in-process stand-in for carrying the GUID in
    // every frame). rebuild_host wires that resolver.
    rebuild_host(members_.size() - 1, commit::Behaviour::kHonest);
  }
}

void AsaCluster::rebuild_host(std::size_t index,
                              commit::Behaviour behaviour) {
  const fsm::StateMachine& machine =
      machines_.machine_for(config_.replication_factor);
  Member& member = members_[index];
  // A rebuilt peer starts afresh: nothing it records joins its
  // predecessor's spans.
  if (member.host) {
    events_.end_spans(scheduler_.now(), static_cast<std::uint32_t>(index));
  }
  member.host = std::make_unique<NodeHost>(
      network_, static_cast<sim::NodeAddr>(index), machine, behaviour,
      events_.enabled() ? &events_ : nullptr);
  commit::CommitPeer& peer = member.host->peer();
  if (config_.metrics) peer.set_metrics(&metrics_);
  peer.set_peer_resolver(
      [this](std::uint64_t guid_key) -> const std::vector<sim::NodeAddr>& {
        static const std::vector<sim::NodeAddr> kUnknownGuid;
        const auto it = guid_registry_.find(guid_key);
        if (it == guid_registry_.end()) return kUnknownGuid;
        return resolve(it->second);
      });
  if (config_.abort_scan_interval > 0) {
    peer.enable_abort(config_.abort_scan_interval, config_.abort_max_age);
  }
  if (config_.durability) {
    member.log = std::make_unique<durable::DurableLog>(
        *member.medium, "node-" + std::to_string(index),
        config_.snapshot_every);
    peer.set_journal(member.log.get());
    peer.set_ack_sink(
        [this, index](std::uint64_t guid,
                      const commit::CommitPeer::CommittedEntry& e) {
          members_[index].acked.push_back({guid, e.request_id, e.payload});
        });
  }
}

NodeHost& AsaCluster::host_for_key(const p2p::NodeId& key) {
  return host(host_by_id_.at(ring_.lookup(key)));
}

sim::NodeAddr AsaCluster::addr_for_key(const p2p::NodeId& key) {
  return host_for_key(key).address();
}

std::vector<sim::NodeAddr> AsaCluster::peer_set(const Guid& guid) {
  return resolve(
      guid_registry_
          .try_emplace(guid.to_uint64(), GuidEntry{guid, kUnresolved, {}})
          .first->second);
}

const std::vector<sim::NodeAddr>& AsaCluster::resolve(GuidEntry& entry) {
  if (entry.ring_version == ring_.version()) return entry.peers;
  // Miss: the ring changed (or the memo was dropped) since the last
  // resolution. The version is stamped only once every lookup succeeded.
  entry.peers.clear();
  for (const p2p::NodeId& key :
       replica_keys(entry.guid.as_key(), config_.replication_factor)) {
    const sim::NodeAddr addr = addr_for_key(key);
    if (std::find(entry.peers.begin(), entry.peers.end(), addr) ==
        entry.peers.end()) {
      entry.peers.push_back(addr);
    }
  }
  entry.ring_version = ring_.version();
  return entry.peers;
}

void AsaCluster::forget_peer_sets() {
  for (auto& [key, entry] : guid_registry_) entry.ring_version = kUnresolved;
}

DataStoreClient& AsaCluster::data_store() {
  if (!data_store_) {
    const sim::NodeAddr addr = next_client_addr_;
    next_client_addr_ += 1'000;
    data_store_ = std::make_unique<DataStoreClient>(
        network_, addr,
        [this](const p2p::NodeId& key) { return addr_for_key(key); },
        config_.replication_factor, f(), rng_.fork());
  }
  return *data_store_;
}

VersionHistoryService& AsaCluster::version_history() {
  if (!version_history_) {
    const sim::NodeAddr addr = next_client_addr_;
    next_client_addr_ += 1'000;  // Room for per-GUID commit endpoints.
    version_history_ = std::make_unique<VersionHistoryService>(
        network_, addr, [this](const Guid& guid) { return peer_set(guid); },
        config_.replication_factor, f(), config_.retry, rng_.fork(),
        events_.spans() ? &events_ : nullptr);
    if (config_.metrics) version_history_->set_metrics(&metrics_);
  }
  return *version_history_;
}

ReplicaMaintainer& AsaCluster::maintainer() {
  if (!maintainer_) {
    maintainer_ = std::make_unique<ReplicaMaintainer>(
        [this](const p2p::NodeId& key) -> StorageNode* {
          const p2p::NodeId owner = ring_.lookup(key);
          const auto it = host_by_id_.find(owner);
          if (it == host_by_id_.end()) return nullptr;
          NodeHost& node = host(it->second);
          return network_.attached(node.address()) ? &node.store() : nullptr;
        },
        config_.replication_factor);
  }
  return *maintainer_;
}

const std::vector<commit::CommitPeer::CommittedEntry>* AsaCluster::find_donor(
    const Guid& guid) {
  const std::uint64_t key = guid.to_uint64();
  const std::vector<sim::NodeAddr> peers = peer_set(guid);

  // Deduplicate each member's history once, vote the (f+1)-agreed
  // sequence, and pick a donor whose deduplicated sequence covers it; its
  // concrete entry list (with update ids) is what newcomers adopt.
  std::vector<std::vector<std::uint64_t>> deduped;
  deduped.reserve(peers.size());
  for (sim::NodeAddr addr : peers) {
    deduped.push_back(dedup_payloads(host(addr).peer().history(key)));
  }
  const std::vector<std::uint64_t> agreed = agree_prefix(deduped, f());
  if (agreed.empty()) return nullptr;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (deduped[i].size() >= agreed.size() &&
        std::equal(agreed.begin(), agreed.end(), deduped[i].begin())) {
      return &host(peers[i]).peer().history(key);
    }
  }
  return nullptr;
}

std::size_t AsaCluster::migrate_version_history(const Guid& guid) {
  const std::uint64_t key = guid.to_uint64();
  const std::vector<commit::CommitPeer::CommittedEntry>* donor =
      find_donor(guid);
  if (donor == nullptr) return 0;

  std::size_t adopted = 0;
  for (sim::NodeAddr addr : peer_set(guid)) {
    commit::CommitPeer& peer = host(addr).peer();
    if (peer.history(key).empty() && peer.reconcile_history(key, *donor) > 0) {
      ++adopted;
    }
  }
  return adopted;
}

void AsaCluster::repair() {
  for (const Guid& guid : known_guids()) (void)migrate_version_history(guid);
  if (maintainer_) maintainer_->scan();
}

void AsaCluster::schedule_flight_sampling(sim::Time until, sim::Time every) {
  if (events_.capacity() == 0 || every == 0) return;
  // A fixed fan of one-shot events (not a self-rescheduling chain) so the
  // scheduler still quiesces once real traffic drains.
  for (sim::Time at = scheduler_.now(); at <= until; at += every) {
    scheduler_.schedule_at(at, [this] {
      events_.record(obs::EventKind::kQueueDepth, scheduler_.now(),
                     obs::EventRecorder::kClusterLane,
                     {scheduler_.pending()});
    });
  }
}

void AsaCluster::snapshot_metrics() {
  if (!config_.metrics) return;

  const sim::SchedulerStats& sched = scheduler_.stats();
  metrics_.counter("sched.events_scheduled").set(sched.scheduled);
  metrics_.counter("sched.events_executed").set(sched.executed);
  metrics_.counter("sched.events_cancelled").set(sched.cancelled);
  metrics_.counter("sched.events_discarded").set(sched.discarded);
  metrics_.gauge("sched.max_queue_depth")
      .set(static_cast<std::int64_t>(sched.max_queue_depth));
  metrics_.gauge("sim.now_us").set(static_cast<std::int64_t>(scheduler_.now()));

  const sim::NetworkStats& net = network_.stats();
  metrics_.counter("net.sent").set(net.sent);
  metrics_.counter("net.delivered").set(net.delivered);
  metrics_.counter("net.dropped").set(net.dropped);
  metrics_.counter("net.duplicated").set(net.duplicated);
  metrics_.counter("net.partitioned").set(net.partitioned);
  metrics_.counter("net.to_dead_node").set(net.to_dead_node);
  metrics_.counter("net.burst_dropped").set(net.burst_dropped);

  metrics_.gauge("churn.ring_size")
      .set(static_cast<std::int64_t>(ring_.size()));
  metrics_.gauge("churn.epoch")
      .set(static_cast<std::int64_t>(membership_epoch_));

  // Per-node commit outcomes as gauges (asareport's per-node breakdown),
  // plus cluster-wide totals as counters. Gauges adopt on merge, so a
  // campaign's aggregate holds the last seed's view per node while the
  // counters accumulate across seeds.
  std::uint64_t committed = 0, aborted = 0, dup_dropped = 0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const commit::PeerStats& s = host(i).peer().stats();
    const obs::Labels node{{"node", std::to_string(i)}};
    metrics_.gauge("peer.committed", node)
        .set(static_cast<std::int64_t>(s.committed));
    metrics_.gauge("peer.aborted", node)
        .set(static_cast<std::int64_t>(s.aborted));
    metrics_.gauge("peer.duplicates_dropped", node)
        .set(static_cast<std::int64_t>(s.duplicates_dropped));
    committed += s.committed;
    aborted += s.aborted;
    dup_dropped += s.duplicates_dropped;
  }
  metrics_.counter("peer.committed_total").set(committed);
  metrics_.counter("peer.aborted_total").set(aborted);
  metrics_.counter("peer.duplicates_dropped_total").set(dup_dropped);

  if (version_history_) {
    const commit::EndpointStats totals = version_history_->total_stats();
    metrics_.counter("endpoint.submitted").set(totals.submitted);
    metrics_.counter("endpoint.committed").set(totals.committed);
    metrics_.counter("endpoint.retries_total").set(totals.retries);
    metrics_.counter("endpoint.failures").set(totals.failures);
  }
}

std::vector<Guid> AsaCluster::known_guids() const {
  std::vector<Guid> guids;
  guids.reserve(guid_registry_.size());
  for (const auto& [key, entry] : guid_registry_) guids.push_back(entry.guid);
  return guids;
}

void AsaCluster::make_byzantine(std::size_t index,
                                commit::Behaviour behaviour) {
  // Behaviour is fixed at peer construction; rebuild the host's peer by
  // swapping the whole host. Mid-run flips therefore lose the node's
  // volatile state (block store, commit histories) — an honest member
  // turned faulty no longer participates in invariants, and a faulty
  // member replaced by an honest one recovers through the same bootstrap
  // path a restarted node uses (migrate_version_history + replica repair).
  // A flip is an identity replacement, so the durable state goes too: the
  // disk is wiped and the ack ledger cleared (acks the old identity sent
  // are not owed by the new one).
  if (config_.durability) {
    Member& member = members_[index];
    member.medium->wipe();
    member.acked.clear();
    member.last_recovery = {};
  }
  rebuild_host(index, behaviour);
}

void AsaCluster::change_membership(std::size_t index, bool joined,
                                   bool self_records) {
  forget_peer_sets();
  ring_.run_maintenance(8);
  if (!config_.durability) return;
  // Live members journal the observed membership change. These records
  // are not client-acknowledged, so they sit in the journal's unsynced
  // tail until the node's next commit (partial-flush fodder; recovery
  // re-learns membership from the ring regardless).
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if ((i == index && !self_records) || crashed(i)) continue;
    members_[i].log->record_membership(joined, index);
  }
}

void AsaCluster::crash_node(std::size_t index) {
  if (crashed(index)) return;  // Idempotent under chaos schedules.
  members_[index].host->crash();
  // Remove the node from the ring; maintenance heals routing around it.
  const p2p::NodeId& id = members_[index].id;
  if (ring_.alive(id)) ring_.fail(id);
  host_by_id_.erase(id);
  change_membership(index, /*joined=*/false, /*self_records=*/false);
}

std::size_t AsaCluster::restart_node(std::size_t index) {
  if (!crashed(index)) return 0;
  Member& member = members_[index];
  if (member.departed) return 0;  // Departed members never come back.
  // Fresh host at the old address: volatile state is lost in the crash.
  rebuild_host(index, commit::Behaviour::kHonest);
  commit::CommitPeer& peer = member.host->peer();

  // Phases 1+2 (durability): snapshot load, then journal replay with
  // torn-tail truncation and CRC-skip of corrupt records, into the
  // History the rebuilt peer shares, each GUID's then journaled again as
  // an import (in GUID order) before the peer talks to anyone.
  std::size_t recovered = 0;
  if (config_.durability) {
    durable::DurableLog& log = *member.log;
    member.last_recovery = log.recover();
    for (const std::uint64_t key : log.history().guids()) {
      if (!log.history().entries(key).empty()) (void)log.journal_history(key);
    }
    recovered = member.last_recovery.entries_recovered;
  }

  // Rejoin the Chord ring under the original id; maintenance re-routes the
  // node's keyspace back to it.
  if (!ring_.alive(member.id)) ring_.add_node(member.id);
  host_by_id_[member.id] = index;
  change_membership(index, /*joined=*/true, /*self_records=*/true);

  // Phase 3: empty members (a node whose journal was wholly lost, or a
  // replacement member) adopt the (f+1)-agreed history outright, and the
  // recovered node reconciles the delta it missed while down. Per GUID,
  // in that order: a later GUID's donor sees the earlier adoptions.
  std::size_t adopted = 0;
  std::size_t reconciled = 0;
  for (const auto& [key, entry] : guid_registry_) {
    adopted += migrate_version_history(entry.guid);
    if (config_.durability) {
      const auto* donor = find_donor(entry.guid);
      if (donor != nullptr) reconciled += peer.reconcile_history(key, *donor);
    }
  }

  if (config_.durability) {
    const durable::RecoveryStats& stats = member.last_recovery;
    member.last_recovery.reconciled = reconciled;
    if (config_.metrics) {
      metrics_.counter("recovery.replayed").inc(stats.replayed_records);
      metrics_.counter("recovery.truncated").inc(stats.truncated_bytes);
      metrics_.counter("recovery.skipped_crc").inc(stats.skipped_crc);
      metrics_.counter("recovery.reconciled").inc(reconciled);
      if (stats.snapshot_loaded) {
        metrics_.counter("recovery.snapshots_loaded").inc();
      }
    }
    events_.record(obs::EventKind::kRecovery, scheduler_.now(),
                   static_cast<std::uint32_t>(index),
                   {stats.replayed_records, stats.entries_recovered,
                    stats.truncated_bytes, stats.skipped_crc, reconciled},
                   stats.snapshot_loaded ? obs::Word::kYes : obs::Word::kNo);
  }

  // Regenerate this node's missing block replicas from intact copies.
  if (maintainer_) maintainer_->scan();
  return recovered + adopted + reconciled;
}

void AsaCluster::note_churn(obs::Word kind, std::size_t index) {
  if (config_.metrics) {
    metrics_.counter("churn." + std::string(obs::word_name(kind)) + "s").inc();
    metrics_.gauge("churn.ring_size")
        .set(static_cast<std::int64_t>(ring_.size()));
    metrics_.gauge("churn.epoch")
        .set(static_cast<std::int64_t>(membership_epoch_));
    // Ring size over time: one observation per membership change, so the
    // histogram's min/percentiles/max describe the size trajectory.
    metrics_
        .histogram("churn.ring_size_samples", {}, obs::small_count_buckets())
        .observe(ring_.size());
  }
  events_.record(obs::EventKind::kChurn, scheduler_.now(),
                 static_cast<std::uint32_t>(index),
                 {index, membership_epoch_, ring_.size()}, kind);
}

std::size_t AsaCluster::add_node() {
  const std::size_t index = members_.size();
  // Mint a fresh ring identity; the spawn counter continues past the
  // initial build's "node:<i>" sequence, so ids never collide (the loop
  // guards the astronomically unlikely hash collision too).
  p2p::NodeId id = p2p::NodeId::hash_of("node:" +
                                        std::to_string(spawn_counter_++));
  while (ring_.alive(id) || host_by_id_.contains(id)) {
    id = p2p::NodeId::hash_of("node:" + std::to_string(spawn_counter_++));
  }
  ++membership_epoch_;
  members_.emplace_back(id, membership_epoch_);
  host_by_id_.emplace(id, index);
  rebuild_host(index, commit::Behaviour::kHonest);
  ring_.add_node(id);
  change_membership(index, /*joined=*/true, /*self_records=*/false);
  // Key-range handoff to the newcomer: it adopts the (f+1)-agreed history
  // of every GUID whose peer set it just entered, and replica repair
  // re-homes tracked blocks onto it.
  repair();
  note_churn(obs::Word::kJoin, index);
  return index;
}

bool AsaCluster::remove_node(std::size_t index, bool graceful,
                             bool handoff) {
  if (index >= members_.size() || members_[index].departed) return false;
  if (crashed(index)) graceful = false;  // A dead node cannot hand off.
  Member& member = members_[index];

  // Snapshot the leaver's histories before it goes: the handoff payload.
  std::vector<std::pair<std::uint64_t,
                        std::vector<commit::CommitPeer::CommittedEntry>>>
      leaving;
  if (graceful && handoff) {
    for (const auto& [key, entry] : guid_registry_) {
      const auto& history = member.host->peer().history(key);
      if (!history.empty()) leaving.emplace_back(key, history);
    }
  }

  ++membership_epoch_;
  member.departed = true;
  member.graceful_leave = graceful;
  member.host->crash();  // Detach: in-flight traffic hits the dead sink.
  if (ring_.alive(member.id)) {
    if (graceful) {
      ring_.leave(member.id);  // Keyspace handed to the successor.
    } else {
      ring_.fail(member.id);  // Vanishes; the ring heals via maintenance.
    }
  }
  host_by_id_.erase(member.id);
  change_membership(index, /*joined=*/false, /*self_records=*/false);

  if (graceful && handoff) {
    // Data handoff: push every history the leaver held to the GUID's new
    // owners (members with no local history adopt the leaver's copy
    // verbatim — including commits only the leaver acknowledged), then
    // let the standard migration/repair paths settle the rest.
    for (auto& [key, entries] : leaving) {
      for (sim::NodeAddr addr : peer_set(guid_registry_.at(key).guid)) {
        commit::CommitPeer& peer = host(addr).peer();
        if (peer.history(key).empty()) {
          (void)peer.reconcile_history(key, entries);
        }
      }
    }
    repair();
  }
  note_churn(graceful ? obs::Word::kLeave : obs::Word::kDepart, index);
  return true;
}

}  // namespace asa_repro::storage
