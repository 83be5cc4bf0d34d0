#include "commit/peer.hpp"

#include <cassert>

#include "commit/commit_model.hpp"

namespace asa_repro::commit {

namespace {

const std::vector<CommitPeer::CommittedEntry> kEmptyHistory;

}  // namespace

std::vector<CommitPeer::Action> CommitPeer::translate_actions(
    const fsm::CompiledMachine& machine) {
  std::vector<Action> kinds;
  kinds.reserve(machine.action_names().size());
  for (const std::string& name : machine.action_names()) {
    kinds.push_back(name == kActionVote      ? Action::kVote
                    : name == kActionCommit  ? Action::kCommit
                    : name == kActionFree    ? Action::kFree
                    : name == kActionNotFree ? Action::kNotFree
                                             : Action::kNone);
  }
  return kinds;
}

CommitPeer::CommitPeer(sim::Network& network, sim::NodeAddr self,
                       std::vector<sim::NodeAddr> peers,
                       const fsm::StateMachine& machine, Behaviour behaviour,
                       sim::Trace* trace, bool attach_to_network)
    : network_(network),
      self_(self),
      peers_(std::move(peers)),
      compiled_(fsm::CompiledMachine::compile(machine)),
      actions_(translate_actions(compiled_)),
      behaviour_(behaviour),
      trace_(trace) {
  if (attach_to_network) {
    network_.attach(self_,
                    [this](sim::NodeAddr from, const std::string& data) {
                      handle(from, data);
                    });
  }
}

const std::vector<CommitPeer::CommittedEntry>& CommitPeer::history(
    std::uint64_t guid) const {
  const auto it = guids_.find(guid);
  return it == guids_.end() ? kEmptyHistory : it->second.committed;
}

bool CommitPeer::import_history(std::uint64_t guid,
                                std::vector<CommittedEntry> entries) {
  GuidContext& ctx = guids_[guid];
  if (!ctx.committed.empty()) return false;
  ctx.committed = std::move(entries);
  // The imported updates are settled; make sure late protocol traffic for
  // them is absorbed rather than re-run.
  for (const CommittedEntry& e : ctx.committed) {
    ctx.instances.erase(e.update_id);
  }
  if (import_sink_) import_sink_(guid, ctx.committed);
  return true;
}

std::size_t CommitPeer::reconcile_history(
    std::uint64_t guid, const std::vector<CommittedEntry>& donor) {
  GuidContext& ctx = guids_[guid];
  std::set<std::uint64_t> donor_ids;
  for (const CommittedEntry& e : donor) donor_ids.insert(e.update_id);
  std::set<std::uint64_t> local_ids;
  for (const CommittedEntry& e : ctx.committed) {
    local_ids.insert(e.update_id);
  }
  // Donor order is authoritative (it is the f+1-agreed order); entries
  // only this node has — e.g. commits beyond the agreed prefix that
  // survived in its journal — keep their local order at the tail.
  std::vector<CommittedEntry> merged = donor;
  for (const CommittedEntry& e : ctx.committed) {
    if (!donor_ids.contains(e.update_id)) merged.push_back(e);
  }
  if (merged == ctx.committed) return 0;  // Already converged.
  std::size_t adopted = 0;
  for (const CommittedEntry& e : donor) {
    if (!local_ids.contains(e.update_id)) ++adopted;
  }
  ctx.committed = std::move(merged);
  for (const CommittedEntry& e : ctx.committed) {
    ctx.instances.erase(e.update_id);
    ctx.settled.insert(e.update_id);
  }
  if (import_sink_) import_sink_(guid, ctx.committed);
  // A pure reorder adopts no new entries but still rewrote the history.
  return adopted > 0 ? adopted : 1;
}

std::size_t CommitPeer::live_instances(std::uint64_t guid) const {
  const auto it = guids_.find(guid);
  if (it == guids_.end()) return 0;
  std::size_t n = 0;
  for (const auto& [uid, inst] : it->second.instances) {
    if (!inst.fsm.finished()) ++n;
  }
  return n;
}

std::size_t CommitPeer::resident_instances(std::uint64_t guid) const {
  const auto it = guids_.find(guid);
  return it == guids_.end() ? 0 : it->second.instances.size();
}

std::size_t CommitPeer::collect_finished() {
  std::size_t released = 0;
  for (auto& [guid, ctx] : guids_) {
    for (auto it = ctx.instances.begin(); it != ctx.instances.end();) {
      Instance& inst = it->second;
      // Only fully processed instances are collectable: finished, recorded,
      // and with no completion notification still owed to a client.
      if (inst.fsm.finished() && inst.recorded &&
          !inst.client.has_value()) {
        ctx.settled.insert(it->first);
        it = ctx.instances.erase(it);
        ++released;
      } else {
        ++it;
      }
    }
  }
  return released;
}

void CommitPeer::handle(sim::NodeAddr from, const std::string& data) {
  const std::optional<WireMessage> msg = WireMessage::parse(data);
  if (!msg.has_value()) return;  // Garbage frame: drop.

  switch (behaviour_) {
    case Behaviour::kCrash:
      return;  // Fail-stop: no reaction at all.
    case Behaviour::kEquivocator:
      handle_equivocator(*msg);
      return;
    case Behaviour::kHonest:
    case Behaviour::kWithholder:
      handle_honest(from, *msg);
      return;
  }
}

void CommitPeer::handle_equivocator(const WireMessage& msg) {
  // A Byzantine member that votes and commits for everything it hears
  // about, regardless of protocol state. This maximises the misleading
  // messages honest members can receive from one faulty node.
  if (msg.kind == WireMessage::Kind::kCommitted) return;
  if (!equivocated_.insert(msg.key()).second) return;
  WireMessage out = msg;
  out.kind = WireMessage::Kind::kVote;
  broadcast(out);
  out.kind = WireMessage::Kind::kCommit;
  broadcast(out);
}

CommitPeer::Instance& CommitPeer::instance(GuidContext& ctx,
                                           std::uint64_t guid,
                                           std::uint64_t update_id,
                                           const WireMessage& msg) {
  const auto it = ctx.instances.find(update_id);
  if (it != ctx.instances.end()) {
    Instance& inst = it->second;
    if (inst.request_id == 0) inst.request_id = msg.request_id;
    if (inst.payload == 0) inst.payload = msg.payload;
    return inst;
  }
  auto [pos, inserted] = ctx.instances.emplace(
      update_id,
      Instance{fsm::CompiledInstance(compiled_), msg.request_id, msg.payload,
               {}, {}, std::nullopt, network_.scheduler().now(), false});
  Instance& inst = pos->second;
  // The abstract model's start state assumes the node is free; if another
  // update already holds the node lock for this GUID, lock the new machine
  // immediately (this is how could_choose is initialised in deployment).
  if (ctx.chosen_update.has_value() && *ctx.chosen_update != update_id) {
    (void)inst.fsm.deliver(kNotFree);
  }
  if (trace_ != nullptr) {
    trace_->record(network_.scheduler().now(), self_, "instance",
                   "guid=" + std::to_string(guid) +
                       " update=" + std::to_string(update_id) + " created");
  }
  if (metrics_ != nullptr) {
    metrics_
        ->counter("commit.instances_opened",
                  {{"node", std::to_string(self_)}})
        .inc();
  }
  if (spans_ != nullptr) {
    inst.vote_span =
        spans_->open("vote-collect", 0, self_, std::to_string(guid),
                     inst.request_id, update_id, inst.created);
  }
  if (flight_ != nullptr) {
    flight_->record(network_.scheduler().now(), self_, "commit.instance",
                    "guid=" + std::to_string(guid) +
                        " update=" + std::to_string(update_id) +
                        " request=" + std::to_string(inst.request_id));
  }
  arm_abort_scan();  // Watch the new instance for stalls, if enabled.
  return inst;
}

void CommitPeer::handle_honest(sim::NodeAddr from, const WireMessage& msg) {
  GuidContext& ctx = guids_[msg.guid];
  if (ctx.settled.contains(msg.update_id)) {
    // Late traffic for a garbage-collected update: absorb it; re-confirm a
    // resent update request (the original notification may have been lost).
    if (msg.kind == WireMessage::Kind::kUpdate) {
      network_.send(self_, from,
                    WireMessage{WireMessage::Kind::kCommitted, msg.guid,
                                msg.update_id, msg.request_id, msg.payload}
                        .serialize());
    }
    return;
  }
  if (trace_ != nullptr && msg.kind != WireMessage::Kind::kCommitted) {
    const char* kind = msg.kind == WireMessage::Kind::kUpdate ? "update"
                       : msg.kind == WireMessage::Kind::kVote ? "vote"
                                                              : "commit";
    trace_->record(network_.scheduler().now(), self_, "recv",
                   std::string(kind) + " from=" + std::to_string(from) +
                       " update=" + std::to_string(msg.update_id));
  }
  switch (msg.kind) {
    case WireMessage::Kind::kUpdate: {
      ++stats_.updates_received;
      Instance& inst = instance(ctx, msg.guid, msg.update_id, msg);
      inst.client = from;
      deliver(ctx, msg.guid, msg.update_id, kUpdate);
      // A resent update for an already-finished attempt still deserves a
      // completion notification (the original may have been lost).
      check_finished(ctx, msg.guid, msg.update_id);
      break;
    }
    case WireMessage::Kind::kVote: {
      ++stats_.votes_received;
      Instance& inst = instance(ctx, msg.guid, msg.update_id, msg);
      if ((hardening_.drop_self && from == self_) ||
          (!inst.voters.insert(from).second && hardening_.dedup_protocol)) {
        ++stats_.duplicates_dropped;  // One vote per member per update.
        break;
      }
      deliver(ctx, msg.guid, msg.update_id, kVote);
      break;
    }
    case WireMessage::Kind::kCommit: {
      ++stats_.commits_received;
      Instance& inst = instance(ctx, msg.guid, msg.update_id, msg);
      if ((hardening_.drop_self && from == self_) ||
          (!inst.committers.insert(from).second &&
           hardening_.dedup_protocol)) {
        ++stats_.duplicates_dropped;
        break;
      }
      deliver(ctx, msg.guid, msg.update_id, kCommit);
      break;
    }
    case WireMessage::Kind::kCommitted:
      break;  // Peers ignore client notifications.
  }
}

void CommitPeer::deliver(GuidContext& ctx, std::uint64_t guid,
                         std::uint64_t update_id, fsm::MessageId message) {
  local_queue_.emplace_back(update_id, message);
  if (!draining_) run_queue(ctx, guid);
}

void CommitPeer::run_queue(GuidContext& ctx, std::uint64_t guid) {
  // All entries queued while draining refer to sibling instances of the
  // same GUID: internal free/not_free fan-out never crosses GUIDs.
  draining_ = true;
  while (!local_queue_.empty()) {
    const auto [update_id, message] = local_queue_.front();
    local_queue_.pop_front();
    const auto it = ctx.instances.find(update_id);
    if (it == ctx.instances.end()) continue;
    execute_actions(ctx, guid, update_id, it->second.fsm.deliver(message));
    check_finished(ctx, guid, update_id);
  }
  draining_ = false;
}

void CommitPeer::broadcast(const WireMessage& msg) {
  const std::vector<sim::NodeAddr> resolved =
      resolver_ ? resolver_(msg.guid) : peers_;
  for (sim::NodeAddr peer : resolved) {
    if (peer == self_) continue;
    if (behaviour_ == Behaviour::kWithholder &&
        (msg.kind == WireMessage::Kind::kVote ||
         msg.kind == WireMessage::Kind::kCommit)) {
      // Send protocol messages only to the lower half of the peer set,
      // giving different members inconsistent views.
      std::size_t rank = 0;
      for (std::size_t i = 0; i < resolved.size(); ++i) {
        if (resolved[i] < peer) ++rank;
      }
      if (rank >= resolved.size() / 2) continue;
    }
    network_.send(self_, peer, msg.serialize());
  }
}

void CommitPeer::execute_actions(GuidContext& ctx, std::uint64_t guid,
                                 std::uint64_t update_id,
                                 fsm::CompiledInstance::Delivery delivery) {
  Instance& inst = ctx.instances.at(update_id);
  // The ids point into compiled_'s arena, which no action below touches.
  for (std::uint32_t i = 0; i < delivery.count; ++i) {
    const Action action = actions_[delivery.ids[i]];
    if (action == Action::kVote) {
      ++stats_.votes_sent;
      broadcast({WireMessage::Kind::kVote, guid, update_id, inst.request_id,
                 inst.payload});
    } else if (action == Action::kCommit) {
      ++stats_.commits_sent;
      // Phase boundary: the vote collected enough siblings to choose this
      // update; everything from here to the recorded commit is the quorum
      // phase.
      if (spans_ != nullptr) {
        const sim::Time now = network_.scheduler().now();
        if (spans_->is_open(inst.vote_span)) {
          spans_->close(inst.vote_span, now, true);
        }
        if (inst.quorum_span == 0) {
          inst.quorum_span =
              spans_->open("quorum", 0, self_, std::to_string(guid),
                           inst.request_id, update_id, now);
        }
      }
      broadcast({WireMessage::Kind::kCommit, guid, update_id,
                 inst.request_id, inst.payload});
    } else if (action == Action::kNotFree) {
      ctx.chosen_update = update_id;
      // not_free never triggers further actions, so queued delivery is safe.
      for (auto& [uid, sibling] : ctx.instances) {
        if (uid == update_id || sibling.fsm.finished()) continue;
        local_queue_.emplace_back(uid, kNotFree);
      }
    } else if (action == Action::kFree) {
      if (ctx.chosen_update == update_id) ctx.chosen_update.reset();
      free_siblings(ctx, guid, update_id);
    }
  }
}

void CommitPeer::free_siblings(GuidContext& ctx, std::uint64_t guid,
                               std::uint64_t source) {
  // Offer the freed node to pending siblings one at a time: the first that
  // chooses retakes the lock (its not_free is queued for the others), and
  // the remaining siblings must NOT see a stale free — otherwise several
  // pending updates could all vote at once, breaking the one-ongoing-update
  // serialisation the free/not_free protocol exists to provide.
  std::vector<std::uint64_t> uids;
  uids.reserve(ctx.instances.size());
  for (const auto& [uid, sibling] : ctx.instances) {
    if (uid != source && !sibling.fsm.finished()) uids.push_back(uid);
  }
  for (const std::uint64_t uid : uids) {
    if (ctx.chosen_update.has_value()) break;  // Lock retaken.
    const auto it = ctx.instances.find(uid);
    if (it == ctx.instances.end() || it->second.fsm.finished()) continue;
    execute_actions(ctx, guid, uid, it->second.fsm.deliver(kFree));
    check_finished(ctx, guid, uid);
  }
}

void CommitPeer::check_finished(GuidContext& ctx, std::uint64_t guid,
                                std::uint64_t update_id) {
  const auto it = ctx.instances.find(update_id);
  if (it == ctx.instances.end()) return;
  Instance& inst = it->second;
  if (!inst.fsm.finished()) return;
  if (!inst.recorded) {
    if (commit_sink_ &&
        !commit_sink_(guid,
                      {update_id, inst.request_id, inst.payload})) {
      // Write-ahead append failed (stalled or full disk): neither record
      // nor acknowledge. The FSM's free action already ran, but release
      // the lock defensively too — a bad disk must not deadlock the GUID
      // lane. The instance stays finished-unrecorded; the client's resent
      // update retries the sink once the disk heals. The quorum span stays
      // open — the commit is not over until the retry lands.
      if (spans_ != nullptr) {
        spans_->point("journal-append", inst.quorum_span, self_,
                      std::to_string(guid), inst.request_id, update_id,
                      network_.scheduler().now(), false, "vetoed");
      }
      if (flight_ != nullptr) {
        flight_->record(network_.scheduler().now(), self_, "commit.veto",
                        "guid=" + std::to_string(guid) +
                            " update=" + std::to_string(update_id) +
                            " request=" + std::to_string(inst.request_id));
      }
      if (ctx.chosen_update == update_id) {
        ctx.chosen_update.reset();
        free_siblings(ctx, guid, update_id);
      }
      return;
    }
    inst.recorded = true;
    ++stats_.committed;
    ctx.committed.push_back({update_id, inst.request_id, inst.payload});
    const sim::Time latency = network_.scheduler().now() - inst.created;
    if (trace_ != nullptr) {
      trace_->record(network_.scheduler().now(), self_, "commit",
                     "guid=" + std::to_string(guid) +
                         " update=" + std::to_string(update_id) +
                         " latency=" + std::to_string(latency));
    }
    if (metrics_ != nullptr) {
      metrics_
          ->histogram("commit.instance_latency_us",
                      {{"node", std::to_string(self_)}},
                      obs::latency_buckets_us())
          .observe(latency);
    }
    if (spans_ != nullptr) {
      const sim::Time now = network_.scheduler().now();
      // An instance can finish without ever broadcasting its own commit
      // (it adopted the siblings' quorum); close whatever is still open.
      if (spans_->is_open(inst.vote_span)) {
        spans_->close(inst.vote_span, now, true);
      }
      if (commit_sink_) {
        spans_->point("journal-append", inst.quorum_span, self_,
                      std::to_string(guid), inst.request_id, update_id,
                      now, true);
      }
      if (spans_->is_open(inst.quorum_span)) {
        spans_->close(inst.quorum_span, now, true);
      }
    }
    if (flight_ != nullptr) {
      flight_->record(network_.scheduler().now(), self_, "commit.record",
                      "guid=" + std::to_string(guid) +
                          " update=" + std::to_string(update_id) +
                          " request=" + std::to_string(inst.request_id) +
                          " latency=" + std::to_string(latency));
    }
    // Defensive: a finished update must release the node lock even if the
    // free action was not part of the final transition (it is whenever the
    // update was locally chosen).
    if (ctx.chosen_update == update_id) ctx.chosen_update.reset();
  }
  if (inst.recorded && inst.client.has_value()) {
    if (ack_sink_) {
      ack_sink_(guid, {update_id, inst.request_id, inst.payload});
    }
    if (spans_ != nullptr) {
      spans_->point("ack-sent", inst.quorum_span, self_,
                    std::to_string(guid), inst.request_id, update_id,
                    network_.scheduler().now(), true);
    }
    network_.send(self_, *inst.client,
                  WireMessage{WireMessage::Kind::kCommitted, guid, update_id,
                              inst.request_id, inst.payload}
                      .serialize());
    inst.client.reset();  // Notify once per received update request.
  }
}

void CommitPeer::enable_abort(sim::Time scan_interval, sim::Time max_age) {
  abort_interval_ = scan_interval;
  abort_max_age_ = max_age;
  arm_abort_scan();
}

void CommitPeer::arm_abort_scan() {
  if (abort_armed_ || abort_interval_ == 0) return;
  abort_armed_ = true;
  abort_event_ = network_.scheduler().schedule_after(abort_interval_, [this] {
    abort_armed_ = false;
    abort_scan(abort_max_age_);
  });
}

void CommitPeer::cancel_abort_scan() {
  if (!abort_armed_) return;
  network_.scheduler().cancel(abort_event_);
  abort_armed_ = false;
}

void CommitPeer::abort_scan(sim::Time max_age) {
  const sim::Time now = network_.scheduler().now();
  for (auto& [guid, ctx] : guids_) {
    for (auto it = ctx.instances.begin(); it != ctx.instances.end();) {
      Instance& inst = it->second;
      const bool stalled =
          !inst.fsm.finished() && now - inst.created > max_age;
      if (!stalled) {
        ++it;
        continue;
      }
      ++stats_.aborted;
      if (trace_ != nullptr) {
        trace_->record(now, self_, "abort",
                       "guid=" + std::to_string(guid) +
                           " update=" + std::to_string(it->first) +
                           " age=" + std::to_string(now - inst.created));
      }
      if (metrics_ != nullptr) {
        metrics_
            ->counter("commit.aborts", {{"guid", std::to_string(guid)}})
            .inc();
      }
      if (spans_ != nullptr) {
        spans_->close(inst.vote_span, now, false, "abort");
        spans_->close(inst.quorum_span, now, false, "abort");
      }
      if (flight_ != nullptr) {
        flight_->record(now, self_, "commit.abort",
                        "guid=" + std::to_string(guid) +
                            " update=" + std::to_string(it->first) +
                            " request=" + std::to_string(inst.request_id));
      }
      const bool held_lock = ctx.chosen_update == it->first;
      const std::uint64_t erased_uid = it->first;
      it = ctx.instances.erase(it);
      if (held_lock) {
        ctx.chosen_update.reset();
        free_siblings(ctx, guid, erased_uid);
        if (!draining_) run_queue(ctx, guid);
      }
    }
  }
  // Keep scanning only while something is live; instance creation re-arms
  // the scan, so an idle peer leaves the scheduler quiescent.
  bool any_live = false;
  for (const auto& [guid, ctx] : guids_) {
    for (const auto& [uid, inst] : ctx.instances) {
      if (!inst.fsm.finished()) {
        any_live = true;
        break;
      }
    }
    if (any_live) break;
  }
  if (any_live) arm_abort_scan();
}

}  // namespace asa_repro::commit
