#include "commit/peer.hpp"

#include <algorithm>
#include <cassert>

#include "commit/commit_model.hpp"

namespace asa_repro::commit {

namespace {

/// The first entry of `refs` whose update id is not below `update_id`.
template <class Refs>
auto lower_bound_update(Refs& refs, std::uint64_t update_id) {
  return std::lower_bound(
      refs.begin(), refs.end(), update_id,
      [](const auto& ref, std::uint64_t id) { return ref.update_id < id; });
}

}  // namespace

bool CommitPeer::SenderSet::insert(sim::NodeAddr sender) {
  for (std::uint32_t i = 0; i < size_; ++i) {
    if (inline_[i] == sender) return false;
  }
  for (const sim::NodeAddr known : overflow_) {
    if (known == sender) return false;
  }
  if (size_ < kInline) {
    inline_[size_++] = sender;
  } else {
    overflow_.push_back(sender);
  }
  return true;
}

CommitPeer::CommitPeer(sim::Network& network, sim::NodeAddr self,
                       std::vector<sim::NodeAddr> peers,
                       const fsm::StateMachine& machine, Behaviour behaviour,
                       obs::EventRecorder* events, bool attach_to_network,
                       Dedup dedup)
    : network_(network),
      self_(self),
      peers_(std::move(peers)),
      compiled_(fsm::CompiledMachine::compile(machine)),
      cascade_(compiled_, dedup),
      behaviour_(behaviour),
      events_(events) {
  if (attach_to_network) {
    network_.attach(self_,
                    [this](sim::NodeAddr from, std::string_view data) {
                      handle(from, data);
                    });
  }
}

CommitPeer::GuidContext& CommitPeer::context(std::uint64_t guid) {
  const auto [slot, created] = guids_.try_emplace(guid);
  if (created) {
    *slot = std::make_unique<GuidContext>();
    (*slot)->guid = guid;
  }
  return **slot;
}

const CommitPeer::GuidContext* CommitPeer::find_context(
    std::uint64_t guid) const {
  const auto* slot = guids_.find(guid);
  return slot == nullptr ? nullptr : slot->get();
}

CommitPeer::Instance* CommitPeer::find_instance(GuidContext& ctx,
                                                std::uint64_t update_id) {
  const auto it = lower_bound_update(ctx.instances, update_id);
  if (it == ctx.instances.end() || it->update_id != update_id) return nullptr;
  return &instances_[it->slot];
}

void CommitPeer::release(GuidContext& ctx, const Instance& inst) {
  const auto it = lower_bound_update(ctx.instances, inst.update_id);
  free_instances_.push_back(it->slot);
  ctx.instances.erase(it);
}

std::size_t CommitPeer::reconcile_history(
    std::uint64_t guid, const std::vector<CommittedEntry>& donor) {
  const std::vector<CommittedEntry>& local = committed_->entries(guid);
  std::set<std::uint64_t> donor_ids;
  for (const CommittedEntry& e : donor) donor_ids.insert(e.update_id);
  // Donor order is authoritative (it is the f+1-agreed order); entries
  // only this node has — e.g. commits beyond the agreed prefix that
  // survived in its journal — keep their local order at the tail.
  std::vector<CommittedEntry> merged = donor;
  for (const CommittedEntry& e : local) {
    if (!donor_ids.contains(e.update_id)) merged.push_back(e);
  }
  if (merged == local) return 0;  // Already converged.
  std::size_t adopted = 0;
  for (const CommittedEntry& e : donor) {
    if (!committed_->contains(guid, e.update_id)) ++adopted;
  }
  committed_->replace(guid, std::move(merged));
  if (auto* slot = guids_.find(guid)) {
    GuidContext& ctx = **slot;
    for (const CommittedEntry& e : committed_->entries(guid)) {
      if (const Instance* inst = find_instance(ctx, e.update_id)) {
        release(ctx, *inst);
      }
    }
  }
  if (journal_ != nullptr) (void)journal_->journal_history(guid);
  // A pure reorder adopts no new entries but still rewrote the history.
  return adopted > 0 ? adopted : 1;
}

std::size_t CommitPeer::live_instances(std::uint64_t guid) const {
  const GuidContext* ctx = find_context(guid);
  if (ctx == nullptr) return 0;
  std::size_t n = 0;
  for (const InstanceRef& ref : ctx->instances) {
    if (!instances_[ref.slot].fsm.finished()) ++n;
  }
  return n;
}

std::size_t CommitPeer::resident_instances(std::uint64_t guid) const {
  const GuidContext* ctx = find_context(guid);
  return ctx == nullptr ? 0 : ctx->instances.size();
}

void CommitPeer::handle(sim::NodeAddr from, std::string_view data) {
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

CommitPeer::Instance& CommitPeer::open_instance(GuidContext& ctx,
                                                const WireMessage& msg) {
  Instance fresh{fsm::CompiledInstance(compiled_), msg.update_id,
                 msg.request_id, msg.payload, {}, {}, std::nullopt,
                 network_.scheduler().now()};
  std::uint32_t slot = 0;
  if (free_instances_.empty()) {
    slot = static_cast<std::uint32_t>(instances_.size());
    instances_.push_back(std::move(fresh));
  } else {
    slot = free_instances_.back();
    free_instances_.pop_back();
    instances_[slot] = std::move(fresh);
  }
  ctx.instances.insert(lower_bound_update(ctx.instances, msg.update_id),
                       {msg.update_id, slot});
  Instance& inst = instances_[slot];
  // The abstract model's start state assumes the node is free; if another
  // update already holds the node lock for this GUID, lock the new machine
  // immediately (this is how could_choose is initialised in deployment).
  if (ctx.chosen_update.has_value() && *ctx.chosen_update != msg.update_id) {
    (void)inst.fsm.deliver(kNotFree);
  }
  note(obs::EventKind::kInstance, {ctx.guid, msg.update_id, inst.request_id});
  if (metrics_ != nullptr) {
    if (instances_opened_ == nullptr) {
      instances_opened_ = &metrics_->counter(
          "commit.instances_opened", {{"node", std::to_string(self_)}});
    }
    instances_opened_->inc();
  }
  note(obs::EventKind::kSpanOpen,
       obs::span_fields(ctx.guid, msg.update_id, inst.request_id),
       obs::Word::kVoteCollect);
  arm_abort_scan();  // Watch the new instance for stalls, if enabled.
  return inst;
}

void CommitPeer::handle_honest(sim::NodeAddr from, const WireMessage& msg) {
  obs::Word kind = obs::Word::kNone;
  switch (msg.kind) {
    case WireMessage::Kind::kUpdate:
      ++stats_.updates_received;
      kind = obs::Word::kUpdate;
      break;
    case WireMessage::Kind::kVote:
      ++stats_.votes_received;
      kind = obs::Word::kVote;
      break;
    case WireMessage::Kind::kCommit:
      ++stats_.commits_received;
      kind = obs::Word::kCommit;
      break;
    case WireMessage::Kind::kCommitted:
      return;  // Peers ignore client notifications.
  }
  note(obs::EventKind::kRecv, {from, msg.update_id}, kind);
  // One context lookup and one instance lookup per delivery; the instance
  // is passed down the cascade from here. Resident and settled updates
  // are disjoint, so the committed state is consulted only on a miss.
  GuidContext& ctx = context(msg.guid);
  Host host{*this, ctx};
  Instance* inst = find_instance(ctx, msg.update_id);
  if (inst == nullptr) {
    if (committed_->contains(msg.guid, msg.update_id)) {
      // Late traffic for a settled update: absorb it; re-acknowledge a
      // resent update request (the original notification may have been
      // lost).
      if (msg.kind == WireMessage::Kind::kUpdate) {
        acknowledge(msg.guid, {msg.update_id, msg.request_id, msg.payload},
                    from);
      }
      return;
    }
    inst = &open_instance(ctx, msg);
  } else {
    if (inst->request_id == 0) inst->request_id = msg.request_id;
    if (inst->payload == 0) inst->payload = msg.payload;
  }
  if (msg.kind == WireMessage::Kind::kUpdate) {
    inst->client = from;
    // A vetoed attempt (finished, still resident) is offered to the
    // journal once more by the cascade's finish hook.
    cascade_.deliver(host, *inst, kUpdate);
    return;
  }
  // The cascade's dedup rule judges each copy; our own echoes drop.
  const bool vote = msg.kind == WireMessage::Kind::kVote;
  SenderSet& senders = vote ? inst->voters : inst->committers;
  if (from == self_ || !cascade_.deliver_copy(host, *inst,
                                              vote ? kVote : kCommit,
                                              senders.insert(from))) {
    ++stats_.duplicates_dropped;
  }
}

void CommitPeer::broadcast(const WireMessage& msg) {
  const std::vector<sim::NodeAddr>& resolved =
      resolver_ ? resolver_(msg.guid) : peers_;
  const bool withhold = behaviour_ == Behaviour::kWithholder &&
                        (msg.kind == WireMessage::Kind::kVote ||
                         msg.kind == WireMessage::Kind::kCommit);
  // One frame for the whole fan-out: every recipient but the last gets a
  // copy, the last takes the frame itself.
  sim::Payload frame = msg.serialize();
  std::optional<sim::NodeAddr> previous;
  for (sim::NodeAddr peer : resolved) {
    if (peer == self_) continue;
    if (withhold) {
      // Send protocol messages only to the lower half of the peer set,
      // giving different members inconsistent views.
      std::size_t rank = 0;
      for (std::size_t i = 0; i < resolved.size(); ++i) {
        if (resolved[i] < peer) ++rank;
      }
      if (rank >= resolved.size() / 2) continue;
    }
    if (previous.has_value()) network_.send(self_, *previous, frame);
    previous = peer;
  }
  if (previous.has_value()) network_.send(self_, *previous, std::move(frame));
}

std::size_t CommitPeer::Host::after(std::uint64_t update_id) const {
  auto it = lower_bound_update(ctx.instances, update_id);
  if (it != ctx.instances.end() && it->update_id == update_id) ++it;
  return static_cast<std::size_t>(it - ctx.instances.begin());
}

void CommitPeer::Host::vote(Instance& inst) {
  ++peer.stats_.votes_sent;
  peer.broadcast({WireMessage::Kind::kVote, ctx.guid, inst.update_id,
                  inst.request_id, inst.payload});
}

void CommitPeer::Host::commit(Instance& inst) {
  ++peer.stats_.commits_sent;
  // Phase boundary: the vote collected enough siblings to choose this
  // update; everything from here to the recorded commit is the quorum
  // phase.
  if (!inst.committing) {
    inst.committing = true;
    const obs::EventFields ids =
        obs::span_fields(ctx.guid, inst.update_id, inst.request_id);
    peer.note(obs::EventKind::kSpanClose, ids, obs::Word::kVoteCollect);
    peer.note(obs::EventKind::kSpanOpen, ids, obs::Word::kQuorum);
  }
  peer.broadcast({WireMessage::Kind::kCommit, ctx.guid, inst.update_id,
                  inst.request_id, inst.payload});
}

void CommitPeer::check_finished(GuidContext& ctx, Instance& inst) {
  if (!inst.fsm.finished()) return;
  const std::uint64_t guid = ctx.guid;
  const std::uint64_t update_id = inst.update_id;
  // Write-ahead: the commit reaches the journal, which then appends it to
  // the shared history. A refused append (stalled or full disk) neither
  // records nor acknowledges. The FSM's free action already ran, but the
  // lock is released defensively too — a bad disk must not deadlock the
  // GUID lane.
  // The instance stays resident, finished but unrecorded; the client's
  // resent update retries the append once the disk heals. Its spans stay
  // open — the commit is not over until the retry lands.
  if (journal_ != nullptr) {
    const bool ok = journal_->record_commit(guid, update_id, inst.request_id,
                                            inst.payload);
    note(obs::EventKind::kJournalAppend, {guid, update_id, inst.request_id},
         ok ? obs::Word::kOk : obs::Word::kFailed);
    if (!ok) {
      note(obs::EventKind::kSpanPoint,
           obs::span_fields(guid, update_id, inst.request_id,
                            obs::SpanDetail::kVetoed),
           obs::Word::kJournalAppend);
      note(obs::EventKind::kVeto, {guid, update_id, inst.request_id});
      if (ctx.chosen_update == update_id) {
        Host host{*this, ctx};
        cascade_.free(host, update_id);
      }
      return;
    }
  } else {
    (void)committed_->append(guid, {update_id, inst.request_id, inst.payload});
  }
  ++stats_.committed;
  const sim::Time latency = network_.scheduler().now() - inst.created;
  note(obs::EventKind::kCommit, {guid, update_id, inst.request_id, latency});
  if (metrics_ != nullptr) {
    if (instance_latency_ == nullptr) {
      instance_latency_ = &metrics_->histogram(
          "commit.instance_latency_us", {{"node", std::to_string(self_)}},
          obs::latency_buckets_us());
    }
    instance_latency_->observe(latency);
  }
  const obs::EventFields ids =
      obs::span_fields(guid, update_id, inst.request_id);
  if (journal_ != nullptr) {
    note(obs::EventKind::kSpanPoint, ids, obs::Word::kJournalAppend);
  }
  // An instance can finish without ever broadcasting its own commit (it
  // adopted the siblings' quorum): then its vote-collect span is the one
  // still open.
  note(obs::EventKind::kSpanClose, ids,
       inst.committing ? obs::Word::kQuorum : obs::Word::kVoteCollect);
  // Defensive: a finished update must release the node lock even if the
  // free action was not part of the final transition (it is whenever the
  // update was locally chosen).
  if (ctx.chosen_update == update_id) ctx.chosen_update.reset();
  if (inst.client.has_value()) {
    acknowledge(guid, {update_id, inst.request_id, inst.payload},
                *inst.client);
  }
  // Recorded and acknowledged: the instance is settled. Release it; the
  // history absorbs late traffic and re-acknowledges resent updates.
  release(ctx, inst);
}

void CommitPeer::acknowledge(std::uint64_t guid, const CommittedEntry& entry,
                             sim::NodeAddr client) {
  if (ack_sink_) ack_sink_(guid, entry);
  note(obs::EventKind::kSpanPoint,
       obs::span_fields(guid, entry.update_id, entry.request_id),
       obs::Word::kAckSent);
  network_.send(self_, client,
                WireMessage{WireMessage::Kind::kCommitted, guid,
                            entry.update_id, entry.request_id, entry.payload}
                    .serialize());
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
  // GUID order reaches events (aborts, span closes, lock hand-overs), so
  // the hashed contexts are visited sorted by GUID.
  std::vector<GuidContext*> contexts;
  contexts.reserve(guids_.size());
  guids_.for_each([&contexts](std::uint64_t,
                              const std::unique_ptr<GuidContext>& ctx) {
    contexts.push_back(ctx.get());
  });
  std::sort(contexts.begin(), contexts.end(),
            [](const GuidContext* a, const GuidContext* b) {
              return a->guid < b->guid;
            });
  std::vector<std::uint64_t> stalled;
  for (GuidContext* ctx : contexts) {
    // Collect first, abort by id: aborting a lock holder frees siblings,
    // and a sibling that finishes is released from ctx->instances at once.
    stalled.clear();
    for (const InstanceRef& ref : ctx->instances) {
      const Instance& inst = instances_[ref.slot];
      if (!inst.fsm.finished() && now - inst.created > max_age) {
        stalled.push_back(ref.update_id);
      }
    }
    for (const std::uint64_t uid : stalled) {
      const Instance* inst = find_instance(*ctx, uid);
      if (inst == nullptr || inst->fsm.finished()) continue;
      ++stats_.aborted;
      note(obs::EventKind::kAbort,
           {ctx->guid, uid, inst->request_id, now - inst->created});
      if (metrics_ != nullptr) {
        metrics_
            ->counter("commit.aborts", {{"guid", std::to_string(ctx->guid)}})
            .inc();
      }
      note(obs::EventKind::kSpanClose,
           obs::span_fields(ctx->guid, uid, inst->request_id,
                            obs::SpanDetail::kAbort),
           inst->committing ? obs::Word::kQuorum : obs::Word::kVoteCollect);
      const bool held_lock = ctx->chosen_update == uid;
      release(*ctx, *inst);
      if (held_lock) {
        Host host{*this, *ctx};
        cascade_.free(host, uid);
      }
    }
  }
  // Keep scanning only while something is live; instance creation re-arms
  // the scan, so an idle peer leaves the scheduler quiescent.
  bool any_live = false;
  for (const GuidContext* ctx : contexts) {
    for (const InstanceRef& ref : ctx->instances) {
      any_live = any_live || !instances_[ref.slot].fsm.finished();
    }
  }
  if (any_live) arm_abort_scan();
}

}  // namespace asa_repro::commit
