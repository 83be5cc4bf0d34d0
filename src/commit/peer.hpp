// A peer-set member executing the commit protocol (paper section 2.2).
//
// Each member hosts one machine instance per ongoing update per GUID and
// releases it as soon as the update is recorded and acknowledged. The
// peer compiles the generated StateMachine once into the dense dispatch
// table (core/compiled_machine.hpp) and every instance steps that table by
// value: one indexed load per delivered message, no virtual call and no
// allocation. The paper's other deployment forms (section 4.2-4.3: the
// interpreter, checked-in generated code, code compiled and loaded at run
// time) are artefacts the test suite proves equivalent to the generated
// machine, not alternatives the runtime switches between. The
// free/not_free messages of the abstract model are node-internal: when one
// instance chooses its update it locks the node (not_free delivered to its
// siblings); when the chosen update finishes it frees the node again. That
// step is commit/cascade.hpp's Cascade, which `fsmcheck --protocol` checks;
// this class supplies its effects (broadcast, spans, journal, ack).
//
// Byzantine behaviours (crash, equivocation, selective withholding) are
// injected here so that the protocol's claimed tolerance of f = (r-1)/3
// faulty members can actually be exercised — something the paper asserts
// but does not test.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <type_traits>
#include <vector>

#include "commit/cascade.hpp"
#include "commit/messages.hpp"
#include "core/compiled_machine.hpp"
#include "core/state_machine.hpp"
#include "durable/durable_log.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "sim/flat_map.hpp"
#include "sim/network.hpp"

namespace asa_repro::commit {

/// Fault behaviour of a peer-set member.
enum class Behaviour {
  kHonest,       // Follows the generated FSM.
  kCrash,        // Fail-stop: ignores every message, sends nothing.
  kEquivocator,  // Votes and commits for every update it hears about,
                 // immediately and repeatedly (protocol-free).
  kWithholder,   // Follows the FSM but sends votes/commits only to peers in
                 // the lower half of the address order (splits the view).
};

/// Per-peer statistics, for benches and assertions.
struct PeerStats {
  std::uint64_t updates_received = 0;
  std::uint64_t votes_received = 0;
  std::uint64_t commits_received = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t votes_sent = 0;
  std::uint64_t commits_sent = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  friend bool operator==(const PeerStats&, const PeerStats&) = default;
};

class CommitPeer {
 public:
  /// Maps a GUID to its peer set (paper: peer sets are located per GUID via
  /// the P2P layer, so they differ between GUIDs). When unset, the fixed
  /// `peers` list from the constructor serves every GUID. The returned
  /// set is read by reference and must stay valid until the next call.
  using PeerResolver = std::function<const std::vector<sim::NodeAddr>&(
      std::uint64_t guid)>;

  /// `machine` must be the merged commit FSM for the peer set's replication
  /// factor; the peer compiles its own copy, so `machine` need not outlive
  /// the peer. `peers` lists every member of the peer set including this
  /// one. With `attach_to_network` false the peer does not claim the
  /// network address; a host must feed it frames through handle_frame()
  /// (used when commit and storage traffic share one node). `dedup` is the
  /// cascade's dedup rule (variants.hpp); own broadcast echoes always drop.
  /// `events` (nullptr disables) gets the instance lifecycle and its spans:
  /// "vote-collect" from creation to the commit broadcast, "quorum" from
  /// there to the recorded commit, with journal-append and ack-sent points
  /// — the peer half of the commit critical path.
  CommitPeer(sim::Network& network, sim::NodeAddr self,
             std::vector<sim::NodeAddr> peers,
             const fsm::StateMachine& machine,
             Behaviour behaviour = Behaviour::kHonest,
             obs::EventRecorder* events = nullptr,
             bool attach_to_network = true, Dedup dedup = {});

  /// Process one raw network frame (for hosts that multiplex the address).
  void handle_frame(sim::NodeAddr from, std::string_view data) {
    handle(from, data);
  }

  /// Install the peer-set resolver. A callable that returns its set by
  /// value is adapted: the peer keeps its latest answer, so a broadcast
  /// still reads the set by reference.
  template <class Resolver>
  void set_peer_resolver(Resolver resolver) {
    using Result = std::invoke_result_t<Resolver&, std::uint64_t>;
    if constexpr (std::is_lvalue_reference_v<Result>) {
      resolver_ = std::move(resolver);
    } else {
      resolver_ = [resolve = std::move(resolver),
                   latest = std::vector<sim::NodeAddr>{}](
                      std::uint64_t guid) mutable
          -> const std::vector<sim::NodeAddr>& {
        latest = resolve(guid);
        return latest;
      };
    }
  }

  /// Attach a metrics registry: instance lifecycle counters, commit-latency
  /// histograms and per-GUID abort counters. nullptr (default) disables.
  /// The per-node counter and histogram are resolved on their first
  /// observation and kept; attaching a registry drops them.
  void set_metrics(obs::MetricsRegistry* metrics) {
    metrics_ = metrics;
    instances_opened_ = nullptr;
    instance_latency_ = nullptr;
  }

  CommitPeer(const CommitPeer&) = delete;
  CommitPeer& operator=(const CommitPeer&) = delete;

  /// A pending abort-scan event captures `this`; hosts rebuild peers mid-run
  /// (crash, restart, byzantine flips), so the event must not outlive us.
  ~CommitPeer() { cancel_abort_scan(); }

  [[nodiscard]] sim::NodeAddr address() const { return self_; }
  [[nodiscard]] Behaviour behaviour() const { return behaviour_; }
  [[nodiscard]] const PeerStats& stats() const { return stats_; }

  /// (update_id, request_id, payload): the journal's entry type.
  using CommittedEntry = durable::Entry;

  /// Attach the node's write-ahead journal (must outlive the peer) before
  /// any traffic; its History becomes the peer's committed state. A
  /// finished commit is appended (and a journal-append event recorded)
  /// BEFORE it joins the history; a refused append vetoes it — nothing
  /// recorded, no kCommitted sent, the client's retry drives a fresh
  /// attempt. Each reconcile_history journals the adopted history.
  void set_journal(durable::DurableLog* journal) {
    journal_ = journal;
    committed_ = journal != nullptr ? &journal->history() : &own_committed_;
  }

  /// Called immediately before each kCommitted acknowledgement leaves for
  /// a client (the durable-ack ledger hook). Only ever fires for commits
  /// the journal accepted.
  using AckSink =
      std::function<void(std::uint64_t guid, const CommittedEntry& entry)>;
  void set_ack_sink(AckSink sink) { ack_sink_ = std::move(sink); }

  /// Committed update order for a GUID, in local commit order.
  [[nodiscard]] const std::vector<CommittedEntry>& history(
      std::uint64_t guid) const {
    return committed_->entries(guid);
  }

  /// The journal's History, or the peer's own without a journal.
  [[nodiscard]] const durable::History& committed_state() const {
    return *committed_;
  }

  /// Adopt a donor (agreed) history for `guid`, the one adoption path:
  /// an empty history takes the donor verbatim (a replacement member's
  /// bootstrap, paper section 2.2); a NON-empty one — a journal-replayed
  /// node that only needs the delta it missed while down — becomes the
  /// donor's entries in donor order followed by local-only entries (so a
  /// replay that skipped or disordered records converges back to the
  /// agreed order). Returns the number of donor entries newly adopted; 0
  /// when the local history already matches the merge (nothing to do).
  std::size_t reconcile_history(std::uint64_t guid,
                                const std::vector<CommittedEntry>& donor);

  /// Live (started, unfinished) update attempts for a GUID.
  [[nodiscard]] std::size_t live_instances(std::uint64_t guid) const;

  /// Machine instances currently held in memory for a GUID: the live ones
  /// plus finished ones whose journal append was refused. An
  /// instance is released the moment it is recorded and acknowledged.
  [[nodiscard]] std::size_t resident_instances(std::uint64_t guid) const;

  /// Enable periodic abort of stalled instances (liveness extension; see
  /// DESIGN.md): every `scan_interval`, erase unfinished instances older
  /// than `max_age`, freeing the node lock if the aborted update held it.
  /// The paper requires "a timeout/retry scheme" (section 2.2) but leaves
  /// the peer side unspecified; without local aborts a vote-split deadlock
  /// is permanent because voters stay locked on their chosen update.
  void enable_abort(sim::Time scan_interval, sim::Time max_age);

 private:
  /// Distinct senders of one protocol message kind for one update. A peer
  /// set has at most r - 1 other members, so up to r = 13 every sender is
  /// held inline; more (a wider set, members changing mid-update) spill
  /// into `overflow_`.
  class SenderSet {
   public:
    /// Add `sender`; false when it was already present.
    bool insert(sim::NodeAddr sender);

   private:
    static constexpr std::uint32_t kInline = 12;
    std::array<sim::NodeAddr, kInline> inline_{};
    std::uint32_t size_ = 0;  // Inline entries in use.
    std::vector<sim::NodeAddr> overflow_;
  };

  struct Instance {
    fsm::CompiledInstance fsm;
    std::uint64_t update_id = 0;
    std::uint64_t request_id = 0;
    std::uint64_t payload = 0;
    SenderSet voters;      // Distinct vote senders.
    SenderSet committers;  // Distinct commit senders.
    std::optional<sim::NodeAddr> client; // Who to notify on completion.
    sim::Time created = 0;
    // Its commit went out: its "vote-collect" span closed and its "quorum"
    // span opened.
    bool committing = false;
  };
  /// A resident instance of a GUID: its update id and its slot in
  /// `instances_`.
  struct InstanceRef {
    std::uint64_t update_id = 0;
    std::uint32_t slot = 0;
  };
  /// Settled (recorded or imported) updates are in `committed_`; late
  /// traffic for them is absorbed, a resent update re-acknowledged.
  struct GuidContext {
    std::uint64_t guid = 0;
    // Resident instances in update-id order, the order the not_free and
    // free fan-outs (and abort_scan) visit siblings in.
    std::vector<InstanceRef> instances;
    std::optional<std::uint64_t> chosen_update;   // Node lock holder.
  };

  /// The cascade's view of one GUID's instances on this peer: instances
  /// are keyed and ordered by update id, the lock is the context's chosen
  /// update, and the effects are this peer's broadcasts and finish path.
  struct Host {
    using Key = std::uint64_t;
    CommitPeer& peer;
    GuidContext& ctx;

    Key key(const Instance& inst) const { return inst.update_id; }
    fsm::CompiledInstance::Delivery step(Instance& inst, fsm::MessageId m) {
      return inst.fsm.deliver(m);
    }
    bool finished(const Instance& inst) const { return inst.fsm.finished(); }
    Instance* find(Key id) { return peer.find_instance(ctx, id); }
    std::size_t siblings() const { return ctx.instances.size(); }
    Instance& sibling(std::size_t i) {
      return peer.instances_[ctx.instances[i].slot];
    }
    std::size_t after(Key id) const;
    bool locked() const { return ctx.chosen_update.has_value(); }
    bool holds_lock(Key id) const { return ctx.chosen_update == id; }
    void take_lock(Key id) { ctx.chosen_update = id; }
    void clear_lock() { ctx.chosen_update.reset(); }
    void vote(Instance& inst);
    void commit(Instance& inst);
    void finish(Instance& inst) { peer.check_finished(ctx, inst); }
  };

  void handle(sim::NodeAddr from, std::string_view payload);
  void handle_honest(sim::NodeAddr from, const WireMessage& msg);
  void handle_equivocator(const WireMessage& msg);

  /// The GUID's context, created on first use.
  GuidContext& context(std::uint64_t guid);
  [[nodiscard]] const GuidContext* find_context(std::uint64_t guid) const;
  /// The GUID's resident instance for `update_id`, or nullptr.
  Instance* find_instance(GuidContext& ctx, std::uint64_t update_id);
  /// Open an instance for `msg`'s update (a fresh or reused slot).
  Instance& open_instance(GuidContext& ctx, const WireMessage& msg);
  /// Drop a resident instance and free its slot.
  void release(GuidContext& ctx, const Instance& inst);

  void broadcast(const WireMessage& msg);
  /// The cascade's finish hook: record a finished instance (unless its
  /// journal append is refused), acknowledge its client and release it:
  /// it is settled.
  void check_finished(GuidContext& ctx, Instance& inst);
  /// Send one kCommitted to `client`: the ack sink first, then an
  /// "ack-sent" span point, then the frame.
  void acknowledge(std::uint64_t guid, const CommittedEntry& entry,
                   sim::NodeAddr client);

  void abort_scan(sim::Time max_age);
  void arm_abort_scan();
  void cancel_abort_scan();

  /// Record an event of this node at the current time, if recording.
  void note(obs::EventKind kind, const obs::EventFields& fields,
            obs::Word word = obs::Word::kNone) {
    if (events_ != nullptr) {
      events_->record(kind, network_.scheduler().now(), self_, fields, word);
    }
  }

  sim::Network& network_;
  sim::NodeAddr self_;
  std::vector<sim::NodeAddr> peers_;  // Including self_.
  PeerResolver resolver_;
  fsm::CompiledMachine compiled_;  // The commit FSM, compiled once.
  Cascade<Instance, Host> cascade_;  // One GUID's delivery at a time.
  Behaviour behaviour_;
  obs::EventRecorder* events_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* instances_opened_ = nullptr;    // commit.instances_opened.
  obs::Histogram* instance_latency_ = nullptr;  // commit.instance_latency_us.
  durable::DurableLog* journal_ = nullptr;
  durable::History own_committed_;  // Used while no journal is attached.
  durable::History* committed_ = &own_committed_;
  AckSink ack_sink_;
  PeerStats stats_;
  // By GUID; each context stays put while the table grows.
  sim::FlatMap<std::unique_ptr<GuidContext>> guids_;
  // Instance slots; a released slot is reused by the next instance. Only
  // opening an instance grows the pool, which no fan-out does, so an
  // Instance& stays valid through one delivery's cascade.
  std::vector<Instance> instances_;
  std::vector<std::uint32_t> free_instances_;
  std::set<UpdateKey> equivocated_;  // Equivocator: one blast per update.
  sim::Time abort_interval_ = 0;
  sim::Time abort_max_age_ = 0;
  bool abort_armed_ = false;
  std::uint64_t abort_event_ = 0;  // Pending scan id, for destructor cancel.
};

}  // namespace asa_repro::commit
