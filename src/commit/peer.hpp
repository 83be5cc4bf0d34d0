// A peer-set member executing the commit protocol (paper section 2.2).
//
// Each member hosts one machine instance per ongoing update per GUID. The
// peer compiles the generated StateMachine once into the dense dispatch
// table (core/compiled_machine.hpp) and every instance steps that table by
// value: one indexed load per delivered message, no virtual call and no
// allocation. The paper's other deployment forms (section 4.2-4.3: the
// interpreter, checked-in generated code, code compiled and loaded at run
// time) are artefacts the test suite proves equivalent to the generated
// machine, not alternatives the runtime switches between. The
// free/not_free messages of the abstract model are node-internal: when one
// instance chooses its update it locks the node (not_free delivered to its
// siblings); when the chosen update finishes it frees the node again.
//
// Byzantine behaviours (crash, equivocation, selective withholding) are
// injected here so that the protocol's claimed tolerance of f = (r-1)/3
// faulty members can actually be exercised — something the paper asserts
// but does not test.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "commit/messages.hpp"
#include "core/compiled_machine.hpp"
#include "core/state_machine.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"

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

/// Defensive input filtering an honest peer applies to protocol traffic.
/// Both guards are on in deployment; the composition mutation self-test
/// switches them off (`comp.dup_vote`) to prove the composed checker —
/// and only the composed checker — notices a peer that counts the same
/// member's vote or commit twice.
struct PeerHardening {
  bool dedup_protocol = true;  // One vote/commit per member per update.
  bool drop_self = true;       // Ignore our own broadcast echoes.
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
  /// `peers` list from the constructor serves every GUID.
  using PeerResolver =
      std::function<std::vector<sim::NodeAddr>(std::uint64_t guid)>;

  /// `machine` must be the merged commit FSM for the peer set's replication
  /// factor; the peer compiles its own copy, so `machine` need not outlive
  /// the peer. `peers` lists every member of the peer set including this
  /// one. With `attach_to_network` false the peer does not claim the
  /// network address; a host must feed it frames through handle_frame()
  /// (used when commit and storage traffic share one node).
  CommitPeer(sim::Network& network, sim::NodeAddr self,
             std::vector<sim::NodeAddr> peers,
             const fsm::StateMachine& machine,
             Behaviour behaviour = Behaviour::kHonest,
             sim::Trace* trace = nullptr, bool attach_to_network = true);

  /// Process one raw network frame (for hosts that multiplex the address).
  void handle_frame(sim::NodeAddr from, const std::string& data) {
    handle(from, data);
  }

  void set_peer_resolver(PeerResolver resolver) {
    resolver_ = std::move(resolver);
  }

  /// Attach a metrics registry: instance lifecycle counters, commit-latency
  /// histograms and per-GUID abort counters. nullptr (default) disables.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Attach a span recorder: each machine instance opens a "vote-collect"
  /// span on creation and a "quorum" span once it broadcasts its commit,
  /// with journal-append/ack-sent point children — the peer half of the
  /// commit critical path. nullptr (default) disables.
  void set_spans(obs::SpanRecorder* spans) { spans_ = spans; }

  /// Attach a flight recorder: instance lifecycle events (created,
  /// recorded, aborted, sink-vetoed) with their guid/update/request causal
  /// ids land in this node's ring lane. nullptr (default) disables.
  void set_flight(obs::FlightRecorder* flight) { flight_ = flight; }

  /// Weaken or restore the honest peer's input filtering (default: fully
  /// hardened). Only the composition replay harness uses non-default
  /// values, to mirror mutations the model checker injects.
  void set_hardening(PeerHardening hardening) { hardening_ = hardening; }

  CommitPeer(const CommitPeer&) = delete;
  CommitPeer& operator=(const CommitPeer&) = delete;

  /// A pending abort-scan event captures `this`; hosts rebuild peers mid-run
  /// (crash, restart, byzantine flips), so the event must not outlive us.
  ~CommitPeer() { cancel_abort_scan(); }

  [[nodiscard]] sim::NodeAddr address() const { return self_; }
  [[nodiscard]] Behaviour behaviour() const { return behaviour_; }
  [[nodiscard]] const PeerStats& stats() const { return stats_; }

  /// Committed update order for a GUID, in local commit order. Entries are
  /// (update_id, request_id, payload).
  struct CommittedEntry {
    std::uint64_t update_id;
    std::uint64_t request_id;
    std::uint64_t payload;
    friend bool operator==(const CommittedEntry&,
                           const CommittedEntry&) = default;
  };

  /// Write-ahead sink, consulted BEFORE a finished commit is appended to
  /// the local history. A false return vetoes the commit: nothing is
  /// recorded and no kCommitted acknowledgement is sent — the client's
  /// retry of the same request drives a fresh attempt. This is the hook
  /// the durability subsystem uses to journal every commit before any
  /// client can observe it.
  using CommitSink =
      std::function<bool(std::uint64_t guid, const CommittedEntry& entry)>;
  void set_commit_sink(CommitSink sink) { commit_sink_ = std::move(sink); }

  /// Called immediately before each kCommitted acknowledgement leaves for
  /// a client (the durable-ack ledger hook). Only ever fires for commits
  /// the commit sink accepted.
  using AckSink =
      std::function<void(std::uint64_t guid, const CommittedEntry& entry)>;
  void set_ack_sink(AckSink sink) { ack_sink_ = std::move(sink); }

  /// Called after a wholesale history adoption (import_history or
  /// reconcile_history) with the node's complete new history for the GUID.
  using ImportSink = std::function<void(
      std::uint64_t guid, const std::vector<CommittedEntry>& entries)>;
  void set_import_sink(ImportSink sink) { import_sink_ = std::move(sink); }
  [[nodiscard]] const std::vector<CommittedEntry>& history(
      std::uint64_t guid) const;

  /// Adopt a committed history for `guid` (peer-set membership change:
  /// a replacement member bootstraps from its peers, paper section 2.2's
  /// "background processes ... replace faulty nodes"). Only an empty local
  /// history is replaced; returns false otherwise.
  bool import_history(std::uint64_t guid,
                      std::vector<CommittedEntry> entries);

  /// Merge a donor (agreed) history into a possibly NON-empty local one —
  /// the recovery reconciliation step: a journal-replayed node only needs
  /// the delta it missed while down. The merged history is the donor's
  /// entries in donor order followed by local-only entries (so a replay
  /// that skipped or disordered records converges back to the agreed
  /// order). Returns the number of donor entries newly adopted; 0 when
  /// the local history already matches the merge (nothing to do).
  std::size_t reconcile_history(std::uint64_t guid,
                                const std::vector<CommittedEntry>& donor);

  /// Live (started, unfinished) update attempts for a GUID.
  [[nodiscard]] std::size_t live_instances(std::uint64_t guid) const;

  /// Machine instances currently held in memory for a GUID (live and
  /// finished-but-not-yet-collected).
  [[nodiscard]] std::size_t resident_instances(std::uint64_t guid) const;

  /// Release finished machine instances for every GUID, keeping only the
  /// committed history and a settled-id set that absorbs late protocol
  /// traffic. Long-lived peers call this periodically (memory stays
  /// bounded by the live instance count). Returns instances released.
  std::size_t collect_finished();

  /// Enable periodic abort of stalled instances (liveness extension; see
  /// DESIGN.md): every `scan_interval`, erase unfinished instances older
  /// than `max_age`, freeing the node lock if the aborted update held it.
  /// The paper requires "a timeout/retry scheme" (section 2.2) but leaves
  /// the peer side unspecified; without local aborts a vote-split deadlock
  /// is permanent because voters stay locked on their chosen update.
  void enable_abort(sim::Time scan_interval, sim::Time max_age);

 private:
  /// What one compiled action id does at this peer.
  enum class Action : std::uint8_t { kNone, kVote, kCommit, kFree, kNotFree };
  /// Action kind per compiled action id, by name; a name outside the four
  /// the peer knows is a no-op.
  static std::vector<Action> translate_actions(
      const fsm::CompiledMachine& machine);

  struct Instance {
    fsm::CompiledInstance fsm;
    std::uint64_t request_id = 0;
    std::uint64_t payload = 0;
    std::set<sim::NodeAddr> voters;      // Distinct vote senders.
    std::set<sim::NodeAddr> committers;  // Distinct commit senders.
    std::optional<sim::NodeAddr> client; // Who to notify on completion.
    sim::Time created = 0;
    bool recorded = false;               // Appended to committed history.
    std::uint64_t vote_span = 0;    // "vote-collect" span id (0 = none).
    std::uint64_t quorum_span = 0;  // "quorum" span id (0 = none).
  };
  struct GuidContext {
    std::map<std::uint64_t, Instance> instances;  // By update_id.
    std::optional<std::uint64_t> chosen_update;   // Node lock holder.
    std::vector<CommittedEntry> committed;        // Local commit order.
    std::set<std::uint64_t> settled;  // Finished & garbage-collected ids:
                                      // late traffic is absorbed, never
                                      // re-instantiated.
  };

  void handle(sim::NodeAddr from, const std::string& payload);
  void handle_honest(sim::NodeAddr from, const WireMessage& msg);
  void handle_equivocator(const WireMessage& msg);

  /// Deliver one abstract-model message to an instance and execute the
  /// resulting actions; internal free/not_free deliveries are queued and
  /// drained iteratively to avoid unbounded recursion.
  void deliver(GuidContext& ctx, std::uint64_t guid, std::uint64_t update_id,
               fsm::MessageId message);
  void run_queue(GuidContext& ctx, std::uint64_t guid);
  void execute_actions(GuidContext& ctx, std::uint64_t guid,
                       std::uint64_t update_id,
                       fsm::CompiledInstance::Delivery delivery);
  /// Offer a freed node lock to pending siblings, one at a time, stopping
  /// as soon as one of them chooses (retakes the lock).
  void free_siblings(GuidContext& ctx, std::uint64_t guid,
                     std::uint64_t source);
  void broadcast(const WireMessage& msg);
  void check_finished(GuidContext& ctx, std::uint64_t guid,
                      std::uint64_t update_id);

  Instance& instance(GuidContext& ctx, std::uint64_t guid,
                     std::uint64_t update_id, const WireMessage& msg);

  void abort_scan(sim::Time max_age);
  void arm_abort_scan();
  void cancel_abort_scan();

  sim::Network& network_;
  sim::NodeAddr self_;
  std::vector<sim::NodeAddr> peers_;  // Including self_.
  PeerResolver resolver_;
  fsm::CompiledMachine compiled_;  // The commit FSM, compiled once.
  std::vector<Action> actions_;    // Per compiled action id.
  Behaviour behaviour_;
  PeerHardening hardening_;
  sim::Trace* trace_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::SpanRecorder* spans_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  CommitSink commit_sink_;
  AckSink ack_sink_;
  ImportSink import_sink_;
  PeerStats stats_;
  std::map<std::uint64_t, GuidContext> guids_;
  std::deque<std::pair<std::uint64_t, fsm::MessageId>> local_queue_;
  bool draining_ = false;
  std::set<UpdateKey> equivocated_;  // Equivocator: one blast per update.
  sim::Time abort_interval_ = 0;
  sim::Time abort_max_age_ = 0;
  bool abort_armed_ = false;
  std::uint64_t abort_event_ = 0;  // Pending scan id, for destructor cancel.
};

}  // namespace asa_repro::commit
