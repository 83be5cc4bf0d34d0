// Simulated message network.
//
// Nodes register a delivery handler under an integer address; sends are
// scheduled onto the discrete-event scheduler with a configurable latency
// distribution, drop probability and directed partitions. Payloads are
// opaque byte strings; higher layers define their own wire formats.
//
// This substitutes for the physical network the paper deployed on; the
// substitution is behaviour-preserving for the protocol logic (same
// asynchronous, reordering, lossy delivery model) and adds deterministic
// replay and fault injection.
//
// Per-link adversity: any directed link can carry a LinkProfile — a named
// latency class (lan/wan/sat) with its own delay range, jitter and a
// two-state Gilbert–Elliott burst-loss model (a good state with rare loss
// and a bad state with heavy loss, switching with per-transition
// probabilities — bursty loss, unlike the memoryless global drop rate).
// Profiles are directed, so a->b and b->a can differ (asymmetric paths).
//
// Determinism under churn: all per-message randomness (drop, duplicate,
// latency, loss-state transitions) is drawn from a per-directed-link RNG
// substream seed-split from the network seed and the (from, to) pair.
// Traffic appearing on one link — e.g. a node joining mid-run — therefore
// never perturbs the random stream of any other link: an existing link's
// delivery sequence is bit-identical with or without the newcomer.
//
// Causal message tracing: every send is assigned a monotonically
// increasing message id, threaded from the send decision (drop, duplicate,
// partition) through to each delivery. With an event recorder attached
// the network records one typed event per decision — net.send, net.drop,
// net.part, net.dup, net.deliver, net.dead — so per-message latency, loss
// and amplification are attributable to individual messages rather than
// only counted in aggregate, and the JSONL trace reconciles exactly with
// NetworkStats. With a metrics registry attached, delivery latencies feed
// per-link and per-class histograms, whose handles the link table holds.
// Both hooks default to off and cost one pointer test per message when
// off; ids are always assigned (one increment) so replay tooling can
// correlate runs.
//
// Message path: a send allocates nothing. The payload is a sim::Payload,
// which holds a commit frame in place and spills only larger storage
// frames; each copy becomes a typed Delivery record scheduled on the
// scheduler (no closure), the last copy takes the payload by move, and
// only a --duplicate second copy is a copy. Links live in one
// open-addressing FlatMap keyed by the packed (from << 32) | to word,
// which also seeds the link's RNG substream; an entry holds the RNG, the
// loss and partition flags, the link's latency series and an index into
// the out-of-line profile list, so a send does one probe. Handlers sit in
// a second FlatMap keyed by address, so a delivery does one probe too.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "sim/flat_map.hpp"
#include "sim/payload.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace asa_repro::sim {

/// Latency model: uniform in [min_latency, max_latency].
struct LatencyModel {
  Time min_latency = 500;    // 0.5 ms
  Time max_latency = 5'000;  // 5 ms

  friend bool operator==(const LatencyModel&, const LatencyModel&) = default;
};

/// Reject a degenerate model (min > max would make the uniform range
/// underflow). Network validates at construction and profile installation.
void validate(const LatencyModel& model);

/// A directed link's behaviour: base latency range plus jitter (an extra
/// uniform [0, jitter] added per message) and a two-state Gilbert–Elliott
/// loss model. The link sits in the good or bad state; before each message
/// it transitions with the configured probabilities, then drops the message
/// with the state's loss probability. p_bad_to_good = 1 and loss_bad =
/// loss_good degenerates to independent per-message loss.
struct LinkProfile {
  std::string name = "default";  // Class name (for metrics/labels).
  LatencyModel latency{};
  Time jitter = 0;
  double loss_good = 0.0;      // Loss probability in the good state.
  double loss_bad = 0.0;       // Loss probability in the bad state.
  double p_good_to_bad = 0.0;  // Per-message transition probabilities.
  double p_bad_to_good = 1.0;

  friend bool operator==(const LinkProfile&, const LinkProfile&) = default;
};

/// Named latency classes modelled on deployment environments, in the order
/// generated fault plans draw them:
///   lan — sub-millisecond, no jitter, lossless;
///   wan — tens of milliseconds, jittery, bursty ~0.1%/20% GE loss;
///   sat — geostationary-grade quarter-second delay, heavy loss bursts.
[[nodiscard]] const std::array<LinkProfile, 3>& link_classes();

/// The class named `name`. "default" (LinkProfile{}'s name) returns the
/// network-default profile (uniform 0.5–5 ms, lossless) used to reset a
/// link. Unknown names return nullopt.
std::optional<LinkProfile> link_profile(const std::string& name);

/// Network-wide statistics.
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t partitioned = 0;
  std::uint64_t to_dead_node = 0;
  std::uint64_t burst_dropped = 0;  // Subset of dropped: GE bad state.
  friend bool operator==(const NetworkStats&, const NetworkStats&) = default;
};

class Network {
 public:
  using Handler = std::function<void(NodeAddr from, std::string_view payload)>;

  /// Throws std::invalid_argument for a degenerate latency model.
  Network(Scheduler& sched, Rng rng, LatencyModel latency = {});

  /// Register (or replace) the handler for `addr`. A node without a handler
  /// silently drops inbound traffic (models a crashed node). A handler that
  /// takes `const std::string&` is adapted: it reads a string the adapter
  /// keeps and refills per message, so it allocates only to grow it.
  template <class F>
  void attach(NodeAddr addr, F handler) {
    if constexpr (std::is_invocable_v<F&, NodeAddr, std::string_view>) {
      install(addr, Handler(std::move(handler)));
    } else {
      install(addr, [on_frame = std::move(handler), bytes = std::string()](
                        NodeAddr from, std::string_view payload) mutable {
        bytes.assign(payload);
        on_frame(from, std::as_const(bytes));
      });
    }
  }

  /// Detach a node: inbound messages are dropped until re-attached.
  void detach(NodeAddr addr) {
    if (auto* slot = handlers_.find(addr)) **slot = nullptr;
  }

  [[nodiscard]] bool attached(NodeAddr addr) const {
    const auto* slot = handlers_.find(addr);
    return slot != nullptr && static_cast<bool>(**slot);
  }

  /// Message loss probability in [0,1], applied per message (independent
  /// coin flips, on top of any per-link Gilbert–Elliott loss). Throws
  /// std::invalid_argument outside [0,1].
  void set_drop_probability(double p) {
    drop_probability_ = checked_probability(p);
  }

  /// Probability in [0,1] that a message is delivered twice (with an
  /// independently sampled second latency). Networks duplicate; protocol
  /// layers must deduplicate. Throws std::invalid_argument outside [0,1].
  void set_duplicate_probability(double p) {
    duplicate_probability_ = checked_probability(p);
  }

  /// Install a profile on the directed link from->to (asymmetric by
  /// construction: set both directions for a symmetric path). Resets the
  /// link's loss state to good. Throws std::invalid_argument for a
  /// degenerate latency range or out-of-range probabilities.
  void set_link_profile(NodeAddr from, NodeAddr to, LinkProfile profile);

  /// Remove the directed link's profile (back to network defaults).
  void clear_link_profile(NodeAddr from, NodeAddr to);

  /// The installed profile's class name, or "default".
  [[nodiscard]] const std::string& link_class(NodeAddr from,
                                              NodeAddr to) const;

  /// True when the directed link's Gilbert–Elliott model currently sits in
  /// the bad (bursty-loss) state.
  [[nodiscard]] bool link_in_bad_state(NodeAddr from, NodeAddr to) const;

  /// Attach an event recorder for causal per-message tracing (kinds
  /// net.*): send-side fates are recorded under `from`, terminal fates
  /// under `to`. nullptr (default) disables.
  void set_recorder(obs::EventRecorder* events) { events_ = events; }

  /// Attach a metrics registry for per-link latency histograms. nullptr
  /// (default) disables. Each link resolves its two series on its first
  /// delivery and keeps the handles; attaching a registry drops them all.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Observe every message copy as it comes up for delivery, before the
  /// receiver's handler (or the dead-node sink) sees it. Tests use it to
  /// pin the delivery sequence. Empty (default) disables.
  using DeliveryObserver = std::function<void(const Delivery&)>;
  void set_delivery_observer(DeliveryObserver observer) {
    observer_ = std::move(observer);
  }

  /// Sever the directed link a->b (messages silently lost).
  void partition(NodeAddr a, NodeAddr b) { link(a, b).partitioned = true; }

  /// Restore the directed link a->b.
  void heal(NodeAddr a, NodeAddr b);

  /// Sever both directions between a and b.
  void partition_bidirectional(NodeAddr a, NodeAddr b) {
    partition(a, b);
    partition(b, a);
  }

  /// Queue a message for delivery. Latency is sampled per message, so
  /// messages between the same pair of nodes may be reordered — the
  /// protocol layer must tolerate this (and the commit FSM does).
  /// Returns the message's causal id.
  std::uint64_t send(NodeAddr from, NodeAddr to, Payload payload);

  // ---- Manual delivery mode (systematic schedule exploration). ----
  //
  // In manual mode sends are buffered instead of scheduled; a test harness
  // chooses which pending message to deliver next, enumerating delivery
  // orders deterministically (drop/duplicate/partition faults still apply
  // at send time; latency does not, since the explorer IS the scheduler).

  void set_manual_mode(bool manual) { manual_mode_ = manual; }

  /// Number of buffered, undelivered messages.
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }

  /// Peek at a pending message's addressing (for schedule heuristics).
  /// Throws std::out_of_range for an invalid index.
  [[nodiscard]] std::pair<NodeAddr, NodeAddr> pending_route(
      std::size_t index) const {
    check_pending_index(index);
    return {pending_[index].from, pending_[index].to};
  }

  /// Peek at a pending message's payload (for harnesses that select
  /// messages by parsed content, e.g. counterexample-schedule replay). The
  /// view lasts until the pending buffer changes. Throws std::out_of_range
  /// for an invalid index.
  [[nodiscard]] std::string_view pending_payload(std::size_t index) const {
    check_pending_index(index);
    return pending_[index].payload;
  }

  /// Deliver the index-th pending message now (removes it from the
  /// buffer). Handlers may send more messages, which append to the buffer.
  /// Throws std::out_of_range for an invalid index.
  void deliver_pending(std::size_t index);

  /// Drop the index-th pending message without delivering it (counted in
  /// stats as dropped). Throws std::out_of_range for an invalid index.
  void drop_pending(std::size_t index);

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] Scheduler& scheduler() { return sched_; }

  /// Ids are assigned from 1; the next send gets this value.
  [[nodiscard]] std::uint64_t next_message_id() const { return next_msg_id_; }

 private:
  friend class Scheduler;  // Hands fired Delivery records to deliver_copy.

  /// Per-directed-link state: an independent RNG substream plus the
  /// Gilbert–Elliott loss state, the partition flag, the installed profile
  /// (an index into profiles_, kNoProfile for the network default) and the
  /// link's resolved latency series: its net.latency_us{link} and its
  /// class's net.class_latency_us{class}, nullptr until the first delivery
  /// with a registry attached. A profile change drops the class handle,
  /// since it may change the class.
  struct LinkState {
    Rng rng;
    obs::Histogram* latency = nullptr;
    obs::Histogram* class_latency = nullptr;
    std::uint32_t profile = kNoProfile;
    bool bad = false;
    bool partitioned = false;
  };
  static constexpr std::uint32_t kNoProfile = ~std::uint32_t{0};

  /// The flat link table's key: the directed pair packed into one word.
  /// NodeAddr is 32-bit, so the packing is collision-free and
  /// direction-sensitive.
  static std::uint64_t link_key(NodeAddr from, NodeAddr to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  void check_pending_index(std::size_t index) const {
    if (index >= pending_.size()) {
      throw std::out_of_range("Network: pending message index " +
                              std::to_string(index) + " >= " +
                              std::to_string(pending_.size()));
    }
  }

  /// The link's state, created on first use with a seed split from the
  /// network seed and the (from, to) pair — creation order is irrelevant.
  /// Creating a link moves the others: hold no LinkState& across it.
  LinkState& link(NodeAddr from, NodeAddr to);
  /// The link's state if it exists (lookups that must not create it).
  [[nodiscard]] const LinkState* find_link(NodeAddr from, NodeAddr to) const;

  /// The link's installed profile, or nullptr for the network default.
  [[nodiscard]] const LinkProfile* profile_of(const LinkState& state) const {
    return state.profile == kNoProfile ? nullptr : &profiles_[state.profile];
  }

  void install(NodeAddr addr, Handler handler);

  /// `p`, or std::invalid_argument when it lies outside [0,1].
  static double checked_probability(double p);

  /// Record a net.* event at the current time, if recording.
  void note(obs::EventKind kind, NodeAddr lane,
            const obs::EventFields& fields) {
    if (events_ != nullptr) events_->record(kind, sched_.now(), lane, fields);
  }

  /// Terminal step of one message copy: account, record and hand to the
  /// receiver's handler (or the dead-node sink).
  void deliver_copy(const Delivery& copy);
  /// Feed a delivered copy's latency to its link's two histograms.
  void observe_latency(NodeAddr from, NodeAddr to, Time latency);

  Scheduler& sched_;
  std::uint64_t link_seed_base_;
  LatencyModel latency_;
  double drop_probability_ = 0.0;
  double duplicate_probability_ = 0.0;
  bool manual_mode_ = false;
  std::vector<Delivery> pending_;
  // By address. A handler may attach another node while it runs, so each
  // sits behind a pointer that table growth does not move.
  FlatMap<std::unique_ptr<Handler>> handlers_;
  FlatMap<LinkState> links_;  // By link_key().
  // Every distinct profile ever installed; links refer to them by index.
  // A deque, so link_class()'s reference survives later installations.
  std::deque<LinkProfile> profiles_;
  NetworkStats stats_;
  obs::EventRecorder* events_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  DeliveryObserver observer_;
  std::uint64_t next_msg_id_ = 1;
};

}  // namespace asa_repro::sim
