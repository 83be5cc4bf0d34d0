#include "check/composition.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "commit/commit_model.hpp"
#include "commit/variants.hpp"

namespace asa_repro::check {
namespace {

using commit::CommitModel;
using commit::ReplayPlan;
using commit::ReplayStep;
using commit::ModelOnly;

const commit::VariantEntry& variant_named(const std::string& name) {
  if (const auto* entry = commit::find_variant(name)) return *entry;
  throw std::invalid_argument("check_composition: unknown mutation " + name);
}

// ---- The composed state. ----
//
// Message content in this protocol is a function of (kind, update): every
// vote for update u is identical, so machines need only COUNT deliveries
// and the network need only count in-flight copies. Sender identity is
// erased from the state entirely; the number of copies ever sent to peer j
// is derived from the other peers' vote_sent/commit_sent bits (updates:
// from the endpoint's attempt counter), and in-flight = sent - consumed -
// missed. Ground-truth distinctness (the agreement certificate and quorum
// justification) lives in the *_unique counters, which repeats the dedup
// rule admits (comp.dup_vote) deliberately do not advance.

constexpr std::uint8_t kNoLock = 0xFF;
constexpr std::uint8_t kConfirmCap = 2;  // Record + one re-confirmation.

enum ReqStatus : std::uint8_t { kActive = 0, kAcked = 1, kFailed = 2 };

struct Cell {
  // Machine state vector (CommitModel component order).
  std::uint8_t update_received = 0;
  std::uint8_t votes_received = 0;  // Counts admitted repeats too.
  std::uint8_t vote_sent = 0;
  std::uint8_t commits_received = 0;
  std::uint8_t commit_sent = 0;
  std::uint8_t could_choose = 1;
  std::uint8_t has_chosen = 0;
  // Network/ground-truth bookkeeping, invisible to the machine.
  // Unique counters are folded into the missed counters once they become
  // behaviorally dead (votes after the commit is emitted, commits after
  // the record), so equivalent states merge; see absorb().
  std::uint8_t votes_unique = 0;     // Distinct vote senders consumed.
  std::uint8_t commits_unique = 0;   // Distinct commit senders consumed.
  std::uint8_t votes_missed = 0;     // Copies dropped, expired or folded.
  std::uint8_t commits_missed = 0;
  std::uint8_t updates_gone = 0;     // Copies consumed, dropped or expired
                                     //   (consumed ⟺ update_received).
  std::uint8_t recorded = 0;
  std::uint8_t confirms_pending = 0;  // In-flight kCommitted to endpoint.
  std::uint8_t confirm_counted = 0;   // Endpoint consumed our confirmation.

  friend auto operator<=>(const Cell&, const Cell&) = default;
};

// Every cell field with its packed width (36 bits a cell). The first
// kMachineFields are the machine's state vector in CommitModel component
// order; the checker's table is generated unpruned and unmerged, so every
// such vector is a state of its own (StateSpace::encode/decode map between
// the two), and the packing and canonical order of cells stay field-wise.
struct CellField {
  std::uint8_t Cell::*field;
  std::uint8_t bits;
};
constexpr std::array<CellField, 15> kCellFields = {{
    {&Cell::update_received, 1}, {&Cell::votes_received, 4},
    {&Cell::vote_sent, 1}, {&Cell::commits_received, 4},
    {&Cell::commit_sent, 1}, {&Cell::could_choose, 1},
    {&Cell::has_chosen, 1}, {&Cell::votes_unique, 4},
    {&Cell::commits_unique, 4}, {&Cell::votes_missed, 4},
    {&Cell::commits_missed, 4}, {&Cell::updates_gone, 3},
    {&Cell::recorded, 1}, {&Cell::confirms_pending, 2},
    {&Cell::confirm_counted, 1}}};
constexpr std::size_t kMachineFields = 7;

struct Peer {
  std::vector<Cell> cells;       // One machine instance per request.
  std::uint8_t lock = kNoLock;   // Which update holds the node lock.
  std::uint8_t crashed = 0;

  friend auto operator<=>(const Peer&, const Peer&) = default;
};

struct Request {
  std::uint8_t status = kActive;
  std::uint8_t attempts = 1;  // Submitted at init: attempt 1 in flight.
};

struct State {
  std::vector<Peer> peers;
  std::vector<Request> requests;
  std::uint8_t drops_used = 0;
  std::uint8_t dups_used = 0;
  std::uint8_t crashes_used = 0;
};

// ---- Packed transitions. ----

enum class Act : std::uint8_t {
  kDeliverUpdate,
  kDeliverVote,
  kDeliverCommit,
  kDeliverConfirm,
  kDupVote,
  kDupCommit,
  kDropUpdate,
  kDropVote,
  kDropCommit,
  kDropConfirm,
  kCrash,
  kRetry,
  kFail,
  kRecord,
  kNoneSentinel,  // Trace terminator for state-local findings (deadlock).
};

std::uint64_t pack_act(Act t, std::uint32_t j = 0, std::uint32_t u = 0) {
  return static_cast<std::uint64_t>(t) |
         (static_cast<std::uint64_t>(j) << 8) |
         (static_cast<std::uint64_t>(u) << 16);
}
Act act_type(std::uint64_t a) { return static_cast<Act>(a & 0xFF); }
std::uint32_t act_peer(std::uint64_t a) { return (a >> 8) & 0xFF; }
std::uint32_t act_update(std::uint64_t a) { return (a >> 16) & 0xFF; }

struct Violation {
  const char* check;   // Short id, e.g. "agreement".
  std::string message;
};

// ---- The transition engine, shared by the BFS and the trace exporter. ----

/// The peer table the checker steps: the machine's model, left unpruned
/// and unmerged so that a state id is a field vector.
fsm::CompiledMachine compile_unmerged(const CommitModel& model) {
  fsm::GenerationOptions options;
  options.prune_unreachable = false;
  options.merge_equivalent = false;
  options.annotate = false;
  return fsm::CompiledMachine::compile(model.generate_state_machine(options));
}

const CompositionOptions& validated(const CompositionOptions& opt) {
  if (opt.r < 2 || opt.r > 12) {
    throw std::invalid_argument("check_composition: r must be in [2, 12]");
  }
  if (opt.requests < 1 || opt.requests > 6 || opt.attempts < 1 ||
      opt.attempts > 7 || opt.drops > 7 || opt.dups > 7) {
    throw std::invalid_argument(
        "check_composition: requests in [1,6], attempts in [1,7], "
        "drops/dups <= 7");
  }
  return opt;
}

class Engine {
 public:
  explicit Engine(const CompositionOptions& opt)
      : opt_(validated(opt)),
        variant_(variant_named(opt.mutation)),
        // Only the attempt budget of the endpoint's policy reaches its rule.
        rules_(commit::rules_for(
            opt.r, commit::RetryPolicy{.max_attempts = opt.attempts},
            variant_)),
        model_(opt.r, rules_.thresholds),
        machine_(compile_unmerged(model_)),
        f_(model_.max_faulty()),
        crash_budget_(std::min(opt.crashes, f_)),
        cascade_(machine_, rules_.dedup) {
    vectors_.resize(machine_.state_count());
    for (fsm::StateId id = 0; id < machine_.state_count(); ++id) {
      const fsm::StateVector v = model_.space().decode(id);
      std::copy(v.begin(), v.end(), vectors_[id].begin());
    }
  }

  [[nodiscard]] const CompositionOptions& options() const { return opt_; }
  [[nodiscard]] std::uint32_t f() const { return f_; }
  [[nodiscard]] std::size_t absorbed() const { return absorbed_; }

  [[nodiscard]] State initial() const {
    State s;
    s.peers.resize(opt_.r);
    for (Peer& p : s.peers) p.cells.resize(opt_.requests);
    s.requests.resize(opt_.requests);
    return s;
  }

  // -- In-flight derivation (count-based network). --

  /// Peers other than j whose `sent` bit (vote_sent or commit_sent) for
  /// update u is set: the copies ever sent to j.
  [[nodiscard]] std::uint32_t senders(const State& s, std::uint32_t j,
                                      std::uint32_t u,
                                      std::uint8_t Cell::*sent) const {
    std::uint32_t n = 0;
    for (std::uint32_t q = 0; q < opt_.r; ++q) {
      if (q != j && s.peers[q].cells[u].*sent != 0) ++n;
    }
    return n;
  }
  [[nodiscard]] std::uint32_t inflight_votes(const State& s, std::uint32_t j,
                                             std::uint32_t u) const {
    const Cell& c = s.peers[j].cells[u];
    return senders(s, j, u, &Cell::vote_sent) - c.votes_unique -
           c.votes_missed;
  }
  [[nodiscard]] std::uint32_t inflight_commits(const State& s,
                                               std::uint32_t j,
                                               std::uint32_t u) const {
    const Cell& c = s.peers[j].cells[u];
    return senders(s, j, u, &Cell::commit_sent) - c.commits_unique -
           c.commits_missed;
  }
  [[nodiscard]] std::uint32_t inflight_updates(const State& s,
                                               std::uint32_t j,
                                               std::uint32_t u) const {
    const Cell& c = s.peers[j].cells[u];
    return s.requests[u].attempts - c.updates_gone;
  }

  [[nodiscard]] std::uint32_t total_inflight(const State& s) const {
    std::uint32_t n = 0;
    for (std::uint32_t j = 0; j < opt_.r; ++j) {
      for (std::uint32_t u = 0; u < opt_.requests; ++u) {
        n += s.peers[j].cells[u].confirms_pending;
        if (s.peers[j].crashed != 0) continue;
        n += inflight_updates(s, j, u) + inflight_votes(s, j, u) +
             inflight_commits(s, j, u);
      }
    }
    return n;
  }

  [[nodiscard]] bool is_final(const Cell& c) const {
    return c.commits_received >= model_.commit_threshold();
  }

  /// A cell that may (re-)send a kCommitted to the endpoint. Pristine:
  /// only recorded cells; under comp.ack_before_record finality alone is
  /// enough — that is the bug.
  [[nodiscard]] bool confirm_capable(const Cell& c) const {
    return c.recorded != 0 || (model_only(ModelOnly::kAckBeforeRecord) &&
                               is_final(c));
  }

  /// A redelivered update to (j, u) would trigger a re-confirmation the
  /// endpoint can still use; otherwise the redelivery is a no-op.
  [[nodiscard]] bool reconfirm_useful(const State& s, std::uint32_t u,
                                      const Cell& c) const {
    return confirm_capable(c) && c.confirms_pending < kConfirmCap &&
           s.requests[u].status == kActive && c.confirm_counted == 0;
  }

  // -- Eager absorb closure (sleep-set-style reduction). --
  //
  // Deliveries consumed here are no-ops on every predicate and on the
  // enabledness of every other transition: they only decrement the
  // in-flight count of the one message they consume. Delivering them
  // eagerly (in a fixed order) is therefore sound for all composition.*
  // properties, which are stutter-invariant.
  void absorb(State& s) {
    for (std::uint32_t j = 0; j < opt_.r; ++j) {
      Peer& p = s.peers[j];
      for (std::uint32_t u = 0; u < opt_.requests; ++u) {
        Cell& c = p.cells[u];
        if (p.crashed != 0) {
          // Messages to a crashed peer are dead; expire them, and collapse
          // every field nothing else reads — the machine never runs again.
          // The broadcast bits, the record and the confirmation state
          // survive: other peers' in-flight counts and the validity /
          // durability checks read those.
          absorbed_ += inflight_updates(s, j, u) + inflight_votes(s, j, u) +
                       inflight_commits(s, j, u);
          c.update_received = 0;
          c.votes_received = 0;
          c.commits_received = 0;
          c.could_choose = 0;
          c.has_chosen = 0;
          c.votes_unique = 0;
          c.votes_missed =
              static_cast<std::uint8_t>(senders(s, j, u, &Cell::vote_sent));
          c.commits_unique = 0;
          c.commits_missed =
              static_cast<std::uint8_t>(senders(s, j, u, &Cell::commit_sent));
          c.updates_gone =
              static_cast<std::uint8_t>(s.requests[u].attempts);
          p.lock = kNoLock;
        } else {
          // Duplicate update requests that cannot trigger a usable
          // re-confirmation are machine no-ops.
          while (inflight_updates(s, j, u) > 0 && c.update_received != 0 &&
                 !reconfirm_useful(s, u, c)) {
            ++c.updates_gone;
            ++absorbed_;
          }
          // Votes to saturated or finished machines are dropped by the
          // driver; a machine that has sent both its vote and its commit
          // only bumps a counter no future transition reads. Either way
          // the delivery is a no-op: consume the distinct sender.
          while (inflight_votes(s, j, u) > 0 &&
                 (c.votes_received >= opt_.r - 1 || is_final(c) ||
                  (c.vote_sent != 0 && c.commit_sent != 0))) {
            ++c.votes_unique;
            ++absorbed_;
          }
          while (inflight_commits(s, j, u) > 0 &&
                 (c.commits_received >= opt_.r - 1 || is_final(c))) {
            ++c.commits_unique;
            ++absorbed_;
          }
          // A final machine absorbs everything and is skipped by sibling
          // lock offers: its vote counter and choice flags are dead.
          // Zeroing them makes "deliver then finalize" and "finalize then
          // absorb" reach identical states, which the ample reduction in
          // enumerate() relies on.
          if (is_final(c)) {
            c.votes_received = 0;
            c.could_choose = 0;
            c.has_chosen = 0;
          }
        }
        // Confirmations the endpoint can no longer use (request resolved,
        // or this peer already counted) are dead on arrival.
        if (c.confirms_pending > 0 &&
            (s.requests[u].status != kActive || c.confirm_counted != 0)) {
          absorbed_ += c.confirms_pending;
          c.confirms_pending = 0;
        }
        // Fold ground-truth counters no future check reads, so states
        // that differ only in dead bookkeeping merge: distinct votes are
        // read once, when the commit action is emitted; distinct commits
        // are read once, when the record is written.
        if (c.commit_sent != 0 && c.votes_unique != 0) {
          c.votes_missed += c.votes_unique;
          c.votes_unique = 0;
        }
        if (c.recorded != 0 && c.commits_unique != 0) {
          c.commits_missed += c.commits_unique;
          c.commits_unique = 0;
        }
      }
    }
  }

  // -- Enabled-transition enumeration (post-closure states only). --

  void enumerate(const State& s, std::vector<std::uint64_t>& out) const {
    out.clear();
    // Ample-set reduction: a vote/commit delivery that stays strictly
    // below its threshold even if the machine's own send bit flips first
    // is a pure counter increment — no action, no check, no cascade. It
    // commutes with every transition at other cells; at the same cell,
    // counter arithmetic commutes and idempotent send guards make either
    // order fire identical actions. A crash of the target peer erases the
    // counter either way (crashed-cell collapse), so deliver-then-crash
    // and expire-under-crash reach the same state. Exploring only this
    // delivery (plus its drop twin while the budget lasts) is therefore a
    // persistent set; the search space is a DAG (every transition spends
    // a monotone resource), so no ignoring problem arises.
    const bool can_drop = s.drops_used < opt_.drops;
    // A delivery to cell (j, u), and its drop twin while the budget lasts.
    const auto offer = [&](Act deliver, Act drop, std::uint32_t j,
                           std::uint32_t u) {
      out.push_back(pack_act(deliver, j, u));
      if (can_drop) out.push_back(pack_act(drop, j, u));
    };
    for (std::uint32_t j = 0; j < opt_.r; ++j) {
      if (s.peers[j].crashed != 0) continue;
      for (std::uint32_t u = 0; u < opt_.requests; ++u) {
        const Cell& c = s.peers[j].cells[u];
        if (is_final(c)) continue;
        if (inflight_votes(s, j, u) > 0 &&
            c.votes_received + 2u < model_.vote_threshold()) {
          return offer(Act::kDeliverVote, Act::kDropVote, j, u);
        }
        if (inflight_commits(s, j, u) > 0 &&
            c.commits_received + 1u < model_.commit_threshold()) {
          return offer(Act::kDeliverCommit, Act::kDropCommit, j, u);
        }
      }
    }
    for (std::uint32_t u = 0; u < opt_.requests; ++u) {
      if (s.requests[u].status != kActive ||
          model_only(ModelOnly::kDropRetry)) {
        continue;
      }
      out.push_back(pack_act(rules_.endpoint.may_retry(s.requests[u].attempts)
                                 ? Act::kRetry
                                 : Act::kFail,
                             0, u));
    }
    for (std::uint32_t j = 0; j < opt_.r; ++j) {
      const Peer& p = s.peers[j];
      for (std::uint32_t u = 0; u < opt_.requests; ++u) {
        const Cell& c = p.cells[u];
        // Confirmations survive their sender's crash (sent before it).
        if (c.confirms_pending > 0) {
          offer(Act::kDeliverConfirm, Act::kDropConfirm, j, u);
        }
        if (p.crashed != 0) continue;
        if (inflight_updates(s, j, u) > 0) {
          offer(Act::kDeliverUpdate, Act::kDropUpdate, j, u);
        }
        if (inflight_votes(s, j, u) > 0) {
          offer(Act::kDeliverVote, Act::kDropVote, j, u);
        }
        if (inflight_commits(s, j, u) > 0) {
          offer(Act::kDeliverCommit, Act::kDropCommit, j, u);
        }
        // A repeat copy is a transition only where the dedup rule admits it.
        if (rules_.dedup.admit_repeats && s.dups_used < opt_.dups &&
            !is_final(c)) {
          if (c.votes_unique > 0 && c.votes_received < opt_.r - 1) {
            out.push_back(pack_act(Act::kDupVote, j, u));
          }
          if (c.commits_unique > 0 && c.commits_received < opt_.r - 1) {
            out.push_back(pack_act(Act::kDupCommit, j, u));
          }
        }
        if (model_only(ModelOnly::kAckBeforeRecord) && is_final(c) &&
            c.recorded == 0) {
          out.push_back(pack_act(Act::kRecord, j, u));
        }
      }
      if (p.crashed == 0 && s.crashes_used < crash_budget_) {
        out.push_back(pack_act(Act::kCrash, j, 0));
      }
    }
  }

  // -- Transition application (peer steps run commit/cascade.hpp). --

  void apply(State& s, std::uint64_t a, std::vector<Violation>& viols) {
    const std::uint32_t j = act_peer(a);
    const std::uint32_t u = act_update(a);
    // One abstract message to cell (j, u), through the deployed cascade;
    // a vote or commit is a distinct sender's copy or a repeat, and the
    // cascade's dedup rule judges both.
    Cell& c = s.peers[j].cells[u];
    Host host{*this, s.peers[j], viols};
    switch (act_type(a)) {
      case Act::kDeliverUpdate:
        ++c.updates_gone;
        if (c.update_received != 0) {
          // Re-sent request to a finished instance: re-confirm (the
          // original kCommitted may have been lost).
          ++c.confirms_pending;
        } else {
          cascade_.deliver(host, c, commit::kUpdate);
        }
        break;
      case Act::kDeliverVote:
        ++c.votes_unique;
        cascade_.deliver_copy(host, c, commit::kVote, /*first_copy=*/true);
        break;
      case Act::kDeliverCommit:
        ++c.commits_unique;
        cascade_.deliver_copy(host, c, commit::kCommit, /*first_copy=*/true);
        break;
      case Act::kDupVote:
        ++s.dups_used;
        cascade_.deliver_copy(host, c, commit::kVote, /*first_copy=*/false);
        break;
      case Act::kDupCommit:
        ++s.dups_used;
        cascade_.deliver_copy(host, c, commit::kCommit, /*first_copy=*/false);
        break;
      case Act::kDropUpdate:
        ++c.updates_gone;
        ++s.drops_used;
        break;
      case Act::kDropVote:
        ++c.votes_missed;
        ++s.drops_used;
        break;
      case Act::kDropCommit:
        ++c.commits_missed;
        ++s.drops_used;
        break;
      case Act::kDropConfirm:
        --c.confirms_pending;
        ++s.drops_used;
        break;
      case Act::kDeliverConfirm: {
        --c.confirms_pending;
        c.confirm_counted = 1;
        std::uint32_t distinct = 0;
        for (std::uint32_t q = 0; q < opt_.r; ++q) {
          distinct += s.peers[q].cells[u].confirm_counted;
        }
        if (rules_.endpoint.acknowledged(distinct)) {
          s.requests[u].status = kAcked;
          if (distinct < f_ + 1) {
            viols.push_back(
                {"ack_quorum",
                 "request acknowledged after " + std::to_string(distinct) +
                     " distinct confirmation(s); f+1=" +
                     std::to_string(f_ + 1) + " required"});
          }
          bool recorded_somewhere = false;
          for (std::uint32_t q = 0; q < opt_.r; ++q) {
            recorded_somewhere |= s.peers[q].cells[u].recorded != 0;
          }
          if (!recorded_somewhere) {
            viols.push_back(
                {"validity",
                 "request acknowledged while no peer has recorded it"});
          }
        }
        break;
      }
      case Act::kCrash: {
        Peer& p = s.peers[j];
        p.crashed = 1;
        ++s.crashes_used;
        for (const Cell& cell : p.cells) {
          if (is_final(cell) && cell.recorded == 0 &&
              (cell.confirms_pending > 0 || cell.confirm_counted != 0)) {
            viols.push_back(
                {"ack_durable",
                 "peer crashed after confirming an update it never "
                 "recorded"});
          }
        }
        break;
      }
      case Act::kRetry:
        ++s.requests[u].attempts;
        break;
      case Act::kFail:
        s.requests[u].status = kFailed;
        break;
      case Act::kRecord:
        do_record(s.peers[j], u, viols);
        break;
      case Act::kNoneSentinel:
        break;
    }
  }

  // -- Orbit canonicalization (symmetry reduction over peer identity). --
  //
  // Peers are copies of one machine and no state field names a peer (the
  // count-based network erased sender identity), so permuting peers maps
  // reachable states to reachable states and preserves every property.
  // The canonical representative sorts per-peer records; the returned
  // permutation sigma satisfies canonical.peers[k] = s.peers[sigma[k]].
  std::vector<std::uint8_t> canonicalize(State& s) const {
    std::vector<std::uint8_t> sigma(opt_.r);
    std::iota(sigma.begin(), sigma.end(), std::uint8_t{0});
    std::stable_sort(sigma.begin(), sigma.end(),
                     [&](std::uint8_t a, std::uint8_t b) {
                       return s.peers[a] < s.peers[b];
                     });
    std::vector<Peer> sorted;
    sorted.reserve(opt_.r);
    for (std::uint8_t idx : sigma) sorted.push_back(std::move(s.peers[idx]));
    s.peers = std::move(sorted);
    return sigma;
  }

  // -- Fixed-stride state packing. --

  [[nodiscard]] std::size_t stride() const {
    const std::size_t bits =
        opt_.r * (opt_.requests * 36 + 4) + opt_.requests * 5 + 9;
    return (bits + 63) / 64;
  }

  void pack(const State& s, std::uint64_t* out) const {
    std::memset(out, 0, stride() * sizeof(std::uint64_t));
    std::size_t pos = 0;
    const auto put = [&](std::uint32_t v, std::size_t bits) {
      out[pos / 64] |= static_cast<std::uint64_t>(v) << (pos % 64);
      if ((pos % 64) + bits > 64) {
        out[pos / 64 + 1] |=
            static_cast<std::uint64_t>(v) >> (64 - pos % 64);
      }
      pos += bits;
    };
    for (const Peer& p : s.peers) {
      for (const Cell& c : p.cells) {
        for (const CellField& f : kCellFields) put(c.*f.field, f.bits);
      }
      put(p.lock == kNoLock ? 7u : p.lock, 3);
      put(p.crashed, 1);
    }
    for (const Request& q : s.requests) {
      put(q.status, 2);
      put(q.attempts, 3);
    }
    put(s.drops_used, 3);
    put(s.dups_used, 3);
    put(s.crashes_used, 3);
  }

  [[nodiscard]] State unpack(const std::uint64_t* in) const {
    State s = initial();
    std::size_t pos = 0;
    const auto get = [&](std::size_t bits) -> std::uint8_t {
      std::uint64_t v = in[pos / 64] >> (pos % 64);
      if ((pos % 64) + bits > 64) {
        v |= in[pos / 64 + 1] << (64 - pos % 64);
      }
      pos += bits;
      return static_cast<std::uint8_t>(v & ((1u << bits) - 1));
    };
    for (Peer& p : s.peers) {
      for (Cell& c : p.cells) {
        for (const CellField& f : kCellFields) c.*f.field = get(f.bits);
      }
      const std::uint8_t lock = get(3);
      p.lock = lock == 7 ? kNoLock : lock;
      p.crashed = get(1);
    }
    for (Request& q : s.requests) {
      q.status = get(2);
      q.attempts = get(3);
    }
    s.drops_used = get(3);
    s.dups_used = get(3);
    s.crashes_used = get(3);
    return s;
  }

 private:
  /// The cascade's view of one peer's cells: a cell is keyed by its
  /// request index, the lock is the peer's lock slot, and the effects are
  /// the ground-truth checks (a vote needs none: the broadcast is the
  /// vote_sent bit the step set).
  struct Host {
    using Key = std::uint32_t;
    Engine& eng;
    Peer& peer;
    std::vector<Violation>& viols;

    Key key(const Cell& c) const {
      return static_cast<Key>(&c - peer.cells.data());
    }
    fsm::CompiledInstance::Delivery step(Cell& c, fsm::MessageId m) {
      fsm::CompiledInstance machine(eng.machine_, eng.state_of(c));
      const fsm::CompiledInstance::Delivery delivery = machine.deliver(m);
      for (std::size_t k = 0; k < kMachineFields; ++k) {
        c.*kCellFields[k].field = eng.vectors_[machine.state()][k];
      }
      return delivery;
    }
    bool finished(const Cell& c) const { return eng.is_final(c); }
    Cell* find(Key u) { return &peer.cells[u]; }
    std::size_t siblings() const { return peer.cells.size(); }
    Cell& sibling(std::size_t i) { return peer.cells[i]; }
    std::size_t after(Key u) const { return u + 1; }
    bool locked() const { return peer.lock != kNoLock; }
    bool holds_lock(Key u) const { return peer.lock == u; }
    void take_lock(Key u) { peer.lock = static_cast<std::uint8_t>(u); }
    void clear_lock() { peer.lock = kNoLock; }
    void vote(Cell& /*c*/) {}
    void commit(Cell& c) { eng.check_quorum(c, viols); }
    void finish(Cell& c) { eng.record_and_confirm(peer, key(c), viols); }
  };

  /// The table state of the cell's machine fields.
  fsm::StateId state_of(const Cell& c) {
    for (std::size_t k = 0; k < kMachineFields; ++k) {
      vector_[k] = c.*kCellFields[k].field;
    }
    return static_cast<fsm::StateId>(model_.space().encode(vector_));
  }

  /// The commit just broadcast (the commit_sent bit) must be justified by
  /// ground truth, not by the machine's own counters: 2f+1 distinct votes
  /// (others' plus our own) or f+1 distinct commits — measured against
  /// the TRUE thresholds even when the machine was generated from
  /// weakened ones.
  void check_quorum(const Cell& c, std::vector<Violation>& viols) const {
    const std::uint32_t votes = c.votes_unique + c.vote_sent;
    if (votes < 2 * f_ + 1 && c.commits_unique < f_ + 1) {
      viols.push_back(
          {"quorum_justified",
           "commit broadcast justified by only " + std::to_string(votes) +
               " distinct vote(s) and " + std::to_string(c.commits_unique) +
               " distinct commit(s); 2f+1=" + std::to_string(2 * f_ + 1) +
               " votes or f+1=" + std::to_string(f_ + 1) +
               " commits required"});
    }
  }

  /// The finish hook: record the commit (checking the agreement
  /// certificate) and confirm to the client if this peer ever received
  /// the update. Under comp.ack_before_record the confirmation leaves here
  /// but the record becomes a separate, crash-preemptable transition.
  void record_and_confirm(Peer& p, std::uint32_t u,
                          std::vector<Violation>& viols) {
    Cell& c = p.cells[u];
    if (c.recorded != 0) return;
    if (!model_only(ModelOnly::kAckBeforeRecord)) do_record(p, u, viols);
    if (c.update_received != 0 && c.confirms_pending < kConfirmCap) {
      ++c.confirms_pending;
    }
  }

  void do_record(Peer& p, std::uint32_t u, std::vector<Violation>& viols) {
    Cell& c = p.cells[u];
    // Distributed agreement, inductive form: every record must carry a
    // certificate of f+1 DISTINCT commit senders, making it impossible
    // for two honest peers to durably disagree while f members lie.
    if (c.commits_unique < f_ + 1) {
      viols.push_back(
          {"agreement",
           "update recorded with a certificate of only " +
               std::to_string(c.commits_unique) +
               " distinct commit sender(s); f+1=" + std::to_string(f_ + 1) +
               " required"});
    }
    c.recorded = 1;
    // Defensive, as the runtime: a recorded update releases the lock.
    if (p.lock == u) p.lock = kNoLock;
  }

  /// The variant plants the checker-model behaviour `v` (it has no twin).
  [[nodiscard]] bool model_only(ModelOnly v) const {
    return variant_.model_only == v;
  }

  CompositionOptions opt_;
  const commit::VariantEntry& variant_;
  commit::Rules rules_;  // The deployed rules, or the variant's twin.
  CommitModel model_;
  fsm::CompiledMachine machine_;  // Unmerged: one state per field vector.
  std::uint32_t f_;
  std::uint32_t crash_budget_;
  fsm::StateVector vector_ = fsm::StateVector(kMachineFields);  // state_of's.
  // StateSpace::decode per state id.
  std::vector<std::array<std::uint8_t, kMachineFields>> vectors_;
  commit::Cascade<Cell, Host> cascade_;
  std::size_t absorbed_ = 0;
};

// ---- Trace export: de-canonicalized schedules with concrete senders. ----

/// Re-executes a canonical-frame action path from the initial state,
/// maintaining the permutation pi (canonical slot -> concrete peer) across
/// re-canonicalizations, and materializes concrete message senders from
/// the ground-truth broadcast bits.
class Exporter {
 public:
  explicit Exporter(Engine& eng) : eng_(eng), canon_(eng.initial()) {
    eng_.absorb(canon_);
    concrete_ = canon_;
    pi_.resize(eng_.options().r);
    std::iota(pi_.begin(), pi_.end(), std::uint8_t{0});
    eng_.canonicalize(canon_);  // Initial state is symmetric: pi stays id.
    for (std::uint32_t u = 0; u < eng_.options().requests; ++u) {
      steps_.push_back({.kind = ReplayStep::Kind::kSubmit, .request = u});
    }
  }

  void emit(std::uint64_t a) {
    const Act t = act_type(a);
    if (t == Act::kNoneSentinel) return;
    const std::uint32_t u = act_update(a);
    const std::uint32_t cj = t == Act::kRetry || t == Act::kFail
                                 ? 0
                                 : pi_[act_peer(a)];
    append_step(t, cj, u);

    // Advance the canonical state (recorded actions live in its frame)...
    std::vector<Violation> sink;
    eng_.apply(canon_, a, sink);
    eng_.absorb(canon_);
    const std::vector<std::uint8_t> sigma = eng_.canonicalize(canon_);
    // ...and the concrete twin, with the action relabelled through pi.
    eng_.apply(concrete_, pack_act(t, cj, u), sink);
    eng_.absorb(concrete_);
    // canonical'[k] = old_canonical[sigma[k]], so pi composes with sigma.
    std::vector<std::uint8_t> next(pi_.size());
    for (std::size_t k = 0; k < pi_.size(); ++k) next[k] = pi_[sigma[k]];
    pi_ = std::move(next);
  }

  [[nodiscard]] std::vector<ReplayStep> steps() const { return steps_; }
  [[nodiscard]] sim::FaultPlan faults() const { return faults_; }
  [[nodiscard]] std::string last_step_text() const {
    return steps_.empty() ? std::string("initial state")
                          : steps_.back().serialize();
  }

 private:
  void append_step(Act t, std::uint32_t cj, std::uint32_t u) {
    using Msg = commit::WireMessage::Kind;
    ReplayStep step;
    step.request = u;
    const bool drop = t == Act::kDropUpdate || t == Act::kDropVote ||
                      t == Act::kDropCommit || t == Act::kDropConfirm;
    step.kind = drop ? ReplayStep::Kind::kDrop : ReplayStep::Kind::kDeliver;
    switch (t) {
      case Act::kDeliverUpdate:
      case Act::kDropUpdate:
        step.msg = Msg::kUpdate;
        step.from = ReplayStep::kEndpoint;
        step.to = cj;
        break;
      case Act::kDeliverVote:
      case Act::kDropVote:
      case Act::kDeliverCommit:
      case Act::kDropCommit: {
        const bool votes = t == Act::kDeliverVote || t == Act::kDropVote;
        step.msg = votes ? Msg::kVote : Msg::kCommit;
        step.from = pick_sender(cj, u, votes, drop);
        step.to = cj;
        break;
      }
      case Act::kDupVote:
      case Act::kDupCommit: {
        step.kind = ReplayStep::Kind::kDup;
        step.msg = t == Act::kDupVote ? Msg::kVote : Msg::kCommit;
        const auto& used = used_[key(cj, u, t == Act::kDupVote)];
        step.from = used.empty() ? 0 : *used.begin();
        step.to = cj;
        break;
      }
      case Act::kDeliverConfirm:
      case Act::kDropConfirm:
        step.msg = Msg::kCommitted;
        step.from = cj;
        step.to = ReplayStep::kEndpoint;
        break;
      case Act::kCrash:
        step.kind = ReplayStep::Kind::kCrash;
        step.peer = cj;
        faults_.add({.at = static_cast<sim::Time>(steps_.size()),
                     .kind = sim::FaultEvent::Kind::kCrash,
                     .node = cj});
        break;
      case Act::kRetry:
      case Act::kFail:
        step.kind = t == Act::kRetry ? ReplayStep::Kind::kRetry
                                     : ReplayStep::Kind::kFail;
        break;
      case Act::kRecord:
        step.kind = ReplayStep::Kind::kRecord;
        step.peer = cj;
        break;
      case Act::kNoneSentinel:
        break;
    }
    steps_.push_back(step);
  }

  /// Materialize a concrete sender for a delivery/drop to concrete peer
  /// cj: any peer whose broadcast bit is set and whose copy was not yet
  /// consumed or dropped along this schedule. The model's in-flight > 0
  /// precondition guarantees one exists.
  std::uint32_t pick_sender(std::uint32_t cj, std::uint32_t u, bool votes,
                            bool dropping) {
    auto& used = used_[key(cj, u, votes)];
    auto& dropped = dropped_[key(cj, u, votes)];
    for (std::uint32_t q = 0; q < eng_.options().r; ++q) {
      if (q == cj) continue;
      const Cell& cell = concrete_.peers[q].cells[u];
      const bool sent = votes ? cell.vote_sent != 0 : cell.commit_sent != 0;
      if (!sent || used.contains(q) || dropped.contains(q)) continue;
      (dropping ? dropped : used).insert(q);
      return q;
    }
    return 0;  // Unreachable for well-formed traces.
  }

  static std::uint64_t key(std::uint32_t j, std::uint32_t u, bool votes) {
    return (static_cast<std::uint64_t>(j) << 32) | (u << 1) |
           (votes ? 1 : 0);
  }

  Engine& eng_;
  State canon_;
  State concrete_;
  std::vector<std::uint8_t> pi_;
  std::vector<ReplayStep> steps_;
  sim::FaultPlan faults_;
  std::map<std::uint64_t, std::set<std::uint32_t>> used_;
  std::map<std::uint64_t, std::set<std::uint32_t>> dropped_;
};

struct PendingFinding {
  std::uint32_t parent = 0;      // State index the trace leads to.
  std::uint64_t action = 0;      // Final action (kNoneSentinel for none).
  std::string message;
};

}  // namespace

CompositionResult check_composition(const CompositionOptions& options) {
  Engine eng(options);
  CompositionResult result;
  result.checks_run = 6;  // agreement, validity, quorum_justified,
                          // ack_quorum, ack_durable, termination.

  const std::size_t stride = eng.stride();
  std::vector<std::uint64_t> arena;   // stride words per canonical state.
  std::vector<std::uint32_t> parent;
  std::vector<std::uint64_t> via;     // Action that reached the state.

  const auto hash_at = [&](std::uint32_t i) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t w = 0; w < stride; ++w) {
      h ^= arena[static_cast<std::size_t>(i) * stride + w];
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  };
  const auto eq_at = [&](std::uint32_t a, std::uint32_t b) {
    return std::memcmp(&arena[static_cast<std::size_t>(a) * stride],
                       &arena[static_cast<std::size_t>(b) * stride],
                       stride * sizeof(std::uint64_t)) == 0;
  };
  std::unordered_set<std::uint32_t, decltype(hash_at), decltype(eq_at)>
      seen(1 << 16, hash_at, eq_at);

  // Intern the (already canonical, absorbed) state unless it was seen.
  const auto intern = [&](const State& s, std::uint32_t from,
                          std::uint64_t action) {
    const std::uint32_t idx = static_cast<std::uint32_t>(parent.size());
    arena.resize(arena.size() + stride);
    eng.pack(s, &arena[static_cast<std::size_t>(idx) * stride]);
    parent.push_back(from);
    via.push_back(action);
    if (!seen.insert(idx).second) {
      arena.resize(arena.size() - stride);
      parent.pop_back();
      via.pop_back();
    }
  };

  State root = eng.initial();
  eng.absorb(root);
  eng.canonicalize(root);
  intern(root, 0, pack_act(Act::kNoneSentinel));

  // First finding per check id, in a fixed report order.
  std::map<std::string, PendingFinding> found;
  const bool stop_on_first = !options.mutation.empty();

  std::vector<std::uint64_t> actions;
  std::uint32_t head = 0;
  bool truncated = false;
  while (head < parent.size()) {
    if (stop_on_first && !found.empty()) break;
    if (parent.size() > options.max_states) {
      truncated = true;
      break;
    }
    const std::uint32_t index = head++;
    const State current =
        eng.unpack(&arena[static_cast<std::size_t>(index) * stride]);
    eng.enumerate(current, actions);

    if (actions.empty()) {
      // Exact deadlock detection: termination-under-fair-delivery fails
      // iff an unresolved request exists in a state with no enabled
      // transition (retry/fail otherwise always provides one).
      bool active = false;
      for (const Request& q : current.requests) {
        active |= q.status == kActive;
      }
      if (active && !found.contains("termination")) {
        found.emplace(
            "termination",
            PendingFinding{index, pack_act(Act::kNoneSentinel),
                           "deadlock: an unresolved request exists but no "
                           "message, endpoint or fault transition is "
                           "enabled"});
      }
      continue;
    }

    for (const std::uint64_t a : actions) {
      State next = current;
      std::vector<Violation> viols;
      eng.apply(next, a, viols);
      eng.absorb(next);
      if (options.net_bound != 0 &&
          eng.total_inflight(next) > options.net_bound) {
        continue;  // Documented under-approximation: prune over-bound states.
      }
      ++result.stats.transitions;
      for (const Violation& v : viols) {
        found.emplace(v.check, PendingFinding{index, a, v.message});
      }
      eng.canonicalize(next);
      intern(next, index, a);
    }
  }
  result.stats.states = parent.size();
  result.stats.absorbed = eng.absorbed();
  // Stopping at the first finding of a mutated run is intentional, not a
  // truncation: only the max_states cap makes the verdict incomplete.
  result.stats.complete = !truncated;

  // ---- Render findings (fixed order) with de-canonicalized schedules. ----
  const std::string machine_label =
      "protocol_r" + std::to_string(options.r) +
      (options.mutation.empty() ? "" : "+" + options.mutation);
  const char* order[] = {"agreement",      "validity",   "quorum_justified",
                         "ack_quorum",     "ack_durable", "termination"};
  for (const char* check : order) {
    const auto it = found.find(check);
    if (it == found.end()) continue;
    const PendingFinding& pf = it->second;

    std::vector<std::uint64_t> path;
    for (std::uint32_t v = pf.parent; v != 0; v = parent[v]) {
      path.push_back(via[v]);
    }
    std::reverse(path.begin(), path.end());
    path.push_back(pf.action);  // The exporter skips a kNoneSentinel.

    Exporter exporter(eng);
    for (const std::uint64_t a : path) exporter.emit(a);

    ReplayPlan plan{.r = options.r,
                    .f = eng.f(),
                    .requests = options.requests,
                    .attempts = options.attempts,
                    .mutation = options.mutation,
                    .check = std::string("composition.") + check,
                    .detail = pf.message,
                    .faults = exporter.faults(),
                    .schedule = exporter.steps()};
    Finding finding(plan.check, machine_label,
                    "after " + exporter.last_step_text() + " (step " +
                        std::to_string(plan.schedule.size()) + ")",
                    pf.message);
    for (const ReplayStep& step : plan.schedule) {
      finding.schedule.push_back(step.serialize());
    }
    result.findings.push_back(std::move(finding));
    result.plans.push_back(std::move(plan));
  }

  if (truncated) {
    result.findings.emplace_back("composition.state_bound", machine_label,
                                 "exploration",
                                 "state space exceeded max_states=" +
                                     std::to_string(options.max_states) +
                                     "; composition NOT verified");
    result.plans.emplace_back();
  }
  return result;
}

std::size_t preferred_replay(const CompositionResult& result) {
  const char* priority[] = {
      "composition.agreement",  "composition.ack_durable",
      "composition.ack_quorum", "composition.quorum_justified",
      "composition.validity",   "composition.termination"};
  for (const char* check : priority) {
    for (std::size_t i = 0; i < result.findings.size(); ++i) {
      if (result.findings[i].check == check &&
          !result.plans[i].schedule.empty()) {
        return i;
      }
    }
  }
  return result.findings.size();
}

MutationReport run_composition_mutation_self_test(
    const CompositionOptions& base) {
  MutationReport report;
  for (const commit::VariantEntry& variant : commit::kVariants) {
    CompositionOptions options = base;
    options.mutation = variant.name;
    const CompositionResult result = check_composition(options);
    MutationOutcome outcome;
    outcome.name = variant.name;
    outcome.description = variant.description;
    for (const Finding& f : result.findings) {
      if (f.check != "composition.state_bound") {
        outcome.detected = true;
        outcome.finding = to_string(f);
        break;
      }
    }
    report.outcomes.push_back(outcome);
  }
  return report;
}

}  // namespace asa_repro::check
