// Abstract model of the ASA Byzantine-fault-tolerant commit protocol
// (paper sections 2.2, 3.1, 3.4; Figs 9, 10, 14, 20).
//
// Each peer-set member runs one machine instance per ongoing update. The
// state comprises five booleans and two counters bounded by the replication
// factor r (so the FSM family member for r has 32*r^2 possible states):
//
//   update_received   an update request for this update has arrived
//   votes_received    count of vote messages received      (0 .. r-1)
//   vote_sent         a vote message has been sent
//   commits_received  count of commit messages received    (0 .. r-1)
//   commit_sent       a commit message has been sent
//   could_choose      no *other* update is currently in progress locally
//   has_chosen        this update was voted for by local choice
//
// Thresholds, for f = floor((r-1)/3) tolerated Byzantine members:
//   vote threshold            2f+1  over votes_received + vote_sent
//   external commit threshold f+1   over commits_received (also finishes)
//
// The paper's Fig 9 pseudo-code contains typos; the semantics here are the
// ones that exactly reproduce the generator's own outputs: Fig 10's code
// structure, Fig 14's transitions, 48 states after pruning and every final
// state count in Table 1 (see DESIGN.md section 2). In particular, sending
// a vote does NOT clear could_choose — that flag tracks other updates and
// is cleared only by not_free.
#pragma once

#include <cstdint>

#include "core/abstract_model.hpp"

namespace asa_repro::commit {

/// Message vocabulary indices (order fixed by the paper's Fig 20).
enum Message : fsm::MessageId {
  kUpdate = 0,   // Update request from the service endpoint (client).
  kVote = 1,     // Vote from another peer-set member.
  kCommit = 2,   // Commit from another peer-set member.
  kFree = 3,     // Sibling machine on this node finished its chosen update.
  kNotFree = 4,  // Sibling machine on this node chose its update.
};

inline constexpr const char* kMessageNames[] = {"update", "vote", "commit",
                                                "free", "not_free"};
inline constexpr std::size_t kMessageCount = 5;

/// Action names emitted on phase transitions.
inline constexpr const char* kActionVote = "vote";
inline constexpr const char* kActionCommit = "commit";
inline constexpr const char* kActionFree = "free";
inline constexpr const char* kActionNotFree = "not_free";

/// Explicit phase-transition thresholds, overriding the derived 2f+1 /
/// f+1 defaults. The composition variants (variants.hpp) build their
/// machines from these: generating one from a deliberately weakened vote
/// threshold is how `comp.weak_quorum` plants a bug that per-machine
/// checks cannot see.
struct Thresholds {
  std::uint32_t vote = 0;    // Total votes (sent + received) to commit.
  std::uint32_t commit = 0;  // Received commits to finish.
};

/// The abstract model, parameterised by the replication factor (paper:
/// `new AbstractModel().generateStateMachine(replication_factor)`).
class CommitModel : public fsm::AbstractModel {
 public:
  /// `replication_factor` must be >= 2; Byzantine fault tolerance requires
  /// r >= 3f+1, i.e. r >= 4 for f = 1.
  explicit CommitModel(std::uint32_t replication_factor);

  /// As above, but with explicit thresholds instead of the derived 2f+1 /
  /// f+1. Both must be in [1, r-1] so the counter components stay in range.
  CommitModel(std::uint32_t replication_factor, Thresholds thresholds);

  [[nodiscard]] std::uint32_t replication_factor() const { return r_; }

  /// Maximum number of tolerated Byzantine members: floor((r-1)/3).
  [[nodiscard]] std::uint32_t max_faulty() const { return f_; }

  /// Total votes (sent and received) that trigger the voting phase
  /// transition: 2f+1 unless overridden.
  [[nodiscard]] std::uint32_t vote_threshold() const {
    return vote_threshold_;
  }

  /// Received commits that send our commit and finish the machine: f+1
  /// unless overridden.
  [[nodiscard]] std::uint32_t commit_threshold() const {
    return commit_threshold_;
  }

  // ---- AbstractModel interface. ----
  [[nodiscard]] fsm::StateVector start_state() const override;
  [[nodiscard]] bool is_final(const fsm::StateVector& state) const override;
  [[nodiscard]] std::optional<fsm::Reaction> react(
      const fsm::StateVector& state, fsm::MessageId message) const override;
  [[nodiscard]] std::vector<std::string> describe_state(
      const fsm::StateVector& state) const override;

  /// State-vector component positions (Fig 14 name encoding order).
  enum Component : std::size_t {
    kUpdateReceived = 0,
    kVotesReceived = 1,
    kVoteSent = 2,
    kCommitsReceived = 3,
    kCommitSent = 4,
    kCouldChoose = 5,
    kHasChosen = 6,
  };

 private:
  // Per-message transition generators (paper Fig 10's
  // generateTransitionOnVote and friends).
  [[nodiscard]] std::optional<fsm::Reaction> on_update(
      const fsm::StateVector& s) const;
  [[nodiscard]] std::optional<fsm::Reaction> on_vote(
      const fsm::StateVector& s) const;
  [[nodiscard]] std::optional<fsm::Reaction> on_commit(
      const fsm::StateVector& s) const;
  [[nodiscard]] std::optional<fsm::Reaction> on_free(
      const fsm::StateVector& s) const;
  [[nodiscard]] std::optional<fsm::Reaction> on_not_free(
      const fsm::StateVector& s) const;

  std::uint32_t r_;
  std::uint32_t f_;
  std::uint32_t vote_threshold_;
  std::uint32_t commit_threshold_;
};

}  // namespace asa_repro::commit
