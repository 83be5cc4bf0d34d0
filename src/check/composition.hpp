// fsmcheck analysis group 6: explicit-state model checking of the COMPOSED
// commit protocol (check ids `composition.*`).
//
// Groups 1-5 verify each generated machine in isolation; every property the
// deployment actually relies on — agreement, validity, quorum justification,
// termination — is a property of the composition: r peer machines, the
// endpoint, and a lossy reordering network. This group exhaustively
// explores that product: the network is a bounded multiset of in-flight
// messages with nondeterministic delivery order, duplication (a repeat is
// a transition only where the dedup rule admits it, i.e. under
// comp.dup_vote), a bounded drop budget, and up to min(crashes, f)
// fail-stop peer crashes.
//
// Peers and endpoint run the deployed rules, not models of them: the
// Cascade and its dedup rule (commit/cascade.hpp, as in CommitPeer) over
// the commit machine compiled unpruned and unmerged, and the endpoint rule
// (commit/endpoint_model.hpp, as in CommitEndpoint). A planted bug with a
// runtime twin is a variant of those rules (commit/variants.hpp) that
// run_replay builds the same way; the checker supplies only ground-truth
// checks, with literal f+1 / 2f+1, as effects.
//
// Tractability comes from three reductions, argued sound in
// ARCHITECTURE.md ("Composition checking"):
//   - count-based network encoding: message content is determined by
//     (kind, update), so sender identity is erased from the state and
//     in-flight counts are derived from the senders' own vote_sent /
//     commit_sent bits minus consumed/missed counters;
//   - symmetry reduction over peer identity: peers run copies of one
//     machine and no state field names a peer, so states are stored in
//     orbit-canonical form (per-peer records stable-sorted);
//   - an absorb closure (sleep-set-style partial-order reduction):
//     deliveries that are provably no-ops — messages to final or
//     saturated machines, duplicate update requests, confirmations the
//     endpoint can no longer use, traffic to crashed peers — are consumed
//     eagerly instead of branching the search.
//
// Every violation is exported as a commit/replay.hpp ReplayPlan (a
// sim::FaultPlan plus a message schedule) replayable through
// `asasim --replay`, closing the loop between the static layer and the
// simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "check/findings.hpp"
#include "check/mutate.hpp"
#include "commit/replay.hpp"

namespace asa_repro::check {

struct CompositionOptions {
  std::uint32_t r = 4;           // Peer-set size (f = (r-1)/3).
  std::uint32_t requests = 1;    // Concurrent client updates (distinct GUID
                                 //   payloads). 2 exercises the vote-split /
                                 //   lock product and still closes at r=4
                                 //   (~6M canonical states); the default
                                 //   keeps the r=4..8 sweep in seconds.
  std::uint32_t attempts = 1;    // Endpoint attempts per request (raising
                                 //   it adds retry/update traffic; the
                                 //   fail transition keeps termination
                                 //   meaningful even at 1).
  std::uint32_t crashes = 1;     // Crash budget; capped at f.
  std::uint32_t drops = 1;       // Message-drop budget.
  std::uint32_t dups = 1;        // Duplicate-delivery budget (only spent
                                 //   where the dedup rule admits repeats:
                                 //   comp.dup_vote).
  std::uint32_t net_bound = 0;   // Max total in-flight messages; successors
                                 //   exceeding it are pruned. 0 = unbounded
                                 //   (the sound default for the CI gate).
  std::string mutation;          // A commit::kVariants name; empty = the
                                 //   deployed rules.
  std::size_t max_states = 20'000'000;  // Exploration safety cap.
};

struct CompositionStats {
  std::size_t states = 0;       // Canonical states explored.
  std::size_t transitions = 0;  // Edges expanded.
  std::size_t absorbed = 0;     // No-op deliveries consumed by the closure.
  bool complete = false;        // False when max_states truncated the search
                                //   (also reported as a finding).
};

struct CompositionResult {
  Findings findings;            // First finding per composition.* check id.
  /// Replay plans parallel to `findings` (empty plan for findings that
  /// have no schedule, i.e. the truncation sentinel).
  std::vector<commit::ReplayPlan> plans;
  CompositionStats stats;
  std::size_t checks_run = 0;
};

/// Exhaustively model-check the composed protocol. A pristine model must
/// yield zero findings for every r; each commit::kVariants entry must
/// yield at least one.
[[nodiscard]] CompositionResult check_composition(
    const CompositionOptions& options);

/// Index into `result.findings` of the preferred counterexample for
/// `--replay-out` (safety violations first, then liveness), or
/// `findings.size()` when there is nothing to export.
[[nodiscard]] std::size_t preferred_replay(const CompositionResult& result);

/// Run check_composition once per entry of the composition mutation
/// catalogue, commit::kVariants (detection must be 100%). `base.mutation`
/// is ignored.
[[nodiscard]] MutationReport run_composition_mutation_self_test(
    const CompositionOptions& base);

}  // namespace asa_repro::check
