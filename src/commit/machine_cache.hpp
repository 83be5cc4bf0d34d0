// Generation-policy support (paper section 4.2) for the commit protocol.
//
// One immutable StateMachine per replication factor, generated on first use
// and shared by every peer thereafter: a memory-only, model-specific wrapper
// over the generic fsm::MachineCache. On-disk persistence with structural
// validation of cached entries is done on fsm::MachineCache directly
// (fsmgen --cache installs check::structural_validator() itself), so
// src/commit stays below src/check in the layer order.
#pragma once

#include <cstdint>

#include "commit/commit_model.hpp"
#include "core/machine_cache.hpp"

namespace asa_repro::commit {

class MachineCache {
 public:
  /// Memory-only cache (one generation per factor per process).
  MachineCache() = default;

  /// The merged commit FSM for replication factor `r`, generating it on
  /// first request (with `jobs` generation lanes; 1 = serial, 0 = hardware
  /// concurrency — the artefact is identical either way). The returned
  /// reference is stable for the cache's lifetime.
  const fsm::StateMachine& machine_for(std::uint32_t r, unsigned jobs = 1) {
    return cache_.machine_for("commit", r, [r, jobs] {
      fsm::GenerationOptions options;
      options.jobs = jobs;
      return CommitModel(r).generate_state_machine(options);
    });
  }

  [[nodiscard]] std::size_t size() const { return cache_.size(); }
  [[nodiscard]] bool contains(std::uint32_t r) const {
    return cache_.contains("commit", r);
  }
  [[nodiscard]] const fsm::MachineCacheStats& stats() const {
    return cache_.stats();
  }

 private:
  fsm::MachineCache cache_;
};

}  // namespace asa_repro::commit
