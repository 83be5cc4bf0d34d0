// The composition variants: the deployed commit rules and the planted
// protocol bugs `fsmcheck --protocol --mutate` must catch, each defined
// once. A bug with a runtime twin replaces one deployed rule, and the
// composition checker and run_replay both build their peers and endpoint
// from the result; a bug without a twin lives only in the checker's model
// (src/check/composition.cpp), and run_replay reports it unsupported.
#pragma once

#include <cstdint>
#include <string_view>

#include "commit/cascade.hpp"
#include "commit/commit_model.hpp"
#include "commit/endpoint.hpp"

namespace asa_repro::commit {

/// Every rule a variant can replace.
struct Rules {
  Thresholds thresholds;         // The peer machine's (CommitModel).
  Dedup dedup;                   // Which copies of a vote or commit count.
  EndpointAbstraction endpoint;  // Acknowledge, retry or give up.
};

/// The checker-model behaviour a bug without a twin plants.
enum class ModelOnly : std::uint8_t { kNone, kAckBeforeRecord, kDropRetry };

struct VariantEntry {
  const char* name;
  const char* description;
  void (*twin)(Rules& rules);  // nullptr: no runtime twin.
  ModelOnly model_only = ModelOnly::kNone;
};

/// The deployed rules, the entry of an empty mutation name.
inline constexpr VariantEntry kDeployedRules = {"", "the deployed rules",
                                                [](Rules&) {}};

/// The composition mutation catalogue, in report order.
inline constexpr VariantEntry kVariants[] = {
    {"comp.weak_quorum",
     "peer machines generated with vote threshold 1 instead of 2f+1",
     [](Rules& rules) { rules.thresholds.vote = 1; }},
    {"comp.ack_before_record",
     "peers confirm to the client before recording the commit", nullptr,
     ModelOnly::kAckBeforeRecord},
    {"comp.dup_vote",
     "peers count duplicate votes/commits from one member (dedup removed)",
     [](Rules& rules) { rules.dedup.admit_repeats = true; }},
    {"comp.drop_retry",
     "endpoint timeout/retry scheme removed (no retry, no failure report)",
     nullptr, ModelOnly::kDropRetry},
    {"comp.weak_ack",
     "endpoint acknowledges after f confirmations instead of f+1",
     [](Rules& rules) { --rules.endpoint.quorum; }},
};

/// The entry named `name` (kDeployedRules for ""), or nullptr.
inline const VariantEntry* find_variant(std::string_view name) {
  if (name.empty()) return &kDeployedRules;
  for (const VariantEntry& entry : kVariants) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

/// The rules of `r` members and an endpoint attempting under `policy`:
/// the deployed ones, with `variant`'s twin applied.
inline Rules rules_for(std::uint32_t r, const RetryPolicy& policy,
                       const VariantEntry& variant) {
  const CommitModel deployed(r);
  Rules rules{{deployed.vote_threshold(), deployed.commit_threshold()},
              Dedup{},
              EndpointAbstraction::deployed(deployed.max_faulty(), policy)};
  if (variant.twin != nullptr) variant.twin(rules);
  return rules;
}

}  // namespace asa_repro::commit
