// Dense-table compiled dispatch backend.
//
// The interpreter (core/interpreter.hpp) walks the generated StateMachine's
// per-state transition vectors — a linear scan over heap-allocated
// structures on every delivered message. Production FSMs dispatch through
// flat arrays instead: one contiguous [state][event] table whose cells are
// fixed-size packed records, so the hot path is a single indexed load with
// no allocation, no pointer chasing and no branching on applicability.
// CompiledMachine is that backend: compile() flattens any generated machine
// (including EFSM-expanded family members) into
//
//   * a dense table of CompiledRecord{next, span} cells, one per
//     (state, event) pair — events not applicable in a state self-loop
//     with an empty action span, so the hot loop never tests a null;
//   * an out-of-line action arena: all transition action lists laid end to
//     end as 16-bit action ids, referenced by (offset, count) spans packed
//     into 32 bits;
//   * a perfect-hash event decoder mapping message names to their dense
//     event ids in one hash + one string compare.
//
// The backend is certified against the interpreter: to_state_machine()
// reconstructs an equivalent StateMachine from the table, and fsmcheck's
// backend group proves trace equivalence over the whole family via
// find_family_divergence (see src/check/backend.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/state_machine.hpp"

namespace asa_repro::fsm {

/// One [state][event] cell. `span` packs the action reference:
///   bit 31        applicable flag (the machine has a transition for this
///                 (state, event); clear cells are synthetic self-loops)
///   bits 30..4    offset of the first action id in the arena
///   bits  3..0    action count
/// The hot loop needs only `next` and the low count bits, so dispatch is
/// two loads from one 8-byte record and no conditional.
struct CompiledRecord {
  std::uint32_t next = 0;
  std::uint32_t span = 0;
};

inline constexpr std::uint32_t kCompiledApplicableBit = 0x8000'0000u;
inline constexpr std::uint32_t kCompiledCountBits = 4;
inline constexpr std::uint32_t kCompiledCountMask =
    (1u << kCompiledCountBits) - 1;
inline constexpr std::uint32_t kCompiledOffsetMask =
    (kCompiledApplicableBit - 1) >> kCompiledCountBits;
/// Longest action list a packed span can reference.
inline constexpr std::uint32_t kCompiledMaxActions = kCompiledCountMask;
/// Largest arena offset a packed span can reference.
inline constexpr std::uint32_t kCompiledMaxArenaOffset = kCompiledOffsetMask;

/// Perfect-hash decoder from message names to dense event ids. Built by
/// seed search: the table size is the smallest power of two holding every
/// name collision-free under the seeded hash, so decode() is one hash, one
/// slot load, and one confirming string compare (the compare makes unknown
/// names safe, not slower: known names still take exactly one probe).
class EventDecoder {
 public:
  EventDecoder() = default;

  /// Build over a duplicate-free vocabulary (throws std::invalid_argument
  /// on duplicates — a perfect hash cannot distinguish equal keys).
  explicit EventDecoder(std::vector<std::string> names);

  /// Event id for `name`, or nullopt if the name is not in the vocabulary.
  [[nodiscard]] std::optional<MessageId> decode(std::string_view name) const {
    if (slots_.empty()) return std::nullopt;
    const std::int32_t id =
        slots_[hash(name, seed_) & (slots_.size() - 1)];
    if (id < 0 || names_[static_cast<std::size_t>(id)] != name) {
      return std::nullopt;
    }
    return static_cast<MessageId>(id);
  }

  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::size_t table_size() const { return slots_.size(); }

 private:
  [[nodiscard]] static std::uint64_t hash(std::string_view s,
                                          std::uint64_t seed);

  std::vector<std::string> names_;
  std::vector<std::int32_t> slots_;  // Event id per slot, -1 = empty.
  std::uint64_t seed_ = 0;
};

/// A StateMachine flattened into the dense dispatch layout. Immutable once
/// compiled; many CompiledInstance runtimes may share one machine, exactly
/// as FsmInstances share a StateMachine.
class CompiledMachine {
 public:
  /// Flatten `machine`. Throws std::invalid_argument on machines the
  /// layout cannot hold (no states, ids out of range, more than
  /// kCompiledMaxActions actions on one transition, duplicate (state,
  /// event) transitions, arena overflow) — all conditions fsmcheck's
  /// structural lints reject first on generated machines.
  [[nodiscard]] static CompiledMachine compile(const StateMachine& machine);

  [[nodiscard]] const CompiledRecord& record(StateId state,
                                             MessageId event) const {
    return table_[static_cast<std::size_t>(state) * events_ + event];
  }
  [[nodiscard]] static bool applicable(std::uint32_t span) {
    return (span & kCompiledApplicableBit) != 0;
  }
  [[nodiscard]] static std::uint32_t count_of(std::uint32_t span) {
    return span & kCompiledCountMask;
  }
  [[nodiscard]] static std::uint32_t offset_of(std::uint32_t span) {
    return (span >> kCompiledCountBits) & kCompiledOffsetMask;
  }

  /// First action id of `rec`'s span (valid for count_of(rec.span) ids).
  [[nodiscard]] const std::uint16_t* arena_at(const CompiledRecord& rec)
      const {
    return arena_.data() + offset_of(rec.span);
  }

  [[nodiscard]] std::uint32_t state_count() const { return states_; }
  [[nodiscard]] std::uint32_t event_count() const { return events_; }
  [[nodiscard]] StateId start() const { return start_; }
  [[nodiscard]] StateId finish() const { return finish_; }
  [[nodiscard]] bool is_final(StateId state) const {
    return final_[state] != 0;
  }
  [[nodiscard]] const std::string& state_name(StateId state) const {
    return state_names_[state];
  }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return decoder_.names();
  }
  [[nodiscard]] const EventDecoder& decoder() const { return decoder_; }
  [[nodiscard]] const std::vector<std::string>& action_names() const {
    return action_names_;
  }
  [[nodiscard]] std::size_t arena_size() const { return arena_.size(); }
  [[nodiscard]] const std::vector<std::uint16_t>& arena() const {
    return arena_;
  }
  [[nodiscard]] const std::vector<CompiledRecord>& table() const {
    return table_;
  }

  /// Reconstruct an equivalent StateMachine from the table (message
  /// vocabulary, state names, finality, transitions with named actions;
  /// annotations are not carried through the layout). This is the backend's
  /// equivalence obligation made checkable: find_divergence(original,
  /// compiled.to_state_machine()) must find nothing, and fsmcheck's backend
  /// group asserts exactly that across the family.
  [[nodiscard]] StateMachine to_state_machine() const;

 private:
  std::uint32_t states_ = 0;
  std::uint32_t events_ = 0;
  StateId start_ = 0;
  StateId finish_ = kNoState;
  std::vector<CompiledRecord> table_;    // states_ * events_ cells.
  std::vector<std::uint16_t> arena_;     // Out-of-line action id lists.
  std::vector<std::string> action_names_;  // Id -> name, first-seen order.
  std::vector<std::uint8_t> final_;      // Finality per state.
  std::vector<std::string> state_names_;
  EventDecoder decoder_;
};

/// A running instance over a compiled machine — the dense-table counterpart
/// of FsmInstance, with identical deliver semantics (inapplicable messages,
/// including anything after finish, are reported and leave the state
/// unchanged because their cells self-loop).
class CompiledInstance {
 public:
  explicit CompiledInstance(const CompiledMachine& machine)
      : machine_(&machine), state_(machine.start()) {}
  /// An instance resumed at `state`, a state id of `machine`.
  CompiledInstance(const CompiledMachine& machine, StateId state)
      : machine_(&machine), state_(state) {}

  /// The actions of one delivery: `count` ids starting at `ids`, resolvable
  /// through CompiledMachine::action_names(). `applicable` is false when
  /// the message had no transition (the interpreter's nullptr case).
  struct Delivery {
    const std::uint16_t* ids = nullptr;
    std::uint32_t count = 0;
    bool applicable = false;
  };

  Delivery deliver(MessageId event) {
    const CompiledRecord& rec = machine_->record(state_, event);
    state_ = rec.next;
    return {machine_->arena_at(rec), CompiledMachine::count_of(rec.span),
            CompiledMachine::applicable(rec.span)};
  }

  [[nodiscard]] const CompiledMachine& machine() const { return *machine_; }
  [[nodiscard]] StateId state() const { return state_; }
  [[nodiscard]] const std::string& state_name() const {
    return machine_->state_name(state_);
  }
  [[nodiscard]] bool finished() const { return machine_->is_final(state_); }
  void reset() { state_ = machine_->start(); }

 private:
  const CompiledMachine* machine_;
  StateId state_;
};

/// Benchmark-shaped copy of the dispatch table: every cell whose target is
/// final is redirected to the start state — the throughput harness's
/// "deliver, then reset when finished" fold, made branch-free. `span` is
/// replaced by the raw action count, and `next` holds the successor's ROW
/// OFFSET (state id pre-multiplied by the event count), so the dependent
/// chain per message is an add and one 8-byte load — no multiply:
///   rec = fused[row + event]; actions += rec.span; row = rec.next;
/// starting from row = machine.start() * machine.event_count(). Divide a
/// row by the event count to recover the state id.
[[nodiscard]] std::vector<CompiledRecord> reset_fused_table(
    const CompiledMachine& machine);

}  // namespace asa_repro::fsm
