// Table-driven FSM execution.
//
// A generated StateMachine can be deployed two ways (paper section 4.2):
// rendered to source code that is compiled into the application, or
// interpreted directly from its in-memory representation. FsmInstance is
// the interpreter: it tracks a current state and, on each delivered
// message, performs the transition and reports the actions to execute.
// FsmInstance is the reference semantics the other backends are certified
// against; the protocol runtime in src/commit/ steps the equivalent
// compiled table (core/compiled_machine.hpp) instead, one instance per
// ongoing update as the paper describes.
#pragma once

#include <cassert>

#include "core/state_machine.hpp"

namespace asa_repro::fsm {

/// A running instance of a generated state machine.
///
/// Holds a non-owning reference to the machine: many instances share one
/// immutable StateMachine (one per replication factor), so the machine must
/// outlive its instances.
class FsmInstance {
 public:
  explicit FsmInstance(const StateMachine& machine)
      : machine_(&machine), state_(machine.start()) {}

  [[nodiscard]] const StateMachine& machine() const { return *machine_; }
  [[nodiscard]] StateId state() const { return state_; }
  [[nodiscard]] const std::string& state_name() const {
    return machine_->state(state_).name;
  }

  /// True once the instance has reached the finish state.
  [[nodiscard]] bool finished() const {
    return machine_->state(state_).is_final;
  }

  /// Deliver a message. Returns the transition taken (whose actions the
  /// caller must execute, in order), or nullptr if the message is not
  /// applicable in the current state — including any message delivered
  /// after the machine has finished. Ignoring inapplicable messages is the
  /// deployed counterpart of the generator's InvalidStateException.
  const Transition* deliver(MessageId message) {
    const Transition* t = machine_->state(state_).transition(message);
    if (t == nullptr) return nullptr;
    state_ = t->target;
    return t;
  }

  /// Reset to the start state.
  void reset() { state_ = machine_->start(); }

 private:
  const StateMachine* machine_;
  StateId state_;
};

}  // namespace asa_repro::fsm
