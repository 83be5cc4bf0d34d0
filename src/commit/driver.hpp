// Interpreted execution of one commit-FSM instance.
//
// The runtime no longer executes through this class: CommitPeer steps the
// compiled dense table (core/compiled_machine.hpp). InterpreterDriver stays
// only because the end-to-end benchmark's FSM probe constructs it; once
// that probe times fsm::CompiledInstance instead, this header can go.
// fsm::FsmInstance remains the interpreter oracle the backends are checked
// against.
#pragma once

#include "core/interpreter.hpp"
#include "core/state_machine.hpp"

namespace asa_repro::commit {

/// Table-driven execution over a shared immutable machine.
class InterpreterDriver {
 public:
  explicit InterpreterDriver(const fsm::StateMachine& machine)
      : instance_(machine) {}

  /// Deliver a message; returns the actions to perform, in order.
  /// Inapplicable messages return no actions.
  fsm::ActionList deliver(fsm::MessageId message) {
    const fsm::Transition* t = instance_.deliver(message);
    return t == nullptr ? fsm::ActionList{} : t->actions;
  }

  /// True once the update has committed locally.
  [[nodiscard]] bool finished() const { return instance_.finished(); }

 private:
  fsm::FsmInstance instance_;
};

}  // namespace asa_repro::commit
