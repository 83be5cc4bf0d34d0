// InterpreterDriver: interpreted execution of one commit-FSM instance,
// kept for the end-to-end benchmark's FSM probe.
#include <gtest/gtest.h>

#include "commit/commit_model.hpp"
#include "commit/driver.hpp"
#include "commit/machine_cache.hpp"

namespace asa_repro::commit {
namespace {

TEST(InterpreterDriverTest, MatchesMachineSemantics) {
  MachineCache cache;
  const fsm::StateMachine& machine = cache.machine_for(4);
  InterpreterDriver driver(machine);
  EXPECT_EQ(driver.deliver(kUpdate), (fsm::ActionList{"vote", "not_free"}));
  EXPECT_FALSE(driver.finished());
  // Inapplicable: empty.
  EXPECT_TRUE(driver.deliver(kUpdate).empty());
}

}  // namespace
}  // namespace asa_repro::commit
