// EFSMs (section 5.3): the expression library, the 9-state commit EFSM,
// its parameter independence, and trace equivalence of its expansion
// against every generated FSM family member.
#include <gtest/gtest.h>

#include <map>

#include <algorithm>

#include "commit/commit_efsm.hpp"
#include "commit/commit_model.hpp"
#include "core/efsm/efsm.hpp"
#include "core/efsm/efsm_code_renderer.hpp"
#include "core/efsm/efsm_doc_renderer.hpp"
#include "core/efsm/efsm_dot_renderer.hpp"
#include "core/equivalence.hpp"
#include "core/minimize.hpp"
#include "sim/rng.hpp"

namespace asa_repro::fsm {
namespace {

// ---- Expression library. ----

TEST(Expr, EvaluatesArithmeticAndComparisons) {
  const std::map<std::string, std::int64_t> env_map = {{"x", 5}, {"y", 2}};
  const ExprEnv env = env_from(env_map);
  EXPECT_EQ((var("x") + lit(3))->eval(env), 8);
  EXPECT_EQ((var("x") - var("y"))->eval(env), 3);
  EXPECT_EQ((var("x") * var("y"))->eval(env), 10);
  EXPECT_EQ((var("x") >= lit(5))->eval(env), 1);
  EXPECT_EQ((var("x") > lit(5))->eval(env), 0);
  EXPECT_EQ((var("x") < lit(6))->eval(env), 1);
  EXPECT_EQ((var("x") == lit(5))->eval(env), 1);
  EXPECT_EQ((var("x") != lit(5))->eval(env), 0);
}

TEST(Expr, BooleanConnectivesShortCircuit) {
  const std::map<std::string, std::int64_t> env_map = {{"t", 1}, {"f", 0}};
  const ExprEnv env = env_from(env_map);
  // "boom" is undefined; short-circuit must avoid evaluating it.
  EXPECT_EQ((var("f") && var("boom"))->eval(env), 0);
  EXPECT_EQ((var("t") || var("boom"))->eval(env), 1);
  EXPECT_EQ((!var("t"))->eval(env), 0);
  EXPECT_EQ((!var("f"))->eval(env), 1);
}

TEST(Expr, ToStringReadable) {
  EXPECT_EQ((var("votes") + lit(1))->to_string(), "votes + 1");
  EXPECT_EQ((lit(2) * var("f") + lit(1))->to_string(), "2 * f + 1");
  EXPECT_EQ(((var("a") + var("b")) * lit(3))->to_string(), "(a + b) * 3");
  EXPECT_EQ(((var("v") < lit(3)) && (var("c") >= lit(1)))->to_string(),
            "v < 3 && c >= 1");
}

TEST(Expr, UnknownNameThrows) {
  const std::map<std::string, std::int64_t> empty;
  EXPECT_THROW((void)var("missing")->eval(env_from(empty)),
               std::out_of_range);
}

// ---- Commit EFSM structure. ----

TEST(CommitEfsm, HasExactlyNineStates) {
  // Section 5.3: "The resulting EFSM contains 9 states."
  const Efsm efsm = commit::make_commit_efsm();
  EXPECT_EQ(efsm.states.size(), 9u);
}

TEST(CommitEfsm, StateSpaceIndependentOfReplicationFactor) {
  // The EFSM's states encode only threshold status, so the definition is a
  // single object — instantiating it with different parameters changes
  // variables' bounds, never the state count.
  const Efsm efsm = commit::make_commit_efsm();
  for (std::int64_t r : {4, 7, 13, 46}) {
    EfsmInstance inst(efsm, commit::commit_efsm_params(r));
    EXPECT_EQ(inst.efsm().states.size(), 9u);
  }
}

TEST(CommitEfsm, ValidatesCleanly) {
  EXPECT_NO_THROW(commit::make_commit_efsm().validate());
}

TEST(CommitEfsm, DescribeMentionsEveryState) {
  const Efsm efsm = commit::make_commit_efsm();
  const std::string text = efsm.describe();
  for (const EfsmState& s : efsm.states) {
    EXPECT_NE(text.find(s.name), std::string::npos) << s.name;
  }
  EXPECT_NE(text.find("votes_received"), std::string::npos);
}

TEST(CommitEfsm, MissingParameterThrows) {
  const Efsm efsm = commit::make_commit_efsm();
  EXPECT_THROW(EfsmInstance(efsm, {{"r", 4}}), std::invalid_argument);
}

TEST(EfsmValidate, CatchesBrokenDefinitions) {
  Efsm e;
  EXPECT_THROW(e.validate(), std::logic_error);  // No states.

  e.name = "broken";
  e.messages = {"m"};
  e.states.resize(1);
  e.states[0].name = "only";
  EfsmRule rule;
  rule.message = 0;
  EfsmBranch branch;
  branch.guard = lit(1);
  branch.target = 7;  // Out of range.
  rule.branches = {branch};
  e.states[0].rules = {rule};
  EXPECT_THROW(e.validate(), std::logic_error);

  e.states[0].rules[0].branches[0].target = 0;
  e.states[0].rules[0].branches[0].updates = {{"ghost", lit(1)}};
  EXPECT_THROW(e.validate(), std::logic_error);  // Unknown variable.
}

// ---- Interpreted EFSM runs. ----

TEST(CommitEfsm, NoContentionRun) {
  const Efsm efsm = commit::make_commit_efsm();
  EfsmInstance inst(efsm, commit::commit_efsm_params(4));
  EXPECT_EQ(inst.state_name(), "IDLE_FREE");

  const EfsmBranch* b = inst.deliver(commit::kUpdate);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->actions, (ActionList{"vote", "not_free"}));
  EXPECT_EQ(inst.state_name(), "CHOSEN_PENDING");

  b = inst.deliver(commit::kVote);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->actions.empty());
  EXPECT_EQ(inst.variable("votes_received"), 1);

  b = inst.deliver(commit::kVote);  // Total = 3 = threshold.
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->actions, (ActionList{"commit"}));
  EXPECT_EQ(inst.state_name(), "CHOSEN_COMMITTED");

  (void)inst.deliver(commit::kCommit);
  EXPECT_FALSE(inst.finished());
  b = inst.deliver(commit::kCommit);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->actions, (ActionList{"free"}));
  EXPECT_TRUE(inst.finished());
}

TEST(CommitEfsm, ResetRestoresInitialConfiguration) {
  const Efsm efsm = commit::make_commit_efsm();
  EfsmInstance inst(efsm, commit::commit_efsm_params(4));
  (void)inst.deliver(commit::kVote);
  (void)inst.deliver(commit::kNotFree);
  inst.reset();
  EXPECT_EQ(inst.state_name(), "IDLE_FREE");
  EXPECT_EQ(inst.variable("votes_received"), 0);
  EXPECT_EQ(inst.variable("commits_received"), 0);
}

// ---- The headline 5.3 result: EFSM == FSM family, for every member. ----

class EfsmEquivalence : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EfsmEquivalence, ExpansionTraceEquivalentToGeneratedFsm) {
  const std::uint32_t r = GetParam();
  const Efsm efsm = commit::make_commit_efsm();
  const StateMachine expanded =
      expand_to_fsm(efsm, commit::commit_efsm_params(r));
  const StateMachine generated =
      commit::CommitModel(r).generate_state_machine();
  const auto divergence = find_divergence(expanded, generated);
  EXPECT_FALSE(divergence.has_value())
      << "r=" << r << ": " << divergence->reason;
}

INSTANTIATE_TEST_SUITE_P(ReplicationFactors, EfsmEquivalence,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 10u, 13u,
                                           19u, 25u, 34u, 46u));

TEST(EfsmExpansion, ExpansionMatchesPrunedSizeBeforeMerging) {
  // Expanding the EFSM enumerates reachable concrete configurations — the
  // same set the FSM pipeline reaches before merging (48 for r=4).
  const Efsm efsm = commit::make_commit_efsm();
  const StateMachine expanded =
      expand_to_fsm(efsm, commit::commit_efsm_params(4));
  EXPECT_EQ(minimize(expanded).state_count(), 33u);
}

// ---- EFSM diagram rendering. ----

TEST(EfsmDotRenderer, EmitsGuardedDiagram) {
  const Efsm efsm = commit::make_commit_efsm();
  const std::string dot = EfsmDotRenderer("bft_commit_efsm").render(efsm);
  EXPECT_EQ(dot.find("digraph \"bft_commit_efsm\""), 0u);
  for (const EfsmState& s : efsm.states) {
    EXPECT_NE(dot.find("\"" + s.name + "\""), std::string::npos) << s.name;
  }
  // Guards and updates appear on edges; trivial guards are omitted.
  EXPECT_NE(dot.find("votes_received + 1 >= 2 * f + 1"), std::string::npos);
  EXPECT_NE(dot.find("votes_received := votes_received + 1"),
            std::string::npos);
  EXPECT_EQ(dot.find("[1]"), std::string::npos);
  // Final state double-bordered; braces balanced.
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(EfsmDocRenderer, EmitsMarkdownTables) {
  const Efsm efsm = commit::make_commit_efsm();
  EfsmDocOptions options;
  options.preamble = "Nine states, independent of the replication factor.";
  const std::string doc = EfsmDocRenderer(options).render(efsm);
  EXPECT_EQ(doc.find("# EFSM bft_commit"), 0u);
  EXPECT_NE(doc.find("- States: 9"), std::string::npos);
  EXPECT_NE(doc.find("`r` `f`"), std::string::npos);
  EXPECT_NE(doc.find("| `votes_received` | `0` | `r - 1` |"),
            std::string::npos);
  EXPECT_NE(doc.find("### `IDLE_FREE` *(start)*"), std::string::npos);
  EXPECT_NE(doc.find("### `FINISHED` *(final)*"), std::string::npos);
  EXPECT_NE(doc.find("No outgoing transitions."), std::string::npos);
  EXPECT_NE(doc.find("| message | guard | updates | actions | next state |"),
            std::string::npos);
  EXPECT_NE(doc.find("`->not_free`"), std::string::npos);
}

// ---- EFSM code rendering. ----

TEST(EfsmCodeRenderer, EmitsGuardedHandlers) {
  const Efsm efsm = commit::make_commit_efsm();
  CodeGenOptions options;
  options.class_name = "CommitEfsm";
  options.namespace_name = "gen";
  options.base_class = "asa_repro::commit::CommitActions";
  options.includes = {"commit/actions.hpp"};
  const std::string code = EfsmCodeRenderer(options).render(efsm);

  // Parameters become constructor arguments; variables become members with
  // the _-suffix rewrite applied inside guards.
  EXPECT_NE(code.find("explicit CommitEfsm(std::int64_t r, std::int64_t f)"),
            std::string::npos);
  EXPECT_NE(code.find("votes_received_ + 1 >= 2 * f_ + 1"),
            std::string::npos);
  EXPECT_NE(code.find("commits_received_ + 1 >= f_ + 1"), std::string::npos);
  EXPECT_NE(code.find("case State::IDLE_FREE: "), std::string::npos);
  EXPECT_NE(code.find("sendNotFree();"), std::string::npos);
  EXPECT_NE(code.find("state_ = State::CHOSEN_PENDING;"), std::string::npos);
  // 9 state names in the enum.
  for (const EfsmState& s : efsm.states) {
    EXPECT_NE(code.find(s.name), std::string::npos);
  }
}

}  // namespace
}  // namespace asa_repro::fsm
