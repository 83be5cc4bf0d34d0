// Composition model checker (src/check/composition): the pristine
// composed protocol must close with zero findings, every composition-level
// mutation must be caught, and exported counterexamples must round-trip
// through asa-replay/1 and reproduce against the concrete runtime.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/composition.hpp"
#include "check/findings.hpp"
#include "commit/replay.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace asa_repro {
namespace {

bool has_check(const check::Findings& findings, std::string_view name) {
  for (const check::Finding& f : findings) {
    if (f.check == name) return true;
  }
  return false;
}

check::CompositionResult run_mutated(const std::string& mutation) {
  check::CompositionOptions options;
  options.r = 4;
  options.mutation = mutation;
  return check::check_composition(options);
}

// ---- Pristine exploration ----

TEST(Composition, PristineR4ClosesWithZeroFindings) {
  check::CompositionOptions options;
  options.r = 4;
  const check::CompositionResult result = check::check_composition(options);
  EXPECT_TRUE(result.findings.empty());
  EXPECT_TRUE(result.stats.complete);
  EXPECT_GT(result.stats.states, 100u);
  EXPECT_GT(result.stats.transitions, result.stats.states);
  // The absorb closure must be pulling weight; without it r=4 does not
  // close in test time.
  EXPECT_GT(result.stats.absorbed, 0u);
  EXPECT_GT(result.checks_run, 0u);
  EXPECT_EQ(result.plans.size(), result.findings.size());
  // Nothing to export on a clean run.
  EXPECT_EQ(check::preferred_replay(result), result.findings.size());
}

TEST(Composition, PristineR5ClosesWithZeroFindings) {
  check::CompositionOptions options;
  options.r = 5;
  const check::CompositionResult result = check::check_composition(options);
  EXPECT_TRUE(result.findings.empty());
  EXPECT_TRUE(result.stats.complete);
}

TEST(Composition, TruncationIsReportedAsSentinelFinding) {
  check::CompositionOptions options;
  options.r = 6;
  options.max_states = 100;  // Force truncation.
  const check::CompositionResult result = check::check_composition(options);
  EXPECT_FALSE(result.stats.complete);
  EXPECT_TRUE(has_check(result.findings, "composition.state_bound"));
  // The sentinel is not a counterexample and must never be exported.
  EXPECT_EQ(check::preferred_replay(result), result.findings.size());
}

TEST(Composition, RejectsInvalidOptions) {
  check::CompositionOptions tiny;
  tiny.r = 1;
  EXPECT_THROW((void)check::check_composition(tiny), std::invalid_argument);

  check::CompositionOptions unknown;
  unknown.mutation = "comp.no_such_mutation";
  EXPECT_THROW((void)check::check_composition(unknown),
               std::invalid_argument);
}

// ---- Mutation self-test ----

TEST(Composition, CatalogueListsFiveMutations) {
  const std::vector<std::string>& names = check::composition_mutations();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "comp.weak_quorum");
}

TEST(Composition, SelfTestDetectsEveryMutation) {
  check::CompositionOptions base;
  base.r = 4;
  const check::MutationReport report =
      check::run_composition_mutation_self_test(base);
  ASSERT_EQ(report.outcomes.size(),
            check::composition_mutations().size());
  for (const check::MutationOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.detected) << o.name << " escaped the checker";
    EXPECT_FALSE(o.finding.empty()) << o.name;
    EXPECT_FALSE(o.description.empty()) << o.name;
  }
  EXPECT_TRUE(report.all_detected());
}

TEST(Composition, WeakQuorumTripsQuorumJustification) {
  const check::CompositionResult result = run_mutated("comp.weak_quorum");
  EXPECT_TRUE(has_check(result.findings, "composition.quorum_justified"));
}

TEST(Composition, DropRetryTripsTermination) {
  const check::CompositionResult result = run_mutated("comp.drop_retry");
  EXPECT_TRUE(has_check(result.findings, "composition.termination"));
}

TEST(Composition, WeakAckTripsAckQuorum) {
  const check::CompositionResult result = run_mutated("comp.weak_ack");
  EXPECT_TRUE(has_check(result.findings, "composition.ack_quorum"));
}

// ---- Counterexample export and replay ----

TEST(Composition, ExportedPlanRoundTripsThroughSerialization) {
  const check::CompositionResult result = run_mutated("comp.dup_vote");
  const std::size_t idx = check::preferred_replay(result);
  ASSERT_LT(idx, result.findings.size());
  const commit::ReplayPlan& plan = result.plans[idx];
  EXPECT_EQ(plan.mutation, "comp.dup_vote");
  EXPECT_EQ(plan.check, result.findings[idx].check);
  EXPECT_FALSE(plan.schedule.empty());
  // The finding's schedule lines are the serialized plan steps.
  ASSERT_EQ(result.findings[idx].schedule.size(), plan.schedule.size());
  for (std::size_t i = 0; i < plan.schedule.size(); ++i) {
    EXPECT_EQ(result.findings[idx].schedule[i], plan.schedule[i].serialize());
  }

  const std::optional<commit::ReplayPlan> parsed =
      commit::ReplayPlan::parse(plan.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->r, plan.r);
  EXPECT_EQ(parsed->f, plan.f);
  EXPECT_EQ(parsed->mutation, plan.mutation);
  EXPECT_EQ(parsed->check, plan.check);
  EXPECT_EQ(parsed->schedule, plan.schedule);
  EXPECT_EQ(parsed->faults.size(), plan.faults.size());
}

TEST(Composition, DupVoteCounterexampleReproducesInRuntime) {
  const check::CompositionResult result = run_mutated("comp.dup_vote");
  const std::size_t idx = check::preferred_replay(result);
  ASSERT_LT(idx, result.findings.size());
  const commit::ReplayOutcome outcome =
      commit::run_replay(result.plans[idx]);
  EXPECT_TRUE(outcome.supported);
  EXPECT_TRUE(outcome.reproduced) << outcome.description;
}

TEST(Composition, ModelOnlyMutationReplayIsSkippedNotFailed) {
  const check::CompositionResult result =
      run_mutated("comp.ack_before_record");
  const std::size_t idx = check::preferred_replay(result);
  ASSERT_LT(idx, result.findings.size());
  const commit::ReplayOutcome outcome =
      commit::run_replay(result.plans[idx]);
  // Recording decoupled from the commit decision has no runtime twin; the
  // replay must report "unsupported", never a false "not reproduced".
  EXPECT_FALSE(outcome.supported);
  EXPECT_FALSE(outcome.reproduced);
}

// ---- Findings document: schedules and group timings ----

TEST(Composition, FindingsJsonCarriesScheduleAndWallClockTimings) {
  const check::CompositionResult result = run_mutated("comp.weak_quorum");
  const std::size_t idx = check::preferred_replay(result);
  ASSERT_LT(idx, result.findings.size());

  const std::vector<check::GroupTiming> timings = {
      {"composition_r4", 12}};
  const std::string json = check::write_findings_json(
      result.findings, {{"tool", "test"}, {"mode", "protocol"}},
      result.checks_run, timings);
  const std::optional<obs::JsonValue> parsed = obs::parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(obs::validate_document_json(*parsed).has_value());
  EXPECT_NE(json.find("\"schedule\""), std::string::npos);
  EXPECT_NE(json.find("\"timings\""), std::string::npos);
  EXPECT_NE(json.find("\"clock\""), std::string::npos);
  EXPECT_NE(json.find("\"wall\""), std::string::npos);
}

}  // namespace
}  // namespace asa_repro
