// Composition model checker (src/check/composition): the pristine
// composed protocol must close with zero findings, every composition-level
// mutation must be caught, and exported counterexamples must round-trip
// through asa-replay/1 and reproduce against the concrete runtime.
#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/composition.hpp"
#include "check/findings.hpp"
#include "commit/replay.hpp"
#include "commit/variants.hpp"
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
//
// The state, transition and absorbed counts are pinned: they are a
// fingerprint of the peer-local cascade the checker steps (the one the
// runtime deploys), so a change to its order or effects moves them. The
// r=6..8 counts are pinned by the cli_fsmcheck_protocol ctest.

TEST(Composition, PristineR4ClosesWithZeroFindings) {
  check::CompositionOptions options;
  options.r = 4;
  const check::CompositionResult result = check::check_composition(options);
  EXPECT_TRUE(result.findings.empty());
  EXPECT_TRUE(result.stats.complete);
  EXPECT_EQ(result.stats.states, 3'614u);
  EXPECT_EQ(result.stats.transitions, 17'887u);
  // The absorb closure must be pulling weight; without it r=4 does not
  // close in test time.
  EXPECT_EQ(result.stats.absorbed, 24'579u);
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
  EXPECT_EQ(result.stats.states, 21'523u);
  EXPECT_EQ(result.stats.transitions, 154'685u);
  EXPECT_EQ(result.stats.absorbed, 368'843u);
}

/// A product small enough for every test run, with its pinned counts.
/// The multi-request rows turn drops and crashes off to keep each to
/// seconds; the full two-request product runs in CI's nightly step.
struct PinnedProduct {
  const char* name;
  std::uint32_t r;
  std::uint32_t requests;
  std::uint32_t attempts;  // Endpoint attempts per request.
  std::uint32_t drops;
  std::uint32_t crashes;
  std::size_t states;
  std::size_t transitions;
  std::size_t absorbed;
};

void PrintTo(const PinnedProduct& product, std::ostream* os) {
  *os << product.name;
}

class SiblingCascade : public ::testing::TestWithParam<PinnedProduct> {};

TEST_P(SiblingCascade, ClosesCleanWithPinnedCounts) {
  const PinnedProduct& product = GetParam();
  check::CompositionOptions options;
  options.r = product.r;
  options.requests = product.requests;
  options.attempts = product.attempts;
  options.drops = product.drops;
  options.crashes = product.crashes;
  const check::CompositionResult result = check::check_composition(options);
  EXPECT_TRUE(result.findings.empty());
  EXPECT_TRUE(result.stats.complete);
  EXPECT_EQ(result.stats.states, product.states);
  EXPECT_EQ(result.stats.transitions, product.transitions);
  EXPECT_EQ(result.stats.absorbed, product.absorbed);
}

// Two requests hand the node lock between the updates (free/not_free).
// Only a third sibling shows that the free offer stops at the first
// update that retakes the lock: offering it to every sibling reads
// 186 455 states at r=2. A second attempt is the only row where the
// endpoint rule's retry branch fires (at one attempt a request can only
// fail), with the default drop and crash budgets.
INSTANTIATE_TEST_SUITE_P(
    Composition, SiblingCascade,
    ::testing::Values(
        PinnedProduct{"r4_two_requests", 4, 2, 1, 0, 0, 244'629, 1'469'552,
                      2'733'284},
        PinnedProduct{"r2_three_requests", 2, 3, 1, 0, 0, 130'388, 749'355,
                      312'636},
        PinnedProduct{"r4_two_attempts", 4, 1, 2, 1, 1, 9'829, 62'006,
                      94'671}),
    [](const ::testing::TestParamInfo<PinnedProduct>& info) {
      return std::string(info.param.name);
    });

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
  ASSERT_EQ(std::size(commit::kVariants), 5u);
  EXPECT_STREQ(commit::kVariants[0].name, "comp.weak_quorum");
}

TEST(Composition, SelfTestDetectsEveryMutation) {
  check::CompositionOptions base;
  base.r = 4;
  const check::MutationReport report =
      check::run_composition_mutation_self_test(base);
  ASSERT_EQ(report.outcomes.size(), std::size(commit::kVariants));
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

class RuntimeTwin : public ::testing::TestWithParam<std::string> {};

/// The exported counterexample of a mutation with a runtime twin must
/// reproduce against the real peers and endpoint, built from the same
/// variant of the deployed rules.
TEST_P(RuntimeTwin, CounterexampleReproducesInRuntime) {
  const check::CompositionResult result = run_mutated(GetParam());
  const std::size_t idx = check::preferred_replay(result);
  ASSERT_LT(idx, result.findings.size());
  const commit::ReplayOutcome outcome =
      commit::run_replay(result.plans[idx]);
  EXPECT_TRUE(outcome.supported) << outcome.description;
  EXPECT_TRUE(outcome.reproduced) << outcome.description;
}

INSTANTIATE_TEST_SUITE_P(
    Composition, RuntimeTwin,
    ::testing::Values("comp.weak_quorum", "comp.weak_ack", "comp.dup_vote"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param.substr(info.param.find('.') + 1);
    });

TEST(Composition, ReplayRejectsAPlanWhoseFDisagreesWithR) {
  const check::CompositionResult result = run_mutated("comp.weak_quorum");
  const std::size_t idx = check::preferred_replay(result);
  ASSERT_LT(idx, result.findings.size());
  commit::ReplayPlan plan = result.plans[idx];
  ASSERT_EQ(plan.f, 1u);
  plan.f = 0;  // r=4 tolerates f=1: the runtime and the re-checks disagree.
  const commit::ReplayOutcome outcome = commit::run_replay(plan);
  EXPECT_FALSE(outcome.supported) << outcome.description;
  EXPECT_FALSE(outcome.reproduced);
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

// ---- asa-replay/1 wire text ----

// Every step kind, and every message word.
commit::ReplayPlan every_step_plan() {
  using Step = commit::ReplayStep;
  using Msg = commit::WireMessage::Kind;
  commit::ReplayPlan plan;
  plan.r = 7;
  plan.f = 2;
  plan.requests = 2;
  plan.attempts = 3;
  plan.guid = 123'456;
  plan.mutation = "comp.weak_ack";
  plan.check = "composition.ack_quorum";
  plan.detail = "request acknowledged after 1 distinct confirmation(s)";
  plan.faults.add({.at = 1, .kind = sim::FaultEvent::Kind::kCrash,
                   .node = 3});
  plan.schedule = {
      {.kind = Step::Kind::kSubmit, .request = 0},
      {.kind = Step::Kind::kDeliver, .msg = Msg::kUpdate, .to = 0},
      {.kind = Step::Kind::kDeliver, .msg = Msg::kVote, .from = 0, .to = 1},
      {.kind = Step::Kind::kDup, .msg = Msg::kVote, .from = 0, .to = 1},
      {.kind = Step::Kind::kDrop, .msg = Msg::kCommit, .from = 1, .to = 2},
      {.kind = Step::Kind::kCrash, .peer = 3},
      {.kind = Step::Kind::kRecord, .request = 1, .peer = 2},
      {.kind = Step::Kind::kDeliver, .msg = Msg::kCommitted, .from = 2,
       .to = Step::kEndpoint, .request = 1},
      {.kind = Step::Kind::kRetry, .request = 1},
      {.kind = Step::Kind::kFail, .request = 1},
  };
  return plan;
}

// The asa-replay/1 text an earlier build wrote for every_step_plan(): a
// round trip passes even when the writer and the reader drift together.
TEST(ReplayPlan, WireTextIsPinned) {
  constexpr const char* kGolden =
      "asa-replay/1\n"
      "protocol r=7 f=2 requests=2 attempts=3 guid=123456\n"
      "mutation comp.weak_ack\n"
      "check composition.ack_quorum\n"
      "detail request acknowledged after 1 distinct confirmation(s)\n"
      "plan\n"
      "1 crash 3\n"
      "endplan\n"
      "schedule\n"
      "submit req=0\n"
      "deliver update from=e to=0 req=0\n"
      "deliver vote from=0 to=1 req=0\n"
      "dup vote from=0 to=1 req=0\n"
      "drop commit from=1 to=2 req=0\n"
      "crash peer=3\n"
      "record peer=2 req=1\n"
      "deliver committed from=2 to=e req=1\n"
      "retry req=1\n"
      "fail req=1\n"
      "endschedule\n";
  EXPECT_EQ(every_step_plan().serialize(), kGolden);
  const std::optional<commit::ReplayPlan> parsed =
      commit::ReplayPlan::parse(kGolden);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), kGolden);
  EXPECT_EQ(parsed->guid, 123'456u);
  EXPECT_EQ(parsed->faults, every_step_plan().faults);
}

// Each protocol field reads at its member's width: a guid past 32 bits
// comes back whole, and the endpoint word is no number.
TEST(ReplayPlan, ProtocolFieldsReadAtTheirOwnWidth) {
  const std::string head = "asa-replay/1\nprotocol r=4 f=1 requests=1 ";
  const std::string tail = "\nmutation none\ncheck c\n";
  const auto wide =
      commit::ReplayPlan::parse(head + "attempts=1 guid=4294967296" + tail);
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(wide->guid, 4'294'967'296u);
  EXPECT_FALSE(
      commit::ReplayPlan::parse(head + "attempts=1 guid=e" + tail));
  EXPECT_FALSE(commit::ReplayPlan::parse(head + "attempts=e" + tail));
  EXPECT_FALSE(commit::ReplayPlan::parse(head + "attempts=1 x=1" + tail));
}

}  // namespace
}  // namespace asa_repro
