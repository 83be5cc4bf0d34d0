// Static-analysis library (src/check): structural lints, protocol
// properties, EFSM guard analysis, family conformance, the findings JSON
// schema, the mutation self-test, and the machine-cache validation hook.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "check/check.hpp"
#include "check/efsm_check.hpp"
#include "check/family.hpp"
#include "check/findings.hpp"
#include "check/mutate.hpp"
#include "check/properties.hpp"
#include "check/structural.hpp"
#include "commit/commit_efsm.hpp"
#include "commit/commit_model.hpp"
#include "commit/machine_cache.hpp"
#include "core/render/dot_renderer.hpp"
#include "core/render/mermaid_renderer.hpp"
#include "core/render/xml_renderer.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace asa_repro {
namespace {

const std::vector<std::string> kMessages = {"update", "vote", "commit",
                                            "free", "not_free"};

bool has_check(const check::Findings& findings, std::string_view name) {
  for (const check::Finding& f : findings) {
    if (f.check == name) return true;
  }
  return false;
}

fsm::State make_state(std::string name, bool is_final = false) {
  fsm::State s;
  s.name = std::move(name);
  s.is_final = is_final;
  return s;
}

fsm::Transition make_transition(fsm::MessageId message, fsm::StateId target,
                                fsm::ActionList actions = {}) {
  fsm::Transition t;
  t.message = message;
  t.target = target;
  t.actions = std::move(actions);
  return t;
}

// ---- Structural lints ----

TEST(LintStructure, EmptyMachineIsMalformed) {
  const fsm::StateMachine machine;
  const check::Findings findings = check::lint_structure(machine, "empty");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "structural.malformed");
}

TEST(LintStructure, SingleLoopingStateIsClean) {
  fsm::State s = make_state("only");
  s.transitions.push_back(make_transition(0, 0));
  const fsm::StateMachine machine(kMessages, {s}, 0, fsm::kNoState);
  EXPECT_TRUE(check::lint_structure(machine, "single").empty());
}

TEST(LintStructure, OnlyTerminalStateIsClean) {
  const fsm::StateMachine machine(kMessages, {make_state("done", true)}, 0, 0);
  EXPECT_TRUE(check::lint_structure(machine, "terminal").empty());
}

TEST(LintStructure, FlagsOutOfRangeTarget) {
  fsm::State s = make_state("start");
  s.transitions.push_back(make_transition(0, 7));
  const fsm::StateMachine machine(kMessages, {s}, 0, fsm::kNoState);
  EXPECT_TRUE(
      has_check(check::lint_structure(machine, "m"), "structural.malformed"));
}

TEST(LintStructure, FlagsUnreachableDuplicateNameAndSink) {
  fsm::State start = make_state("start");
  start.transitions.push_back(make_transition(0, 0));
  // Unreachable, shares the start state's name, and is a non-final sink.
  const fsm::StateMachine machine(kMessages, {start, make_state("start")}, 0,
                                  fsm::kNoState);
  const check::Findings findings = check::lint_structure(machine, "m");
  EXPECT_TRUE(has_check(findings, "structural.unreachable"));
  EXPECT_TRUE(has_check(findings, "structural.duplicate_name"));
  EXPECT_TRUE(has_check(findings, "structural.sink"));
}

TEST(LintStructure, DistinguishesDuplicateFromNondeterminism) {
  fsm::State a = make_state("a");
  a.transitions.push_back(make_transition(0, 1));
  a.transitions.push_back(make_transition(0, 1));  // Identical: duplicate.
  a.transitions.push_back(make_transition(1, 1));
  a.transitions.push_back(make_transition(1, 0));  // Divergent: ambiguous.
  const fsm::StateMachine machine(kMessages, {a, make_state("b", true)}, 0, 1);
  const check::Findings findings = check::lint_structure(machine, "m");
  EXPECT_TRUE(has_check(findings, "structural.duplicate"));
  EXPECT_TRUE(has_check(findings, "structural.nondeterminism"));
}

TEST(LintStructure, FlagsFinalStateWithExits) {
  fsm::State done = make_state("done", true);
  done.transitions.push_back(make_transition(0, 0));
  const fsm::StateMachine machine(kMessages, {done}, 0, 0);
  EXPECT_TRUE(has_check(check::lint_structure(machine, "m"),
                        "structural.terminal_exit"));
}

TEST(LintRenderedArtifacts, CleanOnGeneratedMachine) {
  const fsm::StateMachine machine =
      commit::CommitModel(4).generate_state_machine();
  EXPECT_TRUE(check::lint_rendered_artifacts(machine, "commit_r4").empty());
}

TEST(MachinesIdentical, ReportsFirstDifference) {
  const fsm::StateMachine machine =
      commit::CommitModel(4).generate_state_machine();
  fsm::StateMachine other = machine;
  other.states()[3].is_final = !other.states()[3].is_final;
  EXPECT_FALSE(check::machines_identical(machine, machine).has_value());
  const auto diff = check::machines_identical(machine, other);
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("finality"), std::string::npos);
}

// ---- Protocol properties ----

TEST(ProtocolProperties, CleanOnGeneratedFamily) {
  for (std::uint32_t r = 4; r <= 8; ++r) {
    const fsm::StateMachine machine =
        commit::CommitModel(r).generate_state_machine();
    EXPECT_TRUE(check::check_protocol_properties(machine, r, "m").empty())
        << "r=" << r;
  }
}

TEST(ProtocolProperties, FlagsDoubleVote) {
  fsm::State a = make_state("a");
  a.transitions.push_back(make_transition(0, 1, {"vote"}));
  fsm::State b = make_state("b");
  b.transitions.push_back(make_transition(3, 2, {"vote"}));
  fsm::State c = make_state("c", true);
  const fsm::StateMachine machine(kMessages, {a, b, c}, 0, 2);
  const check::Findings findings =
      check::check_protocol_properties(machine, 4, "m");
  EXPECT_TRUE(has_check(findings, "property.vote_once"));
}

TEST(ProtocolProperties, FlagsUnjustifiedCommit) {
  fsm::State a = make_state("a");
  a.transitions.push_back(make_transition(0, 1, {"commit"}));
  fsm::State b = make_state("b");
  const fsm::StateMachine machine(kMessages, {a, b}, 0, fsm::kNoState);
  const check::Findings findings =
      check::check_protocol_properties(machine, 4, "m");
  EXPECT_TRUE(has_check(findings, "property.commit_justified"));
}

TEST(ProtocolProperties, FlagsPrematureAndMissedFinish) {
  // b is final after zero commits; d has consumed f+1 = 2 commits but is
  // not final.
  fsm::State a = make_state("a");
  a.transitions.push_back(make_transition(0, 1));
  a.transitions.push_back(make_transition(2, 2));
  fsm::State b = make_state("b", true);
  fsm::State c = make_state("c");
  c.transitions.push_back(make_transition(2, 3));
  fsm::State d = make_state("d");
  d.transitions.push_back(make_transition(3, 3));
  const fsm::StateMachine machine(kMessages, {a, b, c, d}, 0, 1);
  const check::Findings findings =
      check::check_protocol_properties(machine, 4, "m");
  EXPECT_TRUE(has_check(findings, "property.premature_finish"));
  EXPECT_TRUE(has_check(findings, "property.missed_finish"));
}

TEST(ProtocolProperties, FlagsNontermination) {
  fsm::State a = make_state("a");
  a.transitions.push_back(make_transition(0, 0));
  const fsm::StateMachine machine(kMessages, {a}, 0, fsm::kNoState);
  const check::Findings findings =
      check::check_protocol_properties(machine, 4, "m");
  EXPECT_TRUE(has_check(findings, "property.termination"));
}

TEST(ProtocolProperties, CounterexampleTraceIsReported) {
  fsm::State a = make_state("a");
  a.transitions.push_back(make_transition(0, 1, {"vote"}));
  fsm::State b = make_state("b");
  b.transitions.push_back(make_transition(1, 2, {"vote"}));
  fsm::State c = make_state("c", true);
  const fsm::StateMachine machine(kMessages, {a, b, c}, 0, 2);
  const check::Findings findings =
      check::check_protocol_properties(machine, 4, "m");
  ASSERT_TRUE(has_check(findings, "property.vote_once"));
  for (const check::Finding& f : findings) {
    if (f.check != "property.vote_once") continue;
    EXPECT_EQ(f.trace, (std::vector<std::string>{"update", "vote"}));
  }
}

// ---- EFSM guard analysis ----

/// A minimal well-formed EFSM: one variable v in [0, 2], message "inc"
/// counts it up. Tests mutate this scaffold.
fsm::Efsm tiny_efsm() {
  fsm::Efsm e;
  e.name = "tiny";
  e.messages = {"inc", "probe"};
  e.variables = {{"v", fsm::lit(0), fsm::lit(2)}};
  e.states.resize(2);
  e.states[0].name = "RUN";
  e.states[1].name = "DONE";
  e.states[1].is_final = true;
  fsm::EfsmRule inc;
  inc.message = 0;
  fsm::EfsmBranch count;
  count.guard = fsm::var("v") < fsm::lit(2);
  count.updates = {{"v", fsm::var("v") + fsm::lit(1)}};
  count.target = 0;
  fsm::EfsmBranch finish;
  finish.guard = fsm::var("v") >= fsm::lit(2);
  finish.target = 1;
  inc.branches = {count, finish};
  e.states[0].rules.push_back(inc);
  return e;
}

TEST(EfsmCheck, CleanOnPristineCommitEfsm) {
  const fsm::Efsm efsm = commit::make_commit_efsm();
  for (std::int64_t r = 4; r <= 16; ++r) {
    EXPECT_TRUE(
        check::check_efsm(efsm, commit::commit_efsm_params(r), "efsm").empty())
        << "r=" << r;
  }
}

TEST(EfsmCheck, CleanOnTinyEfsm) {
  EXPECT_TRUE(check::check_efsm(tiny_efsm(), {}, "tiny").empty());
}

TEST(EfsmCheck, FlagsUnsatisfiableGuard) {
  fsm::Efsm e = tiny_efsm();
  // v never exceeds 2, so this guard holds at no domain point.
  e.states[0].rules[0].branches[0].guard = fsm::var("v") > fsm::lit(5);
  const check::Findings findings = check::check_efsm(e, {}, "tiny");
  EXPECT_TRUE(has_check(findings, "efsm.guard.unsat"));
}

TEST(EfsmCheck, FlagsShadowedBranch) {
  fsm::Efsm e = tiny_efsm();
  e.states[0].rules[0].branches[0].guard = fsm::lit(1);
  const check::Findings findings = check::check_efsm(e, {}, "tiny");
  EXPECT_TRUE(has_check(findings, "efsm.guard.shadowed"));
}

TEST(EfsmCheck, FlagsDuplicateBranch) {
  fsm::Efsm e = tiny_efsm();
  e.states[0].rules[0].branches.push_back(e.states[0].rules[0].branches[0]);
  const check::Findings findings = check::check_efsm(e, {}, "tiny");
  EXPECT_TRUE(has_check(findings, "efsm.guard.duplicate"));
}

TEST(EfsmCheck, FlagsInteriorGapButNotBoundaryGap) {
  fsm::Efsm e = tiny_efsm();
  // probe fires only at v == 0: v == 1 is an interior gap (v's maximum is
  // 2, so v == 2 would be a deliberate boundary gap).
  fsm::EfsmRule probe;
  probe.message = 1;
  fsm::EfsmBranch at_zero;
  at_zero.guard = fsm::var("v") == fsm::lit(0);
  at_zero.target = 0;
  probe.branches = {at_zero};
  e.states[0].rules.push_back(probe);
  const check::Findings findings = check::check_efsm(e, {}, "tiny");
  ASSERT_TRUE(has_check(findings, "efsm.guard.gap"));
  for (const check::Finding& f : findings) {
    if (f.check != "efsm.guard.gap") continue;
    EXPECT_NE(f.message.find("v=1"), std::string::npos) << f.message;
  }
}

TEST(EfsmCheck, BoundaryOnlyGapIsNotReported) {
  fsm::Efsm e = tiny_efsm();
  // probe covers v < 2 exactly: the only gap is at the boundary v == 2.
  fsm::EfsmRule probe;
  probe.message = 1;
  fsm::EfsmBranch below;
  below.guard = fsm::var("v") < fsm::lit(2);
  below.target = 0;
  probe.branches = {below};
  e.states[0].rules.push_back(probe);
  EXPECT_TRUE(check::check_efsm(e, {}, "tiny").empty());
}

TEST(EfsmCheck, FlagsUpdateEscapingBounds) {
  fsm::Efsm e = tiny_efsm();
  e.states[0].rules[0].branches[0].updates = {
      {"v", fsm::var("v") + fsm::lit(5)}};
  const check::Findings findings = check::check_efsm(e, {}, "tiny");
  EXPECT_TRUE(has_check(findings, "efsm.update.bounds"));
}

TEST(EfsmCheck, FlagsUnreachableState) {
  fsm::Efsm e = tiny_efsm();
  // Retarget the finishing branch so DONE is never entered.
  e.states[0].rules[0].branches[1].target = 0;
  const check::Findings findings = check::check_efsm(e, {}, "tiny");
  EXPECT_TRUE(has_check(findings, "efsm.state.unreachable"));
}

// ---- Family conformance and the checked-in artefact ----

TEST(FamilyConformance, EfsmMatchesGeneratedFamily) {
  const fsm::Efsm efsm = commit::make_commit_efsm();
  EXPECT_TRUE(check::check_family_conformance(efsm, 4, 8).empty());
}

TEST(FamilyConformance, ReportsDivergingMemberWithTrace) {
  fsm::Efsm efsm = commit::make_commit_efsm();
  const auto state = efsm.state_id("IDLE_FREE").value();
  const auto message = efsm.message_id("update").value();
  for (fsm::EfsmRule& rule : efsm.states[state].rules) {
    if (rule.message == message) {
      rule.branches.back().target = efsm.state_id("FINISHED").value();
    }
  }
  const check::Findings findings =
      check::check_family_conformance(efsm, 4, 6);
  ASSERT_TRUE(has_check(findings, "family.bisimulation"));
  for (const check::Finding& f : findings) {
    if (f.check == "family.bisimulation") {
      EXPECT_FALSE(f.trace.empty());
    }
  }
}

TEST(GeneratedArtifactCheck, CheckedInSourceIsByteIdentical) {
  const check::Findings findings = check::check_generated_artifact(
      std::string(ASA_SRC_DIR) + "/commit/generated/commit_fsm_r4.hpp");
  EXPECT_TRUE(findings.empty());
}

TEST(GeneratedArtifactCheck, FlagsStaleArtifact) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "stale_fsm_r4.hpp";
  std::ofstream(path) << "// stale contents\n";
  const check::Findings findings = check::check_generated_artifact(path);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "artifact.generated");
  std::filesystem::remove(path);
}

// ---- Full driver and the findings document ----

TEST(CheckDriver, PristineFamilyHasNoFindings) {
  check::CheckOptions options;
  options.r_lo = 4;
  options.r_hi = 8;
  options.artifact_path =
      std::string(ASA_SRC_DIR) + "/commit/generated/commit_fsm_r4.hpp";
  const check::CheckRun run = check::run_commit_checks(options);
  EXPECT_TRUE(run.findings.empty());
  EXPECT_GT(run.checks_run, 0u);
}

TEST(FindingsJson, RoundTripsThroughValidator) {
  check::Findings findings;
  findings.emplace_back("structural.sink", "m", "state 's'", "dead end",
                        std::vector<std::string>{"update", "vote"});
  const std::string json =
      check::write_findings_json(findings, {{"tool", "test"}}, 7);
  const std::optional<obs::JsonValue> parsed = obs::parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(obs::validate_findings_json(*parsed).has_value());
  EXPECT_FALSE(obs::validate_document_json(*parsed).has_value());
  const std::string rendered = obs::render_findings(*parsed);
  EXPECT_NE(rendered.find("structural.sink"), std::string::npos);
  EXPECT_NE(rendered.find("trace: update vote"), std::string::npos);
}

TEST(FindingsJson, ValidatorRejectsBadDocuments) {
  // JsonValue::set appends (find returns the first member), so bad
  // documents are built fresh rather than by mutating a good one.
  obs::JsonValue wrong_schema = obs::JsonValue::object();
  wrong_schema.set("schema", obs::JsonValue("asa-findings/2"));
  EXPECT_TRUE(obs::validate_findings_json(wrong_schema).has_value());

  obs::JsonValue no_summary = obs::JsonValue::object();
  no_summary.set("schema", obs::JsonValue("asa-findings/1"));
  no_summary.set("meta", obs::JsonValue::object());
  no_summary.set("summary", obs::JsonValue("nope"));
  EXPECT_TRUE(obs::validate_findings_json(no_summary).has_value());

  obs::JsonValue bad_finding = *obs::parse_json(
      check::write_findings_json({{"c", "m", "l", "msg"}}, {}, 1));
  EXPECT_FALSE(obs::validate_findings_json(bad_finding).has_value());
}

TEST(FindingToString, IncludesTrace) {
  check::Finding f{"property.vote_once", "m", "state 's'", "double vote",
                   {"update", "vote"}};
  EXPECT_EQ(check::to_string(f),
            "property.vote_once [m] state 's': double vote "
            "(trace: update, vote)");
}

// ---- Mutation self-test ----

TEST(MutationSelfTest, DetectsEveryMutation) {
  const check::MutationReport report = check::run_mutation_self_test(4);
  EXPECT_GE(report.outcomes.size(), 10u);
  for (const check::MutationOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.detected) << o.name << " was not detected";
  }
  EXPECT_TRUE(report.all_detected());
}

// ---- Machine-cache validation hook (regression for the corrupted-but-
// parseable cache entry) ----

TEST(MachineCacheValidation, RejectsParseableButBrokenCacheEntry) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "asa-check-cache-test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Craft a cached artefact that parses fine but fails the structural
  // lints: the pristine machine plus an orphaned non-final sink state.
  fsm::StateMachine corrupted =
      commit::CommitModel(4).generate_state_machine();
  corrupted.states().push_back(make_state("ORPHAN"));
  std::ofstream(dir / fsm::MachineCache::file_name("commit", 4))
      << fsm::XmlRenderer().render(corrupted);

  // fsmgen --cache's set-up: a disk cache linted by the structural checks.
  const auto generate = [] {
    return commit::CommitModel(4).generate_state_machine();
  };
  fsm::MachineCache cache(dir);
  cache.set_validator(check::structural_validator());
  const fsm::StateMachine& machine = cache.machine_for("commit", 4, generate);
  EXPECT_EQ(cache.stats().validation_rejects, 1u);
  EXPECT_EQ(cache.stats().disk_hits, 0u);
  EXPECT_FALSE(machine.state_id("ORPHAN").has_value());
  EXPECT_FALSE(check::machines_identical(
                   machine, commit::CommitModel(4).generate_state_machine())
                   .has_value());

  // The rejected entry was overwritten with a healthy regeneration: a
  // fresh cache instance now gets a clean disk hit.
  fsm::MachineCache healed(dir);
  healed.set_validator(check::structural_validator());
  (void)healed.machine_for("commit", 4, generate);
  EXPECT_EQ(healed.stats().disk_hits, 1u);
  EXPECT_EQ(healed.stats().validation_rejects, 0u);
  std::filesystem::remove_all(dir);
}

TEST(MachineCacheValidation, MemoryOnlyCacheNeverValidates) {
  commit::MachineCache cache;
  (void)cache.machine_for(4);
  (void)cache.machine_for(4);
  EXPECT_EQ(cache.stats().validation_rejects, 0u);
}

// ---- Highlight rendering (fsmcheck --dot / --mermaid) ----

TEST(HighlightRendering, DotEmphasisesFlaggedStatesAndEdges) {
  const fsm::StateMachine machine =
      commit::CommitModel(4).generate_state_machine();
  fsm::DotOptions options;
  options.highlight_states = {machine.start()};
  options.highlight_transitions = {
      {machine.start(), machine.state(machine.start()).transitions[0].message}};
  const std::string dot = fsm::DotRenderer(options).render(machine);
  EXPECT_NE(dot.find("crimson"), std::string::npos);
  EXPECT_NE(dot.find("penwidth=2"), std::string::npos);

  const std::string plain = fsm::DotRenderer().render(machine);
  EXPECT_EQ(plain.find("crimson"), std::string::npos);
}

TEST(HighlightRendering, MermaidEmitsClassAndLinkStyle) {
  const fsm::StateMachine machine =
      commit::CommitModel(4).generate_state_machine();
  fsm::MermaidOptions options;
  options.highlight_states = {machine.start()};
  options.highlight_transitions = {
      {machine.start(), machine.state(machine.start()).transitions[0].message}};
  const std::string mermaid = fsm::MermaidRenderer(options).render(machine);
  EXPECT_NE(mermaid.find("classDef flagged"), std::string::npos);
  EXPECT_NE(mermaid.find("linkStyle"), std::string::npos);

  const std::string plain = fsm::MermaidRenderer().render(machine);
  EXPECT_EQ(plain.find("flagged"), std::string::npos);
}

}  // namespace
}  // namespace asa_repro
