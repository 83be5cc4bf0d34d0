// fsmcheck — static verification of the generated FSM family and EFSM.
//
// Runs the six analysis groups of src/check over the commit protocol:
// structural lints and rendered-artefact round-trips on every generated
// machine in the replication-factor range, exhaustive protocol-property
// traversal (vote/commit emitted at most once and only at threshold,
// finality exactly at f+1 commits, termination), bounded-enumeration guard
// analysis of the hand-written EFSM, family conformance (the EFSM
// expanded at each r trace-equivalent to the generated machine; the
// checked-in generated source byte-identical to regeneration),
// compiled-backend conformance (the dense dispatch table's layout,
// decoder, and trace equivalence to the interpreter across the family),
// and — under --protocol — explicit-state model checking of the COMPOSED
// protocol: r peers, the endpoint abstraction and a lossy reordering
// network, with counterexamples exported as asa-replay/1 plans.
//
// Exit code 0 = no findings, 1 = findings (or a failed mutation
// self-test), 2 = usage error. CI runs all modes and fails on any.
//
// Examples:
//   fsmcheck --family 4..16 --efsm
//   fsmcheck -r 4 --json findings.json
//   fsmcheck --mutate
//   fsmcheck --protocol                       (composition, r=4..8)
//   fsmcheck --protocol -r 4 --mutation comp.dup_vote --replay-out plan.txt
//   fsmcheck --protocol --mutate
#include <chrono>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "check/composition.hpp"
#include "check/findings.hpp"
#include "check/mutate.hpp"
#include "cli_args.hpp"
#include "commit/commit_model.hpp"
#include "core/abstract_model.hpp"
#include "core/render/dot_renderer.hpp"
#include "core/render/mermaid_renderer.hpp"
#include "write_file.hpp"

using namespace asa_repro;

namespace {

using cli::write_file;

/// Render the machine named by the first finding that carries diagram
/// hooks, with its flagged states/transitions emphasised.
void render_flagged(const check::Findings& findings,
                    const check::CheckOptions& options,
                    const std::string& dot_path,
                    const std::string& mermaid_path) {
  const check::Finding* flagged = nullptr;
  for (const check::Finding& f : findings) {
    if (!f.states.empty() || !f.transitions.empty()) {
      flagged = &f;
      break;
    }
  }
  if (flagged == nullptr) {
    std::cerr << "fsmcheck: no finding carries diagram locations; "
                 "nothing to render\n";
    return;
  }
  // Findings label machines "commit_rN"; re-generate that member.
  const std::string& label = flagged->machine;
  const std::size_t pos = label.rfind('r');
  std::uint32_t r = options.r_lo;
  if (pos != std::string::npos) {
    const auto parsed =
        cli::parse_unsigned<std::uint32_t>(label.substr(pos + 1));
    if (parsed.has_value()) r = *parsed;
  }
  commit::CommitModel model(r);
  fsm::GenerationOptions gen_options;
  gen_options.jobs = options.jobs;
  const fsm::StateMachine machine = model.generate_state_machine(gen_options);
  if (!dot_path.empty()) {
    fsm::DotOptions dot;
    dot.graph_name = label;
    dot.highlight_states = flagged->states;
    dot.highlight_transitions = flagged->transitions;
    if (write_file(dot_path, fsm::DotRenderer(dot).render(machine))) {
      std::cout << "wrote " << dot_path << " highlighting '"
                << flagged->check << "'\n";
    }
  }
  if (!mermaid_path.empty()) {
    fsm::MermaidOptions mermaid;
    mermaid.highlight_states = flagged->states;
    mermaid.highlight_transitions = flagged->transitions;
    if (write_file(mermaid_path,
                   fsm::MermaidRenderer(mermaid).render(machine))) {
      std::cout << "wrote " << mermaid_path << " highlighting '"
                << flagged->check << "'\n";
    }
  }
}

void print_mutation_report(const check::MutationReport& report) {
  for (const check::MutationOutcome& o : report.outcomes) {
    std::cout << (o.detected ? "caught " : "MISSED ") << o.name << ": "
              << o.description << "\n";
    if (o.detected) {
      std::cout << "    by " << o.finding << "\n";
    }
  }
  std::cout << report.detected() << "/" << report.outcomes.size()
            << " mutations detected\n";
}

int run_mutate(std::uint32_t r, unsigned jobs) {
  const check::MutationReport report = check::run_mutation_self_test(r, jobs);
  print_mutation_report(report);
  if (!report.all_detected()) {
    std::cerr << "fsmcheck: mutation self-test FAILED — the checks above "
                 "did not flag a known-broken model\n";
    return 1;
  }
  return 0;
}

int run_protocol(check::CompositionOptions base, std::uint32_t r_lo,
                 std::uint32_t r_hi, bool mutate,
                 const std::string& json_path,
                 const std::string& replay_path) {
  if (mutate) {
    base.r = r_lo;
    const check::MutationReport report =
        check::run_composition_mutation_self_test(base);
    print_mutation_report(report);
    if (!report.all_detected()) {
      std::cerr << "fsmcheck: composition mutation self-test FAILED — a "
                   "known protocol bug survived the composition checks\n";
      return 1;
    }
    return 0;
  }

  check::Findings findings;
  std::vector<check::GroupTiming> timings;
  std::size_t checks_run = 0;
  std::optional<commit::ReplayPlan> replay;
  for (std::uint32_t r = r_lo; r <= r_hi; ++r) {
    check::CompositionOptions options = base;
    options.r = r;
    const auto start = std::chrono::steady_clock::now();
    const check::CompositionResult result = check::check_composition(options);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    checks_run += result.checks_run;
    std::cout << "r=" << r << ": " << result.stats.states
              << " canonical states, " << result.stats.transitions
              << " transitions, " << result.stats.absorbed
              << " absorbed, "
              << (result.stats.complete ? "complete" : "TRUNCATED") << " ("
              << elapsed.count() << " ms)\n";
    for (const check::Finding& f : result.findings) {
      std::cout << check::to_string(f) << "\n";
    }
    if (!replay.has_value()) {
      const std::size_t best = check::preferred_replay(result);
      if (best < result.plans.size()) replay = result.plans[best];
    }
    findings.insert(findings.end(), result.findings.begin(),
                    result.findings.end());
    check::GroupTiming timing;
    timing.group = "composition_r" + std::to_string(r);
    timing.ms = static_cast<std::uint64_t>(elapsed.count());
    timings.push_back(std::move(timing));
  }
  std::cout << checks_run << " composition checks over r=" << r_lo << ".."
            << r_hi << ": " << findings.size() << " finding(s)\n";

  if (!replay_path.empty()) {
    if (replay.has_value()) {
      if (!write_file(replay_path, replay->serialize())) return 2;
      std::cout << "wrote " << replay_path << " (" << replay->check << ", "
                << replay->schedule.size() << " steps)\n";
    } else {
      std::cout << "no counterexample to export to " << replay_path << "\n";
    }
  }
  if (!json_path.empty()) {
    const obs::Meta meta = {
        {"tool", "fsmcheck"},
        {"model", "commit"},
        {"mode", "protocol"},
        {"family", std::to_string(r_lo) + ".." + std::to_string(r_hi)},
        {"mutation", base.mutation.empty() ? "none" : base.mutation},
    };
    if (!write_file(json_path, check::write_findings_json(
                                   findings, meta, checks_run, timings))) {
      return 2;
    }
  }
  return findings.empty() ? 0 : 1;
}

// fsmcheck's modes: each option row names the modes whose code reads it.
constexpr cli::Modes kChecks = 1;          // The per-machine checks.
constexpr cli::Modes kMutate = 2;          // Their mutation self-test.
constexpr cli::Modes kProtocol = 4;        // Composition model checking.
constexpr cli::Modes kProtocolMutate = 8;  // Its mutation self-test.
constexpr cli::Modes kComposition = kProtocol | kProtocolMutate;

int fsmcheck_main(int argc, char** argv) {
  check::CheckOptions options;
#ifdef ASA_DEFAULT_ARTIFACT
  options.artifact_path = ASA_DEFAULT_ARTIFACT;
#endif
  check::CompositionOptions comp;
  std::string json_path;
  std::string dot_path;
  std::string mermaid_path;
  std::string replay_path;
  bool mutate = false;
  bool single_r = false;
  bool family_given = false;
  bool protocol = false;

  cli::Options args(
      "usage: fsmcheck [options]\n"
      "Runs the per-machine checks (the default) or model-checks the\n"
      "composed protocol (--protocol); --mutate runs either one's mutation\n"
      "self-test instead.",
      {{kChecks, "the per-machine checks"},
       {kMutate, "the per-machine --mutate self-test"},
       {kProtocol, "the --protocol checks"},
       {kProtocolMutate, "the --protocol --mutate self-test"}},
      {
          {{"-r"}, "N", "check a single replication factor (default 4..16; "
           "4..8 under --protocol)",
           [&](auto& option, auto& value) {
             options.r_lo = options.r_hi =
                 cli::unsigned_arg<std::uint32_t>(option, value);
             single_r = true;
           }},
          {{"--family"}, "A..B", "check every replication factor in [A, B] "
           "(--protocol --mutate: A only)",
           [&](auto& option, auto& range) {
             const std::size_t dots = range.find("..");
             const auto lo = dots == std::string::npos
                                 ? std::nullopt
                                 : cli::parse_unsigned<std::uint32_t>(
                                       range.substr(0, dots));
             const auto hi = dots == std::string::npos
                                 ? std::nullopt
                                 : cli::parse_unsigned<std::uint32_t>(
                                       range.substr(dots + 2));
             if (!lo.has_value() || !hi.has_value()) {
               throw cli::BadArgument(option + " expects A..B with unsigned "
                                      "integers A <= B, got '" + range + "'");
             }
             options.r_lo = *lo;
             options.r_hi = *hi;
             family_given = true;
           },
           kChecks | kComposition},
          {{"--efsm"}, "", "include EFSM guard analysis and family "
           "conformance (default on)", cli::set(options.efsm), kChecks},
          {{"--no-efsm"}, "", "structural and property checks only",
           cli::set(options.efsm, false), kChecks},
          {{"--no-table"}, "", "skip compiled-backend conformance (table "
           "layout, event decoder, compiled-vs-interpreted trace equivalence; "
           "default on)", cli::set(options.table_backend, false), kChecks},
          {{"--no-artefact"}, "", "skip the checked-in generated-source "
           "comparison", [&](auto&, auto&) { options.artifact_path.clear(); },
           kChecks},
          {{"--generated"}, "FILE", "checked-in artefact to compare (default: "
           "src/commit/generated/commit_fsm_r4.hpp)",
           cli::to(options.artifact_path), kChecks},
          {{"--json"}, "FILE", "write findings as an asa-findings/1 document",
           cli::to(json_path), kChecks | kProtocol},
          {{"--dot"}, "FILE", "render the first flagged machine as DOT with "
           "the offending states/transitions highlighted", cli::to(dot_path),
           kChecks},
          {{"--mermaid"}, "FILE", "same, as a Mermaid state diagram",
           cli::to(mermaid_path), kChecks},
          {{"--mutate"}, "", "run the mutation self-test instead: seed known "
           "defects and require 100% detection (with --protocol: the "
           "composition-level catalogue)", cli::set(mutate),
           kMutate | kProtocolMutate},
          {{"--jobs"}, "N", "generation/equivalence lanes (0 = hardware)",
           cli::to(options.jobs), kChecks | kMutate},
          {{"--protocol"}, "", "model-check the COMPOSED protocol: peers + "
           "endpoint + lossy reordering network (analysis group 6)",
           cli::set(protocol), kComposition},
          {{"--net-bound"}, "N", "prune states with more than N in-flight "
           "messages (0 = unbounded, the sound default)",
           cli::to(comp.net_bound), kComposition},
          {{"--requests"}, "N", "concurrent client updates (default 1)",
           cli::to(comp.requests), kComposition},
          {{"--attempts"}, "N", "endpoint attempts per request (default 1)",
           cli::to(comp.attempts), kComposition},
          {{"--drops"}, "N", "message-drop budget (default 1)",
           cli::to(comp.drops), kComposition},
          {{"--dups"}, "N", "duplicate-delivery budget (default 1; only spent "
           "under comp.dup_vote, where duplicates matter)",
           cli::to(comp.dups), kComposition},
          {{"--crashes"}, "N", "fail-stop crash budget (capped at f; default "
           "1)", cli::to(comp.crashes), kComposition},
          {{"--mutation"}, "NAME", "plant one composition mutation (see "
           "--protocol --mutate for the catalogue)", cli::to(comp.mutation),
           kProtocol},
          {{"--replay-out"}, "FILE", "export the preferred counterexample as "
           "an asa-replay/1 plan for `asasim --replay`",
           cli::to(replay_path), kProtocol},
      });
  if (!args.parse(argc, argv)) return 0;
  args.require_mode(protocol ? (mutate ? kProtocolMutate : kProtocol)
                             : (mutate ? kMutate : kChecks));
  if (protocol && !single_r && !family_given) {
    // The composition state space grows much faster than the per-machine
    // checks'; default to the CI gate's r range.
    options.r_lo = 4;
    options.r_hi = 8;
  }
  if (options.r_lo < 2 || options.r_lo > options.r_hi) {
    std::cerr << "fsmcheck: bad replication range " << options.r_lo << ".."
              << options.r_hi << "\n";
    return 2;
  }

  if (protocol) {
    try {
      return run_protocol(comp, options.r_lo, options.r_hi, mutate,
                          json_path, replay_path);
    } catch (const std::exception& error) {
      std::cerr << "fsmcheck: " << error.what() << "\n";
      return 2;
    }
  }

  if (mutate) return run_mutate(single_r ? options.r_lo : 4, options.jobs);

  // The checked-in artefact is the r=4 machine: comparing it only makes
  // sense when r=4 is part of the sweep.
  if (single_r && options.r_lo != 4) options.artifact_path.clear();

  const check::CheckRun run = check::run_commit_checks(options);
  for (const check::Finding& f : run.findings) {
    std::cout << check::to_string(f) << "\n";
  }
  std::cout << run.checks_run << " checks over r=" << options.r_lo << ".."
            << options.r_hi << ": " << run.findings.size() << " finding(s)\n";

  if (!json_path.empty()) {
    const obs::Meta meta = {
        {"tool", "fsmcheck"},
        {"model", "commit"},
        {"family",
         std::to_string(options.r_lo) + ".." + std::to_string(options.r_hi)},
        {"efsm", options.efsm ? "on" : "off"},
        {"table", options.table_backend ? "on" : "off"},
    };
    if (!write_file(json_path,
                    check::write_findings_json(run.findings, meta,
                                               run.checks_run,
                                               run.timings))) {
      return 2;
    }
  }
  if (!dot_path.empty() || !mermaid_path.empty()) {
    render_flagged(run.findings, options, dot_path, mermaid_path);
  }
  return run.findings.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run("fsmcheck", [&] { return fsmcheck_main(argc, argv); });
}
