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

void usage() {
  std::cout <<
      "usage: fsmcheck [options]\n"
      "  -r N             check a single replication factor (default 4..16;\n"
      "                   4..8 under --protocol)\n"
      "  --family A..B    check every replication factor in [A, B]\n"
      "  --efsm           include EFSM guard analysis and family\n"
      "                   conformance (default on; --no-efsm disables)\n"
      "  --no-efsm        structural and property checks only\n"
      "  --no-table       skip compiled-backend conformance (table layout,\n"
      "                   event decoder, compiled-vs-interpreted trace\n"
      "                   equivalence; default on)\n"
      "  --no-artefact    skip the checked-in generated-source comparison\n"
      "  --generated FILE checked-in artefact to compare (default:\n"
      "                   src/commit/generated/commit_fsm_r4.hpp)\n"
      "  --json FILE      write findings as an asa-findings/1 document\n"
      "  --dot FILE       render the first flagged machine as DOT with the\n"
      "                   offending states/transitions highlighted\n"
      "  --mermaid FILE   same, as a Mermaid state diagram\n"
      "  --mutate         run the mutation self-test instead: seed known\n"
      "                   defects and require 100% detection (with\n"
      "                   --protocol: the composition-level catalogue)\n"
      "  --jobs N         generation/equivalence lanes (0 = hardware)\n"
      "protocol composition (analysis group 6):\n"
      "  --protocol       model-check the COMPOSED protocol: peers +\n"
      "                   endpoint + lossy reordering network\n"
      "  --net-bound N    prune states with more than N in-flight messages\n"
      "                   (0 = unbounded, the sound default)\n"
      "  --requests N     concurrent client updates (default 1)\n"
      "  --attempts N     endpoint attempts per request (default 1)\n"
      "  --drops N        message-drop budget (default 1)\n"
      "  --dups N         duplicate-delivery budget (default 1; only spent\n"
      "                   under comp.dup_vote, where duplicates matter)\n"
      "  --crashes N      fail-stop crash budget (capped at f; default 1)\n"
      "  --mutation NAME  plant one composition mutation (see --protocol\n"
      "                   --mutate for the catalogue)\n"
      "  --replay-out FILE  export the preferred counterexample as an\n"
      "                   asa-replay/1 plan for `asasim --replay`\n";
}

using cli::parse_u32;
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
    if (const auto parsed = parse_u32(label.substr(pos + 1))) r = *parsed;
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

}  // namespace

int main(int argc, char** argv) {
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

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    // Strict numeric option parse: fail loudly on "4x", "-1", "" etc.
    const auto next_u32 = [&]() -> std::optional<std::uint32_t> {
      const std::string value = next();
      const auto parsed = parse_u32(value);
      if (!parsed.has_value()) {
        std::cerr << "fsmcheck: " << arg
                  << " expects an unsigned integer, got '" << value << "'\n";
      }
      return parsed;
    };
    if (arg == "-h" || arg == "--help") {
      usage();
      return 0;
    } else if (arg == "-r") {
      const auto r = next_u32();
      if (!r.has_value()) return 2;
      options.r_lo = options.r_hi = *r;
      single_r = true;
    } else if (arg == "--family") {
      const std::string range = next();
      const std::size_t dots = range.find("..");
      const auto lo =
          dots == std::string::npos
              ? std::nullopt
              : parse_u32(range.substr(0, dots));
      const auto hi =
          dots == std::string::npos
              ? std::nullopt
              : parse_u32(range.substr(dots + 2));
      if (!lo.has_value() || !hi.has_value()) {
        std::cerr << "fsmcheck: --family expects A..B with unsigned "
                     "integers A <= B, got '"
                  << range << "'\n";
        return 2;
      }
      options.r_lo = *lo;
      options.r_hi = *hi;
      family_given = true;
    } else if (arg == "--efsm") {
      options.efsm = true;
    } else if (arg == "--no-efsm") {
      options.efsm = false;
    } else if (arg == "--no-table") {
      options.table_backend = false;
    } else if (arg == "--no-artefact") {
      options.artifact_path.clear();
    } else if (arg == "--generated") {
      options.artifact_path = next();
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--dot") {
      dot_path = next();
    } else if (arg == "--mermaid") {
      mermaid_path = next();
    } else if (arg == "--mutate") {
      mutate = true;
    } else if (arg == "--jobs") {
      const auto jobs = next_u32();
      if (!jobs.has_value()) return 2;
      options.jobs = *jobs;
    } else if (arg == "--protocol") {
      protocol = true;
    } else if (arg == "--net-bound") {
      const auto bound = next_u32();
      if (!bound.has_value()) return 2;
      comp.net_bound = *bound;
    } else if (arg == "--requests") {
      const auto requests = next_u32();
      if (!requests.has_value()) return 2;
      comp.requests = *requests;
    } else if (arg == "--attempts") {
      const auto attempts = next_u32();
      if (!attempts.has_value()) return 2;
      comp.attempts = *attempts;
    } else if (arg == "--drops") {
      const auto drops = next_u32();
      if (!drops.has_value()) return 2;
      comp.drops = *drops;
    } else if (arg == "--dups") {
      const auto dups = next_u32();
      if (!dups.has_value()) return 2;
      comp.dups = *dups;
    } else if (arg == "--crashes") {
      const auto crashes = next_u32();
      if (!crashes.has_value()) return 2;
      comp.crashes = *crashes;
    } else if (arg == "--mutation") {
      comp.mutation = next();
    } else if (arg == "--replay-out") {
      replay_path = next();
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      usage();
      return 2;
    }
  }
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
  if (!protocol &&
      (comp.net_bound != 0 || !comp.mutation.empty() ||
       !replay_path.empty())) {
    std::cerr << "fsmcheck: --net-bound/--mutation/--replay-out require "
                 "--protocol\n";
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
