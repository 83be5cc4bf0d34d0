// fsmgen — command-line front end to the state machine generator.
//
// Executes an abstract model (the BFT commit protocol by default; the
// termination-detection model via --model) for a chosen parameter value
// and renders the resulting FSM (or the parameter-independent EFSM) as any
// of the paper's artefacts: text (Fig 14), DOT/XML/Mermaid diagrams
// (Fig 15), C++ source (Fig 16), or markdown documentation.
//
// Examples:
//   fsmgen -r 4 --render summary
//   fsmgen -r 7 --render dot -o commit_r7.dot
//   fsmgen -r 4 --render code --class-name CommitFsmR4
//   fsmgen --render efsm
//   fsmgen --model termination -n 8 --render doc
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>

#include <memory>

#include "cli_args.hpp"
#include "write_file.hpp"
#include "obs/metrics.hpp"

#include "check/structural.hpp"
#include "commit/commit_efsm.hpp"
#include "commit/commit_model.hpp"
#include "core/analysis.hpp"
#include "core/machine_cache.hpp"
#include "core/parallel.hpp"
#include "core/efsm/efsm_code_renderer.hpp"
#include "core/efsm/efsm_doc_renderer.hpp"
#include "core/efsm/efsm_dot_renderer.hpp"
#include "core/render/code_renderer.hpp"
#include "core/render/table_renderer.hpp"
#include "core/render/doc_renderer.hpp"
#include "core/render/dot_renderer.hpp"
#include "core/render/mermaid_renderer.hpp"
#include "core/render/text_renderer.hpp"
#include "core/render/xml_renderer.hpp"
#include "models/termination_efsm.hpp"
#include "models/termination_model.hpp"

namespace {

using namespace asa_repro;

// fsmgen's mode is a model and a render kind; each option row names the
// facets of both whose code reads it.
constexpr cli::Modes kCommit = 1;
constexpr cli::Modes kTermination = 2;
constexpr cli::Modes kMachine = 4;  // text|summary|dot|xml|mermaid|doc
constexpr cli::Modes kCode = 8;
constexpr cli::Modes kEfsm = 16;  // efsm|efsm-dot|efsm-doc
constexpr cli::Modes kEfsmCode = 32;
constexpr cli::Modes kModels = kCommit | kTermination;
constexpr cli::Modes kGenerated = kModels | kMachine | kCode;

/// The render facet of a render kind; BadArgument for an unknown kind.
cli::Modes render_facet(const std::string& render) {
  for (const char* kind : {"text", "summary", "dot", "xml", "mermaid", "doc"}) {
    if (render == kind) return kMachine;
  }
  for (const char* kind : {"efsm", "efsm-dot", "efsm-doc"}) {
    if (render == kind) return kEfsm;
  }
  if (render == "code") return kCode;
  if (render == "efsm-code") return kEfsmCode;
  throw cli::BadArgument("unknown render kind: " + render);
}

int fsmgen_main(int argc, char** argv) {
  std::uint32_t r = 4;
  std::uint32_t max_tasks = 4;
  std::string model_name = "commit";
  std::string render = "summary";
  std::string out_path;
  std::string class_name = "GeneratedCommitFsm";
  std::string backend = "switch";
  std::string cache_dir;
  std::string profile_path;
  fsm::GenerationOptions options;
  options.jobs = 0;  // CLI default: one generation lane per hardware thread.
  bool stats = false;
  bool analyze_machine = false;

  cli::Options args(
      "usage: fsmgen [options]\n"
      "Renders the --model's machine for one parameter value (text,\n"
      "summary, dot, xml, mermaid, code, doc) or its parameter-independent\n"
      "EFSM (efsm, efsm-code, efsm-dot, efsm-doc).",
      {{kCommit, "--model commit"},
       {kTermination, "--model termination"},
       {kMachine, "a machine --render", 1},
       {kCode, "--render code", 1},
       {kEfsm, "an EFSM --render", 1},
       {kEfsmCode, "--render efsm-code", 1}},
      {
          {{"--model"}, "NAME", "commit | termination (default commit)",
           cli::to(model_name)},
          {{"-r", "--replication-factor"}, "N",
           "replication factor (default 4)", cli::to(r),
           kCommit | kMachine | kCode},
          {{"-n", "--max-tasks"}, "N", "task bound (default 4)",
           cli::to(max_tasks), kTermination | kMachine | kCode},
          {{"--render"}, "KIND", "text | summary | dot | xml | mermaid | code "
           "| doc | efsm | efsm-code | efsm-dot | efsm-doc (default summary)",
           cli::to(render)},
          {{"-o", "--out"}, "FILE", "write output to FILE (default stdout)",
           cli::to(out_path)},
          {{"--class-name"}, "NAME", "class name for code rendering",
           cli::to(class_name), kModels | kCode | kEfsmCode},
          {{"--backend"}, "KIND", "code-render backend: switch (Fig 16 "
           "per-message switch handlers, default) | table (dense "
           "[state][event] dispatch table with action arena)",
           [&backend](auto&, auto& value) {
             if (value != "switch" && value != "table") {
               throw cli::BadArgument("unknown backend: " + value);
             }
             backend = value;
           },
           kModels | kCode},
          {{"--no-prune"}, "", "skip step 3 (prune unreachable)",
           cli::set(options.prune_unreachable, false), kGenerated},
          {{"--no-merge"}, "", "skip step 4 (merge equivalent)",
           cli::set(options.merge_equivalent, false), kGenerated},
          {{"-j", "--jobs"}, "N", "generation threads; 0 = one per hardware "
           "thread (default), 1 = serial", cli::to(options.jobs), kGenerated},
          {{"--cache"}, "DIR", "persist/reuse generated machines in DIR "
           "(keyed by model, parameter and generator code version)",
           cli::to(cache_dir), kGenerated},
          {{"--stats"}, "", "print generation statistics to stderr",
           cli::set(stats), kGenerated},
          {{"--analyze"}, "", "print the structural analysis (dead ends, "
           "completion distances, SCCs) to stderr",
           cli::set(analyze_machine), kGenerated},
          {{"--profile"}, "FILE", "write per-phase generation timings "
           "(enumerate/transitions/prune/merge/render) as asa-metrics/1 JSON. "
           "The one sanctioned wall-clock producer: numbers vary run to run, "
           "unlike sim metrics", cli::to(profile_path)},
      });
  if (!args.parse(argc, argv)) return 0;
  if (model_name != "commit" && model_name != "termination") {
    throw cli::BadArgument("unknown model: " + model_name);
  }
  const bool is_commit = model_name == "commit";
  const cli::Modes render_kind = render_facet(render);
  args.require_mode((is_commit ? kCommit : kTermination) | render_kind,
                    "--model " + model_name + " --render " + render);

  std::string output;
  fsm::GenerationReport report;
  // --profile wall-clock anchors: generation phases come from `report`;
  // rendering is timed here (gen_end stays at wall_start for EFSM renders,
  // which have no generation run).
  const auto wall_start = std::chrono::steady_clock::now();
  auto gen_end = wall_start;
  bool profile_cache_hit = false;
  const bool efsm_render = (render_kind & (kEfsm | kEfsmCode)) != 0;

  if (efsm_render) {
    const fsm::Efsm efsm = is_commit ? commit::make_commit_efsm()
                                     : models::make_termination_efsm();
    if (render == "efsm") {
      output = efsm.describe();
    } else if (render == "efsm-dot") {
      output = fsm::EfsmDotRenderer(efsm.name).render(efsm);
    } else if (render == "efsm-doc") {
      output = fsm::EfsmDocRenderer().render(efsm);
    } else {
      fsm::CodeGenOptions cg;
      cg.class_name = class_name;
      cg.namespace_name = "asa_repro::generated";
      cg.base_class = "asa_repro::commit::CommitActions";
      cg.includes = {"commit/actions.hpp"};
      output = fsm::EfsmCodeRenderer(cg).render(efsm);
    }
  } else {
    std::unique_ptr<fsm::AbstractModel> model;
    std::string model_label;
    if (is_commit) {
      model = std::make_unique<commit::CommitModel>(r);
      model_label = "commit_r" + std::to_string(r);
    } else {
      model = std::make_unique<models::TerminationModel>(max_tasks);
      model_label = "termination_n" + std::to_string(max_tasks);
    }
    fsm::StateMachine machine;
    bool cache_hit = false;
    if (!cache_dir.empty()) {
      fsm::MachineCache cache{std::filesystem::path(cache_dir)};
      // Reject cached XML that parses but is structurally broken (edited
      // or corrupted on disk) — it is regenerated like a parse failure.
      cache.set_validator(check::structural_validator());
      bool generated = false;
      machine = cache.machine_for(
          model_name, is_commit ? r : max_tasks, [&] {
            generated = true;
            return model->generate_state_machine(options, &report);
          });
      cache_hit = !generated;
    } else {
      machine = model->generate_state_machine(options, &report);
    }
    gen_end = std::chrono::steady_clock::now();
    profile_cache_hit = cache_hit;
    if (render == "text") {
      output = fsm::TextRenderer().render(machine);
    } else if (render == "summary") {
      output = fsm::TextRenderer().render_summary(machine);
    } else if (render == "dot") {
      fsm::DotOptions dot;
      dot.graph_name = model_label;
      output = fsm::DotRenderer(dot).render(machine);
    } else if (render == "xml") {
      output = fsm::XmlRenderer().render(machine);
    } else if (render == "mermaid") {
      output = fsm::MermaidRenderer().render(machine);
    } else if (render == "code") {
      fsm::CodeGenOptions cg;
      cg.class_name = class_name;
      cg.namespace_name = "asa_repro::generated";
      if (is_commit) {
        cg.base_class = "asa_repro::commit::CommitActions";
        cg.includes = {"commit/actions.hpp"};
      } else {
        // Termination actions route through the generic sink base.
        cg.base_class = "asa_repro::fsm::DynamicFsmBase";
        cg.action_style = fsm::CodeGenOptions::ActionStyle::kSink;
        cg.includes = {"core/generated_api.hpp"};
      }
      output = backend == "table" ? fsm::TableCodeRenderer(cg).render(machine)
                                  : fsm::CodeRenderer(cg).render(machine);
    } else {  // doc
      fsm::DocOptions doc;
      if (is_commit) {
        const auto& m = static_cast<const commit::CommitModel&>(*model);
        doc.title = "BFT commit protocol FSM, replication factor " +
                    std::to_string(r);
        doc.preamble =
            "Generated from the abstract model of the ASA distributed "
            "commit algorithm (f = " + std::to_string(m.max_faulty()) +
            ", vote threshold " + std::to_string(m.vote_threshold()) +
            ", commit threshold " + std::to_string(m.commit_threshold()) +
            ").";
      } else {
        doc.title = "Termination detection FSM, task bound " +
                    std::to_string(max_tasks);
        doc.preamble =
            "Generated from the termination-detection abstract model "
            "(section 5.2's message-counting applicability claim).";
      }
      output = fsm::DocRenderer(doc).render(machine);
    }
    if (analyze_machine) {
      std::cerr << fsm::analyze(machine, options.jobs).to_string();
    }
    if (stats) {
      if (cache_hit) {
        std::cerr << "cache hit:       " << cache_dir << "/"
                  << fsm::MachineCache::file_name(model_name,
                                                  is_commit ? r : max_tasks)
                  << " (no generation run)\n"
                  << "final states:    " << machine.state_count() << "\n";
      } else {
        std::cerr << "jobs:            " << fsm::resolve_jobs(options.jobs)
                  << "\n"
                  << "initial states:  " << report.initial_states << "\n"
                  << "transitions:     " << report.transitions << "\n"
                  << "after pruning:   " << report.reachable_states << "\n"
                  << "after merging:   " << report.final_states << "\n"
                  << "generation time: "
                  << std::chrono::duration<double, std::milli>(
                         report.total_time())
                         .count()
                  << " ms\n";
      }
    }
  }

  if (!profile_path.empty()) {
    const auto render_end = std::chrono::steady_clock::now();
    const auto us = [](auto d) {
      return static_cast<std::int64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(d).count());
    };
    obs::MetricsRegistry profile;
    profile.counter("gen.initial_states").set(report.initial_states);
    profile.counter("gen.transitions").set(report.transitions);
    profile.counter("gen.reachable_states").set(report.reachable_states);
    profile.counter("gen.final_states").set(report.final_states);
    profile.gauge("gen.enumerate_us").set(us(report.enumerate_time));
    profile.gauge("gen.transition_us").set(us(report.transition_time));
    profile.gauge("gen.prune_us").set(us(report.prune_time));
    profile.gauge("gen.merge_us").set(us(report.merge_time));
    profile.gauge("gen.render_us").set(us(render_end - gen_end));
    profile.gauge("gen.total_us").set(us(render_end - wall_start));
    obs::Meta meta{{"tool", "fsmgen"}, {"model", model_name}};
    // An EFSM render has no parameter value.
    if (!efsm_render) {
      meta.emplace_back("parameter", std::to_string(is_commit ? r : max_tasks));
    }
    meta.insert(meta.end(), {{"render", render},
                             {"cache", cache_dir.empty() ? "off"
                                       : profile_cache_hit ? "hit"
                                                           : "miss"},
                             {"clock", "wall"}});
    if (!cli::write_file(profile_path,
                         obs::write_metrics_json(profile, meta))) {
      return 2;
    }
  }

  if (out_path.empty()) {
    std::cout << output;
  } else if (!cli::write_file(out_path, output)) {
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run("fsmgen", [&] { return fsmgen_main(argc, argv); });
}
