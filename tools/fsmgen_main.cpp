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
#include <optional>
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

void usage() {
  std::cout <<
      "usage: fsmgen [options]\n"
      "  --model NAME                 commit | termination (default commit)\n"
      "  -r, --replication-factor N   replication factor (default 4)\n"
      "  -n, --max-tasks N            task bound for --model termination\n"
      "  --render KIND                text | summary | dot | xml | mermaid |\n"
      "                               code | doc | efsm | efsm-code |\n"
      "                               efsm-dot | efsm-doc (default summary)\n"
      "  -o, --out FILE               write output to FILE (default stdout)\n"
      "  --class-name NAME            class name for code rendering\n"
      "  --backend KIND               code-render backend: switch (Fig 16\n"
      "                               per-message switch handlers, default) |\n"
      "                               table (dense [state][event] dispatch\n"
      "                               table with action arena)\n"
      "  --no-prune                   skip step 3 (prune unreachable)\n"
      "  --no-merge                   skip step 4 (merge equivalent)\n"
      "  -j, --jobs N                 generation threads; 0 = one per\n"
      "                               hardware thread (default), 1 = serial\n"
      "  --cache DIR                  persist/reuse generated machines in\n"
      "                               DIR (keyed by model, parameter and\n"
      "                               generator code version)\n"
      "  --stats                      print generation statistics to stderr\n"
      "  --profile FILE               write per-phase generation timings\n"
      "                               (enumerate/transitions/prune/merge/\n"
      "                               render) as asa-metrics/1 JSON. The one\n"
      "                               sanctioned wall-clock producer: numbers\n"
      "                               vary run to run, unlike sim metrics\n";
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

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (arg == "-h" || arg == "--help") {
      usage();
      return 0;
    } else if (arg == "-r" || arg == "--replication-factor") {
      const auto v = next();
      if (!v) { usage(); return 2; }
      r = cli::unsigned_arg<std::uint32_t>(arg, *v);
    } else if (arg == "-n" || arg == "--max-tasks") {
      const auto v = next();
      if (!v) { usage(); return 2; }
      max_tasks = cli::unsigned_arg<std::uint32_t>(arg, *v);
    } else if (arg == "--model") {
      const auto v = next();
      if (!v) { usage(); return 2; }
      model_name = *v;
    } else if (arg == "--render") {
      const auto v = next();
      if (!v) { usage(); return 2; }
      render = *v;
    } else if (arg == "-o" || arg == "--out") {
      const auto v = next();
      if (!v) { usage(); return 2; }
      out_path = *v;
    } else if (arg == "--class-name") {
      const auto v = next();
      if (!v) { usage(); return 2; }
      class_name = *v;
    } else if (arg == "--backend") {
      const auto v = next();
      if (!v) { usage(); return 2; }
      backend = *v;
      if (backend != "switch" && backend != "table") {
        std::cerr << "unknown backend: " << backend << "\n";
        return 2;
      }
    } else if (arg == "--no-prune") {
      options.prune_unreachable = false;
    } else if (arg == "--no-merge") {
      options.merge_equivalent = false;
    } else if (arg == "-j" || arg == "--jobs") {
      const auto v = next();
      if (!v) { usage(); return 2; }
      options.jobs = cli::unsigned_arg<unsigned>(arg, *v);
    } else if (arg == "--cache") {
      const auto v = next();
      if (!v) { usage(); return 2; }
      cache_dir = *v;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--profile") {
      const auto v = next();
      if (!v) { usage(); return 2; }
      profile_path = *v;
    } else if (arg == "--analyze") {
      analyze_machine = true;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      usage();
      return 2;
    }
  }

  std::string output;
  fsm::GenerationReport report;
  // --profile wall-clock anchors: generation phases come from `report`;
  // rendering is timed here (gen_end stays at wall_start for EFSM renders,
  // which have no generation run).
  const auto wall_start = std::chrono::steady_clock::now();
  auto gen_end = wall_start;
  bool profile_cache_hit = false;

  if (model_name != "commit" && model_name != "termination") {
    std::cerr << "unknown model: " << model_name << "\n";
    return 2;
  }
  const bool is_commit = model_name == "commit";

  if (backend == "table" && render != "code") {
    // The table backend only changes how concrete machines render as code;
    // EFSM code is parameter-generic and has no dense table to flatten to.
    std::cerr << "--backend table requires --render code\n";
    return 2;
  }

  if (render == "efsm" || render == "efsm-code" || render == "efsm-dot" ||
      render == "efsm-doc") {
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
    } else if (render == "doc") {
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
    } else {
      std::cerr << "unknown render kind: " << render << "\n";
      return 2;
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
    const obs::Meta meta{
        {"tool", "fsmgen"},
        {"model", model_name},
        {"parameter", std::to_string(model_name == "commit" ? r : max_tasks)},
        {"render", render},
        {"cache", cache_dir.empty() ? "off"
                  : profile_cache_hit ? "hit"
                                      : "miss"},
        {"clock", "wall"},
    };
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
  try {
    return fsmgen_main(argc, argv);
  } catch (const cli::BadArgument& e) {
    std::cerr << "fsmgen: " << e.what() << "\n";
    return 2;
  }
}
