// Regenerates every figure artefact of the paper:
//
//   Fig 3   excerpt of the r=4 FSM (three states around T/2/F/0/F/F/F)
//   Fig 7/11/12/13  the data structure after generation steps 1-4
//   Fig 14  generated textual description of state T/2/F/0/F/F/F
//   Fig 15  the full state diagram (DOT + diagram XML, written to files)
//   Fig 16  generated source code, receiveVote() handler fragment
//
// Counts are asserted inline (exit code 1 on mismatch) so the bench doubles
// as a regression gate.
#include <cstdio>
#include <iostream>
#include <sstream>

#include "commit/commit_model.hpp"
#include "core/render/code_renderer.hpp"
#include "core/render/dot_renderer.hpp"
#include "core/render/text_renderer.hpp"
#include "core/render/xml_renderer.hpp"
#include "write_file.hpp"

using namespace asa_repro;

namespace {

bool check(bool ok, const char* what) {
  if (!ok) std::printf("MISMATCH: %s\n", what);
  return ok;
}

}  // namespace

int main() {
  bool ok = true;
  commit::CommitModel model(4);

  // ---- Steps 1-4 (Figs 7, 11, 12, 13). ----
  std::printf("=== Generation steps for r=4 (Figs 7/11/12/13) ===\n");
  fsm::GenerationReport report;
  const fsm::StateMachine machine = model.generate_state_machine({}, &report);
  std::printf("step 1 (generate all states):   %llu states (paper: 512)\n",
              static_cast<unsigned long long>(report.initial_states));
  std::printf("step 2 (generate transitions):  %llu transitions\n",
              static_cast<unsigned long long>(report.transitions));
  std::printf("step 3 (prune unreachable):     %llu states (paper: 48)\n",
              static_cast<unsigned long long>(report.reachable_states));
  std::printf("step 4 (combine equivalent):    %llu states (paper: 33)\n\n",
              static_cast<unsigned long long>(report.final_states));
  ok &= check(report.initial_states == 512, "step 1 count");
  ok &= check(report.reachable_states == 48, "step 3 count");
  ok &= check(report.final_states == 33, "step 4 count");

  // ---- Fig 3: excerpt around the states of the published diagram. ----
  std::printf("=== Fig 3: FSM excerpt (DOT) ===\n");
  {
    std::vector<fsm::StateId> excerpt;
    for (const char* name :
         {"T/1/F/1/F/F/F", "T/2/F/1/F/F/F", "T/2/T/1/T/T/T",
          "T/1/T/1/T/T/T"}) {
      if (const auto id = machine.state_id(name); id.has_value()) {
        excerpt.push_back(*id);
      }
    }
    fsm::DotOptions options;
    options.graph_name = "fig3_excerpt";
    const std::string dot =
        fsm::DotRenderer(options).render_excerpt(machine, excerpt);
    std::fputs(dot.c_str(), stdout);
    if (!cli::write_file("fig3_excerpt.dot", dot)) return 2;
    std::printf("(written to fig3_excerpt.dot)\n\n");
  }

  // ---- Fig 14: the textual artefact, verbatim state. ----
  std::printf("=== Fig 14: generated state description ===\n");
  {
    const auto id = machine.state_id("T/2/F/0/F/F/F");
    ok &= check(id.has_value(), "Fig 14 state exists");
    if (id.has_value()) {
      const std::string text =
          fsm::TextRenderer().render_state(machine, *id);
      std::fputs(text.c_str(), stdout);
      ok &= check(text.find("Waiting for 2 further external commits to "
                            "finish.") != std::string::npos,
                  "Fig 14 commentary");
    }
  }

  // ---- Fig 15: the full diagram. ----
  std::printf("=== Fig 15: full state diagram ===\n");
  {
    fsm::DotOptions options;
    options.graph_name = "commit_r4";
    const std::string dot = fsm::DotRenderer(options).render(machine);
    const std::string xml = fsm::XmlRenderer().render(machine);
    if (!cli::write_file("fig15_r4.dot", dot) ||
        !cli::write_file("fig15_r4.xml", xml)) {
      return 2;
    }
    std::printf("DOT: %zu bytes -> fig15_r4.dot\n", dot.size());
    std::printf("XML: %zu bytes -> fig15_r4.xml (diagram interchange, "
                "paper used Borland Together)\n\n",
                xml.size());
  }

  // ---- Fig 16: generated source, receiveVote fragment. ----
  std::printf("=== Fig 16: generated source code (receiveVote fragment) "
              "===\n");
  {
    fsm::CodeGenOptions options;
    options.class_name = "CommitFsmR4";
    options.namespace_name = "asa_repro::generated";
    options.base_class = "asa_repro::commit::CommitActions";
    options.includes = {"commit/actions.hpp"};
    options.emit_comments = false;  // The paper's fragment omits them.
    const std::string code = fsm::CodeRenderer(options).render(machine);

    // Print the receiveVote() handler only, as the paper does.
    const std::size_t begin = code.find("void receiveVote()");
    const std::size_t end = code.find("void receiveCommit()");
    ok &= check(begin != std::string::npos && end != std::string::npos,
                "receiveVote fragment present");
    if (begin != std::string::npos && end != std::string::npos) {
      std::istringstream fragment(code.substr(begin, end - begin));
      std::string line;
      int lines = 0;
      while (std::getline(fragment, line) && lines < 18) {
        std::printf("%s\n", line.c_str());
        ++lines;
      }
      std::printf("    ... (%zu bytes total; full file written by "
                  "examples/codegen_demo)\n",
                  code.size());
    }
    // The paper's Fig 16 third case: sendCommit() before setState.
    ok &= check(code.find("sendCommit();") != std::string::npos,
                "phase transitions invoke action methods");
  }

  std::printf("\n%s\n", ok ? "All figure artefacts regenerate correctly."
                           : "FIGURE MISMATCH");
  return ok ? 0 : 1;
}
