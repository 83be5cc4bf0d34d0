#include "sim/sequence.hpp"

#include <set>
#include <string>

namespace asa_repro::sim {

namespace {

// Field slots of the kinds rendered here (see the kind table).
constexpr std::size_t kRecvFrom = 0;
constexpr std::size_t kUpdate = 1;  // Recv, commit and abort alike.

bool is_note(const obs::Event& e) {
  return e.kind == obs::EventKind::kCommit || e.kind == obs::EventKind::kAbort;
}

}  // namespace

std::string render_sequence_mermaid(const std::vector<obs::Event>& events,
                                    const SequenceOptions& options) {
  // Collect the participants first so lifelines appear in node order.
  std::set<std::uint64_t> participants;
  for (const obs::Event& e : events) {
    if (e.kind == obs::EventKind::kRecv) {
      participants.insert(e.node);
      participants.insert(e.fields[kRecvFrom]);
    } else if (is_note(e)) {
      participants.insert(e.node);
    }
  }

  std::string out = "sequenceDiagram\n";
  for (const std::uint64_t p : participants) {
    out += "    participant " + options.participant_prefix +
           std::to_string(p) + "\n";
  }

  std::size_t rendered = 0;
  for (const obs::Event& e : events) {
    if (options.max_events != 0 && rendered >= options.max_events) {
      out += "    Note over " + options.participant_prefix +
             std::to_string(*participants.begin()) + ": ... (truncated)\n";
      break;
    }
    const std::string self =
        options.participant_prefix + std::to_string(e.node);
    std::string line;
    if (e.kind == obs::EventKind::kRecv) {
      line = options.participant_prefix +
             std::to_string(e.fields[kRecvFrom]) + "->>" + self + ": " +
             obs::word_name(e.word);
    } else if (is_note(e)) {
      line = "Note over " + self + ": " +
             obs::category(obs::View::kTrace, e.kind);
    } else {
      continue;
    }
    out += "    " + line + " u" + std::to_string(e.fields[kUpdate]) + "\n";
    ++rendered;
  }
  return out;
}

}  // namespace asa_repro::sim
