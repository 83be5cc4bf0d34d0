// Sequence-diagram rendering of simulation traces.
//
// Commit peers record typed events (a recv event carries its sender and
// update id); this renderer turns a recorder's trace view into a Mermaid
// sequenceDiagram — a publishable artefact showing an actual protocol run,
// complementing the static state diagrams. Commit and abort events become
// notes over the acting node's lifeline.
#pragma once

#include <string>
#include <vector>

#include "obs/event.hpp"

namespace asa_repro::sim {

struct SequenceOptions {
  /// Render at most this many events (0 = all); long runs get unwieldy.
  std::size_t max_events = 0;
  /// Prefix for participant names ("node" -> node0, node1, ...).
  std::string participant_prefix = "node";
};

/// Render `events` as a Mermaid sequence diagram. Recv events become
/// arrows from their sender, commit and abort events become notes; every
/// other kind is skipped.
[[nodiscard]] std::string render_sequence_mermaid(
    const std::vector<obs::Event>& events,
    const SequenceOptions& options = {});

}  // namespace asa_repro::sim
