// Post-mortem bundles: everything a debugging session needs, in one file.
//
// When an invariant violation (or an unexpected crash) ends a chaos run,
// the campaign driver re-executes the violating seed with a dedicated
// metrics registry and event recorder and packages the result as one
// versioned asa-postmortem/1 JSON document: the violations, the full and
// shrunk fault plans, the flight-recorder tail of every node, the metrics
// snapshot and the span table. Because the re-run is deterministic,
// identical seeds produce byte-identical bundles — a bundle attached to a
// CI failure IS the reproduction.
//
// The writer lives in the obs layer and takes only obs types; the chaos
// engine supplies plans and violations as pre-serialized lines so obs
// gains no dependency on sim or storage.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/event.hpp"
#include "obs/metrics.hpp"

namespace asa_repro::obs {

/// One violation: (invariant category, human-readable detail) — the
/// stringified form of storage::Violation.
using PostmortemViolations = std::vector<std::pair<std::string, std::string>>;

/// Render one asa-postmortem/1 JSON document:
///   {"schema":"asa-postmortem/1","meta":{...},
///    "violations":[{"invariant","detail"}...],
///    "plan":["<fault event line>"...],
///    "shrunk_plan":[...],
///    "flight":{"<node>":[{"t","seq","cat","detail"}...],...},
///    "metrics":{<embedded asa-metrics/1>},
///    "spans":{<embedded asa-span/1>}}
/// "flight" is `events`' flight view and "spans" its span view. `meta`
/// must carry the seed and engine configuration (determinism: no
/// wall-clock values). Byte-identical across identical-seed re-runs.
[[nodiscard]] std::string write_postmortem_json(
    const Meta& meta, const PostmortemViolations& violations,
    const std::vector<std::string>& plan,
    const std::vector<std::string>& shrunk_plan,
    const EventRecorder& events, const MetricsRegistry& metrics);

}  // namespace asa_repro::obs
