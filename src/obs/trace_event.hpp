// One asa-trace/1 event, as sim::Trace records it (sim::TraceEvent) and
// obs::parse_trace_jsonl reads it back.
#pragma once

#include <cstdint>
#include <string>

namespace asa_repro::obs {

struct TraceEvent {
  std::uint64_t time = 0;  // Sim-time microseconds.
  std::uint32_t node = 0;
  std::string category;
  std::string detail;
};

}  // namespace asa_repro::obs
