// One line of an asa-trace/1 document: the text form that
// obs::write_trace_line writes and obs::parse_trace_jsonl reads back.
// Recorders hold typed obs::Event records; this type exists only once an
// event has been rendered for export, or parsed from a file.
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
