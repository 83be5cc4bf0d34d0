#include "sim/trace.hpp"

#include <ostream>

#include "obs/json.hpp"

namespace asa_repro::sim {

void Trace::dump(std::ostream& os) const {
  for (const auto& e : events_) {
    os << '[' << e.time << "us] node " << e.node << ' ' << e.category << ": "
       << e.detail << '\n';
  }
}

void Trace::dump_jsonl(std::ostream& os) const {
  for (const auto& e : events_) {
    os << "{\"t\":" << e.time << ",\"node\":" << e.node << ",\"cat\":\""
       << obs::json_escape(e.category) << "\",\"detail\":\""
       << obs::json_escape(e.detail) << "\"}\n";
  }
}

}  // namespace asa_repro::sim
