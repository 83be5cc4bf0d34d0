#include "sim/fault_plan.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "sim/parse_number.hpp"

namespace asa_repro::sim {

namespace {

const char* kind_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kCrash: return "crash";
    case FaultEvent::Kind::kRestart: return "restart";
    case FaultEvent::Kind::kPartition: return "partition";
    case FaultEvent::Kind::kHeal: return "heal";
    case FaultEvent::Kind::kDropRate: return "drop-rate";
    case FaultEvent::Kind::kDupRate: return "dup-rate";
    case FaultEvent::Kind::kByzantine: return "byzantine";
    case FaultEvent::Kind::kCorrupt: return "corrupt";
    case FaultEvent::Kind::kUncorrupt: return "uncorrupt";
    case FaultEvent::Kind::kTornWrite: return "torn-write";
    case FaultEvent::Kind::kFlushDrop: return "flush-drop";
    case FaultEvent::Kind::kBitRot: return "bit-rot";
    case FaultEvent::Kind::kDiskStall: return "disk-stall";
    case FaultEvent::Kind::kDiskFull: return "disk-full";
    case FaultEvent::Kind::kDiskOk: return "disk-ok";
    case FaultEvent::Kind::kJoin: return "join";
    case FaultEvent::Kind::kLeave: return "leave";
    case FaultEvent::Kind::kDepart: return "depart";
    case FaultEvent::Kind::kLinkProfile: return "link-profile";
  }
  return "?";
}

std::optional<FaultEvent::Kind> kind_from(const std::string& name) {
  using Kind = FaultEvent::Kind;
  if (name == "crash") return Kind::kCrash;
  if (name == "restart") return Kind::kRestart;
  if (name == "partition") return Kind::kPartition;
  if (name == "heal") return Kind::kHeal;
  if (name == "drop-rate") return Kind::kDropRate;
  if (name == "dup-rate") return Kind::kDupRate;
  if (name == "byzantine") return Kind::kByzantine;
  if (name == "corrupt") return Kind::kCorrupt;
  if (name == "uncorrupt") return Kind::kUncorrupt;
  if (name == "torn-write") return Kind::kTornWrite;
  if (name == "flush-drop") return Kind::kFlushDrop;
  if (name == "bit-rot") return Kind::kBitRot;
  if (name == "disk-stall") return Kind::kDiskStall;
  if (name == "disk-full") return Kind::kDiskFull;
  if (name == "disk-ok") return Kind::kDiskOk;
  if (name == "join") return Kind::kJoin;
  if (name == "leave") return Kind::kLeave;
  if (name == "depart") return Kind::kDepart;
  if (name == "link-profile") return Kind::kLinkProfile;
  return std::nullopt;
}

bool valid_behaviour(const std::string& name) {
  return name == "honest" || name == "crash" || name == "equivocator" ||
         name == "withholder";
}

bool valid_link_class(const std::string& name) {
  return name == "lan" || name == "wan" || name == "sat" ||
         name == "default";
}

}  // namespace

std::string FaultEvent::serialize() const {
  std::ostringstream out;
  out << at << ' ' << kind_name(kind);
  switch (kind) {
    case Kind::kCrash:
    case Kind::kRestart:
    case Kind::kCorrupt:
    case Kind::kUncorrupt:
    case Kind::kTornWrite:
    case Kind::kDiskStall:
    case Kind::kDiskOk:
    case Kind::kJoin:
    case Kind::kLeave:
    case Kind::kDepart:
      out << ' ' << node;
      break;
    case Kind::kPartition:
    case Kind::kHeal:
      out << ' ' << node << ' ' << peer;
      break;
    case Kind::kFlushDrop:
    case Kind::kBitRot:
    case Kind::kDiskFull:
      out << ' ' << node << ' ' << arg;
      break;
    case Kind::kDropRate:
    case Kind::kDupRate:
      out << ' ' << rate;
      break;
    case Kind::kByzantine:
      out << ' ' << node << ' ' << behaviour;
      break;
    case Kind::kLinkProfile:
      out << ' ' << node << ' ' << peer << ' ' << behaviour;
      break;
  }
  return out.str();
}

std::optional<FaultEvent> FaultEvent::parse(const std::string& line) {
  std::istringstream in(line);
  // The next token as a number spanning the whole token (`in >> field`
  // would wrap "-5" into an unsigned field and stop early on "12x").
  const auto number = [&in](auto& field) {
    using Field = std::remove_reference_t<decltype(field)>;
    std::string token;
    std::optional<Field> parsed;
    if (in >> token) {
      if constexpr (std::is_floating_point_v<Field>) {
        parsed = parse_double(token);
      } else {
        parsed = parse_unsigned<Field>(token);
      }
    }
    if (parsed.has_value()) field = *parsed;
    return parsed.has_value();
  };
  FaultEvent event;
  std::string kind;
  if (!number(event.at) || !(in >> kind)) return std::nullopt;
  const std::optional<Kind> parsed = kind_from(kind);
  if (!parsed.has_value()) return std::nullopt;
  event.kind = *parsed;
  switch (event.kind) {
    case Kind::kCrash:
    case Kind::kRestart:
    case Kind::kCorrupt:
    case Kind::kUncorrupt:
    case Kind::kTornWrite:
    case Kind::kDiskStall:
    case Kind::kDiskOk:
    case Kind::kJoin:
    case Kind::kLeave:
    case Kind::kDepart:
      if (!number(event.node)) return std::nullopt;
      break;
    case Kind::kPartition:
    case Kind::kHeal:
      if (!number(event.node) || !number(event.peer)) return std::nullopt;
      break;
    case Kind::kFlushDrop:
    case Kind::kBitRot:
    case Kind::kDiskFull:
      if (!number(event.node) || !number(event.arg)) return std::nullopt;
      break;
    case Kind::kDropRate:
    case Kind::kDupRate:
      if (!number(event.rate) || event.rate < 0.0 || event.rate > 1.0) {
        return std::nullopt;
      }
      break;
    case Kind::kByzantine:
      if (!number(event.node) || !(in >> event.behaviour) ||
          !valid_behaviour(event.behaviour)) {
        return std::nullopt;
      }
      break;
    case Kind::kLinkProfile:
      if (!number(event.node) || !number(event.peer) ||
          !(in >> event.behaviour) ||
          !valid_link_class(event.behaviour)) {
        return std::nullopt;
      }
      break;
  }
  std::string trailing;
  if (in >> trailing) return std::nullopt;
  return event;
}

void FaultPlan::sort_by_time() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

FaultPlan FaultPlan::without(
    const std::vector<std::size_t>& positions) const {
  FaultPlan reduced;
  std::size_t next = 0;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (next < positions.size() && positions[next] == i) {
      ++next;
      continue;
    }
    reduced.add(events_[i]);
  }
  return reduced;
}

std::string FaultPlan::serialize() const {
  std::string text;
  for (const FaultEvent& event : events_) {
    text += event.serialize();
    text += '\n';
  }
  return text;
}

std::optional<FaultPlan> FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::optional<FaultEvent> event = FaultEvent::parse(line);
    if (!event.has_value()) return std::nullopt;
    plan.add(*event);
  }
  return plan;
}

std::ostream& operator<<(std::ostream& out, const FaultPlan& plan) {
  return out << plan.serialize();
}

}  // namespace asa_repro::sim
