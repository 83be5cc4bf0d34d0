#include "sim/fault_plan.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <iterator>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "sim/network.hpp"
#include "sim/parse_number.hpp"

namespace asa_repro::sim {

namespace {

/// Operand fields, one bit each, written and read in the order
/// for_each_operand visits them. The one word operand is a kBehaviours
/// entry (kBehaviour) or a link_profile name (kClass).
enum Operand : unsigned {
  kNode = 1, kPeer = 2, kArg = 4, kRate = 8, kBehaviour = 16, kClass = 32
};

struct KindRow {
  std::string_view name;
  unsigned operands;
};

/// Indexed by FaultEvent::Kind: each kind's name and operands, read by
/// both serialize and parse.
constexpr KindRow kKinds[] = {
    {"crash", kNode},
    {"restart", kNode},
    {"partition", kNode | kPeer},
    {"heal", kNode | kPeer},
    {"drop-rate", kRate},
    {"dup-rate", kRate},
    {"byzantine", kNode | kBehaviour},
    {"corrupt", kNode},
    {"uncorrupt", kNode},
    {"torn-write", kNode},
    {"flush-drop", kNode | kArg},
    {"bit-rot", kNode | kArg},
    {"disk-stall", kNode},
    {"disk-full", kNode | kArg},
    {"disk-ok", kNode},
    {"join", kNode},
    {"leave", kNode},
    {"depart", kNode},
    {"link-profile", kNode | kPeer | kClass},
};

static_assert(std::size(kKinds) ==
              static_cast<std::size_t>(FaultEvent::Kind::kLinkProfile) + 1);

/// Call `visit(bit, field)` on each operand field in wire order, while it
/// returns true.
template <typename Event, typename Visit>
bool for_each_operand(Event& event, Visit&& visit) {
  return visit(kNode, event.node) && visit(kPeer, event.peer) &&
         visit(kArg, event.arg) && visit(kRate, event.rate) &&
         visit(kBehaviour | kClass, event.behaviour);
}

/// An operand's text. A number is written in the shortest form that reads
/// back as the same value: a generated rate such as 0.05 + 0.01 * 17
/// (0.22000000000000003) is not the double its six-digit rounding names.
template <typename Field>
std::string text_of(const Field& field) {
  if constexpr (std::is_same_v<Field, std::string>) {
    return field;
  } else {
    std::array<char, 32> digits;
    return {digits.data(),
            std::to_chars(digits.begin(), digits.end(), field).ptr};
  }
}

}  // namespace

std::string FaultEvent::serialize() const {
  const KindRow& row = kKinds[static_cast<std::size_t>(kind)];
  std::string out = std::to_string(at) + ' ' + std::string(row.name);
  for_each_operand(*this, [&](unsigned bit, const auto& field) {
    if ((row.operands & bit) != 0) out += ' ' + text_of(field);
    return true;
  });
  return out;
}

std::optional<FaultEvent> FaultEvent::parse(const std::string& line) {
  std::istringstream in(line);
  std::string token;
  FaultEvent event;
  const KindRow* row = nullptr;
  // The next token into `field`. Numbers span their whole token (`in >>
  // field` would wrap "-5" into an unsigned field and stop early on "12x"),
  // rates lie in [0,1] and a word belongs to its kind's vocabulary.
  const auto read = [&](auto& field) {
    using Field = std::remove_reference_t<decltype(field)>;
    if (!(in >> token)) return false;
    if constexpr (std::is_same_v<Field, std::string>) {
      field = token;
      return (row->operands & kBehaviour) != 0
                 ? std::find(kBehaviours.begin(), kBehaviours.end(),
                             token) != kBehaviours.end()
                 : link_profile(token).has_value();
    } else if constexpr (std::is_floating_point_v<Field>) {
      const std::optional<double> rate = parse_double(token);
      if (!rate.has_value() || *rate < 0.0 || *rate > 1.0) return false;
      field = *rate;
      return true;
    } else {
      const std::optional<Field> number = parse_unsigned<Field>(token);
      if (number.has_value()) field = *number;
      return number.has_value();
    }
  };
  if (!read(event.at) || !(in >> token)) return std::nullopt;
  row = std::find_if(std::begin(kKinds), std::end(kKinds),
                     [&token](const KindRow& r) { return r.name == token; });
  if (row == std::end(kKinds)) return std::nullopt;
  event.kind = static_cast<Kind>(row - std::begin(kKinds));
  const bool ok = for_each_operand(event, [&](unsigned bit, auto& field) {
    return (row->operands & bit) == 0 || read(field);
  });
  if (!ok || in >> token) return std::nullopt;
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
