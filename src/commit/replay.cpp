#include "commit/replay.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "commit/commit_model.hpp"
#include "commit/endpoint.hpp"
#include "commit/peer.hpp"
#include "commit/variants.hpp"
#include "core/state_machine.hpp"
#include "sim/network.hpp"
#include "sim/parse_number.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace asa_repro::commit {

namespace {

constexpr sim::NodeAddr kEndpointAddr = 1000;

/// Message words, indexed by WireMessage::Kind.
constexpr std::array<const char*, 4> kWireWords = {"update", "vote",
                                                   "commit", "committed"};

std::string participant(std::uint32_t idx) {
  return idx == ReplayStep::kEndpoint ? std::string("e")
                                      : std::to_string(idx);
}

std::optional<std::uint32_t> parse_participant(const std::string& text) {
  if (text == "e") return ReplayStep::kEndpoint;
  return sim::parse_unsigned<std::uint32_t>(text);
}

/// A step's `key=value` fields, in the order a step writes them.
constexpr std::pair<std::string_view, std::uint32_t ReplayStep::*>
    kStepFields[] = {{"from", &ReplayStep::from},
                     {"to", &ReplayStep::to},
                     {"peer", &ReplayStep::peer},
                     {"req", &ReplayStep::request}};
/// kStepFields bits by position, and kMessage: a message word follows the
/// step's word.
enum : unsigned { kFrom = 1, kTo = 2, kPeer = 4, kReq = 8, kMessage = 16 };

/// Indexed by ReplayStep::Kind: each step's word and what it writes after
/// it, read by serialize and parse.
constexpr std::pair<std::string_view, unsigned> kSteps[] = {
    {"submit", kReq}, {"retry", kReq}, {"fail", kReq},
    {"deliver", kMessage | kFrom | kTo | kReq},
    {"dup", kMessage | kFrom | kTo | kReq},
    {"drop", kMessage | kFrom | kTo | kReq},
    {"crash", kPeer}, {"record", kPeer | kReq}};
static_assert(std::size(kSteps) ==
              static_cast<std::size_t>(ReplayStep::Kind::kRecord) + 1);

/// The `protocol` line's `key=value` fields, in file order.
constexpr std::pair<std::string_view,
                    std::variant<std::uint32_t ReplayPlan::*,
                                 std::uint64_t ReplayPlan::*>>
    kProtocolFields[] = {{"r", &ReplayPlan::r}, {"f", &ReplayPlan::f},
                         {"requests", &ReplayPlan::requests},
                         {"attempts", &ReplayPlan::attempts},
                         {"guid", &ReplayPlan::guid}};

/// The model's payload for request index j; fixed so a replayed run is
/// deterministic and violations can name concrete conflicting values.
std::uint64_t payload_of(std::uint32_t request) { return 1000 + request; }

}  // namespace

std::string ReplayStep::serialize() const {
  const auto& [word, writes] = kSteps[static_cast<std::size_t>(kind)];
  std::string out(word);
  if ((writes & kMessage) != 0) {
    out += std::string(" ") + kWireWords[static_cast<std::size_t>(msg)];
  }
  for (std::size_t i = 0; i < std::size(kStepFields); ++i) {
    const auto& [key, member] = kStepFields[i];
    if (((writes >> i) & 1u) != 0) {
      out += ' ' + std::string(key) + '=' + participant(this->*member);
    }
  }
  return out;
}

std::optional<ReplayStep> ReplayStep::parse(const std::string& line) {
  std::istringstream in(line);
  std::string word;
  if (!(in >> word)) return std::nullopt;

  const auto* row =
      std::find_if(std::begin(kSteps), std::end(kSteps),
                   [&word](const auto& r) { return r.first == word; });
  if (row == std::end(kSteps)) return std::nullopt;
  ReplayStep step;
  step.kind = static_cast<Kind>(row - std::begin(kSteps));

  if ((row->second & kMessage) != 0) {
    std::string kind_name;
    if (!(in >> kind_name)) return std::nullopt;
    const auto msg = std::find(kWireWords.begin(), kWireWords.end(), kind_name);
    if (msg == kWireWords.end()) return std::nullopt;
    step.msg = static_cast<WireMessage::Kind>(msg - kWireWords.begin());
  }

  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const auto value = parse_participant(token.substr(eq + 1));
    const auto field = std::find_if(
        std::begin(kStepFields), std::end(kStepFields),
        [&](const auto& f) { return f.first == token.substr(0, eq); });
    if (!value.has_value() || field == std::end(kStepFields)) {
      return std::nullopt;
    }
    step.*field->second = *value;
  }
  return step;
}

std::string ReplayPlan::serialize() const {
  std::string out = "asa-replay/1\n";
  out += "protocol";
  for (const auto& [key, member] : kProtocolFields) {
    out += ' ' + std::string(key) + '=' +
           std::visit([this](auto f) { return std::to_string(this->*f); },
                      member);
  }
  out += '\n';
  out += "mutation " + (mutation.empty() ? std::string("none") : mutation) +
         "\n";
  out += "check " + check + "\n";
  if (!detail.empty()) out += "detail " + detail + "\n";
  out += "plan\n" + faults.serialize() + "endplan\nschedule\n";
  for (const ReplayStep& step : schedule) out += step.serialize() + '\n';
  out += "endschedule\n";
  return out;
}

std::optional<ReplayPlan> ReplayPlan::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "asa-replay/1") return std::nullopt;

  ReplayPlan plan;
  bool saw_protocol = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string word;
    fields >> word;
    if (word == "protocol") {
      std::string token;
      while (fields >> token) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos) return std::nullopt;
        const auto field = std::find_if(
            std::begin(kProtocolFields), std::end(kProtocolFields),
            [&](const auto& f) { return f.first == token.substr(0, eq); });
        // Each field is a number of its own width (a 64-bit guid too).
        const auto read = [&](auto member) {
          using Field = std::remove_reference_t<decltype(plan.*member)>;
          const auto value = sim::parse_unsigned<Field>(token.substr(eq + 1));
          if (value.has_value()) plan.*member = *value;
          return value.has_value();
        };
        if (field == std::end(kProtocolFields) ||
            !std::visit(read, field->second)) {
          return std::nullopt;
        }
      }
      saw_protocol = true;
    } else if (word == "mutation") {
      std::string name;
      fields >> name;
      plan.mutation = name == "none" ? std::string() : name;
    } else if (word == "check") {
      fields >> plan.check;
    } else if (word == "detail") {
      std::string rest;
      std::getline(fields, rest);
      if (!rest.empty() && rest[0] == ' ') rest.erase(0, 1);
      plan.detail = rest;
    } else if (word == "plan") {
      std::string body;
      while (std::getline(in, line) && line != "endplan") {
        body += line;
        body += '\n';
      }
      if (line != "endplan") return std::nullopt;
      const auto faults = sim::FaultPlan::parse(body);
      if (!faults.has_value()) return std::nullopt;
      plan.faults = *faults;
    } else if (word == "schedule") {
      while (std::getline(in, line) && line != "endschedule") {
        if (line.empty() || line[0] == '#') continue;
        const auto step = ReplayStep::parse(line);
        if (!step.has_value()) return std::nullopt;
        plan.schedule.push_back(*step);
      }
      if (line != "endschedule") return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  if (!saw_protocol) return std::nullopt;
  return plan;
}

namespace {

/// One concrete delivery that reached a handler during the replay.
struct Delivered {
  std::uint32_t from = 0;  // Model index; ReplayStep::kEndpoint for client.
  std::uint32_t to = 0;
  WireMessage msg;
};

sim::NodeAddr addr_of(std::uint32_t idx) {
  return idx == ReplayStep::kEndpoint ? kEndpointAddr
                                      : static_cast<sim::NodeAddr>(idx + 1);
}

ReplayOutcome unsupported(std::string why) {
  return {/*supported=*/false, /*reproduced=*/false, std::move(why)};
}

ReplayOutcome reproduced(std::string what) {
  return {/*supported=*/true, /*reproduced=*/true, std::move(what)};
}

ReplayOutcome not_reproduced(std::string why) {
  return {/*supported=*/true, /*reproduced=*/false, std::move(why)};
}

ReplayOutcome diverged(std::size_t index, const ReplayStep& step,
                       const std::string& why) {
  return not_reproduced("schedule diverged at step " + std::to_string(index) +
                        " (" + step.serialize() + "): " + why);
}

}  // namespace

ReplayOutcome run_replay(const ReplayPlan& plan, std::ostream* log) {
  const VariantEntry* variant = find_variant(plan.mutation);
  if (variant == nullptr) {
    return unsupported("unknown mutation " + plan.mutation);
  }
  // A mutation without a twin lives only in the checker's model (it
  // decouples recording from the commit decision, or suppresses endpoint
  // transitions): no configuration of the real runtime exhibits it.
  if (variant->twin == nullptr) {
    return unsupported("mutation " + plan.mutation +
                       " has no concrete-runtime twin; replay is "
                       "model-only");
  }
  // The rules derive f from r and the re-checks read plan.f: they agree.
  if (plan.f != (plan.r - 1) / 3) {
    return unsupported("plan f=" + std::to_string(plan.f) +
                       " does not match r=" + std::to_string(plan.r));
  }
  const bool check_agreement = plan.check == "composition.agreement";
  const bool check_quorum = plan.check == "composition.quorum_justified";
  const bool check_ack = plan.check == "composition.ack_quorum";
  if (!check_agreement && !check_quorum && !check_ack) {
    return unsupported("check " + plan.check +
                       " has no concrete-runtime verifier");
  }
  for (const ReplayStep& step : plan.schedule) {
    if (step.kind == ReplayStep::Kind::kRecord) {
      return unsupported(
          "explicit record steps only exist under model-only mutations");
    }
  }

  // ---- Build the concrete system the plan describes: the deployed
  // peers and endpoint, with the variant's twin in place. ----
  sim::Scheduler sched;
  sim::Network net(sched, sim::Rng(1));
  net.set_manual_mode(true);

  RetryPolicy policy;
  policy.backoff = RetryPolicy::Backoff::kFixed;
  policy.order = RetryPolicy::ServerOrder::kFixed;
  policy.base_timeout = 1000;
  policy.stagger = 0;
  policy.max_attempts = plan.attempts;
  const Rules rules = rules_for(plan.r, policy, *variant);
  const fsm::StateMachine machine =
      CommitModel(plan.r, rules.thresholds).generate_state_machine();

  std::vector<sim::NodeAddr> addrs;
  addrs.reserve(plan.r);
  for (std::uint32_t j = 0; j < plan.r; ++j) addrs.push_back(addr_of(j));

  std::vector<std::unique_ptr<CommitPeer>> peers;
  peers.reserve(plan.r);
  for (std::uint32_t j = 0; j < plan.r; ++j) {
    peers.push_back(std::make_unique<CommitPeer>(
        net, addr_of(j), addrs, machine, Behaviour::kHonest, nullptr,
        /*attach_to_network=*/true, rules.dedup));
  }

  CommitEndpoint endpoint(net, kEndpointAddr, addrs, rules.endpoint, policy,
                          sim::Rng(2));

  std::vector<std::uint64_t> req_ids(plan.requests, 0);
  std::map<std::uint32_t, CommitResult> results;
  std::vector<Delivered> delivered;
  std::set<std::uint32_t> crashed;

  const auto model_index = [&](sim::NodeAddr addr) -> std::uint32_t {
    return addr == kEndpointAddr ? ReplayStep::kEndpoint
                                 : static_cast<std::uint32_t>(addr - 1);
  };

  // `msg` from participant `from` to `to` is the message `step` names.
  const auto names = [&](const ReplayStep& step, std::uint32_t from,
                         std::uint32_t to, const WireMessage& msg) {
    return from == step.from && to == step.to && msg.kind == step.msg &&
           step.request < req_ids.size() &&
           msg.request_id == req_ids[step.request];
  };
  // Find the first in-flight message matching a schedule step.
  const auto find_pending = [&](const ReplayStep& step)
      -> std::optional<std::size_t> {
    for (std::size_t i = 0; i < net.pending_count(); ++i) {
      const auto [from, to] = net.pending_route(i);
      const auto msg = WireMessage::parse(net.pending_payload(i));
      if (msg.has_value() &&
          names(step, model_index(from), model_index(to), *msg)) {
        return i;
      }
    }
    return std::nullopt;
  };

  // ---- Execute the schedule. ----
  for (std::size_t i = 0; i < plan.schedule.size(); ++i) {
    const ReplayStep& step = plan.schedule[i];
    if (log != nullptr) {
      *log << "  step " << i << ": " << step.serialize() << "\n";
    }
    switch (step.kind) {
      case ReplayStep::Kind::kSubmit: {
        if (step.request >= plan.requests) {
          return diverged(i, step, "request index out of range");
        }
        const std::uint32_t request = step.request;
        req_ids[request] = endpoint.submit(
            plan.guid, payload_of(request),
            [&results, request](const CommitResult& r) {
              results[request] = r;
            });
        break;
      }
      case ReplayStep::Kind::kRetry:
      case ReplayStep::Kind::kFail: {
        // The endpoint's timers all share the fixed back-off, so stepping
        // the scheduler by one event fires the earliest outstanding
        // timeout — which retries or finally fails its request.
        if (sched.run(1) == 0) {
          return diverged(i, step, "no outstanding endpoint timer");
        }
        break;
      }
      case ReplayStep::Kind::kDeliver: {
        const auto idx = find_pending(step);
        if (!idx.has_value()) {
          return diverged(i, step, "no matching in-flight message");
        }
        delivered.push_back({step.from, step.to,
                             *WireMessage::parse(net.pending_payload(*idx))});
        net.deliver_pending(*idx);
        break;
      }
      case ReplayStep::Kind::kDup: {
        // Re-inject a copy of the last delivery of the frame: send it
        // again (manual mode buffers it last) and deliver it.
        const auto original = std::find_if(
            delivered.rbegin(), delivered.rend(), [&](const Delivered& d) {
              return names(step, d.from, d.to, d.msg);
            });
        if (original == delivered.rend()) {
          return diverged(i, step, "no prior delivery to duplicate");
        }
        const Delivered copy = *original;
        net.send(addr_of(copy.from), addr_of(copy.to), copy.msg.serialize());
        net.deliver_pending(net.pending_count() - 1);
        delivered.push_back(copy);
        break;
      }
      case ReplayStep::Kind::kDrop: {
        const auto idx = find_pending(step);
        if (!idx.has_value()) {
          return diverged(i, step, "no matching in-flight message");
        }
        net.drop_pending(*idx);
        break;
      }
      case ReplayStep::Kind::kCrash: {
        if (step.peer >= plan.r) {
          return diverged(i, step, "peer index out of range");
        }
        crashed.insert(step.peer);
        net.detach(addr_of(step.peer));
        break;
      }
      case ReplayStep::Kind::kRecord:
        return diverged(i, step, "record steps are model-only");
    }
  }

  // ---- Re-check the violated property on the concrete outcome. ----
  const std::uint32_t record_quorum = plan.f + 1;
  const std::uint32_t vote_threshold = 2 * plan.f + 1;
  // Distinct senders of `kind` frames for `request_id` delivered to `to`.
  const auto senders_to = [&](std::uint32_t to, WireMessage::Kind kind,
                              std::uint64_t request_id) {
    std::set<std::uint32_t> senders;
    for (const Delivered& d : delivered) {
      if (d.to == to && d.msg.kind == kind && d.msg.request_id == request_id) {
        senders.insert(d.from);
      }
    }
    return static_cast<std::uint32_t>(senders.size());
  };

  if (check_agreement) {
    // Every recorded entry must be backed by f+1 distinct commit senders,
    // recorded at most once per request, with one payload per request
    // across the peer set (the inductive form of distributed agreement).
    std::map<std::uint64_t, std::uint64_t> request_payload;
    for (std::uint32_t j = 0; j < plan.r; ++j) {
      if (crashed.contains(j)) continue;
      std::set<std::uint64_t> seen;
      for (const auto& entry : peers[j]->history(plan.guid)) {
        if (!seen.insert(entry.request_id).second) {
          return reproduced("peer " + std::to_string(j) +
                            " recorded one request twice");
        }
        const auto [it, fresh] =
            request_payload.emplace(entry.request_id, entry.payload);
        if (!fresh && it->second != entry.payload) {
          return reproduced("conflicting payloads recorded for one request");
        }
        const std::uint32_t senders =
            senders_to(j, WireMessage::Kind::kCommit, entry.request_id);
        if (senders < record_quorum) {
          return reproduced("peer " + std::to_string(j) +
                            " recorded a commit backed by " +
                            std::to_string(senders) +
                            " distinct commit sender(s); f+1=" +
                            std::to_string(record_quorum) + " required");
        }
      }
    }
    return not_reproduced("no under-certified record observed");
  }

  if (check_quorum) {
    // Every commit an honest peer emitted must be justified: 2f+1 total
    // votes (distinct senders plus its own), or f+1 commits received.
    // A peer's own frames count whether delivered or still in flight.
    std::vector<std::pair<std::uint32_t, WireMessage>> sent;
    for (const Delivered& d : delivered) sent.emplace_back(d.from, d.msg);
    for (std::size_t i = 0; i < net.pending_count(); ++i) {
      const auto msg = WireMessage::parse(net.pending_payload(i));
      if (msg.has_value()) {
        sent.emplace_back(model_index(net.pending_route(i).first), *msg);
      }
    }
    std::set<std::pair<std::uint32_t, std::uint64_t>> emitted;
    for (const auto& [from, msg] : sent) {
      if (from != ReplayStep::kEndpoint &&
          msg.kind == WireMessage::Kind::kCommit) {
        emitted.insert({from, msg.request_id});
      }
    }
    for (const auto& [peer, request_id] : emitted) {
      const bool own_vote = std::any_of(
          sent.begin(), sent.end(), [&](const auto& frame) {
            return frame.first == peer &&
                   frame.second.kind == WireMessage::Kind::kVote &&
                   frame.second.request_id == request_id;
          });
      const std::uint32_t votes =
          senders_to(peer, WireMessage::Kind::kVote, request_id) +
          (own_vote ? 1 : 0);
      if (votes < vote_threshold &&
          senders_to(peer, WireMessage::Kind::kCommit, request_id) <
              record_quorum) {
        return reproduced("peer " + std::to_string(peer) +
                          " sent a commit justified by only " +
                          std::to_string(votes) + " vote(s); 2f+1=" +
                          std::to_string(vote_threshold) + " required");
      }
    }
    return not_reproduced("no unjustified commit observed");
  }

  // composition.ack_quorum: an acknowledged request must hold f+1 distinct
  // peer confirmations.
  for (const auto& [request, result] : results) {
    if (!result.committed) continue;
    const std::uint32_t confirmers = senders_to(
        ReplayStep::kEndpoint, WireMessage::Kind::kCommitted, req_ids[request]);
    if (confirmers < record_quorum) {
      return reproduced("request " + std::to_string(request) +
                        " acknowledged after " + std::to_string(confirmers) +
                        " confirmation(s); f+1=" +
                        std::to_string(record_quorum) + " required");
    }
  }
  return not_reproduced("no under-confirmed acknowledgement observed");
}

}  // namespace asa_repro::commit
