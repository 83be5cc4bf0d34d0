#include "sim/network.hpp"

namespace asa_repro::sim {

namespace {

bool valid_probability(double p) { return p >= 0.0 && p <= 1.0; }

const std::string kDefaultClass = "default";

}  // namespace

void validate(const LatencyModel& model) {
  if (model.min_latency > model.max_latency) {
    throw std::invalid_argument(
        "LatencyModel: min_latency " + std::to_string(model.min_latency) +
        " > max_latency " + std::to_string(model.max_latency));
  }
}

std::optional<LinkProfile> link_profile(const std::string& name) {
  if (name == "default") return LinkProfile{};
  if (name == "lan") {
    return LinkProfile{.name = "lan",
                       .latency = {50, 500},
                       .jitter = 100,
                       .loss_good = 0.0,
                       .loss_bad = 0.0,
                       .p_good_to_bad = 0.0,
                       .p_bad_to_good = 1.0};
  }
  if (name == "wan") {
    return LinkProfile{.name = "wan",
                       .latency = {20'000, 60'000},
                       .jitter = 5'000,
                       .loss_good = 0.001,
                       .loss_bad = 0.2,
                       .p_good_to_bad = 0.01,
                       .p_bad_to_good = 0.25};
  }
  if (name == "sat") {
    return LinkProfile{.name = "sat",
                       .latency = {240'000, 280'000},
                       .jitter = 15'000,
                       .loss_good = 0.002,
                       .loss_bad = 0.35,
                       .p_good_to_bad = 0.005,
                       .p_bad_to_good = 0.1};
  }
  return std::nullopt;
}

Network::Network(Scheduler& sched, Rng rng, LatencyModel latency)
    : sched_(sched), link_seed_base_(rng()), latency_(latency) {
  validate(latency_);
}

double Network::checked_probability(double p) {
  if (!valid_probability(p)) {
    throw std::invalid_argument("Network: probability outside [0,1]");
  }
  return p;
}

Network::LinkState& Network::link(NodeAddr from, NodeAddr to) {
  const std::uint64_t key = link_key(from, to);
  const auto it = links_.find(key);
  if (it != links_.end()) return it->second;
  // The table key doubles as the RNG stream key.
  LinkState state;
  state.rng = Rng::substream(link_seed_base_, key);
  return links_.emplace(key, std::move(state)).first->second;
}

const Network::LinkState* Network::find_link(NodeAddr from,
                                             NodeAddr to) const {
  const auto it = links_.find(link_key(from, to));
  return it == links_.end() ? nullptr : &it->second;
}

void Network::heal(NodeAddr a, NodeAddr b) {
  const auto it = links_.find(link_key(a, b));
  if (it != links_.end()) it->second.partitioned = false;
}

void Network::set_link_profile(NodeAddr from, NodeAddr to,
                               LinkProfile profile) {
  validate(profile.latency);
  if (!valid_probability(profile.loss_good) ||
      !valid_probability(profile.loss_bad) ||
      !valid_probability(profile.p_good_to_bad) ||
      !valid_probability(profile.p_bad_to_good)) {
    throw std::invalid_argument("LinkProfile: probability outside [0,1]");
  }
  LinkState& state = link(from, to);
  state.profile = std::move(profile);
  state.bad = false;
  state.class_latency = nullptr;
}

void Network::clear_link_profile(NodeAddr from, NodeAddr to) {
  const auto it = links_.find(link_key(from, to));
  if (it == links_.end()) return;
  it->second.profile.reset();
  it->second.bad = false;
  it->second.class_latency = nullptr;
}

void Network::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  for (auto& [key, state] : links_) {
    state.latency = nullptr;
    state.class_latency = nullptr;
  }
}

const std::string& Network::link_class(NodeAddr from, NodeAddr to) const {
  const LinkState* state = find_link(from, to);
  if (state == nullptr || !state->profile.has_value()) return kDefaultClass;
  return state->profile->name;
}

bool Network::link_in_bad_state(NodeAddr from, NodeAddr to) const {
  const LinkState* state = find_link(from, to);
  return state != nullptr && state->bad;
}

void Network::deliver_copy(const Delivery& copy) {
  if (observer_) observer_(copy);
  const NodeAddr from = copy.from;
  const NodeAddr to = copy.to;
  const std::uint64_t id = copy.message_id;
  const auto it = handlers_.find(to);
  if (it == handlers_.end()) {
    ++stats_.to_dead_node;
    note(obs::EventKind::kNetDead, to, {id, from, to});
    return;
  }
  ++stats_.delivered;
  const Time latency = sched_.now() - copy.sent_at;
  note(obs::EventKind::kNetDeliver, to, {id, from, to, latency});
  if (metrics_ != nullptr) observe_latency(from, to, latency);
  it->second(from, copy.payload);
}

void Network::observe_latency(NodeAddr from, NodeAddr to, Time latency) {
  LinkState& ls = link(from, to);
  if (ls.latency == nullptr) {
    ls.latency = &metrics_->histogram(
        "net.latency_us",
        {{"link", std::to_string(from) + "->" + std::to_string(to)}},
        obs::latency_buckets_us());
  }
  if (ls.class_latency == nullptr) {
    ls.class_latency = &metrics_->histogram(
        "net.class_latency_us",
        {{"class", ls.profile.has_value() ? ls.profile->name : kDefaultClass}},
        obs::latency_buckets_us());
  }
  ls.latency->observe(latency);
  ls.class_latency->observe(latency);
}

std::uint64_t Network::send(NodeAddr from, NodeAddr to, std::string payload) {
  const std::uint64_t id = next_msg_id_++;
  ++stats_.sent;
  note(obs::EventKind::kNetSend, from, {id, from, to, payload.size()});
  LinkState& ls = link(from, to);
  if (ls.partitioned) {
    ++stats_.partitioned;
    note(obs::EventKind::kNetPart, from, {id, from, to});
    return id;
  }
  // Gilbert–Elliott step: transition first, then lose with the (possibly
  // new) state's probability — a burst begins with the message that
  // triggered the good->bad flip.
  double loss = drop_probability_;
  bool burst = false;
  if (ls.profile.has_value()) {
    const LinkProfile& p = *ls.profile;
    if (p.p_good_to_bad > 0.0 || ls.bad) {
      ls.bad = ls.bad ? !ls.rng.chance(p.p_bad_to_good)
                      : ls.rng.chance(p.p_good_to_bad);
    }
    const double link_loss = ls.bad ? p.loss_bad : p.loss_good;
    burst = ls.bad && link_loss > 0.0;
    // Either loss source kills the message: combined probability.
    loss = loss + link_loss - loss * link_loss;
  }
  if (loss > 0.0 && ls.rng.chance(loss)) {
    ++stats_.dropped;
    if (burst) ++stats_.burst_dropped;
    note(obs::EventKind::kNetDrop, from, {id, from, to});
    return id;
  }
  int copies = 1;
  if (duplicate_probability_ > 0.0 && ls.rng.chance(duplicate_probability_)) {
    ++stats_.duplicated;
    copies = 2;
    note(obs::EventKind::kNetDup, from, {id, from, to});
  }
  const Time sent_at = sched_.now();
  const LatencyModel& latency =
      ls.profile.has_value() ? ls.profile->latency : latency_;
  const Time jitter = ls.profile.has_value() ? ls.profile->jitter : 0;
  for (int copy = 0; copy < copies; ++copy) {
    // The last copy takes the payload; only a duplicate's first copy
    // copies it.
    Delivery record{this, from, to, id, sent_at,
                    copy + 1 == copies ? std::move(payload) : payload};
    if (manual_mode_) {
      // The explorer is the scheduler: no latency is drawn.
      pending_.push_back(std::move(record));
      continue;
    }
    Time delay =
        latency.min_latency == latency.max_latency
            ? latency.min_latency
            : latency.min_latency +
                  ls.rng.below(latency.max_latency - latency.min_latency + 1);
    if (jitter > 0) delay += ls.rng.below(jitter + 1);
    sched_.schedule_delivery(sent_at + delay, std::move(record));
  }
  return id;
}

void Network::deliver_pending(std::size_t index) {
  check_pending_index(index);
  const Delivery copy = std::move(pending_[index]);
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
  deliver_copy(copy);
}

void Network::drop_pending(std::size_t index) {
  check_pending_index(index);
  const Delivery copy = std::move(pending_[index]);
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
  ++stats_.dropped;
  note(obs::EventKind::kNetDrop, copy.from,
       {copy.message_id, copy.from, copy.to});
}

}  // namespace asa_repro::sim
