#include "sim/network.hpp"

#include <algorithm>

namespace asa_repro::sim {

namespace {

bool valid_probability(double p) { return p >= 0.0 && p <= 1.0; }

const std::string kDefaultClass = LinkProfile{}.name;

}  // namespace

void validate(const LatencyModel& model) {
  if (model.min_latency > model.max_latency) {
    throw std::invalid_argument(
        "LatencyModel: min_latency " + std::to_string(model.min_latency) +
        " > max_latency " + std::to_string(model.max_latency));
  }
}

const std::array<LinkProfile, 3>& link_classes() {
  static const std::array<LinkProfile, 3> kClasses = {{
      {.name = "lan", .latency = {50, 500}, .jitter = 100},
      {.name = "wan", .latency = {20'000, 60'000}, .jitter = 5'000,
       .loss_good = 0.001, .loss_bad = 0.2, .p_good_to_bad = 0.01,
       .p_bad_to_good = 0.25},
      {.name = "sat", .latency = {240'000, 280'000}, .jitter = 15'000,
       .loss_good = 0.002, .loss_bad = 0.35, .p_good_to_bad = 0.005,
       .p_bad_to_good = 0.1},
  }};
  return kClasses;
}

std::optional<LinkProfile> link_profile(const std::string& name) {
  if (name == kDefaultClass) return LinkProfile{};
  for (const LinkProfile& profile : link_classes()) {
    if (profile.name == name) return profile;
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
  const auto [state, created] = links_.try_emplace(key);
  // The table key doubles as the RNG stream key.
  if (created) state->rng = Rng::substream(link_seed_base_, key);
  return *state;
}

const Network::LinkState* Network::find_link(NodeAddr from,
                                             NodeAddr to) const {
  return links_.find(link_key(from, to));
}

void Network::install(NodeAddr addr, Handler handler) {
  std::unique_ptr<Handler>& slot = *handlers_.try_emplace(addr).first;
  if (slot == nullptr) {
    slot = std::make_unique<Handler>(std::move(handler));
  } else {
    *slot = std::move(handler);
  }
}

void Network::heal(NodeAddr a, NodeAddr b) {
  if (LinkState* state = links_.find(link_key(a, b))) {
    state->partitioned = false;
  }
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
  // Links share one copy of each distinct profile; a few named classes
  // serve every link, so the search stays short.
  const auto known = std::find(profiles_.begin(), profiles_.end(), profile);
  const auto index = static_cast<std::uint32_t>(known - profiles_.begin());
  if (known == profiles_.end()) profiles_.push_back(std::move(profile));
  LinkState& state = link(from, to);
  state.profile = index;
  state.bad = false;
  state.class_latency = nullptr;
}

void Network::clear_link_profile(NodeAddr from, NodeAddr to) {
  LinkState* state = links_.find(link_key(from, to));
  if (state == nullptr) return;
  state->profile = kNoProfile;
  state->bad = false;
  state->class_latency = nullptr;
}

void Network::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  links_.for_each([](std::uint64_t, LinkState& state) {
    state.latency = nullptr;
    state.class_latency = nullptr;
  });
}

const std::string& Network::link_class(NodeAddr from, NodeAddr to) const {
  const LinkState* state = find_link(from, to);
  const LinkProfile* profile = state == nullptr ? nullptr : profile_of(*state);
  return profile == nullptr ? kDefaultClass : profile->name;
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
  const auto* slot = handlers_.find(to);
  if (slot == nullptr || !**slot) {
    ++stats_.to_dead_node;
    note(obs::EventKind::kNetDead, to, {id, from, to});
    return;
  }
  ++stats_.delivered;
  const Time latency = sched_.now() - copy.sent_at;
  note(obs::EventKind::kNetDeliver, to, {id, from, to, latency});
  if (metrics_ != nullptr) observe_latency(from, to, latency);
  // The handler stays put if the call attaches another node.
  const Handler& handler = **slot;
  handler(from, copy.payload);
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
    const LinkProfile* profile = profile_of(ls);
    ls.class_latency = &metrics_->histogram(
        "net.class_latency_us",
        {{"class", profile == nullptr ? kDefaultClass : profile->name}},
        obs::latency_buckets_us());
  }
  ls.latency->observe(latency);
  ls.class_latency->observe(latency);
}

std::uint64_t Network::send(NodeAddr from, NodeAddr to, Payload payload) {
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
  const LinkProfile* profile = profile_of(ls);
  if (profile != nullptr) {
    const LinkProfile& p = *profile;
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
      profile != nullptr ? profile->latency : latency_;
  const Time jitter = profile != nullptr ? profile->jitter : 0;
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
