#include "storage/chaos.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <sstream>
#include <type_traits>

#include "durable/journal.hpp"
#include "sim/parse_number.hpp"
#include "sim/workload.hpp"
#include "storage/maintenance.hpp"

namespace asa_repro::storage {

namespace {

using sim::FaultEvent;
using sim::FaultPlan;

std::optional<commit::Behaviour> behaviour_from(const std::string& name) {
  if (name == "honest") return commit::Behaviour::kHonest;
  if (name == "crash") return commit::Behaviour::kCrash;
  if (name == "equivocator") return commit::Behaviour::kEquivocator;
  if (name == "withholder") return commit::Behaviour::kWithholder;
  return std::nullopt;
}

/// Execute one fault event against the cluster. Events are forgiving
/// (idempotent crash, no-op restart of a live node, modulo'd node indices)
/// so that shrunk plans with unmatched inject/heal pairs stay executable.
void apply_fault(AsaCluster& cluster, const FaultEvent& event) {
  const auto node = static_cast<std::size_t>(
      event.node % std::max<std::size_t>(1, cluster.node_count()));
  const auto peer = static_cast<std::size_t>(
      event.peer % std::max<std::size_t>(1, cluster.node_count()));
  switch (event.kind) {
    case FaultEvent::Kind::kCrash:
      cluster.crash_node(node);
      break;
    case FaultEvent::Kind::kRestart:
      cluster.restart_node(node);
      break;
    case FaultEvent::Kind::kPartition:
      if (node != peer) {
        cluster.network().partition_bidirectional(
            static_cast<sim::NodeAddr>(node),
            static_cast<sim::NodeAddr>(peer));
      }
      break;
    case FaultEvent::Kind::kHeal:
      cluster.network().heal(static_cast<sim::NodeAddr>(node),
                             static_cast<sim::NodeAddr>(peer));
      cluster.network().heal(static_cast<sim::NodeAddr>(peer),
                             static_cast<sim::NodeAddr>(node));
      break;
    case FaultEvent::Kind::kDropRate:
      cluster.network().set_drop_probability(event.rate);
      break;
    case FaultEvent::Kind::kDupRate:
      cluster.network().set_duplicate_probability(event.rate);
      break;
    case FaultEvent::Kind::kByzantine: {
      const auto behaviour = behaviour_from(event.behaviour);
      if (!behaviour.has_value() || cluster.crashed(node)) break;
      cluster.make_byzantine(node, *behaviour);
      // "Replace the faulty member": the rebuilt honest node bootstraps
      // through the cluster's one repair pass.
      if (*behaviour == commit::Behaviour::kHonest) cluster.repair();
      break;
    }
    case FaultEvent::Kind::kCorrupt: {
      if (cluster.crashed(node)) break;
      StorageNode& store = cluster.host(node).store();
      store.set_corrupt(true);  // Lie on the wire...
      std::vector<Pid> pids;
      pids.reserve(store.blocks().size());
      for (const auto& [pid, block] : store.blocks()) pids.push_back(pid);
      for (const Pid& pid : pids) store.corrupt_stored(pid);  // ...and at rest.
      break;
    }
    case FaultEvent::Kind::kUncorrupt:
      // Wire behaviour heals; at-rest damage stays for maintenance to fix.
      cluster.host(node).store().set_corrupt(false);
      break;
    case FaultEvent::Kind::kTornWrite:
      cluster.medium(node).arm_torn_write();
      break;
    case FaultEvent::Kind::kFlushDrop:
      if (durable::DurableLog* log = cluster.durable_log(node)) {
        log->drop_unsynced_tail(event.arg == 0
                                    ? std::numeric_limits<std::size_t>::max()
                                    : event.arg);
      }
      break;
    case FaultEvent::Kind::kBitRot:
      if (durable::DurableLog* log = cluster.durable_log(node)) {
        cluster.medium(node).corrupt_byte(log->journal_file(), event.arg);
      }
      break;
    case FaultEvent::Kind::kDiskStall:
      cluster.medium(node).set_stalled(true);
      break;
    case FaultEvent::Kind::kDiskFull:
      cluster.medium(node).set_capacity(cluster.medium(node).used() +
                                        event.arg);
      break;
    case FaultEvent::Kind::kDiskOk:
      cluster.medium(node).set_stalled(false);
      cluster.medium(node).set_capacity(std::nullopt);
      break;
    case FaultEvent::Kind::kJoin:
      cluster.add_node();
      break;
    case FaultEvent::Kind::kLeave:
      // Graceful leave: remove_node hands the leaver's key ranges off.
      (void)cluster.remove_node(node, /*graceful=*/true);
      break;
    case FaultEvent::Kind::kDepart:
      // Abrupt departure: no handoff. The ring remaps the vanished node's
      // key ranges onto survivors that may never have seen them, so run
      // the same replica repair a Byzantine replacement gets — campaigns
      // model an operator whose maintenance re-replicates after node loss
      // (run_churn_smoke's counterfactual deliberately does not).
      if (cluster.remove_node(node, /*graceful=*/false)) cluster.repair();
      break;
    case FaultEvent::Kind::kLinkProfile: {
      const auto from = static_cast<sim::NodeAddr>(node);
      const auto to = static_cast<sim::NodeAddr>(peer);
      if (from == to) break;
      if (event.behaviour == "default") {
        cluster.network().clear_link_profile(from, to);
        cluster.network().clear_link_profile(to, from);
      } else if (const std::optional<sim::LinkProfile> profile =
                     sim::link_profile(event.behaviour)) {
        // Installed in both directions, so a later event on the same
        // pair overrides both: plans cannot express an asymmetric path.
        cluster.network().set_link_profile(from, to, *profile);
        cluster.network().set_link_profile(to, from, *profile);
      }
      break;
    }
  }
}

}  // namespace

// ------------------------------------------------------------- ChaosConfig

std::string ChaosConfig::serialize() const {
  std::ostringstream out;
  out << "nodes " << nodes << '\n'
      << "replication " << replication << '\n'
      << "seed " << seed << '\n'
      << "updates " << updates << '\n'
      << "guids " << guids << '\n'
      << "blocks " << blocks << '\n'
      << "burst " << burst << '\n'
      << "max-events " << max_events << '\n'
      << "equivocators " << equivocators << '\n'
      << "fault-budget ";
  if (fault_budget == kAutoBudget) {
    out << "auto";
  } else {
    out << fault_budget;
  }
  out << '\n'
      << "horizon " << horizon << '\n'
      << "durability " << (durability ? "on" : "off") << '\n'
      << "churn " << (churn ? "on" : "off") << '\n'
      << "wan " << (wan ? "on" : "off") << '\n'
      << "writers " << writers << '\n'
      // Fractions serialize as integer percents (zipf x100) so replay
      // files stay locale-proof integer-only text.
      << "zipf " << static_cast<int>(zipf * 100.0 + 0.5) << '\n'
      << "reads " << static_cast<int>(read_fraction * 100.0 + 0.5) << '\n'
      << "open-loop " << (open_loop ? "on" : "off") << '\n';
  return out.str();
}

std::optional<std::string> ChaosConfig::range_error() const {
  if (nodes == 0) return "nodes must be at least 1";
  if (replication < 2) return "replication must be at least 2";
  if (guids < 1) return "guids must be at least 1";
  if (burst < 1) return "burst must be at least 1";
  if (writers < 0) return "writers must not be negative";
  if (zipf < 0.0) return "zipf must not be negative";
  if (read_fraction < 0.0 || read_fraction > 1.0) {
    return "reads must be a percentage in [0,100]";
  }
  return std::nullopt;
}

std::optional<ChaosConfig> ChaosConfig::parse(const std::string& text) {
  ChaosConfig config;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;
    std::string value;
    std::string trailing;
    if (!(fields >> value) || fields >> trailing) return std::nullopt;
    // Every number is a plain unsigned integer spanning the whole token.
    const auto number = [&value](auto& field) {
      using Field = std::remove_reference_t<decltype(field)>;
      const std::optional<Field> parsed = sim::parse_unsigned<Field>(value);
      if (parsed.has_value()) field = *parsed;
      return parsed.has_value();
    };
    const auto percent = [&](double& field) {
      int whole = 0;
      if (!number(whole)) return false;
      field = whole / 100.0;
      return true;
    };
    const auto on_off = [&value](bool& field) {
      field = value == "on";
      return value == "on" || value == "off";
    };
    bool ok = false;
    if (key == "nodes") {
      ok = number(config.nodes);
    } else if (key == "replication") {
      ok = number(config.replication);
    } else if (key == "seed") {
      ok = number(config.seed);
    } else if (key == "updates") {
      ok = number(config.updates);
    } else if (key == "guids") {
      ok = number(config.guids);
    } else if (key == "blocks") {
      ok = number(config.blocks);
    } else if (key == "burst") {
      ok = number(config.burst);
    } else if (key == "max-events") {
      ok = number(config.max_events);
    } else if (key == "equivocators") {
      ok = number(config.equivocators);
    } else if (key == "fault-budget") {
      config.fault_budget = kAutoBudget;
      ok = value == "auto" || number(config.fault_budget);
    } else if (key == "horizon") {
      ok = number(config.horizon);
    } else if (key == "durability") {
      ok = on_off(config.durability);
    } else if (key == "churn") {
      ok = on_off(config.churn);
    } else if (key == "wan") {
      ok = on_off(config.wan);
    } else if (key == "writers") {
      ok = number(config.writers);
    } else if (key == "zipf") {
      ok = percent(config.zipf);
    } else if (key == "reads") {
      ok = percent(config.read_fraction);
    } else if (key == "open-loop") {
      ok = on_off(config.open_loop);
    }
    if (!ok) return std::nullopt;  // Unknown key or bad value: refuse.
  }
  if (config.range_error().has_value()) return std::nullopt;
  return config;
}

// ------------------------------------------------------- plan generation

sim::FaultPlan generate_fault_plan(const ChaosConfig& config,
                                   sim::Rng& rng) {
  FaultPlan plan;
  const std::uint32_t budget = config.effective_budget();
  const sim::Time horizon = config.horizon;
  // Forced equivocators already exceed f on their own; the plan then adds
  // only partition noise (so shrunk reproducers stay minimal, and lossy
  // episodes don't disable the order invariant the demo is meant to trip).
  const bool equivocator_demo = config.equivocators > 0;

  // Node-fault episodes: an inject event and a matching heal event on one
  // node, placed so that at no instant more than `budget` nodes are faulty.
  struct Interval {
    sim::Time start, end;
    std::uint32_t node;
  };
  std::vector<Interval> busy;
  const std::size_t target_episodes =
      budget == 0 || equivocator_demo
          ? 0
          : static_cast<std::size_t>(rng.range(2, 6));
  std::size_t placed = 0;
  for (int attempt = 0; attempt < 64 && placed < target_episodes;
       ++attempt) {
    if (horizon < 900'000) break;
    const auto node = static_cast<std::uint32_t>(
        rng.below(static_cast<std::uint64_t>(config.nodes)));
    const sim::Time start = rng.range(100'000, horizon - 700'000);
    const sim::Time end = start + rng.range(150'000, 450'000);
    std::uint32_t concurrent = 0;
    bool node_busy = false;
    for (const Interval& iv : busy) {
      if (iv.node == node) node_busy = true;
      if (iv.start < end && start < iv.end) ++concurrent;
    }
    if (node_busy || concurrent >= budget) continue;
    busy.push_back({start, end, node});
    ++placed;
    // Durability faults are deliberately embedded in crash/restart
    // episodes: a torn write IS the crash's final append, bit-rot and
    // partial flush are discovered at the next recovery, and a stalled or
    // full disk fail-stops the node (restart reconciliation then repairs
    // any commits the node could not journal while its disk refused
    // writes). That keeps every episode's divergence healed by recovery,
    // which is exactly the property the durable-ack invariant audits.
    const std::uint64_t episode_kinds = config.durability ? 7 : 3;
    switch (rng.below(episode_kinds)) {
      case 0:  // Fail-stop crash, later restarted and re-bootstrapped.
        plan.add({.at = start, .kind = FaultEvent::Kind::kCrash,
                  .node = node});
        plan.add({.at = end, .kind = FaultEvent::Kind::kRestart,
                  .node = node});
        break;
      case 1: {  // Byzantine flip, later replaced by an honest member.
        static const char* kFlips[] = {"crash", "equivocator",
                                       "withholder"};
        plan.add({.at = start,
                  .kind = FaultEvent::Kind::kByzantine,
                  .node = node,
                  .behaviour = kFlips[rng.below(3)]});
        plan.add({.at = end,
                  .kind = FaultEvent::Kind::kByzantine,
                  .node = node,
                  .behaviour = "honest"});
        break;
      }
      case 2:  // Block corruption, healed on the wire; maintenance
               // repairs the at-rest damage.
        plan.add({.at = start, .kind = FaultEvent::Kind::kCorrupt,
                  .node = node});
        plan.add({.at = end, .kind = FaultEvent::Kind::kUncorrupt,
                  .node = node});
        break;
      case 3:  // Torn write at crash time: the power fails mid-append.
        plan.add({.at = start, .kind = FaultEvent::Kind::kTornWrite,
                  .node = node});
        plan.add({.at = start + 60'000, .kind = FaultEvent::Kind::kCrash,
                  .node = node});
        plan.add({.at = end, .kind = FaultEvent::Kind::kRestart,
                  .node = node});
        break;
      case 4:  // Bit-rot discovered at recovery: one journal byte flips
               // while the node is down.
        plan.add({.at = start, .kind = FaultEvent::Kind::kCrash,
                  .node = node});
        plan.add({.at = (start + end) / 2,
                  .kind = FaultEvent::Kind::kBitRot,
                  .node = node,
                  .arg = static_cast<std::uint32_t>(rng.below(1u << 20))});
        plan.add({.at = end, .kind = FaultEvent::Kind::kRestart,
                  .node = node});
        break;
      case 5: {  // Sick disk (stalled or out of space) fail-stops the
                 // node; the disk heals across the restart.
        const bool stall = rng.chance(0.5);
        plan.add({.at = start,
                  .kind = stall ? FaultEvent::Kind::kDiskStall
                                : FaultEvent::Kind::kDiskFull,
                  .node = node,
                  .arg = stall ? 0
                               : static_cast<std::uint32_t>(rng.below(64))});
        plan.add({.at = end - 50'000, .kind = FaultEvent::Kind::kDiskOk,
                  .node = node});
        plan.add({.at = end - 50'000, .kind = FaultEvent::Kind::kCrash,
                  .node = node});
        plan.add({.at = end, .kind = FaultEvent::Kind::kRestart,
                  .node = node});
        break;
      }
      default:  // Partial flush: un-fsynced tail records vanish while the
                // node is down.
        plan.add({.at = start, .kind = FaultEvent::Kind::kCrash,
                  .node = node});
        plan.add({.at = (start + end) / 2,
                  .kind = FaultEvent::Kind::kFlushDrop,
                  .node = node,
                  .arg = static_cast<std::uint32_t>(1 + rng.below(3))});
        plan.add({.at = end, .kind = FaultEvent::Kind::kRestart,
                  .node = node});
        break;
    }
  }

  // Network episodes (no node budget: they make no node faulty, only slow
  // or split the fabric — and every one heals before the horizon).
  if (config.nodes >= 2 && horizon >= 900'000 && rng.chance(0.7)) {
    const auto a = static_cast<std::uint32_t>(
        rng.below(static_cast<std::uint64_t>(config.nodes)));
    auto b = static_cast<std::uint32_t>(
        rng.below(static_cast<std::uint64_t>(config.nodes - 1)));
    if (b >= a) ++b;
    const sim::Time start = rng.range(100'000, horizon - 700'000);
    const sim::Time end = start + rng.range(100'000, 400'000);
    plan.add({.at = start, .kind = FaultEvent::Kind::kPartition,
              .node = a, .peer = b});
    plan.add({.at = end, .kind = FaultEvent::Kind::kHeal,
              .node = a, .peer = b});
  }
  if (!equivocator_demo && horizon >= 900'000 && rng.chance(0.6)) {
    const sim::Time start = rng.range(100'000, horizon - 700'000);
    const sim::Time end = start + rng.range(100'000, 400'000);
    const double rate = 0.05 + 0.01 * static_cast<double>(rng.below(21));
    plan.add({.at = start, .kind = FaultEvent::Kind::kDropRate,
              .rate = rate});
    plan.add({.at = end, .kind = FaultEvent::Kind::kDropRate, .rate = 0.0});
  }
  if (!equivocator_demo && horizon >= 900'000 && rng.chance(0.4)) {
    const sim::Time start = rng.range(100'000, horizon - 700'000);
    const sim::Time end = start + rng.range(100'000, 400'000);
    const double rate = 0.05 + 0.01 * static_cast<double>(rng.below(16));
    plan.add({.at = start, .kind = FaultEvent::Kind::kDupRate,
              .rate = rate});
    plan.add({.at = end, .kind = FaultEvent::Kind::kDupRate, .rate = 0.0});
  }

  // Membership churn episodes. Joins are pure additions (no budget: a
  // joining node makes nobody faulty). A graceful leave hands its key
  // ranges off, so it is also budget-free; an abrupt departure vanishes
  // with its replicas and therefore needs budget headroom (apply_fault's
  // maintenance repair heals the divergence, like every other episode).
  if (config.churn && horizon >= 900'000) {
    const std::size_t joins = 1 + rng.below(2);
    for (std::size_t j = 0; j < joins; ++j) {
      plan.add({.at = rng.range(150'000, horizon - 400'000),
                .kind = FaultEvent::Kind::kJoin});
    }
    if (config.nodes >= 6 && rng.chance(0.8)) {
      plan.add({.at = rng.range(200'000, horizon - 400'000),
                .kind = FaultEvent::Kind::kLeave,
                .node = static_cast<std::uint32_t>(
                    rng.below(static_cast<std::uint64_t>(config.nodes)))});
    }
    if (budget >= 1 && config.nodes >= 8 && rng.chance(0.5)) {
      plan.add({.at = rng.range(200'000, horizon - 400'000),
                .kind = FaultEvent::Kind::kDepart,
                .node = static_cast<std::uint32_t>(
                    rng.below(static_cast<std::uint64_t>(config.nodes)))});
    }
  }

  // WAN adversity episodes: a latency class lands on a random directed
  // pair and is reset to the network default before the horizon. The
  // classes carry their own Gilbert–Elliott loss, so (unlike kDropRate
  // windows) they do not force the order check off — bursty per-link loss
  // plus retries must still converge to agreed histories.
  if (config.wan && config.nodes >= 2 && horizon >= 900'000) {
    // Bias episodes onto links the protocol actually uses: almost all
    // inter-node traffic runs between the workload GUIDs' replicas, so a
    // profile on a uniformly random pair is usually adversity in name
    // only (12 nodes = 132 directed pairs, ~2 peer sets active). A
    // throwaway cluster resolves the same initial ring the run builds.
    std::vector<std::uint32_t> hot;
    {
      ClusterConfig ring_config;
      ring_config.nodes = config.nodes;
      ring_config.replication_factor = config.replication;
      ring_config.seed = config.seed;
      ring_config.durability = false;
      AsaCluster ring(ring_config);
      for (sim::NodeAddr addr : ring.peer_set(Guid::named("chaos:0"))) {
        hot.push_back(static_cast<std::uint32_t>(addr));
      }
    }
    static const char* kClasses[] = {"lan", "wan", "sat"};
    const std::size_t episodes = 1 + rng.below(3);
    for (std::size_t e = 0; e < episodes; ++e) {
      std::uint32_t a, b;
      if (hot.size() >= 2 && rng.chance(0.75)) {
        const std::size_t i = rng.below(hot.size());
        std::size_t j = rng.below(hot.size() - 1);
        if (j >= i) ++j;
        a = hot[i];
        b = hot[j];
      } else {
        a = static_cast<std::uint32_t>(
            rng.below(static_cast<std::uint64_t>(config.nodes)));
        b = static_cast<std::uint32_t>(
            rng.below(static_cast<std::uint64_t>(config.nodes - 1)));
        if (b >= a) ++b;
      }
      // Start inside the workload's active window: the closed-loop
      // writers burn through their updates in the first few hundred
      // milliseconds, so a window placed uniformly over the horizon
      // would usually profile a link after the traffic has stopped.
      const sim::Time start = rng.range(10'000, 300'000);
      const sim::Time end = start + rng.range(200'000, 500'000);
      plan.add({.at = start,
                .kind = FaultEvent::Kind::kLinkProfile,
                .node = a,
                .peer = b,
                .behaviour = kClasses[rng.below(3)]});
      plan.add({.at = end,
                .kind = FaultEvent::Kind::kLinkProfile,
                .node = a,
                .peer = b,
                .behaviour = "default"});
    }
  }

  plan.sort_by_time();
  return plan;
}

// --------------------------------------------------------------- one run

ChaosReport run_plan(const ChaosConfig& config, const sim::FaultPlan& plan,
                     obs::MetricsRegistry* metrics,
                     obs::EventRecorder* events,
                     const std::function<void(AsaCluster&)>& inspect) {
  ClusterConfig cluster_config;
  cluster_config.nodes = config.nodes;
  cluster_config.replication_factor = config.replication;
  cluster_config.seed = config.seed;
  cluster_config.metrics = metrics != nullptr;
  cluster_config.tracing = events != nullptr && events->tracing();
  // The flight capacity is a run_plan constant, NOT a ChaosConfig knob:
  // replay headers reject unknown keys, so adding one would invalidate
  // every existing reproducer file.
  cluster_config.flight_capacity =
      events != nullptr && events->capacity() > 0 ? 256 : 0;
  cluster_config.spans = events != nullptr && events->spans();
  // Retries must outlast fault windows (exponential backoff spans the
  // horizon), and peers must abort stalled instances or vote splits under
  // churn would deadlock forever.
  cluster_config.retry.base_timeout = 80'000;
  cluster_config.retry.max_attempts = 30;
  cluster_config.abort_scan_interval = 60'000;
  cluster_config.abort_max_age = 80'000;
  cluster_config.durability = config.durability;
  // Short snapshot cadence so campaigns exercise snapshot save/load and
  // the snapshot+journal replay overlap, not just raw journals.
  cluster_config.snapshot_every = 16;
  AsaCluster cluster(cluster_config);
  InvariantChecker checker(cluster);
  ChaosReport report;

  // The fault plan, on the scheduler, mid-run.
  for (const FaultEvent& event : plan.events()) {
    cluster.scheduler().schedule_at(
        event.at, [&cluster, event] { apply_fault(cluster, event); });
  }

  // Forced equivocators (environment, not plan events): flip members of
  // the first workload GUID's peer set before any update is submitted, so
  // the Byzantine members actually participate in the checked histories.
  {
    const std::vector<sim::NodeAddr> members =
        cluster.peer_set(Guid::named("chaos:0"));
    for (std::uint32_t i = 0;
         i < config.equivocators && i < members.size(); ++i) {
      const auto index = static_cast<std::size_t>(members[i]);
      cluster.scheduler().schedule_at(5'000 + 1'000 * i, [&cluster, index] {
        cluster.make_byzantine(index, commit::Behaviour::kEquivocator);
      });
    }
  }

  // Data-plane workload: store blocks up front, track them for repair and
  // check durability at the end.
  struct StoredBlock {
    Pid pid;
    bool stored = false;
    bool retrieved = false;
  };
  std::vector<StoredBlock> stored(
      static_cast<std::size_t>(std::max(0, config.blocks)));
  for (std::size_t b = 0; b < stored.size(); ++b) {
    StoredBlock& entry = stored[b];
    const Block block = block_from(
        "chaos block " + std::to_string(b) + " seed " +
        std::to_string(config.seed));
    entry.pid = cluster.data_store().store(
        block, [&cluster, &entry](const StoreResult& r) {
          entry.stored = r.ok;
          if (r.ok) cluster.maintainer().track(r.pid);
        });
  }

  // Control-plane workload. Two modes:
  //
  //  * writers == 0 (legacy): closed-loop chains, one per GUID. Each chain
  //    keeps `burst` appends in flight: burst == 1 is the protocol's
  //    supported serialized-writer usage (the next update submitted only
  //    after the previous confirmation); burst > 1 submits deliberately
  //    concurrent same-GUID updates (the equivocator demo's amplifier).
  //  * writers > 0 (contention engine): sim::generate_workload spreads
  //    `updates` operations over `writers` concurrent writers whose key
  //    choices follow a zipf distribution over the GUIDs — several writers
  //    hammer the same hot GUID concurrently, the schedule the per-GUID
  //    chains deliberately avoid. Closed loop chains each writer's next
  //    operation on the previous completion; open loop fires operations on
  //    their generated arrival times regardless of completions. Reads run
  //    the (f+1)-agreement read path mid-churn and are tallied separately
  //    (a read finding no agreement during a fault window is load
  //    information, not a violation — post-quiescence reads stay the
  //    authoritative liveness probe).
  struct Chain {
    Guid guid;
    std::vector<Pid> pids;
    std::size_t next = 0;
  };
  int callbacks = 0;
  int write_ops = 0;
  std::vector<Chain> chains;
  struct WriterChain {
    std::vector<sim::WorkloadOp> ops;
    std::vector<Pid> pids;  // Parallel to ops; unused slots for reads.
  };
  std::vector<WriterChain> writer_chains;
  std::function<void(std::size_t)> submit_next;      // writers == 0.
  std::function<void(std::size_t, std::size_t)> submit_op;  // writers > 0.
  if (config.writers > 0) {
    // Contending writers share each GUID's serialization point; without
    // this, two writers' concurrent appends to one hot GUID can land on
    // replicas in different orders and diverge honest histories.
    cluster.version_history().set_serialize_appends(true);
    sim::WorkloadConfig workload;
    workload.writers = static_cast<std::uint32_t>(config.writers);
    workload.keys = static_cast<std::uint32_t>(config.guids);
    workload.operations =
        static_cast<std::uint32_t>(std::max(0, config.updates));
    workload.zipf = config.zipf;
    workload.read_fraction = config.read_fraction;
    workload.open_loop = config.open_loop;
    const auto per_writer = sim::generate_workload(workload, config.seed);
    writer_chains.resize(per_writer.size());
    for (std::size_t w = 0; w < per_writer.size(); ++w) {
      writer_chains[w].ops = per_writer[w];
      writer_chains[w].pids.resize(per_writer[w].size());
      for (std::size_t i = 0; i < per_writer[w].size(); ++i) {
        const sim::WorkloadOp& op = per_writer[w][i];
        if (op.read) continue;
        ++write_ops;
        const Pid pid = Pid::of(block_from(
            "chaos w" + std::to_string(op.writer) + " op" +
            std::to_string(op.sequence) + " seed " +
            std::to_string(config.seed)));
        writer_chains[w].pids[i] = pid;
        checker.note_submitted(Guid::named("chaos:" + std::to_string(op.key)),
                               pid.to_uint64());
      }
    }
    submit_op = [&](std::size_t w, std::size_t i) {
      WriterChain& chain = writer_chains[w];
      if (i >= chain.ops.size()) return;
      const sim::WorkloadOp& op = chain.ops[i];
      const Guid guid = Guid::named("chaos:" + std::to_string(op.key));
      const obs::Labels writer_label = {{"writer", std::to_string(op.writer)}};
      if (op.read) {
        cluster.version_history().read(
            guid, [&, w, i, writer_label](const HistoryReadResult& r) {
              if (r.ok) {
                ++report.reads_ok;
                cluster.metrics().counter("workload.reads", writer_label)
                    .inc();
              } else {
                ++report.reads_failed;
              }
              if (!config.open_loop) submit_op(w, i + 1);
            });
        return;
      }
      cluster.version_history().append(
          guid, chain.pids[i],
          [&, w, i, writer_label](const commit::CommitResult& r) {
            ++callbacks;
            if (r.committed) {
              ++report.committed;
              cluster.metrics().counter("workload.commits", writer_label)
                  .inc();
            } else {
              ++report.failed;  // The writer advances regardless.
            }
            if (!config.open_loop) submit_op(w, i + 1);
          });
    };
    for (std::size_t w = 0; w < writer_chains.size(); ++w) {
      if (config.open_loop) {
        for (std::size_t i = 0; i < writer_chains[w].ops.size(); ++i) {
          cluster.scheduler().schedule_at(writer_chains[w].ops[i].at,
                                          [&submit_op, w, i] {
                                            submit_op(w, i);
                                          });
        }
      } else if (!writer_chains[w].ops.empty()) {
        cluster.scheduler().schedule_at(writer_chains[w].ops[0].at,
                                        [&submit_op, w] { submit_op(w, 0); });
      }
    }
  } else {
    chains.resize(static_cast<std::size_t>(config.guids));
    for (int g = 0; g < config.guids; ++g) {
      chains[static_cast<std::size_t>(g)].guid =
          Guid::named("chaos:" + std::to_string(g));
    }
    for (int u = 0; u < config.updates; ++u) {
      Chain& chain = chains[static_cast<std::size_t>(u % config.guids)];
      const Pid pid = Pid::of(block_from(
          "chaos update " + std::to_string(u) + " seed " +
          std::to_string(config.seed)));
      checker.note_submitted(chain.guid, pid.to_uint64());
      chain.pids.push_back(pid);
    }
    write_ops = config.updates;
    submit_next = [&](std::size_t g) {
      Chain& chain = chains[g];
      if (chain.next >= chain.pids.size()) return;
      const Pid pid = chain.pids[chain.next++];
      cluster.version_history().append(
          chain.guid, pid,
          [&report, &callbacks, &submit_next,
           g](const commit::CommitResult& r) {
            ++callbacks;
            if (r.committed) {
              ++report.committed;
            } else {
              ++report.failed;  // The chain advances regardless.
            }
            submit_next(g);
          });
    };
    const int in_flight = std::max(1, config.burst);
    for (std::size_t g = 0; g < chains.size(); ++g) {
      for (int b = 0; b < in_flight; ++b) {
        // Stagger chain starts across GUIDs; within a chain, burst-mates
        // go out a millisecond apart (enough to race, not enough to
        // serialize).
        const sim::Time at = 60'000 + 15'000 * static_cast<sim::Time>(g) +
                             1'000 * static_cast<sim::Time>(b);
        cluster.scheduler().schedule_at(at, [&submit_next, g] {
          submit_next(g);
        });
      }
    }
  }

  // Background replica maintenance (paper section 2.2), every 250 ms.
  for (sim::Time at = 250'000; at <= config.horizon; at += 250'000) {
    cluster.scheduler().schedule_at(at,
                                    [&cluster] { cluster.maintainer().scan(); });
  }

  // Queue-depth samples on the flight recorder's cluster lane, every 50 ms
  // across the fault/workload window.
  cluster.schedule_flight_sampling(config.horizon, 50'000);

  report.events_executed = cluster.run(config.max_events);
  report.quiesced = cluster.scheduler().pending() == 0;
  if (!report.quiesced) {
    report.violations.push_back(
        {"quiescence", "scheduler still had " +
                           std::to_string(cluster.scheduler().pending()) +
                           " pending events after " +
                           std::to_string(report.events_executed) +
                           " executed (max-events bound hit)"});
  }

  const bool expect_liveness = config.expect_liveness();
  if (report.quiesced && callbacks < write_ops) {
    report.violations.push_back(
        {"liveness-callback",
         "only " + std::to_string(callbacks) + " of " +
             std::to_string(write_ops) +
             " append callbacks fired at quiescence"});
  }
  if (expect_liveness && report.failed > 0) {
    report.violations.push_back(
        {"liveness-append",
         std::to_string(report.failed) + " of " +
             std::to_string(write_ops) +
             " appends failed although faults never exceeded f"});
  }

  // Post-quiescence probes: agreed reads and durable retrieval.
  if (report.quiesced) {
    for (int g = 0; g < config.guids; ++g) {
      const Guid guid = Guid::named("chaos:" + std::to_string(g));
      HistoryReadResult read;
      bool read_done = false;
      cluster.version_history().read(
          guid, [&read, &read_done](const HistoryReadResult& r) {
            read = r;
            read_done = true;
          });
      cluster.run(config.max_events);
      if (expect_liveness && (!read_done || !read.ok)) {
        report.violations.push_back(
            {"liveness-read", "no (f+1)-agreed history for guid " +
                                  std::to_string(g) +
                                  " although faults never exceeded f"});
      }
    }
    for (StoredBlock& entry : stored) {
      if (!entry.stored) continue;
      cluster.data_store().retrieve(
          entry.pid,
          [&entry](const RetrieveResult& r) { entry.retrieved = r.ok; });
      cluster.run(config.max_events);
      if (expect_liveness && !entry.retrieved) {
        report.violations.push_back(
            {"durability", "stored block " + entry.pid.to_hex().substr(0, 10) +
                               " irretrievable after the campaign"});
      }
    }
  }

  // Safety invariants across honest replicas — checked unconditionally,
  // except that the history-order comparison is skipped for schedules with
  // message-drop windows: losing a commit round makes an honest replica
  // adopt the client's retry late, a reordering the read-side
  // (f+1)-agreement absorbs by design (see InvariantChecker).
  const bool lossy = std::any_of(
      plan.events().begin(), plan.events().end(), [](const FaultEvent& e) {
        return e.kind == FaultEvent::Kind::kDropRate && e.rate > 0.0;
      });
  for (Violation& violation : checker.check(/*check_order=*/!lossy)) {
    report.violations.push_back(std::move(violation));
  }
  report.messages_sent = cluster.network().stats().sent;
  if (metrics != nullptr) {
    cluster.snapshot_metrics();
    metrics->merge(cluster.metrics());
  }
  if (events != nullptr) {
    events->record(obs::EventKind::kCampaign, 0, 0, {config.seed});
    events->merge(cluster.events());
  }
  if (inspect) inspect(cluster);
  return report;
}

// -------------------------------------------------------------- shrinking

sim::FaultPlan shrink_plan(const ChaosConfig& config, sim::FaultPlan plan,
                           std::size_t* runs) {
  std::size_t executed = 0;
  const auto violates = [&](const FaultPlan& candidate) {
    ++executed;
    return !run_plan(config, candidate).violations.empty();
  };

  // ddmin: try removing chunks, halving the chunk size down to one event;
  // restart at the coarsest granularity after any successful removal.
  std::size_t chunk = std::max<std::size_t>(1, plan.size() / 2);
  while (true) {
    bool removed = false;
    for (std::size_t begin = 0; begin < plan.size() && !removed;
         begin += chunk) {
      std::vector<std::size_t> positions;
      for (std::size_t i = begin;
           i < std::min(plan.size(), begin + chunk); ++i) {
        positions.push_back(i);
      }
      if (positions.size() == plan.size()) continue;  // Keep >= 1 event.
      const FaultPlan candidate = plan.without(positions);
      if (violates(candidate)) {
        plan = candidate;
        removed = true;
      }
    }
    if (removed) {
      chunk = std::max<std::size_t>(1, std::min(chunk, plan.size() / 2));
      continue;
    }
    if (chunk == 1) break;
    chunk = std::max<std::size_t>(1, chunk / 2);
  }
  if (runs != nullptr) *runs = executed;
  return plan;
}

// ------------------------------------------------------ scripted smokes

namespace {

/// The scripted smokes' cluster: 16 nodes, r = 4 (f = 1, quorum = 2),
/// patient retries, stalled-instance aborts, and durability with a
/// snapshot every 4 commits (so the baseline load takes one).
ClusterConfig smoke_config(std::uint64_t seed) {
  ClusterConfig config;
  config.nodes = 16;
  config.replication_factor = 4;
  config.seed = seed;
  config.retry.base_timeout = 80'000;
  config.retry.max_attempts = 30;
  config.abort_scan_interval = 60'000;
  config.abort_max_age = 80'000;
  config.durability = true;
  config.snapshot_every = 4;
  return config;
}

/// The first GUID named "<prefix>:<n>" whose peer set has four distinct
/// members, with that set. A small ring can map several replica keys onto
/// one node; a full set makes "every member" mean exactly four nodes.
/// The set is smaller when none of 64 probes has one.
std::pair<Guid, std::vector<sim::NodeAddr>> full_peer_set_guid(
    AsaCluster& cluster, const std::string& prefix) {
  Guid guid = Guid::named(prefix + ":0");
  std::vector<sim::NodeAddr> members = cluster.peer_set(guid);
  for (int probe = 1; members.size() < 4 && probe < 64; ++probe) {
    guid = Guid::named(prefix + ":" + std::to_string(probe));
    members = cluster.peer_set(guid);
  }
  return {guid, members};
}

/// Append version "<prefix> update <n> seed <seed>" to `guid` (noted as
/// submitted when a checker is given), run to quiescence, and report
/// whether it committed.
bool commit_and_run(AsaCluster& cluster, InvariantChecker* checker,
                    const Guid& guid, const std::string& prefix, int n,
                    std::uint64_t seed) {
  const Pid pid = Pid::of(block_from(prefix + " update " + std::to_string(n) +
                                     " seed " + std::to_string(seed)));
  if (checker != nullptr) checker->note_submitted(guid, pid.to_uint64());
  bool committed = false;
  cluster.version_history().append(
      guid, pid,
      [&committed](const commit::CommitResult& r) { committed = r.committed; });
  cluster.run();
  return committed;
}

/// Read `guid`'s (f+1)-agreed history and run to quiescence.
HistoryReadResult read_and_run(AsaCluster& cluster, const Guid& guid) {
  HistoryReadResult read;
  cluster.version_history().read(
      guid, [&read](const HistoryReadResult& r) { read = r; });
  cluster.run();
  return read;
}

}  // namespace

DurabilitySmokeReport run_durability_smoke(std::uint64_t seed) {
  DurabilitySmokeReport report;
  const auto note = [&report](std::string text) {
    report.notes.push_back(std::move(text));
  };
  const auto expect = [&report](bool ok, std::string what) {
    if (!ok) report.failures.push_back(std::move(what));
  };

  ClusterConfig config = smoke_config(seed);
  config.metrics = true;
  AsaCluster cluster(config);
  InvariantChecker checker(cluster);

  const auto [guid, members] =
      full_peer_set_guid(cluster, "durability-smoke");
  const std::uint64_t key = guid.to_uint64();
  if (members.size() < 4) {
    report.failures.push_back("no GUID with a full-size peer set found");
    return report;
  }

  int next_update = 0;
  const auto commit_one = [&, guid = guid]() {
    return commit_and_run(cluster, &checker, guid, "durability smoke",
                          next_update++, seed);
  };
  const auto history_size = [&](std::size_t node) {
    return cluster.host(node).peer().history(key).size();
  };

  for (int i = 0; i < 5; ++i) {
    expect(commit_one(), "baseline commit " + std::to_string(i) + " failed");
  }
  note("baseline: 5 commits acknowledged (snapshot taken at 4)");

  // -- Step 1: torn write. The power fails mid-append on one member; the
  // write-ahead discipline vetoes its local commit (no ack), the other
  // members still reach f+1, and recovery truncates the torn tail then
  // reconciles the missing commit from peers.
  const auto m0 = static_cast<std::size_t>(members[0]);
  // Arm the torn write and cap the disk at exactly the torn prefix: the
  // first append persists half a commit frame and fails, and the sink
  // retries (late votes re-finish the instance) keep failing on the full
  // disk — the member stays unacknowledged until its disk is replaced at
  // restart, as a real dying disk would behave.
  const std::size_t commit_frame = durable::kFrameHeaderSize + 4 * 8;
  cluster.medium(m0).arm_torn_write();
  cluster.medium(m0).set_capacity(cluster.medium(m0).used() +
                                  commit_frame / 2);
  expect(commit_one(), "commit must still reach f+1 acks past a torn member");
  expect(cluster.medium(m0).stats().torn_writes == 1,
         "the armed torn write must hit the commit append");
  expect(history_size(m0) == 5,
         "a torn journal append must veto the member's local commit");
  expect(cluster.durable_log(m0)->writer_stats().append_failures >= 1,
         "refused journal appends must be counted");
  const std::string journal0 = cluster.durable_log(m0)->journal_file();
  cluster.crash_node(m0);
  cluster.medium(m0).set_capacity(std::nullopt);
  // The sick member goes down mid-append: tear one more commit frame onto
  // the journal tail as the write the power failure interrupted. (The
  // in-protocol torn append above is repaired by the writer itself on the
  // next sink retry, so recovery-side truncation needs a tear that really
  // was the node's last write.)
  std::string torn_payload;
  for (std::uint64_t v : {0xD15Cu, 0xDEADu, 0xBEEFu, 0xF00Du}) {
    durable::put_u64(torn_payload, v);
  }
  cluster.medium(m0).arm_torn_write();
  cluster.medium(m0).append(
      journal0,
      durable::encode_frame(durable::RecordType::kCommit, torn_payload));
  cluster.restart_node(m0);
  cluster.run();
  const durable::RecoveryStats r0 = cluster.last_recovery(m0);
  expect(r0.truncated_bytes > 0,
         "recovery after a torn write must truncate a torn tail");
  expect(r0.reconciled >= 1,
         "recovery must reconcile the commit lost to the torn write");
  expect(history_size(m0) == 6, "torn member must end with all 6 commits");
  note("torn write: truncated " + std::to_string(r0.truncated_bytes) +
       " bytes, replayed " + std::to_string(r0.replayed_records) +
       " records, reconciled " + std::to_string(r0.reconciled));

  // -- Step 2: bit-rot. One byte of the last commit frame's payload flips
  // while the member is down. The frame header stays valid, so recovery
  // skips exactly that record (CRC-skip), keeps everything else, and
  // reconciles the skipped commit back from peers.
  const auto m1 = static_cast<std::size_t>(members[1]);
  cluster.crash_node(m1);
  const durable::DurableLog* log1 = cluster.durable_log(m1);
  const std::string bytes =
      cluster.medium(m1).read(log1->journal_file()).value_or("");
  std::size_t rot_at = 0;
  bool found = false;
  for (std::size_t off = 0;
       off + durable::kFrameHeaderSize <= bytes.size();) {
    const std::uint32_t len = durable::get_u32(bytes, off + 2);
    if (off + durable::kFrameHeaderSize + len > bytes.size()) break;
    if (bytes[off + 1] ==
            static_cast<char>(durable::RecordType::kCommit) &&
        len > 0) {
      rot_at = off + durable::kFrameHeaderSize;  // First payload byte.
      found = true;
    }
    off += durable::kFrameHeaderSize + len;
  }
  expect(found, "the down member's journal must hold a commit frame");
  if (found) cluster.medium(m1).corrupt_byte(log1->journal_file(), rot_at);
  cluster.restart_node(m1);
  cluster.run();
  const durable::RecoveryStats r1 = cluster.last_recovery(m1);
  expect(r1.skipped_crc == 1,
         "recovery must CRC-skip exactly the rotten record");
  expect(r1.snapshot_loaded, "recovery must load the snapshot");
  expect(r1.reconciled >= 1,
         "recovery must reconcile the CRC-skipped commit");
  expect(history_size(m1) == 6, "rotten member must end with all 6 commits");
  note("bit-rot: skipped " + std::to_string(r1.skipped_crc) +
       " record, snapshot " + (r1.snapshot_loaded ? "loaded" : "missing") +
       ", reconciled " + std::to_string(r1.reconciled));

  // -- Step 3: crash EVERY peer-set member (> f simultaneous failures).
  // No live peer holds the history any more; only journal replay can
  // reconstruct the acknowledged commits.
  for (sim::NodeAddr addr : members) {
    cluster.crash_node(static_cast<std::size_t>(addr));
  }
  for (sim::NodeAddr addr : members) {
    cluster.restart_node(static_cast<std::size_t>(addr));
  }
  cluster.run();
  for (sim::NodeAddr addr : members) {
    expect(history_size(static_cast<std::size_t>(addr)) == 6,
           "member " + std::to_string(addr) +
               " must replay all 6 commits although every peer crashed");
  }
  const HistoryReadResult read = read_and_run(cluster, guid);
  expect(read.ok && read.versions.size() == 6,
         "an (f+1)-agreed read must see all 6 versions after full-set crash");
  for (const Violation& v : checker.check(/*check_order=*/true)) {
    report.failures.push_back("invariant: " + v.invariant + ": " + v.detail);
  }
  cluster.snapshot_metrics();
  expect(cluster.metrics().counter("recovery.truncated").value() > 0,
         "recovery.truncated metric must be nonzero");
  expect(cluster.metrics().counter("recovery.skipped_crc").value() > 0,
         "recovery.skipped_crc metric must be nonzero");
  expect(cluster.metrics().counter("recovery.replayed").value() > 0,
         "recovery.replayed metric must be nonzero");
  expect(cluster.metrics().counter("recovery.reconciled").value() > 0,
         "recovery.reconciled metric must be nonzero");
  note("full-set crash: all " + std::to_string(members.size()) +
       " members replayed 6/6 commits from their journals");

  // -- Step 4: the counterfactual. Same schedule with durability off (the
  // seed codebase's volatile behaviour): a full-set crash erases the
  // history — nothing is left to bootstrap from.
  {
    ClusterConfig volatile_config = config;
    volatile_config.durability = false;
    volatile_config.metrics = false;
    AsaCluster volatile_cluster(volatile_config);
    const std::vector<sim::NodeAddr> vmembers =
        volatile_cluster.peer_set(guid);
    int vcommitted = 0;
    for (int i = 0; i < 6; ++i) {
      if (commit_and_run(volatile_cluster, nullptr, guid, "durability smoke",
                         i, seed)) {
        ++vcommitted;
      }
    }
    expect(vcommitted == 6, "counterfactual baseline commits failed");
    for (sim::NodeAddr addr : vmembers) {
      volatile_cluster.crash_node(static_cast<std::size_t>(addr));
    }
    for (sim::NodeAddr addr : vmembers) {
      volatile_cluster.restart_node(static_cast<std::size_t>(addr));
    }
    volatile_cluster.run();
    std::size_t survivors = 0;
    for (sim::NodeAddr addr : vmembers) {
      survivors += volatile_cluster.host(static_cast<std::size_t>(addr))
                       .peer()
                       .history(key)
                       .size();
    }
    expect(survivors == 0,
           "without durability a full-set crash must lose the history "
           "(found " + std::to_string(survivors) + " surviving entries)");
    note("counterfactual (durability off): full-set crash lost all " +
         std::to_string(vcommitted) + " acknowledged commits");
  }

  return report;
}

// --------------------------------------------------------- churn smoke

DurabilitySmokeReport run_churn_smoke(std::uint64_t seed, bool handoff) {
  DurabilitySmokeReport report;
  const auto note = [&report](std::string text) {
    report.notes.push_back(std::move(text));
  };
  const auto expect = [&report](bool ok, std::string what) {
    if (!ok) report.failures.push_back(std::move(what));
  };

  // Durability stays on: the handoff-ack invariant needs the ack ledger.
  const ClusterConfig config = smoke_config(seed);

  if (handoff) {
    AsaCluster cluster(config);
    InvariantChecker checker(cluster);
    const auto [guid, members] = full_peer_set_guid(cluster, "churn-smoke");
    if (members.size() < 4) {
      report.failures.push_back("no GUID with a full-size peer set found");
      return report;
    }

    int next_update = 0;
    const auto commit_one = [&, guid = guid]() {
      return commit_and_run(cluster, &checker, guid, "churn smoke",
                            next_update++, seed);
    };
    const auto check_invariants = [&](const std::string& where) {
      for (const Violation& v : checker.check(/*check_order=*/true)) {
        report.failures.push_back("invariant (" + where + "): " +
                                  v.invariant + ": " + v.detail);
      }
    };

    // -- Step 1: baseline history on the full-size peer set.
    for (int i = 0; i < 5; ++i) {
      expect(commit_one(),
             "baseline commit " + std::to_string(i) + " failed");
    }
    note("baseline: 5 commits acknowledged on a 4-member peer set");

    // -- Step 2: graceful leave wave — EVERY original member leaves, one
    // at a time. Each leave hands its key ranges off, so the acknowledged
    // history must end up readable from an entirely-new peer set.
    for (sim::NodeAddr addr : members) {
      expect(cluster.remove_node(static_cast<std::size_t>(addr),
                                 /*graceful=*/true),
             "graceful leave of node " + std::to_string(addr) + " refused");
      cluster.run();
    }
    std::size_t overlap = 0;
    for (sim::NodeAddr addr : cluster.peer_set(guid)) {
      if (std::find(members.begin(), members.end(), addr) != members.end()) {
        ++overlap;
      }
    }
    expect(overlap == 0, "leave wave must fully rotate the peer set");
    const HistoryReadResult read5 = read_and_run(cluster, guid);
    expect(read5.ok && read5.versions.size() == 5,
           "an (f+1)-agreed read must survive the graceful leave wave");
    check_invariants("after leave wave");
    note("graceful leave wave: all 4 original members left; handed-off "
         "history still reads 5/5");

    // -- Step 3: churn while a commit is in flight. A fresh node joins,
    // then one current member leaves the moment the next append is
    // submitted — the commit must still succeed and agree.
    const std::size_t joined = cluster.add_node();
    expect(joined == config.nodes,
           "join must allocate a fresh slot past the initial members");
    expect(cluster.joined_epoch(joined) > 0,
           "the joiner must carry a later membership epoch");
    const std::vector<sim::NodeAddr> current = cluster.peer_set(guid);
    const auto mid = static_cast<std::size_t>(current.front());
    cluster.scheduler().schedule_at(
        cluster.scheduler().now() + 10'000, [&cluster, mid] {
          (void)cluster.remove_node(mid, /*graceful=*/true);
        });
    expect(commit_one(),
           "a commit must survive a graceful leave mid-flight");
    const HistoryReadResult read6 = read_and_run(cluster, guid);
    expect(read6.ok && read6.versions.size() == 6,
           "an (f+1)-agreed read must see all 6 versions after churn");
    check_invariants("after mid-flight churn");
    note("mid-flight churn: join + graceful leave during a commit; "
         "6/6 versions agreed");
  }

  // -- Counterfactual: the same graceful leave wave with the handoff
  // suppressed. The acknowledged history is provably lost, and the
  // handoff-ack invariant names the loss.
  {
    AsaCluster cluster(config);
    InvariantChecker checker(cluster);
    const auto [guid, members] = full_peer_set_guid(cluster, "churn-smoke");
    const std::uint64_t key = guid.to_uint64();
    if (members.size() < 4) {
      report.failures.push_back(
          "no GUID with a full-size peer set found (counterfactual)");
      return report;
    }
    int committed = 0;
    for (int i = 0; i < 5; ++i) {
      if (commit_and_run(cluster, &checker, guid, "churn smoke", i, seed)) {
        ++committed;
      }
    }
    expect(committed == 5, "counterfactual baseline commits failed");
    for (sim::NodeAddr addr : members) {
      expect(cluster.remove_node(static_cast<std::size_t>(addr),
                                 /*graceful=*/true, /*handoff=*/false),
             "no-handoff leave of node " + std::to_string(addr) +
                 " refused");
      cluster.run();
    }
    std::size_t survivors = 0;
    for (sim::NodeAddr addr : cluster.peer_set(guid)) {
      survivors += cluster.host(static_cast<std::size_t>(addr))
                       .peer()
                       .history(key)
                       .size();
    }
    expect(survivors == 0,
           "with the handoff suppressed the leave wave must lose the "
           "acknowledged history (found " +
               std::to_string(survivors) + " surviving entries)");
    bool handoff_ack_fired = false;
    for (const Violation& v : checker.check(/*check_order=*/false)) {
      if (v.invariant == "handoff-ack") handoff_ack_fired = true;
    }
    expect(handoff_ack_fired,
           "the handoff-ack invariant must flag the suppressed handoff");
    note("counterfactual (handoff off): leave wave lost all " +
         std::to_string(committed) +
         " acknowledged commits; handoff-ack fired");
  }

  return report;
}

// ---------------------------------------------------------------- soak

SoakReport run_soak(const ChaosConfig& base, sim::Time total_sim_us,
                    obs::MetricsRegistry* metrics) {
  SoakReport report;
  const sim::Time window = std::max<sim::Time>(base.horizon, 1);
  const auto windows = static_cast<int>(
      std::max<sim::Time>(1, total_sim_us / window));
  for (int w = 0; w < windows; ++w) {
    ChaosConfig config = base;
    config.seed =
        sim::Rng::derive_seed(base.seed, static_cast<std::uint64_t>(w));
    sim::Rng rng(config.seed);
    const sim::FaultPlan plan = generate_fault_plan(config, rng);
    const ChaosReport run = run_plan(config, plan, metrics);
    ++report.windows;
    report.commits_per_sec.push_back(static_cast<double>(run.committed) /
                                     (static_cast<double>(window) / 1e6));
    for (const Violation& v : run.violations) {
      report.violations.push_back(
          {v.invariant, "[window " + std::to_string(w) + "] " + v.detail});
    }
  }
  // Metrics drift: a window whose commit rate collapses below a quarter of
  // the median is a livelock/leak signature even when every per-window
  // invariant holds.
  std::vector<double> sorted = report.commits_per_sec;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted.empty() ? 0.0 : sorted[sorted.size() / 2];
  if (base.expect_liveness() && median > 0.0) {
    for (std::size_t w = 0; w < report.commits_per_sec.size(); ++w) {
      if (report.commits_per_sec[w] < 0.25 * median) {
        report.failures.push_back(
            "commit-rate drift: window " + std::to_string(w) + " ran at " +
            std::to_string(report.commits_per_sec[w]) +
            " commits/sec against a median of " + std::to_string(median));
      }
    }
  }
  return report;
}

// ------------------------------------------------------------ replay file

std::string encode_replay(const ChaosConfig& config,
                          const sim::FaultPlan& plan) {
  std::string text = "# asachaos replay v1\n";
  text += config.serialize();
  text += "plan\n";
  text += plan.serialize();
  return text;
}

std::optional<std::pair<ChaosConfig, sim::FaultPlan>> decode_replay(
    const std::string& text) {
  // The header ends at the first line that is exactly "plan" (a comment
  // line may end in the word too).
  for (std::size_t line = 0; line < text.size();) {
    const std::size_t end = std::min(text.find('\n', line), text.size());
    if (text.compare(line, end - line, "plan") == 0) {
      const std::optional<ChaosConfig> config =
          ChaosConfig::parse(text.substr(0, line));
      if (!config.has_value()) return std::nullopt;
      const std::optional<sim::FaultPlan> plan =
          sim::FaultPlan::parse(text.substr(std::min(end + 1, text.size())));
      if (!plan.has_value()) return std::nullopt;
      return std::make_pair(*config, *plan);
    }
    line = end + 1;
  }
  return std::nullopt;
}

}  // namespace asa_repro::storage
