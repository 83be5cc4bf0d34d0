// Layer probes for the traced run.
//
// Calls made inside the event loop cannot be wrapped from outside, so each
// probe times a layer's public function in isolation, with inputs shaped
// like the run's (queue depth, address set, ring size, replication factor,
// per-node journal length). main.cpp multiplies each per-call cost by the
// run's call count to estimate the layer's share of run CPU time. Isolated
// calls run with warm caches, so shares are lower bounds.
#include <algorithm>
#include <map>
#include <memory>

#include "bench.hpp"
#include "commit/driver.hpp"
#include "commit/machine_cache.hpp"
#include "commit/messages.hpp"
#include "commit/peer.hpp"
#include "durable/durable_log.hpp"
#include "durable/storage_medium.hpp"
#include "sim/network.hpp"
#include "storage/key_gen.hpp"
#include "storage/version_history.hpp"

namespace stackbench {

using namespace asa_repro;

namespace {

constexpr double kMinProbeSeconds = 0.2;
constexpr std::size_t kFrameBytes = 33;  // commit::WireMessage on the wire.

// Repeat `trial` (which returns the number of operations it timed, and
// adds its CPU time to `busy`) until the probe has run long enough.
template <class Trial>
double ns_per_op(Trial&& trial) {
  double busy = 0;
  std::uint64_t ops = 0;
  while (busy < kMinProbeSeconds) ops += trial(busy);
  return ops == 0 ? 0 : busy * 1e9 / static_cast<double>(ops);
}

volatile std::uint64_t g_sink = 0;  // Keeps probe results observable.

// Scheduler::schedule_at + run, holding the queue at `depth` pending
// events whose actions capture a frame-sized payload like a delivery.
double probe_scheduler(std::size_t depth, std::uint64_t seed) {
  struct Pump {
    sim::Scheduler& scheduler;
    sim::Rng rng;
    std::uint64_t remaining;
    std::string payload = std::string(kFrameBytes, 'x');
    void arm() {
      scheduler.schedule_at(scheduler.now() + rng.range(500, 5'000),
                            [this, p = payload] {
                              g_sink = g_sink + p.size();
                              if (remaining > 0) {
                                --remaining;
                                arm();
                              }
                            });
    }
  };
  return ns_per_op([&](double& busy) -> std::uint64_t {
    sim::Scheduler scheduler;
    Pump pump{scheduler, sim::Rng(seed), 200'000};
    for (std::size_t i = 0; i < depth; ++i) pump.arm();
    const double c0 = cpu_seconds();
    const std::size_t executed = scheduler.run();
    busy += cpu_seconds() - c0;
    return executed;
  });
}

// Network::send + delivery to no-op handlers over the run's address set:
// hosts and the per-GUID commit endpoints, sending within peer sets.
double probe_network(const WorkloadSpec& spec, std::uint64_t seed,
                     std::size_t depth,
                     const std::vector<std::vector<sim::NodeAddr>>& sets) {
  const sim::NodeAddr endpoint_base = storage::AsaCluster::kClientAddrBase + 1;
  sim::Rng rng(seed);
  std::vector<std::pair<sim::NodeAddr, sim::NodeAddr>> routes(1 << 16);
  for (auto& route : routes) {
    const std::size_t g = rng.below(sets.size());
    const auto& set = sets[g];
    const sim::NodeAddr member = set[rng.below(set.size())];
    if (rng.below(set.size()) == 0) {  // Endpoint <-> member traffic.
      const auto endpoint = static_cast<sim::NodeAddr>(endpoint_base + g);
      route = rng.chance(0.5) ? std::pair{endpoint, member}
                              : std::pair{member, endpoint};
    } else {
      route = {member, set[rng.below(set.size())]};
    }
  }
  const std::string payload(kFrameBytes, 'x');
  return ns_per_op([&](double& busy) -> std::uint64_t {
    sim::Scheduler scheduler;
    sim::Network network(scheduler, sim::Rng(seed ^ 0x6E6574ull));
    const auto noop = [](sim::NodeAddr, const std::string& data) {
      g_sink = g_sink + data.size();
    };
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      network.attach(static_cast<sim::NodeAddr>(i), noop);
    }
    for (std::size_t g = 0; g < sets.size(); ++g) {
      network.attach(static_cast<sim::NodeAddr>(endpoint_base + g), noop);
    }
    const double c0 = cpu_seconds();
    for (std::size_t sent = 0; sent < routes.size();) {
      const std::size_t batch = std::min(depth, routes.size() - sent);
      for (std::size_t i = 0; i < batch; ++i, ++sent) {
        network.send(routes[sent].first, routes[sent].second, payload);
      }
      scheduler.run();
    }
    busy += cpu_seconds() - c0;
    return routes.size();
  });
}

// ChordRing::lookup on the run's ring over the workload GUIDs' replica keys.
double probe_chord(const WorkloadSpec& spec, storage::AsaCluster& cluster) {
  std::vector<p2p::NodeId> keys;
  for (const storage::Guid& guid : workload_guids(spec)) {
    for (const p2p::NodeId& key :
         storage::replica_keys(guid.as_key(), spec.r)) {
      keys.push_back(key);
    }
  }
  return ns_per_op([&](double& busy) -> std::uint64_t {
    const double c0 = cpu_seconds();
    std::uint64_t n = 0;
    for (int round = 0; round < 8; ++round) {
      for (const p2p::NodeId& key : keys) {
        g_sink = g_sink + cluster.ring().lookup(key).bytes()[0];
        ++n;
      }
    }
    busy += cpu_seconds() - c0;
    return n;
  });
}

// InterpreterDriver::deliver on the r machine: per instance, the update
// request, then r-1 votes and r-1 commits, as an honest peer sees them.
double probe_fsm(const fsm::StateMachine& machine, std::uint32_t r) {
  std::vector<fsm::MessageId> sequence{commit::kUpdate};
  sequence.insert(sequence.end(), r - 1, commit::kVote);
  sequence.insert(sequence.end(), r - 1, commit::kCommit);
  return ns_per_op([&](double& busy) -> std::uint64_t {
    std::vector<std::unique_ptr<commit::InterpreterDriver>> instances;
    for (int i = 0; i < 4'096; ++i) {
      instances.push_back(std::make_unique<commit::InterpreterDriver>(machine));
    }
    const double c0 = cpu_seconds();
    std::uint64_t n = 0;
    for (auto& instance : instances) {
      for (const fsm::MessageId m : sequence) {
        g_sink = g_sink + instance->deliver(m).size();
        ++n;
      }
    }
    busy += cpu_seconds() - c0;
    return n;
  });
}

// WireMessage::serialize + parse of one commit frame.
double probe_codec(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<commit::WireMessage> frames(4'096);
  for (auto& m : frames) {
    m.kind = static_cast<commit::WireMessage::Kind>(rng.below(4));
    m.guid = rng();
    m.update_id = rng();
    m.request_id = rng();
    m.payload = rng();
  }
  return ns_per_op([&](double& busy) -> std::uint64_t {
    const double c0 = cpu_seconds();
    for (int round = 0; round < 64; ++round) {
      for (const auto& m : frames) {
        const auto parsed = commit::WireMessage::parse(m.serialize());
        g_sink = g_sink + (parsed.has_value() ? parsed->payload : 0);
      }
    }
    busy += cpu_seconds() - c0;
    return 64 * frames.size();
  });
}

// DurableLog::record_commit on a MemMedium with the cluster's snapshot
// cadence, replaying every node's journal shape (its commit record count
// spread over its GUID count): snapshot cost grows with history length,
// so a skewed run is not one average node.
double probe_journal(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& journals,
    std::size_t snapshot_every) {
  if (journals.empty()) return 0;
  return ns_per_op([&](double& busy) -> std::uint64_t {
    std::uint64_t total = 0;
    for (const auto& [records, guid_count] : journals) {
      const std::uint64_t guids = std::max<std::uint64_t>(guid_count, 1);
      durable::MemMedium medium;
      durable::DurableLog log(medium, "probe", snapshot_every);
      const double c0 = cpu_seconds();
      for (std::uint64_t i = 0; i < records; ++i) {
        g_sink = g_sink + log.record_commit(i % guids + 1, i + 1, i + 1,
                                            i * 0x9E3779B97F4A7C15ull);
      }
      busy += cpu_seconds() - c0;
      total += records;
    }
    return total;
  });
}

// The commit layer alone: one CommitPeer per host on a bare sim::Network,
// each GUID's r-member peer set resolved from a table (no Chord), the
// run's appends through a VersionHistoryService (no journal, no reads).
// Returns CPU µs per commit after subtracting the sim and core probes'
// estimates for the probe's own event, message and delivery counts.
double probe_peers(const WorkloadSpec& spec, std::uint64_t seed,
                   const fsm::StateMachine& machine,
                   const std::vector<storage::Guid>& guids,
                   const std::vector<std::vector<sim::NodeAddr>>& sets,
                   const ProbeResult& probes) {
  const storage::ClusterConfig config = cluster_config(spec, seed, false);
  std::map<std::uint64_t, std::vector<sim::NodeAddr>> by_key;
  for (std::size_t g = 0; g < guids.size(); ++g) {
    by_key.emplace(guids[g].to_uint64(), sets[g]);
  }
  sim::Scheduler scheduler;
  sim::Network network(scheduler, sim::Rng(seed ^ 0x6E6574ull));
  apply_ack_loss(network, spec);
  std::vector<std::unique_ptr<commit::CommitPeer>> peers;
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    peers.push_back(std::make_unique<commit::CommitPeer>(
        network, static_cast<sim::NodeAddr>(i),
        std::vector<sim::NodeAddr>{}, machine));
    peers.back()->set_peer_resolver(
        [&by_key](std::uint64_t key) { return by_key.at(key); });
    peers.back()->enable_abort(config.abort_scan_interval,
                               config.abort_max_age);
  }
  storage::VersionHistoryService history(
      network, storage::AsaCluster::kClientAddrBase,
      [&by_key](const storage::Guid& guid) {
        return by_key.at(guid.to_uint64());
      },
      spec.r, (spec.r - 1) / 3, config.retry, sim::Rng(seed));
  history.set_serialize_appends(true);

  auto ops = workload_ops(spec, seed);
  std::vector<std::vector<storage::Pid>> pids(ops.size());
  for (std::size_t w = 0; w < ops.size(); ++w) {
    for (std::size_t i = 0; i < ops[w].size(); ++i) {
      pids[w].push_back(storage::Pid::of(storage::block_from(
          "w" + std::to_string(w) + " op" + std::to_string(i))));
    }
  }
  std::uint64_t commits = 0;
  std::unique_ptr<OpIssuer> issuer;
  issuer = std::make_unique<OpIssuer>(
      std::move(ops), spec.open_loop,
      [&](const sim::WorkloadOp& op, std::size_t w, std::size_t i) {
        if (op.read) {
          issuer->completed(w, i);
          return;
        }
        history.append(guids[op.key], pids[w][i],
                       [&, w, i](const commit::CommitResult& r) {
                         commits += r.committed ? 1 : 0;
                         issuer->completed(w, i);
                       });
      });
  const double c0 = cpu_seconds();
  issuer->start(scheduler);
  scheduler.run();
  const double busy = cpu_seconds() - c0;

  const sim::NetworkStats& net = network.stats();
  std::uint64_t deliveries = 0;
  for (const auto& peer : peers) {
    const commit::PeerStats& s = peer->stats();
    deliveries += s.updates_received + s.votes_received + s.commits_received -
                  s.duplicates_dropped;
  }
  const std::uint64_t executed = scheduler.stats().executed;
  const std::uint64_t other_events =
      executed - std::min(executed, net.delivered + net.to_dead_node);
  const double sim_ns = static_cast<double>(net.sent) * probes.ns_per_msg +
                        static_cast<double>(other_events) * probes.ns_per_event;
  const double core_ns = static_cast<double>(deliveries) * probes.ns_per_delivery;
  const double peer_ns = std::max(0.0, busy * 1e9 - sim_ns - core_ns);
  return commits == 0 ? 0 : peer_ns / 1e3 / static_cast<double>(commits);
}

}  // namespace

ProbeResult run_probes(const WorkloadSpec& spec, std::uint64_t seed,
                       const RepResult& rep) {
  const LayerCounts& c = rep.layers;
  // A fresh cluster gives the run's ring and peer sets through public API.
  storage::AsaCluster cluster(cluster_config(spec, seed, false));
  const std::vector<storage::Guid> guids = workload_guids(spec);
  std::vector<std::vector<sim::NodeAddr>> sets;
  for (const storage::Guid& guid : guids) sets.push_back(cluster.peer_set(guid));
  commit::MachineCache machines;
  const fsm::StateMachine& machine = machines.machine_for(spec.r);

  ProbeResult p;
  const std::size_t depth =
      std::max<std::size_t>(16, static_cast<std::size_t>(c.max_queue_depth));
  p.ns_per_event = probe_scheduler(depth, seed);
  p.ns_per_msg = probe_network(spec, seed, depth, sets);
  p.ns_per_lookup = probe_chord(spec, cluster);
  p.ns_per_delivery = probe_fsm(machine, spec.r);
  p.ns_per_frame_codec = probe_codec(seed);
  p.ns_per_record =
      probe_journal(c.node_journals, cluster.config().snapshot_every);
  p.peer_us_per_commit = probe_peers(spec, seed, machine, guids, sets, p);
  return p;
}

}  // namespace stackbench
