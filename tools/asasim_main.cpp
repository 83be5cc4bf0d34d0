// asasim — command-line ASA cluster simulator.
//
// Spins up the whole stack (Chord ring, storage hosts, commit peers,
// version-history service), runs a configurable update workload against a
// set of GUIDs under configurable faults, and reports protocol statistics.
// A deterministic harness for exploring the deployed system's behaviour
// without writing code.
//
//   asasim --nodes 16 --replication 4 --clients 3 --updates 9
//          --byzantine equivocator:1 --drop 0.05 --seed 7 --trace
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "commit/replay.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/workload.hpp"
#include "storage/cluster.hpp"
#include "write_file.hpp"

using namespace asa_repro;
using namespace asa_repro::storage;

namespace {

std::optional<commit::Behaviour> parse_behaviour(const std::string& name) {
  if (name == "crash") return commit::Behaviour::kCrash;
  if (name == "equivocator") return commit::Behaviour::kEquivocator;
  if (name == "withholder") return commit::Behaviour::kWithholder;
  return std::nullopt;
}

struct PartitionSpec {
  std::size_t a = 0;
  std::size_t b = 0;
  sim::Time heal_at = 0;  // 0 = never heal.
};

struct LinkSpec {
  std::size_t a = 0;
  std::size_t b = 0;
  std::string klass;
};

// "A:B:class" with class in {lan, wan, sat}.
LinkSpec link_arg(const std::string& spec) {
  const std::size_t first = spec.find(':');
  const std::size_t second =
      first == std::string::npos ? first : spec.find(':', first + 1);
  if (second != std::string::npos) {
    const auto a = cli::parse_unsigned<std::size_t>(spec.substr(0, first));
    const auto b = cli::parse_unsigned<std::size_t>(
        spec.substr(first + 1, second - first - 1));
    std::string klass = spec.substr(second + 1);
    if (a && b && sim::link_profile(klass).has_value()) {
      return LinkSpec{*a, *b, std::move(klass)};
    }
  }
  throw cli::BadArgument("bad link spec (want A:B:lan|wan|sat): " + spec);
}

struct ChurnSpec {
  enum class Kind { kJoin, kLeave, kDepart } kind = Kind::kJoin;
  std::size_t node = 0;  // Unused for joins.
  sim::Time at = 0;
};

// "N:T" (node, time) for --leave / --depart.
ChurnSpec churn_arg(ChurnSpec::Kind kind, const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon != std::string::npos) {
    const auto node = cli::parse_unsigned<std::size_t>(spec.substr(0, colon));
    const auto at = cli::parse_unsigned<sim::Time>(spec.substr(colon + 1));
    if (node && at) return ChurnSpec{kind, *node, *at};
  }
  throw cli::BadArgument("bad churn spec (want N:T): " + spec);
}

// "A:B" or "A:B:heal_at" (times in simulated microseconds).
PartitionSpec partition_arg(const std::string& spec) {
  const std::size_t first = spec.find(':');
  if (first != std::string::npos) {
    const std::size_t second = spec.find(':', first + 1);
    const auto a = cli::parse_unsigned<std::size_t>(spec.substr(0, first));
    const auto b = cli::parse_unsigned<std::size_t>(spec.substr(
        first + 1,
        second == std::string::npos ? std::string::npos : second - first - 1));
    const auto heal_at = second == std::string::npos
                             ? std::optional<sim::Time>(0)
                             : cli::parse_unsigned<sim::Time>(
                                   spec.substr(second + 1));
    if (a && b && heal_at) return PartitionSpec{*a, *b, *heal_at};
  }
  throw cli::BadArgument("bad partition spec (want A:B or A:B:heal_at): " +
                         spec);
}

// asasim's modes: each option row names the modes whose code reads it.
constexpr cli::Modes kClients = 1;  // The default client loop.
constexpr cli::Modes kWriters = 2;  // --writers W > 0: contention workload.
constexpr cli::Modes kReplay = 4;   // --replay: a counterexample plan.
constexpr cli::Modes kRun = kClients | kWriters;

int asasim_main(int argc, char** argv) {
  ClusterConfig config;
  config.nodes = 16;
  config.replication_factor = 4;
  config.seed = 42;
  int clients = 2;
  int updates = 6;
  int guids = 2;
  commit::Behaviour byz_kind = commit::Behaviour::kHonest;
  std::size_t byz_count = 0;
  std::vector<PartitionSpec> partitions;
  std::vector<LinkSpec> links;
  std::vector<ChurnSpec> churn;
  std::vector<sim::Time> joins;
  int writers = 0;
  double zipf = 0.9;
  double read_fraction = 0.0;
  bool open_loop = false;
  double duplicate_probability = 0.0;
  bool dump_trace = false;
  std::string metrics_out;
  std::string trace_out;
  std::string spans_out;
  std::string replay_path;
  const auto churn_into = [&churn](ChurnSpec::Kind kind) {
    return [&churn, kind](auto&, auto& spec) {
      churn.push_back(churn_arg(kind, spec));
    };
  };

  cli::Options args(
      "usage: asasim [options]\n"
      "Runs the client loop (the default), the contention workload\n"
      "(--writers W > 0), or re-runs a counterexample plan (--replay FILE).",
      {{kClients, "the client loop"},
       {kWriters, "the --writers workload"},
       {kReplay, "a --replay run"}},
      {
          {{"--nodes"}, "N", "cluster size (default 16)",
           cli::to(config.nodes), kRun},
          {{"--replication"}, "R", "replication factor (default 4)",
           cli::to(config.replication_factor), kRun},
          {{"--clients"}, "C", "concurrent clients (default 2)",
           cli::to(clients), kClients},
          {{"--updates"}, "U", "total updates across clients (default 6)",
           cli::to(updates), kRun},
          {{"--guids"}, "G", "number of GUIDs written (default 2)",
           cli::to(guids), kRun},
          {{"--byzantine"}, "KIND:N",
           "crash | equivocator | withholder, N nodes",
           [&](auto& option, auto& spec) {
             const std::size_t colon = spec.find(':');
             const auto kind = parse_behaviour(spec.substr(0, colon));
             if (!kind.has_value()) {
               throw cli::BadArgument("unknown behaviour: " + spec);
             }
             byz_kind = *kind;
             byz_count = colon == std::string::npos
                             ? 1
                             : cli::unsigned_arg<std::size_t>(
                                   option, spec.substr(colon + 1));
           },
           kRun},
          {{"--partition"}, "A:B[:T]",
           "cut links between nodes A and B both ways at time 0; heal at "
           "time T us (default: never); repeatable",
           [&](auto&, auto& spec) {
             partitions.push_back(partition_arg(spec));
           },
           kRun},
          {{"--drop"}, "P", "message drop probability (default 0)",
           cli::to(config.drop_probability), kRun},
          {{"--duplicate"}, "P", "message duplication probability (default 0)",
           cli::to(duplicate_probability), kRun},
          {{"--link"}, "A:B:CLASS",
           "install a latency class (lan | wan | sat) on the directed link "
           "A->B; repeatable (set both directions for a symmetric path)",
           [&](auto&, auto& spec) { links.push_back(link_arg(spec)); }, kRun},
          {{"--join"}, "T", "a fresh node joins the ring at time T us; "
           "repeatable",
           [&](auto& option, auto& at) {
             joins.push_back(cli::unsigned_arg<sim::Time>(option, at));
           },
           kRun},
          {{"--leave"}, "N:T", "node N gracefully leaves (key-range handoff) "
           "at time T us; repeatable",
           churn_into(ChurnSpec::Kind::kLeave), kRun},
          {{"--depart"}, "N:T", "node N departs abruptly (no handoff) at time "
           "T us; repeatable", churn_into(ChurnSpec::Kind::kDepart), kRun},
          {{"--writers"}, "W",
           "contention workload: W concurrent writers spread --updates "
           "operations over the GUIDs by zipf popularity (0, the default, "
           "runs the client loop)", cli::to(writers), kRun},
          {{"--zipf"}, "Z", "zipf skew x100 (default 90)", cli::percent(zipf),
           kWriters},
          {{"--reads"}, "P", "percent of workload operations that are agreed "
           "reads (default 0)", cli::percent(read_fraction), kWriters},
          {{"--open-loop"}, "", "open-loop arrivals", cli::set(open_loop),
           kWriters},
          {{"--seed"}, "S", "simulation seed (default 42)",
           cli::to(config.seed), kRun},
          {{"--trace"}, "", "dump commit/abort trace events (under --replay: "
           "the replayed schedule)", cli::set(dump_trace)},
          {{"--metrics-out"}, "FILE", "write run metrics (asa-metrics/1 JSON)",
           cli::to(metrics_out), kRun},
          {{"--trace-out"}, "FILE", "write causal event trace (asa-trace/1 "
           "JSONL)", cli::to(trace_out), kRun},
          {{"--spans-out"}, "FILE", "write commit-path spans (asa-span/1 "
           "JSON), fed to asareport --critical-path", cli::to(spans_out),
           kRun},
          {{"--flight"}, "N", "per-node flight recorder, N recent events "
           "(dumped as part of run output)", cli::to(config.flight_capacity),
           kRun},
          {{"--replay"}, "FILE", "replay an asa-replay/1 counterexample plan "
           "(from `fsmcheck --protocol --replay-out`) against the real "
           "runtime and re-check the violated property",
           cli::to(replay_path), kReplay},
      });
  if (!args.parse(argc, argv)) return 0;
  args.require_mode(!replay_path.empty() ? kReplay
                       : writers > 0        ? kWriters
                                            : kClients);
  config.tracing = dump_trace || !trace_out.empty();
  config.metrics = !metrics_out.empty();
  config.spans = !spans_out.empty();
  if (clients == 0 || guids == 0) {
    std::cerr << "asasim: --clients and --guids must be positive\n";
    return 2;
  }
  if (config.nodes == 0 || config.replication_factor < 2) {
    std::cerr << "asasim: --nodes must be at least 1 and --replication at "
                 "least 2\n";
    return 2;
  }
  for (const double p : {config.drop_probability, duplicate_probability}) {
    if (p < 0.0 || p > 1.0) {
      std::cerr << "asasim: --drop and --duplicate must lie in [0,1]\n";
      return 2;
    }
  }
  if (read_fraction > 1.0) {
    std::cerr << "asasim: --reads must be a percentage in [0,100]\n";
    return 2;
  }

  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::cerr << "asasim: cannot read " << replay_path << "\n";
      return 2;
    }
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const auto plan = commit::ReplayPlan::parse(text);
    if (!plan.has_value()) {
      std::cerr << "asasim: " << replay_path
                << " is not an asa-replay/1 plan\n";
      return 2;
    }
    std::cout << "replaying " << plan->check << " (r=" << plan->r
              << ", mutation="
              << (plan->mutation.empty() ? "none" : plan->mutation) << ", "
              << plan->schedule.size() << " steps)\n";
    const commit::ReplayOutcome outcome =
        commit::run_replay(*plan, dump_trace ? &std::cout : nullptr);
    if (!outcome.supported) {
      std::cout << "replay unsupported: " << outcome.description << "\n";
      return 0;
    }
    if (outcome.reproduced) {
      std::cout << "violation reproduced: " << plan->check << " — "
                << outcome.description << "\n";
      return 0;
    }
    std::cout << "violation NOT reproduced: " << plan->check << " — "
              << outcome.description << "\n";
    return 1;
  }

  config.retry.base_timeout = 80'000;
  config.retry.max_attempts = 25;
  // Every peer aborts stalled instances, including ones rebuilt by a
  // Byzantine flip and nodes added later by --join.
  config.abort_scan_interval = 60'000;
  config.abort_max_age = 80'000;
  AsaCluster cluster(config);
  cluster.network().set_duplicate_probability(duplicate_probability);
  for (std::size_t i = 0; i < byz_count && i < cluster.node_count(); ++i) {
    cluster.make_byzantine(i, byz_kind);
  }
  for (const PartitionSpec& p : partitions) {
    if (p.a >= cluster.node_count() || p.b >= cluster.node_count()) {
      std::cerr << "partition node out of range: " << p.a << ":" << p.b
                << "\n";
      return 2;
    }
    const auto a = static_cast<sim::NodeAddr>(p.a);
    const auto b = static_cast<sim::NodeAddr>(p.b);
    cluster.network().partition_bidirectional(a, b);
    if (p.heal_at > 0) {
      cluster.scheduler().schedule_at(p.heal_at, [&cluster, a, b]() {
        cluster.network().heal(a, b);
        cluster.network().heal(b, a);
      });
    }
  }
  for (const LinkSpec& l : links) {
    if (l.a >= cluster.node_count() || l.b >= cluster.node_count()) {
      std::cerr << "link node out of range: " << l.a << ":" << l.b << "\n";
      return 2;
    }
    cluster.network().set_link_profile(static_cast<sim::NodeAddr>(l.a),
                                       static_cast<sim::NodeAddr>(l.b),
                                       *sim::link_profile(l.klass));
  }
  for (const sim::Time at : joins) {
    cluster.scheduler().schedule_at(
        at, [&cluster] { (void)cluster.add_node(); });
  }
  for (const ChurnSpec& c : churn) {
    if (c.node >= cluster.node_count()) {
      std::cerr << "churn node out of range: " << c.node << "\n";
      return 2;
    }
    cluster.scheduler().schedule_at(c.at, [&cluster, c] {
      (void)cluster.remove_node(c.node,
                                c.kind == ChurnSpec::Kind::kLeave);
    });
  }

  std::cout << "cluster: " << config.nodes << " nodes, r="
            << config.replication_factor << " (f=" << cluster.f() << "), "
            << byz_count << " byzantine, drop=" << config.drop_probability
            << ", seed=" << config.seed << "\n";

  // Workload. Default: `updates` version appends spread over `guids`
  // GUIDs and round-robined across clients (each client is one
  // VersionHistoryService; the first owns reads). With --writers W, the
  // contention engine instead spreads the operations over W concurrent
  // writers whose key choices follow a zipf distribution (several writers
  // hammering the same hot GUID), closed- or open-loop.
  int committed = 0, failed = 0, reads_ok = 0, reads_failed = 0;
  std::uint64_t total_attempts = 0;
  double total_latency_ms = 0;
  std::vector<int> per_writer_commits;
  if (writers > 0) {
    // Contending writers funnel through each GUID's serialization point;
    // racing same-GUID appends is outside the protocol's supported usage.
    cluster.version_history().set_serialize_appends(true);
    sim::WorkloadConfig workload;
    workload.writers = static_cast<std::uint32_t>(writers);
    workload.keys = static_cast<std::uint32_t>(guids);
    workload.operations = static_cast<std::uint32_t>(std::max(0, updates));
    workload.zipf = zipf;
    workload.read_fraction = read_fraction;
    workload.open_loop = open_loop;
    const auto per_writer = sim::generate_workload(workload, config.seed);
    per_writer_commits.assign(per_writer.size(), 0);
    std::function<void(std::size_t, std::size_t)> submit_op =
        [&](std::size_t w, std::size_t i) {
          if (i >= per_writer[w].size()) return;
          const sim::WorkloadOp& op = per_writer[w][i];
          const Guid guid = Guid::named("guid:" + std::to_string(op.key));
          if (op.read) {
            cluster.version_history().read(
                guid, [&, w, i](const HistoryReadResult& r) {
                  if (r.ok) ++reads_ok; else ++reads_failed;
                  if (!open_loop) submit_op(w, i + 1);
                });
            return;
          }
          const Pid pid = Pid::of(block_from(
              "w" + std::to_string(op.writer) + " op" +
              std::to_string(op.sequence)));
          cluster.version_history().append(
              guid, pid, [&, w, i](const commit::CommitResult& r) {
                if (r.committed) {
                  ++committed;
                  ++per_writer_commits[w];
                  total_attempts += r.attempts;
                  total_latency_ms += static_cast<double>(r.latency) / 1000.0;
                } else {
                  ++failed;
                }
                if (!open_loop) submit_op(w, i + 1);
              });
        };
    for (std::size_t w = 0; w < per_writer.size(); ++w) {
      if (open_loop) {
        for (std::size_t i = 0; i < per_writer[w].size(); ++i) {
          cluster.scheduler().schedule_at(
              per_writer[w][i].at, [&submit_op, w, i] { submit_op(w, i); });
        }
      } else if (!per_writer[w].empty()) {
        cluster.scheduler().schedule_at(
            per_writer[w][0].at, [&submit_op, w] { submit_op(w, 0); });
      }
    }
    cluster.run();
  } else {
    for (int u = 0; u < updates; ++u) {
      const Guid guid = Guid::named("guid:" + std::to_string(u % guids));
      const Pid pid = Pid::of(block_from("update " + std::to_string(u)));
      cluster.version_history().append(
          guid, pid, [&](const commit::CommitResult& r) {
            if (r.committed) {
              ++committed;
              total_attempts += r.attempts;
              total_latency_ms += static_cast<double>(r.latency) / 1000.0;
            } else {
              ++failed;
            }
          });
      // Stagger client submissions slightly (concurrency within guids).
      if ((u + 1) % clients == 0) cluster.run_for(2'000);
    }
    cluster.run();
  }

  std::cout << "\nworkload: " << committed << "/" << updates
            << " updates committed, " << failed << " failed\n";
  if (writers > 0) {
    std::cout << "reads: " << reads_ok << " agreed, " << reads_failed
              << " without quorum\n";
    for (std::size_t w = 0; w < per_writer_commits.size(); ++w) {
      std::cout << "writer " << w << ": " << per_writer_commits[w]
                << " commits\n";
    }
  }
  if (committed > 0) {
    std::cout << "mean attempts " << (double)total_attempts / committed
              << ", mean latency "
              << total_latency_ms / committed << " ms\n";
  }

  for (int g = 0; g < guids; ++g) {
    const Guid guid = Guid::named("guid:" + std::to_string(g));
    HistoryReadResult read;
    cluster.version_history().read(
        guid, [&](const HistoryReadResult& r) { read = r; });
    cluster.run();
    std::cout << "guid:" << g << " agreed history length "
              << read.versions.size() << " (" << read.replies
              << " peers replied, " << (read.ok ? "ok" : "NO QUORUM")
              << ")\n";
  }

  const auto& net = cluster.network().stats();
  std::cout << "\nnetwork: " << net.sent << " sent, " << net.delivered
            << " delivered, " << net.dropped << " dropped, "
            << net.duplicated << " duplicated\n";
  std::uint64_t votes = 0, commits = 0, aborts = 0;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    votes += cluster.host(i).peer().stats().votes_sent;
    commits += cluster.host(i).peer().stats().commits_sent;
    aborts += cluster.host(i).peer().stats().aborted;
  }
  std::cout << "protocol: " << votes << " votes sent, " << commits
            << " commits sent, " << aborts << " instance aborts\n";

  if (dump_trace) {
    std::cout << "\ncommit/abort trace:\n";
    for (const obs::Event& e : cluster.events().stream()) {
      if (e.kind == obs::EventKind::kCommit ||
          e.kind == obs::EventKind::kAbort) {
        std::cout << "  [" << e.t << "us] node" << e.node << " "
                  << obs::category(obs::View::kTrace, e.kind) << " "
                  << obs::detail(obs::View::kTrace, e) << "\n";
      }
    }
  }

  if (!metrics_out.empty()) {
    cluster.snapshot_metrics();
    const obs::Meta meta{
        {"tool", "asasim"},
        {"seed", std::to_string(config.seed)},
        {"nodes", std::to_string(config.nodes)},
        {"replication", std::to_string(config.replication_factor)},
        {"updates", std::to_string(updates)},
        {"guids", std::to_string(guids)},
    };
    if (!cli::write_file(metrics_out,
                         obs::write_metrics_json(cluster.metrics(), meta))) {
      return 2;
    }
    std::cout << "metrics written to " << metrics_out << "\n";
  }
  if (!trace_out.empty()) {
    if (!cli::write_file_with(trace_out, [&](std::ostream& out) {
          out << "{\"schema\":\"asa-trace/1\",\"tool\":\"asasim\","
                 "\"seed\":"
              << config.seed << "}\n";
          cluster.events().write_trace_jsonl(out);
        })) {
      return 2;
    }
    std::cout << "trace written to " << trace_out << " ("
              << cluster.events().stream().size() << " events)\n";
  }
  if (!spans_out.empty()) {
    const obs::Meta meta{
        {"tool", "asasim"},
        {"seed", std::to_string(config.seed)},
        {"nodes", std::to_string(config.nodes)},
        {"replication", std::to_string(config.replication_factor)},
        {"updates", std::to_string(updates)},
        {"guids", std::to_string(guids)},
    };
    if (!cli::write_file(spans_out,
                         obs::write_spans_json(cluster.spans(), meta))) {
      return 2;
    }
    std::cout << "spans written to " << spans_out << " ("
              << obs::span_count(cluster.spans()) << " spans)\n";
  }
  const obs::EventRecorder& flight = cluster.events();
  if (flight.capacity() > 0) {
    std::cout << "\nflight recorder (" << flight.total_recorded()
              << " events recorded, last " << flight.capacity()
              << " per node kept):\n";
    for (const std::uint32_t lane : flight.lanes()) {
      const auto entries = flight.lane(lane);
      std::cout << "  node" << lane << ": " << entries.size()
                << " event(s), tail:\n";
      const std::size_t first = entries.size() > 3 ? entries.size() - 3 : 0;
      for (std::size_t i = first; i < entries.size(); ++i) {
        const obs::Event& e = entries[i].event;
        std::cout << "    [" << e.t << "us] "
                  << obs::category(obs::View::kFlight, e.kind) << " "
                  << obs::detail(obs::View::kFlight, e) << "\n";
      }
    }
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run("asasim", [&] { return asasim_main(argc, argv); });
}
