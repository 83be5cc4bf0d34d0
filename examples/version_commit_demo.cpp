// Version-history demo: the paper's motivating scenario (section 2.2).
// Two clients concurrently append versions of the same GUID; the peer set
// runs the generated BFT commit FSM to serialise them — under a Byzantine
// (equivocating) member and with the deadlock/timeout/retry machinery live.
//
//   $ ./version_commit_demo [seed]
#include <iostream>
#include <string>

#include <fstream>

#include "sim/sequence.hpp"
#include "storage/cluster.hpp"

using namespace asa_repro;
using namespace asa_repro::storage;

int main(int argc, char** argv) {
  ClusterConfig config;
  config.nodes = 12;
  config.replication_factor = 4;
  config.seed = argc > 1 ? std::stoull(argv[1]) : 11;
  config.tracing = true;
  AsaCluster cluster(config);

  const Guid guid = Guid::named("shared-document");
  std::cout << "GUID " << guid.to_hex().substr(0, 16)
            << "... ; peer set (r=" << config.replication_factor << "):";
  for (sim::NodeAddr addr : cluster.peer_set(guid)) {
    std::cout << " node" << addr;
  }
  std::cout << "\n\n";

  // One peer-set member turns Byzantine (equivocator).
  const auto peers = cluster.peer_set(guid);
  std::size_t byz_index = 0;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    if (cluster.host(i).address() == peers.back()) {
      byz_index = i;
      break;
    }
  }
  cluster.make_byzantine(byz_index, commit::Behaviour::kEquivocator);
  std::cout << "node" << peers.back()
            << " is Byzantine (votes and commits for everything)\n\n";

  // Two concurrent appends to the same history.
  const Pid alice = Pid::of(block_from("alice's edit"));
  const Pid bob = Pid::of(block_from("bob's edit"));
  int done = 0;
  const auto report = [&](const char* who) {
    return [&, who](const commit::CommitResult& r) {
      std::cout << who << ": "
                << (r.committed ? "committed" : "FAILED") << " after "
                << r.attempts << " attempt(s), "
                << static_cast<double>(r.latency) / 1000.0 << " ms\n";
      ++done;
    };
  };
  cluster.version_history().append(guid, alice, report("alice"));
  cluster.version_history().append(guid, bob, report("bob"));
  cluster.run();

  if (done != 2) {
    std::cout << "demo failed: not all appends completed\n";
    return 1;
  }

  // Read back the agreed history through the f+1 consistency rule.
  std::cout << "\nreading the agreed version history (f+1 rule):\n";
  bool read_ok = false;
  cluster.version_history().read(guid, [&](const HistoryReadResult& r) {
    read_ok = r.ok;
    std::cout << "  " << r.replies << " peers replied; agreed history: ";
    for (std::uint64_t v : r.versions) {
      std::cout << (v == alice.to_uint64()
                        ? "alice"
                        : v == bob.to_uint64() ? "bob" : "??")
                << " ";
    }
    std::cout << "\n";
  });
  cluster.run();

  // Show the commit protocol's internal traffic.
  std::cout << "\ncommit/abort events from the trace:\n";
  for (const obs::Event& e : cluster.events().stream()) {
    if (e.kind == obs::EventKind::kCommit ||
        e.kind == obs::EventKind::kAbort) {
      std::cout << "  [" << e.t << "us] node" << e.node << " "
                << obs::category(obs::View::kTrace, e.kind) << " "
                << obs::detail(obs::View::kTrace, e) << "\n";
    }
  }

  // Render the run as a sequence diagram (Mermaid; renders on GitHub).
  {
    sim::SequenceOptions options;
    options.max_events = 120;
    std::ofstream seq("version_commit_run.mmd");
    seq << sim::render_sequence_mermaid(cluster.events().stream(), options);
    std::cout << "\nwrote version_commit_run.mmd (sequence diagram of the "
                 "actual run)\n";
  }
  return read_ok ? 0 : 1;
}
