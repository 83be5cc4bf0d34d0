// The NodeHost frame mux and storage data-plane: PUT validation, GET
// replies, history serving from the commit peer, and crash behaviour.
#include <gtest/gtest.h>

#include <memory>

#include "commit/machine_cache.hpp"
#include "storage/node_host.hpp"

namespace asa_repro::storage {
namespace {

struct HostHarness {
  HostHarness()
      : machine(cache.machine_for(4)),
        network(sched, sim::Rng(4), sim::LatencyModel{100, 100}),
        host(network, 0, machine) {
    network.attach(50, [this](sim::NodeAddr, const std::string& data) {
      if (const auto f = StorageFrame::parse(data); f.has_value()) {
        storage_replies.push_back(*f);
      }
      if (const auto m = commit::WireMessage::parse(data); m.has_value()) {
        commit_replies.push_back(*m);
      }
    });
  }

  StorageFrame request(StorageFrame frame) {
    const std::size_t before = storage_replies.size();
    network.send(50, 0, frame.serialize());
    sched.run();
    EXPECT_GT(storage_replies.size(), before);
    return storage_replies.back();
  }

  commit::MachineCache cache;
  const fsm::StateMachine& machine;
  sim::Scheduler sched;
  sim::Network network;
  NodeHost host;
  std::vector<StorageFrame> storage_replies;
  std::vector<commit::WireMessage> commit_replies;
};

TEST(NodeHost, PutStoresVerifiedContent) {
  HostHarness h;
  const Block data = block_from("verified put");
  StorageFrame put;
  put.op = StorageFrame::Op::kPut;
  put.ticket = 7;
  put.id = Pid::of(data).digest();
  put.payload = data;
  const StorageFrame ack = h.request(put);
  EXPECT_EQ(ack.op, StorageFrame::Op::kPutAck);
  EXPECT_EQ(ack.ticket, 7u);
  EXPECT_EQ(ack.status, 1u);
  EXPECT_TRUE(h.host.store().holds_intact(Pid::of(data)));
}

TEST(NodeHost, PutRejectsContentHashMismatch) {
  HostHarness h;
  StorageFrame put;
  put.op = StorageFrame::Op::kPut;
  put.ticket = 8;
  put.id = Pid::of(block_from("claimed")).digest();
  put.payload = block_from("actual");  // Does not hash to the PID.
  const StorageFrame ack = h.request(put);
  EXPECT_EQ(ack.status, 0u);
  EXPECT_EQ(h.host.store().block_count(), 0u);
}

TEST(NodeHost, GetReturnsBlockOrMiss) {
  HostHarness h;
  const Block data = block_from("fetch me");
  const Pid pid = Pid::of(data);
  h.host.store().put(pid, data);

  StorageFrame get;
  get.op = StorageFrame::Op::kGet;
  get.ticket = 9;
  get.id = pid.digest();
  const StorageFrame reply = h.request(get);
  EXPECT_EQ(reply.op, StorageFrame::Op::kGetReply);
  EXPECT_EQ(reply.status, 1u);
  EXPECT_EQ(reply.payload, data);

  get.id = Pid::of(block_from("unknown")).digest();
  get.ticket = 10;
  const StorageFrame miss = h.request(get);
  EXPECT_EQ(miss.status, 0u);
  EXPECT_TRUE(miss.payload.empty());
}

TEST(NodeHost, HistoryGetServesCommittedEntries) {
  HostHarness h;
  const Guid guid = Guid::named("hosted");
  h.host.peer().reconcile_history(guid.to_uint64(),
                                  {{1, 11, 111}, {2, 22, 222}});
  StorageFrame hist;
  hist.op = StorageFrame::Op::kHistoryGet;
  hist.ticket = 11;
  hist.id = guid.digest();
  const StorageFrame reply = h.request(hist);
  EXPECT_EQ(reply.op, StorageFrame::Op::kHistoryReply);
  const auto entries = decode_history(reply.payload);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], (std::pair<std::uint64_t, std::uint64_t>{11, 111}));
  EXPECT_EQ(entries[1], (std::pair<std::uint64_t, std::uint64_t>{22, 222}));
}

TEST(NodeHost, CommitFramesRouteToPeer) {
  HostHarness h;
  const commit::WireMessage update{commit::WireMessage::Kind::kUpdate, 5, 9,
                                   9, 90};
  h.network.send(50, 0, update.serialize());
  h.sched.run();
  EXPECT_EQ(h.host.peer().stats().updates_received, 1u);
  // The peer voted (broadcasts go to its configured peer set; here the
  // peer list is empty, so only stats move).
  EXPECT_EQ(h.host.peer().stats().votes_sent, 1u);
}

TEST(NodeHost, GarbageFramesIgnored) {
  HostHarness h;
  h.network.send(50, 0, "S");           // Truncated storage frame.
  h.network.send(50, 0, "??");          // Neither protocol.
  h.network.send(50, 0, std::string()); // Empty.
  h.sched.run();
  EXPECT_TRUE(h.storage_replies.empty());
  EXPECT_EQ(h.host.peer().stats().updates_received, 0u);
}

TEST(NodeHost, CrashDetachesFromNetwork) {
  HostHarness h;
  h.host.crash();
  StorageFrame get;
  get.op = StorageFrame::Op::kGet;
  get.ticket = 12;
  get.id = Pid::of(block_from("x")).digest();
  const std::size_t before = h.storage_replies.size();
  h.network.send(50, 0, get.serialize());
  h.sched.run();
  EXPECT_EQ(h.storage_replies.size(), before);
  EXPECT_GT(h.network.stats().to_dead_node, 0u);
}

}  // namespace
}  // namespace asa_repro::storage
