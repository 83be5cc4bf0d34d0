// A participating host: one network address serving both the storage
// data-plane (put/get/history) and the commit protocol control-plane.
//
// Mirrors the paper's architecture (Fig 1): every node runs the generic
// storage layer over the P2P layer; the version-history commit protocol
// executes among the nodes holding a GUID's replicas. Frames are
// demultiplexed by their leading byte: storage frames carry the 'S' magic,
// everything else goes to the commit peer. The host owns no durable state:
// the cluster attaches the node's journal to the peer directly.
#pragma once

#include <vector>

#include "commit/peer.hpp"
#include "obs/event.hpp"
#include "storage/storage_node.hpp"

namespace asa_repro::storage {

class NodeHost {
 public:
  NodeHost(sim::Network& network, sim::NodeAddr addr,
           const fsm::StateMachine& machine,
           commit::Behaviour behaviour = commit::Behaviour::kHonest,
           obs::EventRecorder* events = nullptr)
      : network_(network),
        addr_(addr),
        peer_(network, addr, {}, machine, behaviour, events,
              /*attach_to_network=*/false) {
    network_.attach(addr_,
                    [this](sim::NodeAddr from, std::string_view data) {
                      dispatch(from, data);
                    });
  }

  [[nodiscard]] sim::NodeAddr address() const { return addr_; }
  [[nodiscard]] StorageNode& store() { return store_; }
  [[nodiscard]] const StorageNode& store() const { return store_; }
  [[nodiscard]] commit::CommitPeer& peer() { return peer_; }
  [[nodiscard]] const commit::CommitPeer& peer() const { return peer_; }

  /// Take the host offline (crash): detaches from the network.
  void crash() { network_.detach(addr_); }

 private:
  void dispatch(sim::NodeAddr from, std::string_view data) {
    if (!data.empty() && data[0] == kStorageMagic) {
      handle_storage(from, data);
    } else {
      peer_.handle_frame(from, data);
    }
  }

  void handle_storage(sim::NodeAddr from, std::string_view data) {
    const std::optional<StorageFrame> frame = StorageFrame::parse(data);
    if (!frame.has_value()) return;
    switch (frame->op) {
      case StorageFrame::Op::kPut: {
        const Pid pid{frame->id};
        StorageFrame ack;
        ack.op = StorageFrame::Op::kPutAck;
        ack.ticket = frame->ticket;
        ack.id = frame->id;
        // A correct node verifies the content hash before acknowledging; a
        // corrupt one acknowledges regardless (it may serve garbage later,
        // which retrieval detects).
        const bool valid = store_.corrupt() || pid.matches(frame->payload);
        ack.status = (valid && store_.put(pid, frame->payload)) ? 1 : 0;
        network_.send(addr_, from, ack.serialize());
        break;
      }
      case StorageFrame::Op::kGet: {
        const Pid pid{frame->id};
        StorageFrame reply;
        reply.op = StorageFrame::Op::kGetReply;
        reply.ticket = frame->ticket;
        reply.id = frame->id;
        if (std::optional<Block> block = store_.get(pid); block.has_value()) {
          reply.status = 1;
          reply.payload = std::move(*block);
        }
        network_.send(addr_, from, reply.serialize());
        break;
      }
      case StorageFrame::Op::kHistoryGet: {
        StorageFrame reply;
        reply.op = StorageFrame::Op::kHistoryReply;
        reply.ticket = frame->ticket;
        reply.id = frame->id;
        reply.status = 1;
        // GUID digests key commit state by their low 64 bits.
        std::uint64_t guid_key = 0;
        for (int i = 0; i < 8; ++i) {
          guid_key = (guid_key << 8) | frame->id[frame->id.size() - 8 + i];
        }
        std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
        for (const auto& e : peer_.history(guid_key)) {
          entries.emplace_back(e.request_id, e.payload);
        }
        reply.payload = encode_history(entries);
        network_.send(addr_, from, reply.serialize());
        break;
      }
      case StorageFrame::Op::kPutAck:
      case StorageFrame::Op::kGetReply:
      case StorageFrame::Op::kHistoryReply:
        break;  // Replies are for clients, not hosts.
    }
  }

  sim::Network& network_;
  sim::NodeAddr addr_;
  StorageNode store_;
  commit::CommitPeer peer_;
};

}  // namespace asa_repro::storage
