// Peer-set member corner cases driven with hand-crafted frames: node-lock
// serialisation (free/not_free), abort and recovery, history import,
// instance release and acknowledgement, and Byzantine behaviour mechanics;
// plus contending clients driven through a whole peer set by real
// endpoints.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "commit/commit_model.hpp"
#include "commit/endpoint.hpp"
#include "commit/machine_cache.hpp"
#include "commit/peer.hpp"
#include "durable/durable_log.hpp"
#include "durable/storage_medium.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"

namespace asa_repro::commit {
namespace {

constexpr std::uint64_t kGuid = 5;

struct PeerHarness {
  explicit PeerHarness(std::uint32_t r = 4,
                       Behaviour behaviour = Behaviour::kHonest)
      : machine(cache.machine_for(r)),
        network(sched, sim::Rng(1), sim::LatencyModel{100, 100}) {
    std::vector<sim::NodeAddr> addrs;
    for (std::uint32_t i = 0; i < r; ++i) addrs.push_back(i);
    peer = std::make_unique<CommitPeer>(network, 0, addrs, machine,
                                        behaviour, &trace);
    // Capture the peer's outgoing traffic at the other addresses.
    for (std::uint32_t i = 1; i < r; ++i) {
      network.attach(i, [this, i](sim::NodeAddr, const std::string& data) {
        const auto msg = WireMessage::parse(data);
        if (msg.has_value()) outgoing[i].push_back(*msg);
      });
    }
    network.attach(100, [this](sim::NodeAddr, const std::string& data) {
      const auto msg = WireMessage::parse(data);
      if (msg.has_value()) client_inbox.push_back(*msg);
    });
  }

  void send(sim::NodeAddr from, WireMessage::Kind kind,
            std::uint64_t update_id, std::uint64_t request_id = 0) {
    WireMessage m{kind, kGuid, update_id,
                  request_id == 0 ? update_id : request_id, update_id * 10};
    network.send(from, 0, m.serialize());
    // Bounded advance: deliver the frame (100us latency) without firing
    // far-future timers such as abort scans.
    sched.run_until(sched.now() + 1'000);
  }

  /// Drive `update_id` to completion: the client's request, two peer
  /// votes (the threshold, with the local vote) and two peer commits.
  void commit_update(std::uint64_t update_id) {
    send(100, WireMessage::Kind::kUpdate, update_id);
    send(1, WireMessage::Kind::kVote, update_id);
    send(2, WireMessage::Kind::kVote, update_id);
    send(1, WireMessage::Kind::kCommit, update_id);
    send(2, WireMessage::Kind::kCommit, update_id);
  }

  std::size_t votes_sent_for(std::uint64_t update_id) const {
    std::size_t n = 0;
    for (const auto& [addr, msgs] : outgoing) {
      for (const auto& m : msgs) {
        if (m.kind == WireMessage::Kind::kVote && m.update_id == update_id) {
          ++n;
        }
      }
    }
    return n;
  }

  MachineCache cache;
  const fsm::StateMachine& machine;
  sim::Scheduler sched;
  sim::Network network;
  obs::EventRecorder trace{/*tracing=*/true, /*flight_capacity=*/0,
                           /*spans=*/true};
  std::unique_ptr<CommitPeer> peer;
  std::map<sim::NodeAddr, std::vector<WireMessage>> outgoing;
  std::vector<WireMessage> client_inbox;
};

TEST(Peer, UpdateWhileFreeVotesToAllOtherMembers) {
  PeerHarness h;
  h.send(100, WireMessage::Kind::kUpdate, 1);
  // One vote to each of the 3 other members, none to itself or the client.
  EXPECT_EQ(h.votes_sent_for(1), 3u);
  EXPECT_EQ(h.peer->stats().votes_sent, 1u);
}

TEST(Peer, SecondUpdateLockedOutUntilFirstFinishes) {
  PeerHarness h;
  h.send(100, WireMessage::Kind::kUpdate, 1);
  h.send(100, WireMessage::Kind::kUpdate, 2);
  // Update 2 arrived while update 1 holds the node lock: no vote for it.
  EXPECT_EQ(h.votes_sent_for(2), 0u);
  EXPECT_EQ(h.peer->live_instances(kGuid), 2u);

  // Drive update 1 to completion: 2 peer votes reach the threshold (with
  // the local vote), then 2 commits finish it.
  h.send(1, WireMessage::Kind::kVote, 1);
  h.send(2, WireMessage::Kind::kVote, 1);
  h.send(1, WireMessage::Kind::kCommit, 1);
  h.send(2, WireMessage::Kind::kCommit, 1);
  ASSERT_EQ(h.peer->history(kGuid).size(), 1u);
  // The freed lock passes to the pending update, which votes at once.
  EXPECT_EQ(h.votes_sent_for(2), 3u);
}

TEST(Peer, FreedLockPassesToTheFirstPendingUpdateOnly) {
  PeerHarness h;
  for (const std::uint64_t id : {1u, 2u, 3u}) {
    h.send(100, WireMessage::Kind::kUpdate, id);
  }
  // Update 1 holds the node lock; updates 2 and 3 wait behind it.
  EXPECT_EQ(h.votes_sent_for(2), 0u);
  EXPECT_EQ(h.votes_sent_for(3), 0u);

  h.send(1, WireMessage::Kind::kVote, 1);
  h.send(2, WireMessage::Kind::kVote, 1);
  h.send(1, WireMessage::Kind::kCommit, 1);
  h.send(2, WireMessage::Kind::kCommit, 1);
  ASSERT_EQ(h.peer->history(kGuid).size(), 1u);
  // The freed lock is offered in update-id order and the offer stops at
  // the first update that retakes it: update 2 votes, update 3 does not.
  EXPECT_EQ(h.votes_sent_for(2), 3u);
  EXPECT_EQ(h.votes_sent_for(3), 0u);
  EXPECT_EQ(h.peer->live_instances(kGuid), 2u);

  h.send(1, WireMessage::Kind::kVote, 2);
  h.send(2, WireMessage::Kind::kVote, 2);
  EXPECT_EQ(h.votes_sent_for(3), 0u);  // Still locked until 2 finishes.
  h.send(1, WireMessage::Kind::kCommit, 2);
  h.send(2, WireMessage::Kind::kCommit, 2);
  ASSERT_EQ(h.peer->history(kGuid).size(), 2u);
  EXPECT_EQ(h.votes_sent_for(3), 3u);
  EXPECT_EQ(h.peer->stats().votes_sent, 3u);
}

TEST(Peer, CompletionNotifiesTheClientOnce) {
  PeerHarness h;
  h.send(100, WireMessage::Kind::kUpdate, 1);
  h.send(1, WireMessage::Kind::kVote, 1);
  h.send(2, WireMessage::Kind::kVote, 1);
  h.send(1, WireMessage::Kind::kCommit, 1);
  h.send(2, WireMessage::Kind::kCommit, 1);
  ASSERT_EQ(h.client_inbox.size(), 1u);
  EXPECT_EQ(h.client_inbox[0].kind, WireMessage::Kind::kCommitted);
  EXPECT_EQ(h.client_inbox[0].update_id, 1u);
  // A resent update for the finished attempt is re-acknowledged (the
  // original notification may have been lost).
  h.send(100, WireMessage::Kind::kUpdate, 1);
  EXPECT_EQ(h.client_inbox.size(), 2u);
  // But unrelated traffic is not.
  h.send(1, WireMessage::Kind::kVote, 1);
  EXPECT_EQ(h.client_inbox.size(), 2u);
}

TEST(Peer, AbortFreesTheLockForPendingUpdates) {
  PeerHarness h;
  h.peer->enable_abort(5'000, 8'000);
  h.send(100, WireMessage::Kind::kUpdate, 1);  // Chooses, locks the node.
  h.send(100, WireMessage::Kind::kUpdate, 2);  // Pending.
  EXPECT_EQ(h.votes_sent_for(2), 0u);
  // No votes ever arrive for update 1: it stalls and is aborted.
  h.sched.run_until(h.sched.now() + 40'000);
  EXPECT_GE(h.peer->stats().aborted, 1u);
  // Update 2 inherited the lock and voted... unless it was aborted too
  // (both exceeded max_age). Verify via the lock: a THIRD update arriving
  // now must vote immediately.
  h.send(100, WireMessage::Kind::kUpdate, 3);
  EXPECT_EQ(h.votes_sent_for(3), 3u);
}

TEST(Peer, AdoptionIntoAnEmptyHistoryIsVerbatim) {
  PeerHarness h;
  const std::vector<CommitPeer::CommittedEntry> entries = {{10, 10, 100},
                                                           {11, 11, 110}};
  EXPECT_EQ(h.peer->reconcile_history(kGuid, entries), 2u);
  EXPECT_EQ(h.peer->history(kGuid), entries);
}

TEST(Peer, CrashBehaviourIsSilent) {
  PeerHarness h(4, Behaviour::kCrash);
  h.send(100, WireMessage::Kind::kUpdate, 1);
  h.send(1, WireMessage::Kind::kVote, 1);
  EXPECT_TRUE(h.outgoing.empty() ||
              (h.outgoing[1].empty() && h.outgoing[2].empty()));
  EXPECT_TRUE(h.client_inbox.empty());
  EXPECT_EQ(h.peer->stats().votes_sent, 0u);
}

TEST(Peer, EquivocatorBlastsOncePerUpdate) {
  PeerHarness h(4, Behaviour::kEquivocator);
  h.send(1, WireMessage::Kind::kVote, 7);
  h.send(2, WireMessage::Kind::kVote, 7);  // Same update: no second blast.
  std::size_t votes = 0, commits = 0;
  for (const auto& [addr, msgs] : h.outgoing) {
    for (const auto& m : msgs) {
      votes += m.kind == WireMessage::Kind::kVote;
      commits += m.kind == WireMessage::Kind::kCommit;
    }
  }
  EXPECT_EQ(votes, 3u);    // One vote to each other member.
  EXPECT_EQ(commits, 3u);  // One commit to each other member.
}

TEST(Peer, WithholderOnlyReachesLowerHalf) {
  PeerHarness h(4, Behaviour::kWithholder);
  h.send(100, WireMessage::Kind::kUpdate, 1);
  // Peers are {0,1,2,3}; the withholder (0) sends votes only to the lower
  // half of the OTHER members by rank: ranks of 1,2,3 are 1,2,3; size/2=2,
  // so only rank<2 receives, i.e. peer 1.
  EXPECT_EQ(h.outgoing[1].size(), 1u);
  EXPECT_TRUE(h.outgoing[2].empty());
  EXPECT_TRUE(h.outgoing[3].empty());
}

TEST(Peer, SettledInstanceIsReleasedAtOnce) {
  PeerHarness h;
  h.commit_update(1);
  ASSERT_EQ(h.peer->history(kGuid).size(), 1u);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 0u);

  // A straggler vote for the settled update is counted and absorbed: it
  // does not resurrect the instance or draw a second vote.
  const PeerStats before = h.peer->stats();
  h.send(3, WireMessage::Kind::kVote, 1);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 0u);
  EXPECT_EQ(h.peer->stats().votes_received, before.votes_received + 1);
  EXPECT_EQ(h.peer->stats().votes_sent, before.votes_sent);
  // A resent update request is re-confirmed from the settled record.
  const std::size_t inbox = h.client_inbox.size();
  h.send(100, WireMessage::Kind::kUpdate, 1);
  ASSERT_EQ(h.client_inbox.size(), inbox + 1);
  EXPECT_EQ(h.client_inbox.back().kind, WireMessage::Kind::kCommitted);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 0u);
  EXPECT_EQ(h.peer->history(kGuid).size(), 1u);
}

TEST(Peer, LiveInstanceStaysResident) {
  PeerHarness h;
  h.send(100, WireMessage::Kind::kUpdate, 1);  // In progress.
  h.send(1, WireMessage::Kind::kVote, 1);
  EXPECT_EQ(h.peer->live_instances(kGuid), 1u);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 1u);
}

TEST(Peer, VetoedInstanceStaysResidentUntilTheRetryRecordsIt) {
  durable::MemMedium disk;  // Declared first: the journal outlives the peer.
  durable::DurableLog journal(disk, "peer", /*snapshot_every=*/0);
  PeerHarness h;
  h.peer->set_journal(&journal);
  disk.set_stalled(true);
  h.commit_update(1);
  // Finished but unrecorded: kept for the retry, not acknowledged.
  EXPECT_TRUE(h.peer->history(kGuid).empty());
  EXPECT_EQ(h.peer->live_instances(kGuid), 0u);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 1u);
  EXPECT_TRUE(h.client_inbox.empty());

  disk.set_stalled(false);
  h.send(100, WireMessage::Kind::kUpdate, 1);  // The client's retry.
  EXPECT_EQ(h.peer->history(kGuid).size(), 1u);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 0u);
  ASSERT_EQ(h.client_inbox.size(), 1u);
  EXPECT_EQ(h.client_inbox[0].kind, WireMessage::Kind::kCommitted);
}

TEST(Peer, ResentUpdateToAVetoedInstanceMakesOneAppendAttempt) {
  durable::MemMedium disk;  // Declared first: the journal outlives the peer.
  durable::DurableLog journal(disk, "peer", /*snapshot_every=*/0);
  PeerHarness h;
  h.peer->set_journal(&journal);
  disk.set_stalled(true);
  h.commit_update(1);
  ASSERT_EQ(journal.writer_stats().append_failures, 1u);
  // The cascade's finish hook offers the vetoed instance to the journal
  // once per delivery; the resend must not add a second attempt.
  h.send(100, WireMessage::Kind::kUpdate, 1);
  EXPECT_EQ(journal.writer_stats().append_failures, 2u);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 1u);
  EXPECT_TRUE(h.client_inbox.empty());
}

TEST(Peer, ImportedHistoryAbsorbsLateTraffic) {
  PeerHarness h;
  ASSERT_EQ(h.peer->reconcile_history(kGuid, {{1, 1, 10}}), 1u);
  for (const sim::NodeAddr from : {1u, 2u, 3u}) {
    h.send(from, WireMessage::Kind::kVote, 1);
  }
  h.send(1, WireMessage::Kind::kCommit, 1);
  h.send(2, WireMessage::Kind::kCommit, 1);
  // The imported update is settled: nothing re-runs, nothing is recorded
  // twice, nothing is sent.
  EXPECT_EQ(h.peer->history(kGuid).size(), 1u);
  EXPECT_EQ(h.peer->stats().votes_sent, 0u);
  EXPECT_EQ(h.peer->stats().commits_sent, 0u);
  EXPECT_TRUE(h.outgoing.empty());
  EXPECT_EQ(h.peer->resident_instances(kGuid), 0u);
}

// ---- One acknowledgement path for live and settled updates ----

TEST(PeerAck, ResentUpdateAfterSettleFiresTheAckSinkAgain) {
  PeerHarness h;
  std::vector<CommitPeer::CommittedEntry> acked;
  h.peer->set_ack_sink(
      [&](std::uint64_t guid, const CommitPeer::CommittedEntry& e) {
        EXPECT_EQ(guid, kGuid);
        acked.push_back(e);
      });
  h.commit_update(1);
  ASSERT_EQ(acked.size(), 1u);
  h.send(100, WireMessage::Kind::kUpdate, 1);
  ASSERT_EQ(acked.size(), 2u);
  EXPECT_EQ(acked[1], acked[0]);
  EXPECT_EQ(acked[1], (CommitPeer::CommittedEntry{1, 1, 10}));
  ASSERT_EQ(h.client_inbox.size(), 2u);
  EXPECT_EQ(h.client_inbox[1].kind, WireMessage::Kind::kCommitted);
  EXPECT_EQ(h.client_inbox[1].update_id, 1u);
  EXPECT_EQ(h.client_inbox[1].request_id, 1u);
  EXPECT_EQ(h.client_inbox[1].payload, 10u);
}

/// The peer's spans as exported: the asa-span/1 objects in id order.
std::vector<obs::JsonValue> exported_spans(const PeerHarness& h) {
  const auto doc = obs::parse_json(obs::write_spans_json(h.trace, {}));
  EXPECT_TRUE(doc.has_value());
  return doc.has_value() ? doc->find("spans")->items()
                         : std::vector<obs::JsonValue>{};
}

std::uint64_t field(const obs::JsonValue& span, const char* key) {
  return static_cast<std::uint64_t>(span.find(key)->as_int());
}

/// The id of the update's quorum span (0 if none) and its ack-sent
/// points' parents.
std::pair<std::uint64_t, std::vector<std::uint64_t>> quorum_and_acks(
    const PeerHarness& h, std::uint64_t update_id) {
  std::uint64_t quorum = 0;
  std::vector<std::uint64_t> ack_parents;
  for (const obs::JsonValue& span : exported_spans(h)) {
    if (field(span, "update") != update_id) continue;
    const std::string& name = span.find("name")->as_string();
    if (name == "quorum") quorum = field(span, "id");
    if (name == "ack-sent") ack_parents.push_back(field(span, "parent"));
  }
  return {quorum, ack_parents};
}

TEST(PeerAck, ResentUpdateAfterSettleEmitsAckSentUnderTheQuorumSpan) {
  PeerHarness h;
  h.commit_update(1);
  h.send(100, WireMessage::Kind::kUpdate, 1);

  const auto [quorum, ack_parents] = quorum_and_acks(h, 1);
  ASSERT_NE(quorum, 0u);
  EXPECT_EQ(ack_parents, (std::vector<std::uint64_t>{quorum, quorum}));
}

// An aborted instance's quorum span parents nothing: once the update is
// adopted from a donor, its re-acknowledgement hangs under no quorum.
TEST(PeerAck, AckAfterAnAbortedQuorumAndAdoptionHasNoParent) {
  PeerHarness h;
  h.peer->enable_abort(5'000, 8'000);
  h.send(100, WireMessage::Kind::kUpdate, 1);
  h.send(1, WireMessage::Kind::kVote, 1);
  h.send(2, WireMessage::Kind::kVote, 1);  // Commit broadcast: quorum open.
  ASSERT_EQ(h.peer->stats().commits_sent, 1u);
  h.sched.run_until(h.sched.now() + 40'000);  // No commits arrive.
  ASSERT_EQ(h.peer->stats().aborted, 1u);
  ASSERT_EQ(h.peer->reconcile_history(kGuid, {{1, 1, 10}}), 1u);
  h.send(100, WireMessage::Kind::kUpdate, 1);
  ASSERT_EQ(h.client_inbox.size(), 1u);

  const auto [quorum, ack_parents] = quorum_and_acks(h, 1);
  ASSERT_NE(quorum, 0u);
  EXPECT_EQ(exported_spans(h)[quorum - 1].find("detail")->as_string(),
            "abort");
  EXPECT_EQ(ack_parents, (std::vector<std::uint64_t>{0}));
}

TEST(PeerAck, ReconcileSettledUpdateIsAcknowledgedThroughTheLedger) {
  // The restart path: a recovering node adopts the agreed history, then a
  // client's resent update for one of its entries arrives.
  PeerHarness h;
  std::vector<CommitPeer::CommittedEntry> acked;
  h.peer->set_ack_sink(
      [&](std::uint64_t, const CommitPeer::CommittedEntry& e) {
        acked.push_back(e);
      });
  ASSERT_EQ(h.peer->reconcile_history(kGuid, {{1, 1, 10}}), 1u);

  h.send(100, WireMessage::Kind::kUpdate, 1);
  EXPECT_EQ(acked, (std::vector<CommitPeer::CommittedEntry>{{1, 1, 10}}));
  ASSERT_EQ(h.client_inbox.size(), 1u);
  EXPECT_EQ(h.client_inbox[0].kind, WireMessage::Kind::kCommitted);
  const std::vector<obs::JsonValue> spans = exported_spans(h);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].find("name")->as_string(), "ack-sent");
  EXPECT_EQ(field(spans[0], "parent"), 0u);  // No local quorum span.
  EXPECT_TRUE(h.outgoing.empty());
  EXPECT_EQ(h.peer->resident_instances(kGuid), 0u);
}

// ---- Abort scan against eager release ----

/// A machine whose locked instance finishes on `free`: it lets the abort
/// scan's lock release complete, record and release a sibling in the
/// middle of the scan. start --update--> chosen [vote, not_free] stalls;
/// start --not_free--> locked; locked --free--> done.
fsm::StateMachine finishes_on_free_machine() {
  std::vector<std::string> messages(kMessageNames,
                                    kMessageNames + kMessageCount);
  std::vector<fsm::State> states(4);
  states[0].name = "start";
  states[0].transitions = {{kUpdate, {kActionVote, kActionNotFree}, 1, {}},
                           {kNotFree, {}, 2, {}}};
  states[1].name = "chosen";
  states[2].name = "locked";
  states[2].transitions = {{kUpdate, {}, 2, {}}, {kFree, {}, 3, {}}};
  states[3].name = "done";
  states[3].is_final = true;
  return fsm::StateMachine(std::move(messages), std::move(states), 0, 3);
}

TEST(PeerAbort, ScanSurvivesASiblingReleasedByTheFreedLock) {
  const fsm::StateMachine machine = finishes_on_free_machine();
  sim::Scheduler sched;
  sim::Network network(sched, sim::Rng(1), sim::LatencyModel{100, 100});
  const std::vector<sim::NodeAddr> addrs{0, 1, 2, 3};
  CommitPeer peer(network, 0, addrs, machine);
  std::vector<WireMessage> client_inbox;
  network.attach(100, [&](sim::NodeAddr, const std::string& data) {
    if (const auto msg = WireMessage::parse(data)) client_inbox.push_back(*msg);
  });
  peer.enable_abort(5'000, 8'000);
  // Update 1 chooses and holds the lock; updates 2 and 3 are locked out.
  for (const std::uint64_t id : {1u, 2u, 3u}) {
    network.send(100, 0,
                 WireMessage{WireMessage::Kind::kUpdate, kGuid, id, id,
                             id * 10}
                     .serialize());
  }
  sched.run_until(1'000);
  ASSERT_EQ(peer.live_instances(kGuid), 3u);

  // All three are stalled by the 10 ms scan. Aborting lock holder 1 frees
  // updates 2 and 3 (neither retakes the lock), which finish, record and
  // are released before the scan reaches them.
  sched.run_until(12'000);
  EXPECT_EQ(peer.stats().aborted, 1u);
  EXPECT_EQ(peer.resident_instances(kGuid), 0u);
  ASSERT_EQ(peer.history(kGuid).size(), 2u);
  EXPECT_EQ(peer.history(kGuid)[0].update_id, 2u);
  EXPECT_EQ(peer.history(kGuid)[1].update_id, 3u);
  EXPECT_EQ(client_inbox.size(), 2u);
}

TEST(Peer, HistoryForUnknownGuidIsEmpty) {
  PeerHarness h;
  EXPECT_TRUE(h.peer->history(999).empty());
  EXPECT_EQ(h.peer->live_instances(999), 0u);
}

TEST(Peer, DedupHoldsPastTheInlineSenderCapacity) {
  // Sixteen distinct voters (a wide set, or members changing mid-update)
  // overflow the inline sender slots; a repeat is still one vote.
  PeerHarness h;
  h.send(100, WireMessage::Kind::kUpdate, 1);
  for (sim::NodeAddr voter = 1; voter <= 16; ++voter) {
    h.send(voter, WireMessage::Kind::kVote, 1);
  }
  EXPECT_EQ(h.peer->stats().duplicates_dropped, 0u);
  h.send(1, WireMessage::Kind::kVote, 1);   // Held inline.
  h.send(16, WireMessage::Kind::kVote, 1);  // Held in the overflow.
  EXPECT_EQ(h.peer->stats().duplicates_dropped, 2u);
  EXPECT_EQ(h.peer->stats().votes_received, 18u);
}

/// Votes the harness peer broadcasts for one update of `guid`, by
/// recipient, after installing `resolver`.
template <class Resolver>
std::map<sim::NodeAddr, std::size_t> votes_by_recipient(std::uint64_t guid,
                                                        Resolver resolver) {
  PeerHarness h;
  h.peer->set_peer_resolver(std::move(resolver));
  h.network.send(100, 0,
                 WireMessage{WireMessage::Kind::kUpdate, guid, 1, 1, 10}
                     .serialize());
  h.sched.run_until(h.sched.now() + 1'000);
  std::map<sim::NodeAddr, std::size_t> votes;
  for (const auto& [addr, msgs] : h.outgoing) votes[addr] = msgs.size();
  return votes;
}

TEST(Peer, ResolverBySetReferenceOrByValueReachesTheGuidsSet) {
  const std::map<std::uint64_t, std::vector<sim::NodeAddr>> sets = {
      {5, {0, 1, 2}}, {6, {3, 0, 2}}};
  const auto by_reference =
      [&sets](std::uint64_t guid) -> const std::vector<sim::NodeAddr>& {
    return sets.at(guid);
  };
  const auto by_value = [&sets](std::uint64_t guid) { return sets.at(guid); };
  using Votes = std::map<sim::NodeAddr, std::size_t>;
  EXPECT_EQ(votes_by_recipient(5, by_reference), (Votes{{1, 1}, {2, 1}}));
  EXPECT_EQ(votes_by_recipient(6, by_reference), (Votes{{2, 1}, {3, 1}}));
  EXPECT_EQ(votes_by_recipient(5, by_value), (Votes{{1, 1}, {2, 1}}));
  EXPECT_EQ(votes_by_recipient(6, by_value), (Votes{{2, 1}, {3, 1}}));
}

// ---- Contending clients through the whole peer set ----

/// Four peers with stall aborts on, and `clients` endpoints each racing
/// one update for the same GUID. Returns the committed clients; every
/// peer's history must be the same.
int run_contention(std::uint64_t seed, int clients) {
  MachineCache cache;
  const fsm::StateMachine& machine = cache.machine_for(4);
  sim::Scheduler sched;
  sim::Network network(sched, sim::Rng(seed), sim::LatencyModel{500, 5'000});
  const std::vector<sim::NodeAddr> addrs{0, 1, 2, 3};
  std::vector<std::unique_ptr<CommitPeer>> peers;
  for (const sim::NodeAddr a : addrs) {
    peers.push_back(std::make_unique<CommitPeer>(network, a, addrs, machine));
    peers.back()->enable_abort(50'000, 60'000);
  }

  RetryPolicy policy;
  policy.base_timeout = 70'000;
  policy.max_attempts = 20;
  int committed = 0;
  std::vector<std::unique_ptr<CommitEndpoint>> endpoints;
  for (int c = 0; c < clients; ++c) {
    endpoints.push_back(std::make_unique<CommitEndpoint>(
        network, static_cast<sim::NodeAddr>(100 + c), addrs,
        EndpointAbstraction::deployed(1, policy), policy,
        sim::Rng(seed * 31 + c)));
    endpoints.back()->submit(kGuid, 7'000 + c, [&](const CommitResult& r) {
      committed += r.committed ? 1 : 0;
    });
  }
  sched.run();
  for (const auto& p : peers) {
    EXPECT_EQ(p->history(kGuid), peers.front()->history(kGuid));
  }
  return committed;
}

class PeerContention : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeerContention, EveryClientCommits) {
  for (const int clients : {1, 3}) {
    EXPECT_EQ(run_contention(GetParam(), clients), clients)
        << clients << " client(s)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeerContention,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

}  // namespace
}  // namespace asa_repro::commit
