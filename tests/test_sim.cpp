// Discrete-event simulation substrate: scheduler ordering and cancellation,
// network latency/drop/partition behaviour, deterministic RNG, tracing.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/event.hpp"
#include "sim/network.hpp"
#include "sim/sequence.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "storage/storage_messages.hpp"

namespace asa_repro::sim {
namespace {

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(30, [&] { order.push_back(3); });
  sched.schedule_at(10, [&] { order.push_back(1); });
  sched.schedule_at(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30u);
}

TEST(Scheduler, TiesBreakByScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler sched;
  Time fired_at = 0;
  sched.schedule_at(50, [&] {
    sched.schedule_after(25, [&] { fired_at = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired_at, 75u);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  const auto id = sched.schedule_at(10, [&] { fired = true; });
  sched.cancel(id);
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelUnknownIdIsNoOp) {
  Scheduler sched;
  sched.cancel(424242);
  bool fired = false;
  sched.schedule_at(1, [&] { fired = true; });
  sched.run();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  std::vector<Time> fired;
  for (Time t : {10u, 20u, 30u, 40u}) {
    sched.schedule_at(t, [&fired, &sched] { fired.push_back(sched.now()); });
  }
  EXPECT_EQ(sched.run_until(25), 2u);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20}));
  EXPECT_EQ(sched.pending(), 2u);
  sched.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) sched.schedule_after(5, tick);
  };
  sched.schedule_at(0, tick);
  sched.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sched.now(), 45u);
}

TEST(Scheduler, MaxEventsBoundsRunawayLoops) {
  Scheduler sched;
  std::function<void()> forever = [&] { sched.schedule_after(1, forever); };
  sched.schedule_at(0, forever);
  EXPECT_EQ(sched.run(100), 100u);
}

// ---- RNG. ----

TEST(Rng, DeterministicForSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.range(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  // The fork must not replay the parent's stream.
  Rng reference(42);
  (void)reference();  // Parent consumed one value to fork.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (child() == reference()) ++same;
  }
  EXPECT_LT(same, 3);
}

// ---- Network. ----

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(sched_, Rng(5), LatencyModel{100, 500}) {}
  Scheduler sched_;
  Network network_;
};

TEST_F(NetworkTest, DeliversWithinLatencyBounds) {
  Time delivered_at = 0;
  network_.attach(2, [&](NodeAddr from, const std::string& payload) {
    EXPECT_EQ(from, 1u);
    EXPECT_EQ(payload, "hello");
    delivered_at = sched_.now();
  });
  network_.send(1, 2, "hello");
  sched_.run();
  EXPECT_GE(delivered_at, 100u);
  EXPECT_LE(delivered_at, 500u);
  EXPECT_EQ(network_.stats().delivered, 1u);
}

TEST_F(NetworkTest, MessagesToDetachedNodeDropped) {
  network_.send(1, 9, "into the void");
  sched_.run();
  EXPECT_EQ(network_.stats().to_dead_node, 1u);
  EXPECT_EQ(network_.stats().delivered, 0u);
}

TEST_F(NetworkTest, DetachStopsDelivery) {
  int received = 0;
  network_.attach(2, [&](NodeAddr, const std::string&) { ++received; });
  network_.send(1, 2, "a");
  sched_.run();
  network_.detach(2);
  network_.send(1, 2, "b");
  sched_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, DropProbabilityLosesRoughlyThatFraction) {
  int received = 0;
  network_.attach(2, [&](NodeAddr, const std::string&) { ++received; });
  network_.set_drop_probability(0.5);
  for (int i = 0; i < 1000; ++i) network_.send(1, 2, "x");
  sched_.run();
  EXPECT_GT(received, 350);
  EXPECT_LT(received, 650);
  EXPECT_EQ(network_.stats().dropped + network_.stats().delivered, 1000u);
}

// The network-wide loss and duplication rates share set_link_profile's
// range check: a rate outside [0,1] is refused and the old rate stays.
TEST_F(NetworkTest, ProbabilitySettersRejectValuesOutsideUnitInterval) {
  for (const double bad : {-1.0, -0.01, 1.5, 2.0}) {
    EXPECT_THROW(network_.set_drop_probability(bad), std::invalid_argument)
        << bad;
    EXPECT_THROW(network_.set_duplicate_probability(bad),
                 std::invalid_argument)
        << bad;
  }
  network_.set_drop_probability(0.0);
  network_.set_duplicate_probability(1.0);
  int received = 0;
  network_.attach(2, [&](NodeAddr, const std::string&) { ++received; });
  network_.send(1, 2, "x");
  sched_.run();
  EXPECT_EQ(received, 2);
}

TEST_F(NetworkTest, DuplicationDeliversTwice) {
  int received = 0;
  network_.attach(2, [&](NodeAddr, const std::string&) { ++received; });
  network_.set_duplicate_probability(1.0);
  for (int i = 0; i < 50; ++i) network_.send(1, 2, "x");
  sched_.run();
  EXPECT_EQ(received, 100);
  EXPECT_EQ(network_.stats().duplicated, 50u);
}

TEST_F(NetworkTest, PartitionIsDirected) {
  int a_got = 0, b_got = 0;
  network_.attach(1, [&](NodeAddr, const std::string&) { ++a_got; });
  network_.attach(2, [&](NodeAddr, const std::string&) { ++b_got; });
  network_.partition(1, 2);
  network_.send(1, 2, "lost");
  network_.send(2, 1, "arrives");
  sched_.run();
  EXPECT_EQ(b_got, 0);
  EXPECT_EQ(a_got, 1);
  EXPECT_EQ(network_.stats().partitioned, 1u);
}

TEST_F(NetworkTest, HealRestoresDelivery) {
  int received = 0;
  network_.attach(2, [&](NodeAddr, const std::string&) { ++received; });
  network_.partition_bidirectional(1, 2);
  network_.send(1, 2, "lost");
  network_.heal(1, 2);
  network_.send(1, 2, "arrives");
  sched_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, ReorderingIsPossible) {
  // With per-message latency sampling, two messages can arrive out of send
  // order; check it actually happens over many trials.
  std::vector<int> arrivals;
  network_.attach(2, [&](NodeAddr, const std::string& p) {
    arrivals.push_back(std::stoi(p));
  });
  for (int i = 0; i < 100; ++i) network_.send(1, 2, std::to_string(i));
  sched_.run();
  EXPECT_EQ(arrivals.size(), 100u);
  EXPECT_FALSE(std::is_sorted(arrivals.begin(), arrivals.end()));
}

// A link's state lives in an open-addressing table that moves every entry
// when it grows. Profiled, partitioned and healed links must come through
// thousands of new links exactly as they would without them: per-link RNG
// substreams make the drop pattern and every delay comparable bit for bit.
TEST_F(NetworkTest, LinkStateSurvivesTableGrowth) {
  struct Observed {
    std::vector<std::pair<int, Time>> arrivals;  // (sequence, delay).
    std::vector<bool> bad_state;                 // Link 1->2 per phase.
    std::vector<std::string> classes;
    NetworkStats stats;
  };
  const auto observe = [](bool crowd) {
    Scheduler sched;
    Network net(sched, Rng(77), LatencyModel{100, 5'000});
    LinkProfile bursty = *link_profile("wan");
    bursty.name = "bursty";
    bursty.loss_bad = 0.9;
    bursty.p_good_to_bad = 0.05;
    net.set_link_profile(1, 2, *link_profile("wan"));
    net.set_link_profile(2, 1, bursty);
    net.set_link_profile(3, 4, *link_profile("sat"));
    net.partition(5, 6);
    net.partition(6, 5);
    Observed seen;
    Time phase_start = 0;
    for (const NodeAddr addr : {1u, 2u, 4u, 5u, 6u}) {
      net.attach(addr, [&seen, &sched, &phase_start, addr](
                           NodeAddr from, std::string_view payload) {
        seen.arrivals.emplace_back(
            static_cast<int>(from * 100'000 + addr * 10'000) +
                std::stoi(std::string(payload)),
            sched.now() - phase_start);
      });
    }
    const auto phase = [&](int base) {
      phase_start = sched.now();
      for (int i = 0; i < 400; ++i) {
        const std::string seq = std::to_string(base + i);
        net.send(1, 2, seq);
        net.send(2, 1, seq);
        net.send(3, 4, seq);
        net.send(5, 6, seq);
      }
      sched.run();
      seen.bad_state.push_back(net.link_in_bad_state(1, 2));
      seen.bad_state.push_back(net.link_in_bad_state(2, 1));
      for (const auto& [from, to] : {std::pair{1u, 2u}, {2u, 1u}, {3u, 4u},
                                     {5u, 6u}, {4u, 3u}}) {
        seen.classes.push_back(net.link_class(from, to));
      }
    };
    phase(0);
    if (crowd) {
      // Thousands of fresh links, to dead nodes, force several doublings.
      for (NodeAddr from = 1'000; from < 4'000; ++from) {
        net.send(from, from + 10'000, "noise");
      }
      sched.run();
    }
    net.heal(5, 6);
    phase(1'000);
    net.clear_link_profile(3, 4);
    phase(2'000);
    seen.stats = net.stats();
    if (crowd) {
      seen.stats.sent -= 3'000;
      seen.stats.to_dead_node -= 3'000;
    }
    return seen;
  };
  const Observed plain = observe(false);
  const Observed crowded = observe(true);
  EXPECT_EQ(plain.arrivals, crowded.arrivals);
  EXPECT_EQ(plain.bad_state, crowded.bad_state);
  EXPECT_EQ(plain.classes, crowded.classes);
  EXPECT_EQ(plain.stats, crowded.stats);
  // The scenario exercised what it claims: burst losses, a partition that
  // held through growth and healed after it, and the installed classes.
  EXPECT_GT(plain.stats.burst_dropped, 0u);
  EXPECT_EQ(plain.stats.partitioned, 400u);
  EXPECT_EQ(plain.classes[0], "wan");
  EXPECT_EQ(plain.classes[1], "bursty");
  EXPECT_EQ(plain.classes[2], "sat");
  EXPECT_EQ(plain.classes[12], "default");  // 3->4 after clear.
}

// A payload is held in place up to Payload::kInline bytes and spills past
// that. Frames on both sides of the boundary, and a multi-KB history
// reply, must arrive byte-exact through scheduled delivery, duplicate
// copies and manual mode, to handlers that read a std::string_view and to
// handlers that read a const std::string&.
TEST_F(NetworkTest, PayloadsRoundTripAcrossTheInlineBoundary) {
  const auto bytes = [](std::size_t n, int salt) {
    std::string out(n, '\0');
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<char>((i * 37 + static_cast<std::size_t>(salt)) &
                                 0xFF);
    }
    return out;
  };
  storage::StorageFrame reply;
  reply.op = storage::StorageFrame::Op::kHistoryReply;
  reply.ticket = 9;
  reply.status = 1;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  for (std::uint64_t i = 0; i < 300; ++i) entries.emplace_back(i, i * i);
  reply.payload = storage::encode_history(entries);
  std::vector<std::string> frames;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{33}, Payload::kInline,
        Payload::kInline + 1}) {
    frames.push_back(bytes(n, static_cast<int>(n)));
  }
  frames.push_back(reply.serialize());
  ASSERT_GT(frames.back().size(), 4'000u);

  for (const bool manual : {false, true}) {
    for (const bool duplicate : {false, true}) {
      SCOPED_TRACE(std::string(manual ? "manual" : "scheduled") +
                   (duplicate ? ", duplicated" : ""));
      Scheduler sched;
      Network net(sched, Rng(8));
      net.set_manual_mode(manual);
      net.set_duplicate_probability(duplicate ? 1.0 : 0.0);
      std::vector<std::string> by_view;
      std::vector<std::string> by_string;
      net.attach(2, [&](NodeAddr, std::string_view payload) {
        by_view.emplace_back(payload);
      });
      net.attach(3, [&](NodeAddr, const std::string& payload) {
        by_string.push_back(payload);
      });
      for (const std::string& frame : frames) {
        net.send(1, 2, frame);                 // A std::string lvalue.
        net.send(1, 3, std::string(frame));    // Moved in.
      }
      const std::size_t copies = duplicate ? 2 : 1;
      if (manual) {
        ASSERT_EQ(net.pending_count(), 2 * copies * frames.size());
        for (std::size_t i = 0; i < net.pending_count(); ++i) {
          EXPECT_EQ(net.pending_payload(i),
                    frames[i / (2 * copies)]) << "pending " << i;
        }
        while (net.pending_count() > 0) net.deliver_pending(0);
      } else {
        sched.run();
      }
      std::multiset<std::string> expected;
      for (const std::string& frame : frames) {
        for (std::size_t c = 0; c < copies; ++c) expected.insert(frame);
      }
      EXPECT_EQ(std::multiset<std::string>(by_view.begin(), by_view.end()),
                expected);
      EXPECT_EQ(
          std::multiset<std::string>(by_string.begin(), by_string.end()),
          expected);
    }
  }
}

// ---- Trace view and sequence diagrams. ----

using obs::EventKind;
using obs::EventRecorder;
using obs::View;
using obs::Word;

TEST(Trace, RecordsAndCounts) {
  EventRecorder events(/*tracing=*/true, /*flight_capacity=*/0);
  events.record(EventKind::kCommit, 10, 1, {5});
  events.record(EventKind::kAbort, 20, 2, {5});
  events.record(EventKind::kCommit, 30, 1, {6});
  events.record(EventKind::kVeto, 40, 1, {6});  // No trace rendering.
  const auto& stream = events.stream();
  ASSERT_EQ(stream.size(), 3u);
  const auto count = [&](auto pred) {
    return std::count_if(stream.begin(), stream.end(), pred);
  };
  EXPECT_EQ(count([](const obs::Event& e) {
              return e.kind == EventKind::kCommit;
            }),
            2);
  EXPECT_EQ(count([](const obs::Event& e) { return e.node == 1; }), 2);
  EXPECT_EQ(stream[1].fields[0], 5u);
  EXPECT_EQ(events.total_recorded(), 0u);  // No flight view.
}

TEST(Trace, DisabledTraceRecordsNothing) {
  EventRecorder events(/*tracing=*/false, /*flight_capacity=*/4);
  events.record(EventKind::kCommit, 1, 1, {1, 2});
  EXPECT_TRUE(events.stream().empty());
  EXPECT_EQ(events.total_recorded(), 1u);  // The flight view still has it.
}

TEST(Sequence, RendersArrowsAndNotes) {
  EventRecorder events(true, 0);
  events.record(EventKind::kRecv, 10, 1, {2, 7}, Word::kVote);
  events.record(EventKind::kRecv, 20, 1, {3, 7}, Word::kCommit);
  events.record(EventKind::kCommit, 30, 1, {5, 7});
  events.record(EventKind::kAbort, 40, 2, {5, 9});
  const std::string mermaid = render_sequence_mermaid(events.stream());
  EXPECT_EQ(mermaid.find("sequenceDiagram"), 0u);
  EXPECT_NE(mermaid.find("participant node1"), std::string::npos);
  EXPECT_NE(mermaid.find("participant node3"), std::string::npos);
  EXPECT_NE(mermaid.find("node2->>node1: vote u7"), std::string::npos);
  EXPECT_NE(mermaid.find("node3->>node1: commit u7"), std::string::npos);
  EXPECT_NE(mermaid.find("Note over node1: commit u7"), std::string::npos);
  EXPECT_NE(mermaid.find("Note over node2: abort u9"), std::string::npos);
}

TEST(Sequence, TruncatesAtMaxEvents) {
  EventRecorder events(true, 0);
  for (int i = 0; i < 10; ++i) {
    events.record(EventKind::kRecv, static_cast<Time>(i), 0, {1, 1},
                  Word::kVote);
  }
  SequenceOptions options;
  options.max_events = 3;
  const std::string mermaid =
      render_sequence_mermaid(events.stream(), options);
  EXPECT_NE(mermaid.find("(truncated)"), std::string::npos);
  std::size_t arrows = 0;
  for (std::size_t pos = 0;
       (pos = mermaid.find("->>", pos)) != std::string::npos; ++pos) {
    ++arrows;
  }
  EXPECT_EQ(arrows, 3u);
}

// Kinds the diagram does not draw (instance creation, message fates) are
// skipped, participants included.
TEST(Sequence, IgnoresUnparseableEvents) {
  EventRecorder events(true, 0);
  events.record(EventKind::kInstance, 1, 0, {1, 2});
  events.record(EventKind::kNetSend, 2, 0, {1, 0, 4, 33});
  const std::string mermaid = render_sequence_mermaid(events.stream());
  EXPECT_EQ(mermaid, "sequenceDiagram\n");
}

// Each view renders its own category and fields from the one record.
TEST(Trace, DumpFormatsLines) {
  const obs::Event commit{10, 3, EventKind::kCommit, Word::kNone,
                          {9, 4, 5, 7}};
  EXPECT_STREQ(obs::category(View::kTrace, commit.kind), "commit");
  EXPECT_EQ(obs::detail(View::kTrace, commit), "guid=9 update=4 latency=7");
  EXPECT_STREQ(obs::category(View::kFlight, commit.kind), "commit.record");
  EXPECT_EQ(obs::detail(View::kFlight, commit),
            "guid=9 update=4 request=5 latency=7");
  EXPECT_EQ(obs::category(View::kFlight, EventKind::kRecv), nullptr);
  const obs::Event recovery{0, 1, EventKind::kRecovery, Word::kYes,
                            {2, 3, 0, 1, 4}};
  EXPECT_EQ(obs::detail(View::kFlight, recovery),
            "replayed=2 entries=3 truncated=0 skipped_crc=1 snapshot=yes "
            "reconciled=4");
  std::ostringstream out;
  obs::write_trace_line(out, {commit.t, commit.node, "commit",
                              obs::detail(View::kTrace, commit)});
  EXPECT_EQ(out.str(),
            "{\"t\":10,\"node\":3,\"cat\":\"commit\",\"detail\":"
            "\"guid=9 update=4 latency=7\"}\n");
}

TEST(Scheduler, CancelledIdDoesNotAffectLaterEvents) {
  // The cancel set is consumed when the cancelled event's slot fires;
  // event ids are never reused, so cancelling one event must never
  // suppress any other, no matter how many events run afterwards.
  Scheduler sched;
  std::vector<int> fired;
  const auto id = sched.schedule_at(10, [&] { fired.push_back(0); });
  sched.cancel(id);
  for (int i = 1; i <= 100; ++i) {
    sched.schedule_at(static_cast<Time>(10 + i), [&fired, i] {
      fired.push_back(i);
    });
  }
  sched.run();
  ASSERT_EQ(fired.size(), 100u);
  EXPECT_EQ(fired.front(), 1);
  EXPECT_EQ(fired.back(), 100);
}

TEST(Scheduler, CancelFromWithinEvent) {
  Scheduler sched;
  bool fired = false;
  const auto victim = sched.schedule_at(20, [&] { fired = true; });
  sched.schedule_at(10, [&] { sched.cancel(victim); });
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Network, PendingRouteThrowsOutOfRange) {
  Scheduler sched;
  Network net(sched, Rng(1));
  net.set_manual_mode(true);
  net.attach(1, [](NodeAddr, const std::string&) {});
  EXPECT_THROW((void)net.pending_route(0), std::out_of_range);
  net.send(0, 1, "hello");
  ASSERT_EQ(net.pending_count(), 1u);
  EXPECT_EQ(net.pending_route(0), (std::pair<NodeAddr, NodeAddr>{0, 1}));
  EXPECT_THROW((void)net.pending_route(1), std::out_of_range);
}

// ---- Seed-split substreams. ----

TEST(Rng, DeriveSeedIsPureAndDirectionSensitive) {
  // derive_seed is a pure function: no draw order, no state.
  EXPECT_EQ(Rng::derive_seed(42, 7), Rng::derive_seed(42, 7));
  EXPECT_NE(Rng::derive_seed(42, 7), Rng::derive_seed(42, 8));
  EXPECT_NE(Rng::derive_seed(42, 7), Rng::derive_seed(7, 42));
}

TEST(Rng, SubstreamsAreIndependent) {
  Rng a = Rng::substream(99, 1);
  Rng b = Rng::substream(99, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

// ---- Latency-model validation. ----

TEST(LatencyModelValidation, RejectsMinAboveMax) {
  EXPECT_THROW(validate(LatencyModel{500, 100}), std::invalid_argument);
  Scheduler sched;
  EXPECT_THROW(Network(sched, Rng(1), LatencyModel{500, 100}),
               std::invalid_argument);
}

TEST(LatencyModelValidation, AcceptsDegenerateButOrderedRange) {
  validate(LatencyModel{100, 100});  // Fixed latency is fine.
  Scheduler sched;
  Network net(sched, Rng(1), LatencyModel{100, 100});
  Time delivered_at = 0;
  net.attach(2, [&](NodeAddr, const std::string&) {
    delivered_at = sched.now();
  });
  net.send(1, 2, "x");
  sched.run();
  EXPECT_EQ(delivered_at, 100u);
}

// ---- Link profiles. ----

TEST(LinkProfiles, NamedClassesResolveAndUnknownRejected) {
  for (const char* name : {"lan", "wan", "sat"}) {
    const auto profile = link_profile(name);
    ASSERT_TRUE(profile.has_value()) << name;
    EXPECT_EQ(profile->name, name);
    EXPECT_LE(profile->latency.min_latency, profile->latency.max_latency);
  }
  // "default" resets to the network-default behaviour.
  ASSERT_TRUE(link_profile("default").has_value());
  EXPECT_EQ(*link_profile("default"), LinkProfile{});
  EXPECT_FALSE(link_profile("dialup").has_value());
}

TEST(LinkProfiles, InstallRejectsDegenerateProfiles) {
  Scheduler sched;
  Network net(sched, Rng(1));
  LinkProfile bad_latency;
  bad_latency.latency = {900, 100};
  EXPECT_THROW(net.set_link_profile(1, 2, bad_latency),
               std::invalid_argument);
  LinkProfile bad_loss;
  bad_loss.loss_bad = 1.5;
  EXPECT_THROW(net.set_link_profile(1, 2, bad_loss),
               std::invalid_argument);
}

TEST(LinkProfiles, ProfileIsDirectedAndAsymmetric) {
  Scheduler sched;
  Network net(sched, Rng(3), LatencyModel{100, 100});
  LinkProfile slow;
  slow.name = "slow";
  slow.latency = {50'000, 50'000};
  net.set_link_profile(1, 2, slow);
  EXPECT_EQ(net.link_class(1, 2), "slow");
  EXPECT_EQ(net.link_class(2, 1), "default");

  std::map<NodeAddr, Time> delivered_at;
  net.attach(1, [&](NodeAddr, const std::string&) {
    delivered_at[1] = sched.now();
  });
  net.attach(2, [&](NodeAddr, const std::string&) {
    delivered_at[2] = sched.now();
  });
  net.send(1, 2, "slow path");
  net.send(2, 1, "fast path");
  sched.run();
  EXPECT_EQ(delivered_at[2], 50'000u);  // Profiled direction.
  EXPECT_EQ(delivered_at[1], 100u);     // Reverse stays on defaults.

  net.clear_link_profile(1, 2);
  EXPECT_EQ(net.link_class(1, 2), "default");
}

TEST(LinkProfiles, JitterExtendsTheLatencyCeiling) {
  Scheduler sched;
  Network net(sched, Rng(17), LatencyModel{100, 100});
  LinkProfile jittery;
  jittery.latency = {1'000, 1'000};
  jittery.jitter = 9'000;
  net.set_link_profile(1, 2, jittery);
  std::vector<Time> arrivals;
  net.attach(2, [&](NodeAddr, const std::string&) {
    arrivals.push_back(sched.now());
  });
  for (int i = 0; i < 200; ++i) {
    sched.schedule_at(static_cast<Time>(i) * 20'000, [&net] {
      net.send(1, 2, "j");
    });
  }
  sched.run();
  ASSERT_EQ(arrivals.size(), 200u);
  Time max_latency = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Time latency = arrivals[i] - static_cast<Time>(i) * 20'000;
    EXPECT_GE(latency, 1'000u);
    EXPECT_LE(latency, 10'000u);
    max_latency = std::max(max_latency, latency);
  }
  EXPECT_GT(max_latency, 1'000u);  // Jitter actually fired.
}

TEST(LinkProfiles, GilbertElliottLossIsBursty) {
  Scheduler sched;
  Network net(sched, Rng(29), LatencyModel{100, 100});
  LinkProfile bursty;
  bursty.loss_good = 0.0;  // All loss comes from the bad state.
  bursty.loss_bad = 1.0;
  bursty.p_good_to_bad = 0.05;
  bursty.p_bad_to_good = 0.25;
  net.set_link_profile(1, 2, bursty);
  int received = 0;
  net.attach(2, [&](NodeAddr, const std::string&) { ++received; });
  for (int i = 0; i < 2000; ++i) net.send(1, 2, "x");
  sched.run();
  // Stationary bad-state share = 0.05/(0.05+0.25) ~ 17%; loss must be
  // clearly nonzero, clearly partial, and all attributed to bursts.
  EXPECT_GT(net.stats().burst_dropped, 100u);
  EXPECT_LT(net.stats().burst_dropped, 700u);
  EXPECT_EQ(net.stats().dropped, net.stats().burst_dropped);
  EXPECT_EQ(static_cast<std::uint64_t>(received) + net.stats().dropped,
            2000u);
}

TEST(LinkProfiles, LossGoodDegeneratestoIndependentLoss) {
  Scheduler sched;
  Network net(sched, Rng(31), LatencyModel{100, 100});
  LinkProfile lossy;
  lossy.loss_good = 0.5;
  lossy.loss_bad = 0.5;
  lossy.p_good_to_bad = 0.0;  // Never enters the bad state.
  net.set_link_profile(1, 2, lossy);
  int received = 0;
  net.attach(2, [&](NodeAddr, const std::string&) { ++received; });
  for (int i = 0; i < 1000; ++i) net.send(1, 2, "x");
  sched.run();
  EXPECT_GT(received, 350);
  EXPECT_LT(received, 650);
  EXPECT_EQ(net.stats().burst_dropped, 0u);  // Good-state loss only.
}

TEST(LinkProfiles, PerLinkSubstreamsAreTrafficIndependent) {
  // The same link must see a bit-identical delivery sequence whether or
  // not another link carries traffic — the property that makes joins
  // deterministic (a newcomer's messages never perturb existing links).
  const auto observe = [](bool with_cross_traffic) {
    Scheduler sched;
    Network net(sched, Rng(1234), LatencyModel{100, 5'000});
    std::vector<Time> arrivals;
    net.attach(2, [&](NodeAddr, const std::string&) {
      arrivals.push_back(sched.now());
    });
    net.attach(4, [](NodeAddr, const std::string&) {});
    for (int i = 0; i < 50; ++i) {
      net.send(1, 2, "observed");
      if (with_cross_traffic) net.send(3, 4, "noise");
    }
    sched.run();
    return arrivals;
  };
  EXPECT_EQ(observe(false), observe(true));
}

TEST(LinkProfiles, BadStateIsObservable) {
  Scheduler sched;
  Network net(sched, Rng(7), LatencyModel{100, 100});
  LinkProfile stuck;
  stuck.loss_bad = 1.0;
  stuck.p_good_to_bad = 1.0;  // First message flips to bad...
  stuck.p_bad_to_good = 0.0;  // ...and it never recovers.
  net.set_link_profile(1, 2, stuck);
  EXPECT_FALSE(net.link_in_bad_state(1, 2));
  net.attach(2, [](NodeAddr, const std::string&) {});
  net.send(1, 2, "x");
  sched.run();
  EXPECT_TRUE(net.link_in_bad_state(1, 2));
  EXPECT_EQ(net.stats().burst_dropped, 1u);
  // Installing a fresh profile resets the loss state to good.
  net.set_link_profile(1, 2, stuck);
  EXPECT_FALSE(net.link_in_bad_state(1, 2));
}

TEST(Network, DeliverPendingThrowsOutOfRange) {
  Scheduler sched;
  Network net(sched, Rng(1));
  net.set_manual_mode(true);
  int delivered = 0;
  net.attach(1, [&](NodeAddr, const std::string&) { ++delivered; });
  EXPECT_THROW(net.deliver_pending(0), std::out_of_range);
  net.send(0, 1, "hello");
  EXPECT_THROW(net.deliver_pending(7), std::out_of_range);
  EXPECT_EQ(delivered, 0);  // The failed calls must not consume anything.
  net.deliver_pending(0);
  EXPECT_EQ(delivered, 1);
  EXPECT_THROW(net.deliver_pending(0), std::out_of_range);  // Now empty.
}

// ---- Scheduler contract for typed delivery events. ----

TEST(Scheduler, CancelAfterFireChangesNothing) {
  // Timeout paths cancel their own timer after it fired; that must be a
  // no-op that counts nothing and leaves nothing behind to match later.
  Scheduler sched;
  std::uint64_t self = 0;
  int fired = 0;
  const auto first = sched.schedule_at(10, [&] { ++fired; });
  self = sched.schedule_at(20, [&] {
    ++fired;
    sched.cancel(self);  // Cancelling the event that is firing.
  });
  sched.run();
  const SchedulerStats before = sched.stats();
  for (int i = 0; i < 1000; ++i) {
    sched.cancel(first);
    sched.cancel(self);
  }
  EXPECT_EQ(sched.stats(), before);
  EXPECT_EQ(before.cancelled, 0u);
  // Later events reuse the fired events' storage; the stale ids must not
  // reach them.
  sched.schedule_at(30, [&] { ++fired; });
  sched.schedule_at(40, [&] { ++fired; });
  sched.cancel(first);
  sched.cancel(self);
  sched.run();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sched.stats().cancelled, 0u);
  EXPECT_EQ(sched.stats().discarded, 0u);
}

TEST(Scheduler, CancellingTwiceCountsOnce) {
  Scheduler sched;
  const auto id = sched.schedule_at(10, [] {});
  sched.cancel(id);
  sched.cancel(id);
  sched.run();
  EXPECT_EQ(sched.stats().cancelled, 1u);
  EXPECT_EQ(sched.stats().discarded, 1u);
  EXPECT_EQ(sched.stats().executed, 0u);
}

TEST(Scheduler, EqualTimeTiesFireInSchedulingOrderAcrossKinds) {
  Scheduler sched;
  Network net(sched, Rng(1));
  std::vector<std::string> order;
  net.attach(2, [&](NodeAddr, const std::string& payload) {
    order.push_back(payload);
  });
  const auto delivery = [&](std::string payload) {
    return Delivery{&net, 1, 2, 0, sched.now(), std::move(payload)};
  };
  sched.schedule_at(100, [&] { order.push_back("c1"); });
  sched.schedule_delivery(100, delivery("d1"));
  sched.schedule_at(100, [&] { order.push_back("c2"); });
  sched.schedule_delivery(100, delivery("d2"));
  sched.schedule_delivery(50, delivery("d0"));
  sched.run();
  EXPECT_EQ(order, (std::vector<std::string>{"d0", "c1", "d1", "c2", "d2"}));
  EXPECT_EQ(sched.stats().executed, 5u);
  EXPECT_EQ(sched.stats().max_queue_depth, 5u);
}

TEST(Scheduler, CancelledDeliveryIsDiscardedWithoutAdvancingTheClock) {
  Scheduler sched;
  Network net(sched, Rng(1));
  int received = 0;
  net.attach(2, [&](NodeAddr, const std::string&) { ++received; });
  sched.schedule_at(10, [] {});
  const auto id =
      sched.schedule_delivery(50, Delivery{&net, 1, 2, 7, 0, "frame"});
  sched.cancel(id);
  EXPECT_EQ(sched.pending(), 2u);  // Cancelled events stay queued...
  sched.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(sched.now(), 10u);  // ...and are dropped without a tick.
  EXPECT_EQ(sched.stats().executed, 1u);
  EXPECT_EQ(sched.stats().cancelled, 1u);
  EXPECT_EQ(sched.stats().discarded, 1u);
  EXPECT_EQ(net.stats().delivered + net.stats().to_dead_node, 0u);
}

TEST(Scheduler, DestroyedWithPendingDeliveriesFreesThem) {
  // Heap-sized payloads still queued at destruction: the sanitizer build
  // reports a leak if the scheduler does not release them.
  int received = 0;
  {
    Scheduler sched;
    Network net(sched, Rng(2));
    net.attach(2, [&](NodeAddr, const std::string&) { ++received; });
    net.set_duplicate_probability(0.5);
    for (int i = 0; i < 64; ++i) {
      net.send(1, 2, std::string(100, static_cast<char>('a' + i % 26)));
    }
    sched.run(10);  // Deliver a few, leave the rest pending.
    EXPECT_GT(sched.pending(), 0u);
  }
  EXPECT_EQ(received, 10);
}

TEST_F(NetworkTest, DuplicateCopiesBothCarryTheFullPayload) {
  const std::string frame(33, 'f');
  std::vector<std::string> got;
  network_.attach(2, [&](NodeAddr, const std::string& payload) {
    got.push_back(payload);
  });
  network_.set_duplicate_probability(1.0);
  network_.send(1, 2, frame);
  sched_.run();
  EXPECT_EQ(got, (std::vector<std::string>{frame, frame}));

  // Manual mode buffers the same records.
  network_.set_manual_mode(true);
  network_.send(1, 2, frame + "!");
  ASSERT_EQ(network_.pending_count(), 2u);
  EXPECT_EQ(network_.pending_payload(0), frame + "!");
  EXPECT_EQ(network_.pending_payload(1), frame + "!");
}

TEST(Scheduler, SchedulingInThePastThrowsAndChangesNothing) {
  Scheduler sched;
  Network net(sched, Rng(1));
  int ran = 0;
  sched.schedule_at(100, [&] { ++ran; });
  sched.schedule_at(200, [&] { ++ran; });
  sched.run_until(100);
  ASSERT_EQ(sched.now(), 100u);
  const SchedulerStats before = sched.stats();
  EXPECT_THROW(sched.schedule_at(99, [&] { ++ran; }), std::invalid_argument);
  EXPECT_THROW(sched.schedule_at(0, [&] { ++ran; }), std::invalid_argument);
  EXPECT_THROW(
      sched.schedule_delivery(99, Delivery{&net, 1, 2, 7, 0, "frame"}),
      std::invalid_argument);
  EXPECT_EQ(sched.stats(), before);
  EXPECT_EQ(sched.pending(), 1u);
  sched.schedule_at(100, [&] { ++ran; });  // now() itself is allowed.
  sched.run();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(sched.now(), 200u);
}

// ---- The queue against the binary heap it replaced. ----

// The (time, id) binary-heap scheduler, kept as the reference: ties fire
// in scheduling order, a cancelled event stays queued and is discarded
// without a tick when it comes up, and the clock follows run_until's
// deadline only when nothing is left.
class ReferenceScheduler {
 public:
  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }

  std::uint64_t schedule_at(Time when, std::function<void()> action) {
    const std::uint64_t id = next_id_++;
    heap_.push_back({when, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    actions_[id] = std::move(action);
    ++stats_.scheduled;
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, heap_.size());
    return id;
  }

  void cancel(std::uint64_t id) {
    const auto it = actions_.find(id);
    if (it == actions_.end() || !it->second) return;
    it->second = nullptr;
    ++stats_.cancelled;
  }

  std::size_t run_until(Time deadline) {
    std::size_t executed = 0;
    while (!heap_.empty() && heap_.front().when <= deadline) {
      if (fire_next()) ++executed;
    }
    stats_.executed += executed;
    if (now_ < deadline && heap_.empty()) now_ = deadline;
    return executed;
  }

  std::size_t run(std::size_t max_events = 50'000'000) {
    std::size_t executed = 0;
    while (!heap_.empty() && executed < max_events) {
      if (fire_next()) ++executed;
    }
    stats_.executed += executed;
    return executed;
  }

 private:
  struct Key {
    Time when;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.when != b.when ? a.when > b.when : a.id > b.id;
    }
  };

  bool fire_next() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key key = heap_.back();
    heap_.pop_back();
    const auto it = actions_.find(key.id);
    const std::function<void()> action = std::move(it->second);
    actions_.erase(it);
    if (!action) {
      ++stats_.discarded;
      return false;
    }
    now_ = key.when;
    action();
    return true;
  }

  Time now_ = 0;
  std::uint64_t next_id_ = 1;
  std::vector<Key> heap_;
  std::map<std::uint64_t, std::function<void()>> actions_;
  SchedulerStats stats_;
};

// One queue under test, driven through the same script as its twin. An
// event logs (tag, now(), pending()) when it fires and may schedule and
// cancel more events; its choices come from the side's own RNG, so the
// two sides draw alike exactly as long as they fire alike.
template <class Queue>
struct QueueHarness {
  static constexpr Time kSpan = 8192;  // The wheel's span.

  Queue queue;
  Rng rng{77};
  std::vector<std::uint64_t> ids;  // By tag.
  std::vector<Time> whens;         // By tag.
  std::vector<std::uint64_t> log;

  // A delay from every region of the queue: zero and same-us ties, the
  // message range, just below, at and above the span, the long timers,
  // and past 2^32 us.
  Time delay() {
    switch (rng.below(8)) {
      case 0: return 0;
      case 1: return rng.below(4);
      case 2: return rng.range(500, 5'000);
      case 3: return kSpan - 2 + rng.below(5);
      case 4: {
        const Time spans = rng.range(1, 40);
        return kSpan * spans - 1 + rng.below(3);
      }
      case 5: return rng.range(60'000, 80'000);
      case 6: return rng.below(400'000);
      default: return (Time{1} << 32) + rng.below(3 * kSpan);
    }
  }

  void schedule(Time when) {
    const auto tag = static_cast<std::uint64_t>(ids.size());
    ids.push_back(0);
    whens.push_back(when);
    ids[tag] = queue.schedule_at(when, [this, tag] { fire(tag); });
  }

  // Cancel one of the latest events: most are still queued, some fired.
  void cancel_some() {
    if (ids.empty()) return;
    const std::size_t back = std::min<std::size_t>(ids.size(), 64);
    queue.cancel(ids[ids.size() - 1 - rng.below(back)]);
  }

  void fire(std::uint64_t tag) {
    log.push_back(tag);
    log.push_back(queue.now());
    log.push_back(queue.pending());
    // Bounded fan-out: a third of the events schedule up to two more.
    if (ids.size() < 100'000 && rng.below(3) == 0) {
      for (std::uint64_t n = rng.below(3); n > 0; --n) {
        schedule(queue.now() + delay());
      }
    }
    if (rng.below(8) == 0) cancel_some();
  }
};

// Compare the two sides; `checked` is how much of the firing logs earlier
// calls already compared.
void expect_same(const QueueHarness<Scheduler>& wheel,
                 const QueueHarness<ReferenceScheduler>& heap,
                 std::size_t& checked) {
  ASSERT_EQ(wheel.log.size(), heap.log.size());
  ASSERT_TRUE(std::equal(wheel.log.begin() + checked, wheel.log.end(),
                         heap.log.begin() + checked));
  checked = wheel.log.size();
  ASSERT_EQ(wheel.queue.now(), heap.queue.now());
  ASSERT_EQ(wheel.queue.pending(), heap.queue.pending());
  ASSERT_EQ(wheel.queue.stats(), heap.queue.stats());
}

TEST(Scheduler, MatchesTheReferenceHeapOnRandomOperations) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    QueueHarness<Scheduler> wheel;
    QueueHarness<ReferenceScheduler> heap;
    Rng script(seed);
    std::size_t checked = 0;
    // Apply one step of the script to both sides, then compare them.
    const auto both = [&](const auto& op) {
      op(wheel);
      op(heap);
      expect_same(wheel, heap, checked);
    };
    // Directed openings: a cancelled event later than now() that comes
    // up first, once from the wheel and once from beyond the span.
    for (const Time gap : {Time{100}, Time{20'000}}) {
      both([&](auto& d) {
        d.schedule(d.queue.now() + gap);
        d.queue.cancel(d.ids.back());
        d.schedule(d.queue.now() + 2 * gap);
        d.queue.run_until(d.queue.now() + gap);  // Discards, stays put.
      });
      both([&](auto& d) { d.queue.run(); });
    }
    for (int i = 0; i < 20'000; ++i) {
      const std::uint64_t op = script.below(16);
      const Time draw = script();
      if (op < 9) {
        // Now and then a burst, so the wheel and the heap fill up.
        const int count = draw % 64 == 0 ? 400 : 1;
        both([&](auto& d) {
          for (int n = 0; n < count; ++n) {
            d.schedule(d.queue.now() + d.delay());
          }
        });
      } else if (op < 11) {
        both([&](auto& d) { d.cancel_some(); });
      } else if (op == 11) {
        // A deadline between events.
        both([&](auto& d) {
          d.queue.run_until(d.queue.now() + draw % 9'000);
        });
      } else if (op == 12) {
        // A deadline on some event's time (fired, pending or cancelled).
        both([&](auto& d) {
          if (d.whens.empty()) return;
          d.queue.run_until(d.whens[draw % d.whens.size()]);
        });
      } else if (op == 13) {
        both([&](auto& d) { d.queue.run(draw % 50); });
      } else if (op == 14 || draw % 32 != 0) {
        both([&](auto& d) {
          d.queue.run_until(d.queue.now() + draw % 40'000);
        });
      } else {
        // Drain, then a deadline with the queue empty moves the clock.
        both([&](auto& d) {
          d.queue.run();
          d.queue.run_until(d.queue.now() + draw % 100'000);
        });
      }
      if (HasFatalFailure()) return;
    }
    both([&](auto& d) { d.queue.run(); });
    EXPECT_EQ(wheel.queue.pending(), 0u);
    EXPECT_GT(wheel.queue.stats().executed, 50'000u);
    EXPECT_GT(wheel.queue.stats().discarded, 1'000u);
    EXPECT_GT(wheel.queue.stats().max_queue_depth, 500u);
    EXPECT_GT(wheel.queue.now(), Time{1} << 32);
    // Ids still rise with scheduling order above their slot bits.
    for (std::size_t i = 1; i < wheel.ids.size(); ++i) {
      ASSERT_LT(wheel.ids[i - 1] >> 24, wheel.ids[i] >> 24);
    }
  }
}

}  // namespace
}  // namespace asa_repro::sim
