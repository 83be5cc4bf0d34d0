// Durable node state: CRC-framed journal encoding/scanning, the fault-
// injectable storage medium, the write-ahead DurableLog (snapshots, sync
// watermark, recovery), and cluster-level crash-consistency — including
// the full-peer-set crash the volatile seed codebase provably loses, the
// recovery round trip of every node after a campaign, and the one
// resident copy of each committed entry per node.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "commit/machine_cache.hpp"
#include "commit/messages.hpp"
#include "commit/peer.hpp"
#include "durable/crc32.hpp"
#include "durable/durable_log.hpp"
#include "durable/journal.hpp"
#include "durable/storage_medium.hpp"
#include "sim/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/workload.hpp"
#include "storage/chaos.hpp"
#include "storage/cluster.hpp"
#include "storage/invariant_checker.hpp"

namespace asa_repro {
namespace {

using durable::DurableLog;
using durable::Entry;
using durable::MemMedium;
using durable::RecordType;
using durable::RecoveryStats;
using durable::ScanResult;

// ---- CRC-32. ----

// The textbook bit-at-a-time CRC: the reference the
// sliced implementation must match bit for bit.
std::uint32_t crc32_bytewise(std::string_view bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char byte : bytes) {
    c ^= static_cast<std::uint8_t>(byte);
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SlicedMatchesBytewiseAtEveryLengthAndOffset) {
  // Lengths 0..64 cover the empty input, pure tails and several 8-byte
  // blocks; offsets 0..7 cover every alignment of the block loads.
  std::string buffer(8 + 64, '\0');
  std::uint32_t x = 0x12345678u;
  for (char& c : buffer) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::string_view bytes(buffer.data() + offset, length);
      EXPECT_EQ(durable::crc32(bytes), crc32_bytewise(bytes))
          << "offset " << offset << " length " << length;
    }
  }
  EXPECT_EQ(crc32_bytewise("123456789"), 0xCBF43926u);
}

TEST(Crc32, MatchesKnownVectors) {
  // The standard zlib/IEEE 802.3 check value.
  EXPECT_EQ(durable::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(durable::crc32(""), 0u);
  EXPECT_NE(durable::crc32("a"), durable::crc32("b"));
}

// ---- Frame encode / scan. ----

TEST(Journal, FrameRoundTrips) {
  const std::string frame =
      durable::encode_frame(RecordType::kCommit, "payload bytes");
  EXPECT_EQ(frame.size(), durable::kFrameHeaderSize + 13);
  const ScanResult scan = durable::scan_journal(frame);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].type, RecordType::kCommit);
  EXPECT_EQ(scan.records[0].payload, "payload bytes");
  EXPECT_EQ(scan.skipped_crc, 0u);
  EXPECT_EQ(scan.truncated_bytes, 0u);
  EXPECT_EQ(scan.valid_size, frame.size());
}

TEST(Journal, TornTailIsTruncatedNotApplied) {
  std::string bytes = durable::encode_frame(RecordType::kCommit, "one");
  bytes += durable::encode_frame(RecordType::kImport, "two");
  const std::size_t valid = bytes.size();
  const std::string third = durable::encode_frame(RecordType::kCommit, "3!");
  bytes += third.substr(0, third.size() / 2);  // The power went out here.

  const ScanResult scan = durable::scan_journal(bytes);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[1].payload, "two");
  EXPECT_EQ(scan.valid_size, valid);
  EXPECT_EQ(scan.truncated_bytes, bytes.size() - valid);
  EXPECT_EQ(scan.skipped_crc, 0u);
}

TEST(Journal, PayloadBitRotSkipsExactlyThatRecord) {
  std::string bytes = durable::encode_frame(RecordType::kCommit, "first");
  const std::size_t rot_at = bytes.size() + durable::kFrameHeaderSize;
  bytes += durable::encode_frame(RecordType::kCommit, "second");
  bytes += durable::encode_frame(RecordType::kCommit, "third");
  bytes[rot_at] = static_cast<char>(bytes[rot_at] ^ 0x01);

  const ScanResult scan = durable::scan_journal(bytes);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].payload, "first");
  EXPECT_EQ(scan.records[1].payload, "third");
  EXPECT_EQ(scan.skipped_crc, 1u);
  EXPECT_EQ(scan.truncated_bytes, 0u);
  EXPECT_EQ(scan.valid_size, bytes.size());
}

TEST(Journal, HeaderBitRotResynchronisesToLaterRecords) {
  // A rotten HEADER byte must not truncate the rest of the journal: the
  // scanner resynchronises on the next valid header (its CRC makes a
  // false match vanishingly unlikely) and later records survive.
  std::string bytes = durable::encode_frame(RecordType::kCommit, "first");
  const std::size_t rot_at = bytes.size();  // Magic byte of frame 2.
  bytes += durable::encode_frame(RecordType::kCommit, "second");
  bytes += durable::encode_frame(RecordType::kCommit, "third");
  bytes[rot_at] = static_cast<char>(bytes[rot_at] ^ 0x20);

  const ScanResult scan = durable::scan_journal(bytes);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].payload, "first");
  EXPECT_EQ(scan.records[1].payload, "third");
  EXPECT_EQ(scan.skipped_crc, 1u);  // The gap counts once.
  EXPECT_EQ(scan.truncated_bytes, 0u);
  EXPECT_EQ(scan.valid_size, bytes.size());
}

TEST(Journal, GarbageScansToNothing) {
  const std::string garbage = "this is not a journal at all, honest";
  const ScanResult scan = durable::scan_journal(garbage);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.truncated_bytes, garbage.size());
  EXPECT_EQ(scan.valid_size, 0u);
}

// ---- MemMedium fault injection. ----

TEST(MemMedium, TornWriteIsOneShotAndPersistsAPrefix) {
  MemMedium medium;
  medium.arm_torn_write();
  EXPECT_FALSE(medium.append("f", "0123456789"));
  EXPECT_EQ(medium.read("f"), "01234");  // Half the bytes made it.
  EXPECT_EQ(medium.stats().torn_writes, 1u);
  EXPECT_TRUE(medium.append("f", "rest"));  // One-shot: healed.
}

TEST(MemMedium, StallRefusesEveryWrite) {
  MemMedium medium;
  ASSERT_TRUE(medium.append("f", "abc"));
  medium.set_stalled(true);
  EXPECT_FALSE(medium.append("f", "x"));
  EXPECT_FALSE(medium.replace("f", "y"));
  EXPECT_FALSE(medium.truncate("f", 1));
  EXPECT_EQ(medium.read("f"), "abc");  // Untouched.
  EXPECT_GE(medium.stats().refused_stall, 3u);
  medium.set_stalled(false);
  EXPECT_TRUE(medium.append("f", "x"));
}

TEST(MemMedium, CapacityRefusesWholeWrites) {
  MemMedium medium;
  ASSERT_TRUE(medium.append("f", "abcd"));
  medium.set_capacity(6);
  EXPECT_FALSE(medium.append("f", "toolong"));  // Refused whole, not torn.
  EXPECT_EQ(medium.read("f"), "abcd");
  EXPECT_TRUE(medium.append("f", "xy"));  // Exactly fits.
  medium.set_capacity(std::nullopt);
  EXPECT_TRUE(medium.append("f", "and much more besides"));
}

TEST(MemMedium, CorruptByteFlipsOneByteInPlace) {
  MemMedium medium;
  ASSERT_TRUE(medium.append("f", "abcdef"));
  const auto offset = medium.corrupt_byte("f", 9);  // 9 % 6 == 3.
  ASSERT_TRUE(offset.has_value());
  EXPECT_EQ(*offset, 3u);
  EXPECT_EQ(medium.read("f"), "abcDef");
  EXPECT_FALSE(medium.corrupt_byte("missing", 0).has_value());
}

// ---- DurableLog: write-ahead discipline and recovery. ----

TEST(DurableLog, CommitsRecoverAcrossReopen) {
  MemMedium medium;
  {
    DurableLog log(medium, "node", /*snapshot_every=*/0);
    EXPECT_TRUE(log.record_commit(7, 100, 1000, 11));
    EXPECT_TRUE(log.record_commit(7, 101, 1001, 22));
    EXPECT_TRUE(log.record_commit(9, 102, 1002, 33));
    EXPECT_TRUE(log.record_membership(false, 4));
  }
  DurableLog reopened(medium, "node", 0);
  const RecoveryStats stats = reopened.recover();
  EXPECT_EQ(stats.replayed_records, 4u);
  EXPECT_EQ(stats.membership_records, 1u);
  EXPECT_EQ(stats.entries_recovered, 3u);
  EXPECT_EQ(stats.skipped_crc, 0u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  ASSERT_EQ(reopened.histories().at(7).size(), 2u);
  EXPECT_EQ(reopened.histories().at(7)[1].payload, 22u);
  ASSERT_EQ(reopened.histories().at(9).size(), 1u);
}

TEST(DurableLog, DuplicateCommitIsIdempotent) {
  MemMedium medium;
  DurableLog log(medium, "node", 0);
  EXPECT_TRUE(log.record_commit(7, 100, 1000, 11));
  EXPECT_TRUE(log.record_commit(7, 100, 1000, 11));  // Already durable.
  EXPECT_EQ(log.histories().at(7).size(), 1u);
  EXPECT_EQ(log.writer_stats().commits_recorded, 1u);
}

TEST(DurableLog, TornAppendVetoesAndWriterRepairsTheTail) {
  MemMedium medium;
  DurableLog log(medium, "node", 0);
  ASSERT_TRUE(log.record_commit(7, 100, 1000, 11));
  const std::size_t good = log.journal_size();

  medium.arm_torn_write();
  EXPECT_FALSE(log.record_commit(7, 101, 1001, 22));  // MUST NOT be acked.
  EXPECT_EQ(log.writer_stats().append_failures, 1u);
  EXPECT_FALSE(log.histories().at(7).size() == 2u);
  EXPECT_GT(log.journal_size(), good);  // The torn prefix is on the medium.

  // The next append first truncates back to the known-good size.
  EXPECT_TRUE(log.record_commit(7, 102, 1002, 33));
  EXPECT_EQ(log.writer_stats().tail_repairs, 1u);

  DurableLog reopened(medium, "node", 0);
  const RecoveryStats stats = reopened.recover();
  EXPECT_EQ(stats.entries_recovered, 2u);  // 11 and 33; 22 never durable.
  EXPECT_EQ(stats.truncated_bytes, 0u);
}

TEST(DurableLog, StalledAndFullDisksRefuseCommits) {
  MemMedium medium;
  DurableLog log(medium, "node", 0);
  medium.set_stalled(true);
  EXPECT_FALSE(log.record_commit(7, 100, 1000, 11));
  medium.set_stalled(false);
  medium.set_capacity(medium.used() + 3);  // Not even a header fits.
  EXPECT_FALSE(log.record_commit(7, 100, 1000, 11));
  medium.set_capacity(std::nullopt);
  EXPECT_TRUE(log.record_commit(7, 100, 1000, 11));
  EXPECT_EQ(log.writer_stats().append_failures, 2u);
}

TEST(DurableLog, SnapshotRollsTheJournalAndRecovers) {
  MemMedium medium;
  DurableLog log(medium, "node", /*snapshot_every=*/2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(log.record_commit(7, 100 + i, 1000 + i, 11 * (i + 1)));
  }
  EXPECT_EQ(log.writer_stats().snapshots_written, 2u);
  EXPECT_GT(medium.size(log.snapshot_file()), 0u);
  // Only the commit past the last snapshot is still in the journal.
  EXPECT_EQ(log.journal_size(),
            durable::kFrameHeaderSize + 4 * 8);

  DurableLog reopened(medium, "node", 2);
  const RecoveryStats stats = reopened.recover();
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_FALSE(stats.snapshot_corrupt);
  EXPECT_EQ(stats.entries_recovered, 5u);
  ASSERT_EQ(reopened.histories().at(7).size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(reopened.histories().at(7)[i].payload, 11 * (i + 1));
  }
}

TEST(DurableLog, CorruptSnapshotIsFlaggedAndJournalStillReplays) {
  MemMedium medium;
  {
    DurableLog log(medium, "node", 2);
    for (std::uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(log.record_commit(7, 100 + i, 1000 + i, i));
    }
  }
  DurableLog reopened(medium, "node", 2);
  // Rot the snapshot's first frame header: its records are lost, the
  // journal's post-snapshot commit still replays.
  medium.corrupt_byte(reopened.snapshot_file(), 0);
  const RecoveryStats stats = reopened.recover();
  EXPECT_TRUE(stats.snapshot_corrupt);
  EXPECT_EQ(stats.entries_recovered, 1u);  // The journal's commit #3.
}

TEST(DurableLog, DropUnsyncedTailNeverCutsAcknowledgedCommits) {
  MemMedium medium;
  DurableLog log(medium, "node", 0);
  ASSERT_TRUE(log.record_commit(7, 100, 1000, 11));  // Acked => synced.
  ASSERT_TRUE(log.record_import(9, {{200, 2000, 5}, {201, 2001, 6}}));
  ASSERT_TRUE(log.record_membership(false, 3));

  // Partial flush loses the whole unsynced tail but nothing acked.
  EXPECT_EQ(log.drop_unsynced_tail(100), 2u);
  EXPECT_EQ(log.drop_unsynced_tail(100), 0u);  // Idempotent.

  DurableLog reopened(medium, "node", 0);
  const RecoveryStats stats = reopened.recover();
  EXPECT_EQ(stats.entries_recovered, 1u);
  EXPECT_EQ(reopened.histories().at(7).size(), 1u);
  EXPECT_FALSE(reopened.histories().contains(9));
}

TEST(DurableLog, CommitAdvancesWatermarkPastEarlierImports) {
  MemMedium medium;
  DurableLog log(medium, "node", 0);
  ASSERT_TRUE(log.record_import(9, {{200, 2000, 5}}));
  ASSERT_TRUE(log.record_commit(7, 100, 1000, 11));
  // The commit moved the sync watermark past the import record.
  EXPECT_EQ(log.drop_unsynced_tail(100), 0u);
}

TEST(DurableLog, ImportReplayReplacesNotMerges) {
  MemMedium medium;
  DurableLog log(medium, "node", 0);
  ASSERT_TRUE(log.record_commit(7, 100, 1000, 11));
  ASSERT_TRUE(log.record_commit(7, 101, 1001, 22));
  // Reconciliation reordered the history; the import is authoritative.
  ASSERT_TRUE(log.record_import(7, {{101, 1001, 22}, {100, 1000, 11}}));

  DurableLog reopened(medium, "node", 0);
  (void)reopened.recover();
  ASSERT_EQ(reopened.histories().at(7).size(), 2u);
  EXPECT_EQ(reopened.histories().at(7)[0].payload, 22u);
  EXPECT_EQ(reopened.histories().at(7)[1].payload, 11u);
}

TEST(DurableLog, DropUnsyncedTailOnAStalledMediumDropsNothingUntilItCan) {
  MemMedium medium;
  DurableLog log(medium, "node", 0);
  ASSERT_TRUE(log.record_commit(7, 100, 1000, 11));
  ASSERT_TRUE(log.record_membership(false, 3));
  ASSERT_TRUE(log.record_membership(true, 3));
  const std::size_t full = log.journal_size();
  EXPECT_EQ(full, 92u);

  // The truncate is refused: nothing is dropped, and nothing is forgotten.
  medium.set_stalled(true);
  EXPECT_EQ(log.drop_unsynced_tail(100), 0u);
  EXPECT_EQ(log.journal_size(), full);
  EXPECT_EQ(log.writer_stats().tail_records_dropped, 0u);

  medium.set_stalled(false);
  EXPECT_EQ(log.drop_unsynced_tail(100), 2u);
  EXPECT_EQ(log.journal_size(), durable::kFrameHeaderSize + 4 * 8);
  EXPECT_EQ(log.writer_stats().tail_records_dropped, 2u);
}

TEST(DurableLog, DedupMatchesAReferenceSetAcrossImports) {
  // Commits of already-recorded update ids are absorbed; an import
  // replaces a GUID's set of recorded ids wholesale. Enough ids collide in
  // the flat table to exercise its probe runs and backward-shift deletes.
  MemMedium medium;
  DurableLog log(medium, "node", 0);
  std::map<std::uint64_t, std::set<std::uint64_t>> reference;
  std::uint64_t x = 12345;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t guid = next() % 8;
    if (next() % 50 == 0) {
      std::vector<Entry> entries;
      for (const std::uint64_t id : reference[guid]) {
        if (next() % 3 != 0) entries.push_back({id, id + 1, id + 2});
      }
      ASSERT_TRUE(log.record_import(guid, entries));
      reference[guid].clear();
      for (const Entry& e : entries) reference[guid].insert(e.update_id);
      continue;
    }
    const std::uint64_t id = next() % 300;
    const std::uint64_t before = log.writer_stats().commits_recorded;
    ASSERT_TRUE(log.record_commit(guid, id, id + 1, id + 2));
    const bool fresh = reference[guid].insert(id).second;
    ASSERT_EQ(log.writer_stats().commits_recorded, before + (fresh ? 1 : 0))
        << "step " << step;
  }
  const durable::GuidHistories histories = log.histories();
  for (const auto& [guid, ids] : reference) {
    const auto it = histories.find(guid);
    ASSERT_NE(it, histories.end());
    std::set<std::uint64_t> recorded;
    for (const Entry& e : it->second) recorded.insert(e.update_id);
    EXPECT_EQ(recorded, ids) << "guid " << guid;
  }

  // Replay rebuilds the same table: re-recording any update is absorbed.
  DurableLog reopened(medium, "node", 0);
  (void)reopened.recover();
  EXPECT_EQ(reopened.histories(), log.histories());
  for (const auto& [guid, ids] : reference) {
    for (const std::uint64_t id : ids) {
      ASSERT_TRUE(reopened.record_commit(guid, id, id + 1, id + 2));
    }
  }
  EXPECT_EQ(reopened.writer_stats().commits_recorded, 0u);
}

TEST(DurableLog, StalledAdoptionIsMemoryFirstAndReachesTheNextSnapshot) {
  MemMedium medium;
  DurableLog log(medium, "node", /*snapshot_every=*/1);
  sim::Scheduler scheduler;
  sim::Network network(scheduler, sim::Rng(1));
  commit::MachineCache machines;
  commit::CommitPeer peer(network, 0, {0, 1}, machines.machine_for(4));
  peer.set_journal(&log);
  const std::vector<Entry> donor = {
      {100, 1000, 11}, {101, 1001, 12}, {102, 1002, 13}};

  // The import append is refused, but the adoption stands in memory.
  medium.set_stalled(true);
  EXPECT_EQ(peer.reconcile_history(7, donor), 3u);
  medium.set_stalled(false);
  EXPECT_EQ(log.writer_stats().imports_recorded, 0u);
  EXPECT_EQ(log.writer_stats().append_failures, 1u);
  EXPECT_EQ(peer.history(7), donor);
  EXPECT_EQ(log.history().entries(7), donor);
  {
    MemMedium copy = medium;  // Nothing of it is on the medium yet.
    DurableLog probe(copy, "node", 1);
    EXPECT_EQ(probe.recover().entries_recovered, 0u);
  }

  // An adopted update counts as already durable: nothing is journaled.
  EXPECT_TRUE(log.record_commit(7, 101, 1001, 12));
  EXPECT_EQ(log.writer_stats().commits_recorded, 0u);
  EXPECT_EQ(medium.size(log.journal_file()), 0u);

  // The next commit's snapshot writes the whole history, adoption included.
  ASSERT_TRUE(log.record_commit(7, 103, 1003, 14));
  EXPECT_EQ(log.writer_stats().snapshots_written, 1u);
  std::vector<Entry> expected = donor;
  expected.push_back({103, 1003, 14});
  EXPECT_EQ(peer.history(7), expected);
  MemMedium copy = medium;
  DurableLog recovered(copy, "node", 1);
  const RecoveryStats stats = recovered.recover();
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(recovered.history().entries(7), expected);
}

TEST(DurableLog, GeometricSnapshotScheduleBoundsJournalAndSnapshotBytes) {
  // One sequence — commits over several GUIDs, an import, membership
  // records and a torn write — into logs with different snapshot cadences.
  constexpr std::size_t kCommitFrame = durable::kFrameHeaderSize + 4 * 8;
  const std::vector<std::size_t> cadences = {0, 1, 4, 64};
  std::vector<durable::GuidHistories> recovered;
  for (const std::size_t every : cadences) {
    SCOPED_TRACE("snapshot_every " + std::to_string(every));
    MemMedium medium;
    DurableLog log(medium, "node", every);
    std::uint64_t snapshot_bytes = 0;
    std::size_t last_snapshot = 0;
    std::size_t other_since_snapshot = 0;  // Import + membership bytes.
    std::uint64_t snapshots_seen = 0;
    const auto observe = [&](std::size_t other_bytes) {
      if (log.writer_stats().snapshots_written != snapshots_seen) {
        snapshots_seen = log.writer_stats().snapshots_written;
        last_snapshot = medium.size(log.snapshot_file());
        snapshot_bytes += last_snapshot;
        other_since_snapshot = 0;
      } else {
        other_since_snapshot += other_bytes;
      }
      if (every == 0) return;
      EXPECT_LE(log.journal_size(),
                std::max(last_snapshot, every * kCommitFrame) + kCommitFrame +
                    other_since_snapshot);
    };
    std::uint64_t update = 1;
    for (int i = 0; i < 600; ++i) {
      const std::uint64_t guid = 1 + static_cast<std::uint64_t>(i) % 5;
      if (i == 300) {
        medium.arm_torn_write();
        EXPECT_FALSE(log.record_commit(guid, update, update, update * 3));
        observe(0);
      }
      ASSERT_TRUE(log.record_commit(guid, update, update, update * 3));
      ++update;
      observe(0);
      if (i % 50 == 7) {
        const std::size_t before = log.journal_size();
        ASSERT_TRUE(log.record_membership(i % 100 == 7, 40 + i));
        observe(log.journal_size() - before);
      }
      if (i == 200) {
        // A reconciliation reorders GUID 3's history and drops its oldest.
        std::vector<Entry> entries = log.histories().at(3);
        std::reverse(entries.begin(), entries.end());
        entries.pop_back();
        const std::size_t before = log.journal_size();
        ASSERT_TRUE(log.record_import(3, entries));
        observe(log.journal_size() - before);
      }
    }
    const std::uint64_t journal_bytes =
        medium.stats().bytes_written - snapshot_bytes;
    EXPECT_LE(snapshot_bytes, 2 * journal_bytes);
    if (every > 0) {
      EXPECT_GT(log.writer_stats().snapshots_written, 0u);
    }

    DurableLog reopened(medium, "node", every);
    (void)reopened.recover();
    EXPECT_EQ(reopened.histories(), log.histories());
    recovered.push_back(reopened.histories());
  }
  for (std::size_t i = 1; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i], recovered[0]) << "snapshot_every " << cadences[i];
  }
}

// ---- Cluster-level crash consistency. ----

namespace cluster_tests {

using storage::AsaCluster;
using storage::ClusterConfig;
using storage::Guid;
using storage::HistoryReadResult;
using storage::InvariantChecker;
using storage::Pid;
using storage::Violation;
using storage::block_from;

ClusterConfig durable_cluster(std::uint64_t seed) {
  ClusterConfig config;
  config.nodes = 16;
  config.replication_factor = 4;
  config.seed = seed;
  config.durability = true;
  config.snapshot_every = 3;
  return config;
}

/// First GUID whose peer set has `want` distinct members.
Guid full_peer_set_guid(AsaCluster& cluster, std::size_t want,
                        const std::string& stem) {
  for (int probe = 0; probe < 64; ++probe) {
    const Guid guid = Guid::named(stem + ":" + std::to_string(probe));
    if (cluster.peer_set(guid).size() >= want) return guid;
  }
  return Guid::named(stem);
}

int commit_n(AsaCluster& cluster, const Guid& guid, int n, int base = 0) {
  int committed = 0;
  for (int i = 0; i < n; ++i) {
    cluster.version_history().append(
        guid,
        Pid::of(block_from("durable v" + std::to_string(base + i))),
        [&committed](const commit::CommitResult& r) {
          committed += r.committed;
        });
    cluster.run();
  }
  return committed;
}

TEST(ClusterDurability, FullPeerSetCrashReplaysAcknowledgedHistory) {
  // The > f demonstration: every peer-set member crashes, so no live node
  // holds the history; with durable journals the acknowledged commits
  // come back anyway. (The volatile counterfactual below loses them.)
  AsaCluster cluster(durable_cluster(91));
  const Guid guid = full_peer_set_guid(cluster, 4, "all-crash");
  ASSERT_EQ(commit_n(cluster, guid, 4), 4);

  const std::vector<sim::NodeAddr> members = cluster.peer_set(guid);
  for (sim::NodeAddr addr : members) {
    cluster.crash_node(static_cast<std::size_t>(addr));
  }
  for (sim::NodeAddr addr : members) {
    EXPECT_GE(cluster.restart_node(static_cast<std::size_t>(addr)), 1u);
  }
  cluster.run();
  for (sim::NodeAddr addr : members) {
    EXPECT_EQ(cluster.host(static_cast<std::size_t>(addr))
                  .peer()
                  .history(guid.to_uint64())
                  .size(),
              4u)
        << "member " << addr;
  }
  HistoryReadResult read;
  cluster.version_history().read(
      guid, [&read](const HistoryReadResult& r) { read = r; });
  cluster.run();
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.versions.size(), 4u);
}

TEST(ClusterDurability, VolatileClusterLosesHistoryOnFullSetCrash) {
  // The seed codebase's behaviour, kept reachable for comparison.
  ClusterConfig config = durable_cluster(91);
  config.durability = false;
  AsaCluster cluster(config);
  const Guid guid = full_peer_set_guid(cluster, 4, "all-crash");
  ASSERT_EQ(commit_n(cluster, guid, 4), 4);

  const std::vector<sim::NodeAddr> members = cluster.peer_set(guid);
  for (sim::NodeAddr addr : members) {
    cluster.crash_node(static_cast<std::size_t>(addr));
  }
  for (sim::NodeAddr addr : members) {
    cluster.restart_node(static_cast<std::size_t>(addr));
  }
  cluster.run();
  std::size_t surviving = 0;
  for (sim::NodeAddr addr : members) {
    surviving += cluster.host(static_cast<std::size_t>(addr))
                     .peer()
                     .history(guid.to_uint64())
                     .size();
  }
  EXPECT_EQ(surviving, 0u);
}

TEST(ClusterDurability, RepeatedCrashRecoveryCyclesAreIdempotent) {
  AsaCluster cluster(durable_cluster(17));
  const Guid guid = full_peer_set_guid(cluster, 4, "cycles");
  ASSERT_EQ(commit_n(cluster, guid, 3), 3);
  const auto victim =
      static_cast<std::size_t>(cluster.peer_set(guid)[0]);

  for (int cycle = 0; cycle < 3; ++cycle) {
    cluster.crash_node(victim);
    EXPECT_GE(cluster.restart_node(victim), 1u) << "cycle " << cycle;
    cluster.run();
    const auto& history = cluster.host(victim).peer().history(guid.to_uint64());
    ASSERT_EQ(history.size(), 3u) << "cycle " << cycle;
    std::set<std::uint64_t> requests;
    for (const auto& e : history) requests.insert(e.request_id);
    EXPECT_EQ(requests.size(), 3u) << "no duplicates, cycle " << cycle;
  }
  // The cluster still takes commits afterwards, and the recovered member
  // records them.
  ASSERT_EQ(commit_n(cluster, guid, 1, /*base=*/100), 1);
  EXPECT_EQ(cluster.host(victim).peer().history(guid.to_uint64()).size(),
            4u);
  InvariantChecker checker(cluster);
  EXPECT_TRUE(checker.check(/*check_order=*/true).empty());
}

TEST(ClusterDurability, LostJournalFallsBackToPeerBootstrap) {
  AsaCluster cluster(durable_cluster(29));
  const Guid guid = full_peer_set_guid(cluster, 4, "lost-journal");
  ASSERT_EQ(commit_n(cluster, guid, 3), 3);
  const auto victim =
      static_cast<std::size_t>(cluster.peer_set(guid)[0]);

  cluster.crash_node(victim);
  // Act of god: journal AND snapshot gone. Recovery must degrade to the
  // seed behaviour — a pure (f+1) bootstrap from the surviving members.
  cluster.medium(victim).erase(cluster.durable_log(victim)->journal_file());
  cluster.medium(victim).erase(cluster.durable_log(victim)->snapshot_file());
  EXPECT_GE(cluster.restart_node(victim), 1u);
  cluster.run();
  EXPECT_EQ(cluster.last_recovery(victim).entries_recovered, 0u);
  EXPECT_EQ(cluster.host(victim).peer().history(guid.to_uint64()).size(),
            3u);
  InvariantChecker checker(cluster);
  EXPECT_TRUE(checker.check(/*check_order=*/true).empty());
}

TEST(ClusterDurability, DurableAckInvariantDetectsLostAcknowledgements) {
  // Manufacture the loss durability exists to prevent: every member's
  // journal is wiped while all are down, so acknowledged commits cannot
  // be recovered from anywhere — the durable-ack invariant must say so.
  AsaCluster cluster(durable_cluster(43));
  const Guid guid = full_peer_set_guid(cluster, 4, "ack-loss");
  ASSERT_EQ(commit_n(cluster, guid, 2), 2);

  const std::vector<sim::NodeAddr> members = cluster.peer_set(guid);
  for (sim::NodeAddr addr : members) {
    cluster.crash_node(static_cast<std::size_t>(addr));
  }
  for (sim::NodeAddr addr : members) {
    const auto index = static_cast<std::size_t>(addr);
    cluster.medium(index).erase(cluster.durable_log(index)->journal_file());
    cluster.medium(index).erase(cluster.durable_log(index)->snapshot_file());
  }
  for (sim::NodeAddr addr : members) {
    cluster.restart_node(static_cast<std::size_t>(addr));
  }
  cluster.run();

  InvariantChecker checker(cluster);
  const std::vector<Violation> violations = checker.check(true);
  EXPECT_FALSE(violations.empty());
  EXPECT_TRUE(std::any_of(violations.begin(), violations.end(),
                          [](const Violation& v) {
                            return v.invariant == "durable-ack";
                          }))
      << "expected a durable-ack violation";
}

TEST(ClusterDurability, DurableAckViolationsCountRequestsNotAckRecords) {
  // The sibling of the test above with loss on the ack links: the
  // endpoint resends updates whose acknowledgements were lost, and the
  // peers acknowledge them again, so the ledger holds repeated records
  // for one request. A lost acknowledged request is still one violation
  // per (node, request), never one per ack record.
  AsaCluster cluster(durable_cluster(43));
  const Guid guid = full_peer_set_guid(cluster, 4, "ack-loss");
  const std::vector<sim::NodeAddr> members = cluster.peer_set(guid);
  sim::LinkProfile lossy;
  lossy.name = "lossy-ack";
  lossy.loss_good = 0.5;
  for (std::size_t host = 0; host < cluster.node_count(); ++host) {
    for (sim::NodeAddr client = AsaCluster::kClientAddrBase + 1;
         client <= AsaCluster::kClientAddrBase + 4; ++client) {
      cluster.network().set_link_profile(static_cast<sim::NodeAddr>(host),
                                         client, lossy);
    }
  }
  ASSERT_EQ(commit_n(cluster, guid, 3), 3);

  std::size_t ack_records = 0;
  std::set<std::pair<std::size_t, std::uint64_t>> acked_requests;
  for (sim::NodeAddr addr : members) {
    const auto index = static_cast<std::size_t>(addr);
    for (const AsaCluster::AckRecord& ack : cluster.acked_commits(index)) {
      ++ack_records;
      acked_requests.emplace(index, ack.request_id);
    }
  }
  EXPECT_GT(ack_records, acked_requests.size())
      << "some update must have been acknowledged more than once";

  for (sim::NodeAddr addr : members) {
    cluster.crash_node(static_cast<std::size_t>(addr));
  }
  for (sim::NodeAddr addr : members) {
    const auto index = static_cast<std::size_t>(addr);
    cluster.medium(index).erase(cluster.durable_log(index)->journal_file());
    cluster.medium(index).erase(cluster.durable_log(index)->snapshot_file());
  }
  for (sim::NodeAddr addr : members) {
    cluster.restart_node(static_cast<std::size_t>(addr));
  }
  cluster.run();

  InvariantChecker checker(cluster);
  const std::vector<Violation> violations = checker.check(true);
  const auto durable_acks = static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [](const Violation& v) {
                      return v.invariant == "durable-ack";
                    }));
  EXPECT_EQ(durable_acks, acked_requests.size());
  EXPECT_EQ(durable_acks, 12u);  // 4 members x 3 requests.
}

/// Simulated-disk bytes written per committed update by asasim's default
/// append loop (`asasim --nodes 64 --clients 16 --guids 256 --seed 5
/// --updates U`): appends round-robin over the GUIDs, 16 submitted per
/// 2 ms of simulated time.
double disk_bytes_per_commit(int updates) {
  ClusterConfig config;
  config.nodes = 64;
  config.replication_factor = 4;
  config.seed = 5;
  config.retry.base_timeout = 80'000;
  config.retry.max_attempts = 25;
  config.abort_scan_interval = 60'000;
  config.abort_max_age = 80'000;
  AsaCluster cluster(config);
  int committed = 0;
  for (int u = 0; u < updates; ++u) {
    cluster.version_history().append(
        Guid::named("guid:" + std::to_string(u % 256)),
        Pid::of(block_from("update " + std::to_string(u))),
        [&committed](const commit::CommitResult& r) {
          committed += r.committed;
        });
    if ((u + 1) % 16 == 0) cluster.run_for(2'000);
  }
  cluster.run();
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    bytes += cluster.medium(i).stats().bytes_written;
  }
  return committed == 0 ? 0.0
                        : static_cast<double>(bytes) /
                              static_cast<double>(committed);
}

TEST(ClusterDurability, DiskBytesPerCommitStayFlatAsHistoryGrows) {
  // Snapshots that re-encoded every history on a fixed cadence made each
  // commit pay for all of history: 401 B per commit at 2 000 updates,
  // 1 703 B at 16 000. The geometric schedule keeps it flat.
  const double short_run = disk_bytes_per_commit(2'000);
  const double long_run = disk_bytes_per_commit(16'000);
  EXPECT_GT(short_run, 0.0);
  EXPECT_LE(long_run, 1.5 * short_run)
      << short_run << " B/commit at 2k updates, " << long_run << " at 16k";
}

TEST(ClusterDurability, MembershipChangesAreJournaledByTheRightMembers) {
  // Every live member journals a membership change except the node it is
  // about; a restarted node is the exception and notes its own rejoin.
  // Crashed (and departed) members never record.
  AsaCluster cluster(durable_cluster(97));
  ASSERT_EQ(commit_n(cluster, full_peer_set_guid(cluster, 4, "members"), 2),
            2);
  const auto recorded = [&cluster] {
    std::vector<std::uint64_t> counts;
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      counts.push_back(
          cluster.durable_log(i)->writer_stats().membership_recorded);
    }
    return counts;
  };
  // Nodes [0, count) except `silent` must have recorded exactly one more
  // membership record than in `before` (a node past its end starts at 0).
  const auto expect_one_each = [&](const std::vector<std::uint64_t>& before,
                                   std::size_t count,
                                   const std::set<std::size_t>& silent,
                                   const std::string& step) {
    const std::vector<std::uint64_t> after = recorded();
    ASSERT_EQ(after.size(), count) << step;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t was = i < before.size() ? before[i] : 0;
      EXPECT_EQ(after[i] - was, silent.contains(i) ? 0u : 1u)
          << step << ": node " << i;
    }
  };

  std::vector<std::uint64_t> before = recorded();
  cluster.crash_node(3);
  expect_one_each(before, 16, {3}, "crash 3");

  before = recorded();
  cluster.crash_node(7);
  expect_one_each(before, 16, {3, 7}, "crash 7");

  before = recorded();
  cluster.restart_node(3);  // Records its own rejoin; 7 is still down.
  expect_one_each(before, 16, {7}, "restart 3");

  before = recorded();
  const std::size_t joined = cluster.add_node();
  ASSERT_EQ(joined, 16u);
  expect_one_each(before, 17, {7, joined}, "join 16");

  before = recorded();
  ASSERT_TRUE(cluster.remove_node(5, /*graceful=*/true));
  expect_one_each(before, 17, {5, 7}, "graceful leave of 5");
}

TEST(ClusterDurability, SmokeIsCleanAndDeterministic) {
  const storage::DurabilitySmokeReport report =
      storage::run_durability_smoke(1);
  EXPECT_TRUE(report.ok()) << (report.failures.empty()
                                   ? ""
                                   : report.failures.front());
  EXPECT_FALSE(report.notes.empty());
}

}  // namespace cluster_tests

// ---- Recovery round trip. ----

namespace round_trip {

using storage::AsaCluster;
using storage::ChaosConfig;
using sim::FaultEvent;
using sim::FaultPlan;

struct RoundTrip {
  std::size_t nodes = 0;      // Nodes with a journal.
  std::size_t entries = 0;    // Recovered history entries.
  std::size_t truncated = 0;  // Restarts that cut a torn tail.
  std::size_t skipped = 0;    // Restarts that skipped a CRC-bad record.
};

/// For every journaled node: recover a copy of its medium and compare the
/// recovered histories with the node's live ones, entry for entry. Then
/// put a fresh peer on the recovered log and replay kUpdate, kVote and
/// kCommit for every recovered update: each must be absorbed (the update
/// re-acknowledged), with no instance opened and nothing recorded again.
RoundTrip audit_recovery(AsaCluster& cluster) {
  RoundTrip out;
  commit::MachineCache machines;
  const fsm::StateMachine& machine =
      machines.machine_for(cluster.config().replication_factor);
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    if (cluster.durable_log(i) == nullptr) continue;
    SCOPED_TRACE("node " + std::to_string(i));
    ++out.nodes;
    out.truncated += cluster.last_recovery(i).truncated_bytes > 0 ? 1 : 0;
    out.skipped += cluster.last_recovery(i).skipped_crc > 0 ? 1 : 0;
    MemMedium copy = cluster.medium(i);
    DurableLog log(copy, "node-" + std::to_string(i),
                   cluster.config().snapshot_every);
    (void)log.recover();
    const durable::GuidHistories recovered = log.histories();
    const commit::CommitPeer& live = cluster.host(i).peer();
    for (const storage::Guid& guid : cluster.known_guids()) {
      const std::uint64_t key = guid.to_uint64();
      const auto it = recovered.find(key);
      const std::vector<Entry> expected =
          it == recovered.end() ? std::vector<Entry>{} : it->second;
      EXPECT_EQ(live.history(key), expected) << "guid " << key;
    }
    for (const auto& [key, entries] : recovered) {
      EXPECT_TRUE(entries.empty() || !live.history(key).empty())
          << "recovered guid " << key << " is unknown to the live node";
    }

    sim::Scheduler scheduler;
    sim::Network network(scheduler, sim::Rng(i));
    constexpr sim::NodeAddr kSelf = 0;
    constexpr sim::NodeAddr kSender = 1;
    commit::CommitPeer peer(network, kSelf, {kSelf, kSender}, machine);
    peer.set_journal(&log);
    // The restart path seeds a rebuilt peer from its recovered journal.
    for (const auto& [key, entries] : recovered) {
      if (!entries.empty()) (void)peer.reconcile_history(key, entries);
    }
    const durable::WriterStats before = log.writer_stats();
    std::size_t acks = 0;
    network.attach(kSender,
                   [&acks](sim::NodeAddr, std::string_view) { ++acks; });
    std::size_t updates = 0;
    for (const auto& [key, entries] : recovered) {
      for (const Entry& e : entries) {
        ++updates;
        for (const auto kind : {commit::WireMessage::Kind::kUpdate,
                                commit::WireMessage::Kind::kVote,
                                commit::WireMessage::Kind::kCommit}) {
          network.send(kSender, kSelf,
                       commit::WireMessage{kind, key, e.update_id,
                                           e.request_id, e.payload}
                           .serialize());
        }
      }
    }
    scheduler.run();
    out.entries += updates;
    EXPECT_EQ(acks, updates);
    EXPECT_EQ(peer.stats().updates_received, updates);
    EXPECT_EQ(peer.stats().committed, 0u);
    EXPECT_EQ(peer.stats().votes_sent, 0u);
    EXPECT_EQ(log.writer_stats().commits_recorded, before.commits_recorded);
    EXPECT_EQ(log.writer_stats().imports_recorded, before.imports_recorded);
    for (const auto& [key, entries] : recovered) {
      EXPECT_EQ(peer.resident_instances(key), 0u) << "guid " << key;
      EXPECT_EQ(peer.history(key), entries) << "guid " << key;
    }
    EXPECT_EQ(log.histories(), recovered);
  }
  return out;
}

bool has(const FaultPlan& plan, FaultEvent::Kind kind) {
  return std::any_of(plan.events().begin(), plan.events().end(),
                     [kind](const FaultEvent& e) { return e.kind == kind; });
}

RoundTrip run_campaign_seed(const ChaosConfig& config) {
  sim::Rng rng(config.seed ^ 0x63686170'73656564ull);  // asachaos' plan.
  const FaultPlan plan = generate_fault_plan(config, rng);
  // The campaign's own invariants are ChaosRun's subject; this audits
  // recovery whatever the run's verdict.
  RoundTrip audit;
  const storage::ChaosReport report = storage::run_plan(
      config, plan, nullptr, nullptr,
      [&audit](AsaCluster& cluster) { audit = audit_recovery(cluster); });
  EXPECT_TRUE(report.quiesced);
  return audit;
}

TEST(RecoveryRoundTrip, DurabilityCampaignNodesRecoverTheirLiveHistory) {
  // A seed whose plan crashes nodes, tears a journal tail at a crash,
  // rots a journal byte while a node is down and stalls a disk.
  ChaosConfig config;
  config.seed = 1270;
  config.updates = 40;
  sim::Rng rng(config.seed ^ 0x63686170'73656564ull);
  const FaultPlan plan = generate_fault_plan(config, rng);
  ASSERT_TRUE(has(plan, FaultEvent::Kind::kCrash));
  ASSERT_TRUE(has(plan, FaultEvent::Kind::kTornWrite));
  ASSERT_TRUE(has(plan, FaultEvent::Kind::kBitRot));
  ASSERT_TRUE(has(plan, FaultEvent::Kind::kDiskStall) ||
              has(plan, FaultEvent::Kind::kDiskFull));
  const RoundTrip audit = run_campaign_seed(config);
  EXPECT_EQ(audit.nodes, config.nodes);
  EXPECT_GT(audit.entries, 0u);
  EXPECT_GT(audit.truncated, 0u);
  EXPECT_GT(audit.skipped, 0u);
}

TEST(RecoveryRoundTrip, ChurnCampaignNodesRecoverTheirLiveHistory) {
  ChaosConfig config;
  config.seed = 2000;
  config.updates = 40;
  config.churn = true;
  config.wan = true;
  config.writers = 4;
  config.zipf = 1.2;
  config.read_fraction = 0.2;
  sim::Rng rng(config.seed ^ 0x63686170'73656564ull);
  const FaultPlan plan = generate_fault_plan(config, rng);
  ASSERT_TRUE(has(plan, FaultEvent::Kind::kJoin) ||
              has(plan, FaultEvent::Kind::kLeave) ||
              has(plan, FaultEvent::Kind::kDepart));
  const RoundTrip audit = run_campaign_seed(config);
  EXPECT_GT(audit.nodes, 0u);
  EXPECT_GT(audit.entries, 0u);
}

}  // namespace round_trip

// ---- Resident committed state. ----

namespace resident {

using storage::AsaCluster;
using storage::ClusterConfig;
using storage::Guid;
using storage::Pid;
using storage::block_from;

struct Resident {
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

/// `operations` closed-loop appends from 16 writers over `guids` uniform
/// GUIDs on 64 durable nodes at replication `r`: the shape of the
/// benchmark's steady (r=4) and wide (r=13) workloads. Every node must
/// hold its committed state in the one History its peer and journal
/// share, one entry and one index entry per committed update.
Resident warm_run(std::uint32_t r, std::uint32_t guids, int operations) {
  ClusterConfig config;
  config.nodes = 64;
  config.replication_factor = r;
  config.seed = 3;
  config.durability = true;
  config.retry.base_timeout = 80'000;
  config.retry.max_attempts = 30;
  config.abort_scan_interval = 60'000;
  config.abort_max_age = 80'000;
  AsaCluster cluster(config);
  cluster.version_history().set_serialize_appends(true);
  sim::WorkloadConfig workload;
  workload.writers = 16;
  workload.keys = guids;
  workload.operations = operations;
  workload.zipf = 0;
  const auto per_writer = sim::generate_workload(workload, config.seed);
  std::map<std::uint32_t, std::size_t> committed;  // By key.
  std::function<void(std::size_t, std::size_t)> submit =
      [&](std::size_t w, std::size_t i) {
        if (i >= per_writer[w].size()) return;
        const std::uint32_t key = per_writer[w][i].key;
        cluster.version_history().append(
            Guid::named("resident:" + std::to_string(key)),
            Pid::of(block_from("w" + std::to_string(w) + " op" +
                               std::to_string(i))),
            [&, w, i, key](const commit::CommitResult& result) {
              committed[key] += result.committed ? 1 : 0;
              submit(w, i + 1);
            });
      };
  for (std::size_t w = 0; w < per_writer.size(); ++w) {
    if (per_writer[w].empty()) continue;
    cluster.scheduler().schedule_at(per_writer[w][0].at,
                                    [&submit, w] { submit(w, 0); });
  }
  cluster.run();
  // Each committed update is held once by every member of its peer set.
  std::size_t held = 0;
  std::size_t total = 0;
  for (const auto& [key, count] : committed) {
    held += count *
            cluster.peer_set(Guid::named("resident:" + std::to_string(key)))
                .size();
    total += count;
  }
  EXPECT_EQ(total, static_cast<std::size_t>(operations));

  Resident out;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    const commit::CommitPeer& peer = cluster.host(i).peer();
    const durable::DurableLog& log = *cluster.durable_log(i);
    const durable::History& history = log.history();
    EXPECT_EQ(&peer.committed_state(), &history);
    // Fault-free: every entry is one journaled commit of this node.
    EXPECT_EQ(history.size(), peer.stats().committed);
    EXPECT_EQ(history.size(), log.writer_stats().commits_recorded);
    EXPECT_EQ(history.indexed(), history.size());
    std::size_t distinct = 0;
    for (const std::uint64_t guid : history.guids()) {
      std::set<std::uint64_t> ids;
      for (const Entry& e : history.entries(guid)) ids.insert(e.update_id);
      distinct += ids.size();
    }
    EXPECT_EQ(distinct, history.size());
    out.entries += history.size();
    out.bytes += history.resident_bytes();
  }
  EXPECT_EQ(out.entries, held);
  return out;
}

// Capacity-based bytes of committed state per replica-entry: 24-byte
// entries, 8-byte update-id slots and per-GUID records, with vector and
// table growth slack. Holding the entries twice (a peer mirror beside the
// journal's image, or a second index) would not fit.
constexpr double kMaxBytesPerEntry = 60;

TEST(ResidentState, OneEntryAndOneIndexEntryPerCommitAtR4) {
  const Resident warm = warm_run(4, 256, 10'000);
  ASSERT_GT(warm.entries, 0u);
  EXPECT_LE(static_cast<double>(warm.bytes),
            kMaxBytesPerEntry * static_cast<double>(warm.entries))
      << warm.bytes << " bytes for " << warm.entries << " entries";
}

TEST(ResidentState, OneEntryAndOneIndexEntryPerCommitAtR13) {
  const Resident warm = warm_run(13, 256, 2'560);
  ASSERT_GT(warm.entries, 0u);
  EXPECT_LE(static_cast<double>(warm.bytes),
            kMaxBytesPerEntry * static_cast<double>(warm.entries))
      << warm.bytes << " bytes for " << warm.entries << " entries";
}

}  // namespace resident

}  // namespace
}  // namespace asa_repro
