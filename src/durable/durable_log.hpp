// A node's durable commit state: write-ahead journal + periodic snapshot.
//
// Write-ahead discipline (the contract with commit::CommitPeer, which
// holds the node's log directly — CommitPeer::set_journal — and calls
// record_commit for every finished commit and journal_history after every
// history adoption):
//
//   commit:    journal append succeeds  →  in-memory history append  →  ack
//   adoption:  in-memory history replace  →  journal append (best-effort)
//
// A commit whose journal append fails is neither recorded nor
// acknowledged — the client's retry (same request id) drives a fresh
// attempt. So every *acknowledged* commit is on the medium before any
// client learns of it, which is exactly what makes crash recovery by
// replay sound. An adoption (reconciliation, import) acknowledges nothing,
// so it is memory-first: when its import append is refused (stalled or
// full disk) the adopted entries stay in history(), count as "already
// durable" for record_commit, and reach the medium with the next snapshot
// or import of that GUID — or are re-reconciled after a crash. This
// library is a leaf: the peer's entry type is this file's Entry.
//
// Record payloads (framed by journal.hpp; integers little-endian):
//
//   kCommit      guid u64, update_id u64, request_id u64, payload u64
//   kImport      guid u64, count u32, count × (update u64, request u64,
//                payload u64) — the node's COMPLETE post-adoption history
//                for the GUID; replay replaces, not merges, so a
//                reconciliation that reorders history stays authoritative
//                across the next crash.
//   kMembership  joined u8, node id u64
//
// Replay applies records in journal order, deduplicating commits by
// update id per GUID — a journal that survived a failed post-snapshot
// truncate replays over the snapshot without double-applying.
//
// Snapshots: the full per-GUID image is atomically written to the snapshot
// file (kImport frames, GUID order) and the journal truncated to zero once
// both (a) `snapshot_every` commit records have been journaled since the
// last snapshot and (b) the journal has grown to at least the size of the
// last snapshot written (or loaded by recover()). Rule (b) makes the
// schedule geometric: each rewrite is paid for by at least as many journal
// bytes, so total snapshot bytes stay within twice the journal bytes and a
// commit costs O(1) amortised however long the history, while a recovery
// replays at most about one image's worth of journal. The journal since the
// last snapshot is the increment — there is no checkpoint chain. A failed
// snapshot write keeps the journal; a corrupt snapshot at recovery is
// flagged and its intact frames still applied.
//
// Persistent vs transient state: the History is what the snapshot and
// journal replay to, plus any adoption whose import append was refused,
// and the node's only copy of its committed state — an attached peer reads and extends the log's History. Per GUID
// it holds the entries (24 bytes each) and a FlatMap set of their update
// ids (8-byte slots), the transient dedup table rebuilt by recover(). It
// lists GUIDs in ascending order wherever their order reaches bytes. The
// record path is one flat probe plus one append into reused buffers.
//
// Sync watermark: commit records are acknowledged, so they are "synced" —
// the watermark advances past them and a partial flush (kFlushDrop chaos
// fault) can never cut into them. Import/membership records written since
// the last commit form the unsynced tail; drop_unsynced_tail removes
// whole trailing records from that tail only, modelling un-fsynced page
// cache loss without ever violating the write-ahead guarantee.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "durable/journal.hpp"
#include "durable/storage_medium.hpp"
#include "sim/flat_map.hpp"

namespace asa_repro::durable {

/// One committed history entry (commit::CommitPeer::CommittedEntry).
struct Entry {
  std::uint64_t update_id;
  std::uint64_t request_id;
  std::uint64_t payload;

  friend bool operator==(const Entry&, const Entry&) = default;
};

using GuidHistories = std::map<std::uint64_t, std::vector<Entry>>;

/// A node's committed state: per GUID, its entries and their update ids.
class History {
 public:
  /// The GUID's entries in commit order (empty when none); the reference
  /// survives new GUIDs.
  [[nodiscard]] const std::vector<Entry>& entries(std::uint64_t guid) const;
  [[nodiscard]] bool contains(std::uint64_t guid,
                              std::uint64_t update_id) const;
  /// Append unless the update id is recorded; true when appended.
  bool append(std::uint64_t guid, const Entry& entry);
  /// Make `entries` the GUID's whole history (an import or adoption).
  void replace(std::uint64_t guid, std::vector<Entry> entries);

  /// GUIDs holding a record, ascending.
  [[nodiscard]] std::vector<std::uint64_t> guids() const;
  [[nodiscard]] std::size_t size() const { return size_; }  // Entries.
  [[nodiscard]] std::size_t indexed() const;  // Ids across the sets.
  /// Bytes allocated for all of it, by capacity.
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  struct Record {
    std::vector<Entry> entries;
    sim::FlatMap<std::monostate> ids;
  };
  [[nodiscard]] const Record* find(std::uint64_t guid) const;
  Record& record(std::uint64_t guid);

  sim::FlatMap<std::unique_ptr<Record>> records_;  // Records stay put.
  std::size_t size_ = 0;
};

/// What recovery found, for metrics / traces / test assertions.
struct RecoveryStats {
  bool snapshot_loaded = false;   // Snapshot file present with ≥1 frame.
  bool snapshot_corrupt = false;  // Snapshot had skipped/torn frames.
  std::uint64_t replayed_records = 0;   // Valid journal records applied.
  std::uint64_t skipped_crc = 0;        // Journal records dropped (bit-rot).
  std::uint64_t truncated_bytes = 0;    // Torn tail cut from the journal.
  std::uint64_t membership_records = 0;
  std::uint64_t entries_recovered = 0;  // History entries in the image.
  std::uint64_t reconciled = 0;  // Entries adopted from peers afterwards
                                 // (filled by the cluster, not recover()).
};

/// Writer-side accounting.
struct WriterStats {
  std::uint64_t commits_recorded = 0;
  std::uint64_t imports_recorded = 0;
  std::uint64_t membership_recorded = 0;
  std::uint64_t append_failures = 0;  // Refused/torn appends (no ack sent).
  std::uint64_t tail_repairs = 0;     // Pre-append torn-tail truncations.
  std::uint64_t snapshots_written = 0;
  std::uint64_t snapshot_failures = 0;
  std::uint64_t tail_records_dropped = 0;  // Via drop_unsynced_tail.
};

class DurableLog {
 public:
  /// `medium` must outlive the log. Files are "<name>.journal" and
  /// "<name>.snapshot". `snapshot_every` == 0 disables snapshots.
  DurableLog(StorageMedium& medium, std::string name,
             std::size_t snapshot_every);

  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  /// Write-ahead one acknowledged commit, then append it to history().
  /// True only when the record is durably framed on the medium; on false
  /// the caller MUST NOT record or acknowledge the commit.
  bool record_commit(std::uint64_t guid, std::uint64_t update_id,
                     std::uint64_t request_id, std::uint64_t payload);

  /// Make `entries` history()'s complete history for `guid`, then
  /// journal_history(guid).
  bool record_import(std::uint64_t guid, std::vector<Entry> entries);
  /// Journal history()'s entries for `guid` (already rewritten in place by
  /// an adoption, or recovered) as one import record. Best-effort: a false
  /// return (stalled disk) leaves history() as it is and only delays
  /// durability (see the adoption rule above).
  bool journal_history(std::uint64_t guid);

  /// Journal a ring membership change observed by this node.
  bool record_membership(bool joined, std::uint64_t node_id);

  /// Three-phase-local recovery into a cleared history(): load + apply the
  /// snapshot, scan the journal (torn-tail truncation, CRC-skip), apply
  /// surviving records, then physically truncate the journal's torn tail
  /// so subsequent appends extend a well-framed prefix.
  RecoveryStats recover();

  /// Drop up to `max_records` whole records from the unsynced tail
  /// (partial flush / page-cache loss). Never cuts acknowledged commit
  /// records. Returns records dropped: 0 when the medium refuses the
  /// truncate (stalled), and those records stay droppable later.
  std::size_t drop_unsynced_tail(std::size_t max_records);

  /// The node's committed state: what replay reconstructed plus
  /// everything recorded since. An attached peer shares it.
  [[nodiscard]] History& history() { return history_; }
  [[nodiscard]] const History& history() const { return history_; }
  /// A deep copy of history(), by GUID, for tests and audits: it copies
  /// every entry, and two calls return distinct maps (compare no iterators
  /// across calls). Count GUIDs with history().guids() instead.
  [[nodiscard]] GuidHistories histories() const;

  [[nodiscard]] const WriterStats& writer_stats() const { return writer_; }
  [[nodiscard]] std::size_t journal_size() const {
    return medium_.size(journal_file_);
  }
  [[nodiscard]] const std::string& journal_file() const {
    return journal_file_;
  }
  [[nodiscard]] const std::string& snapshot_file() const {
    return snapshot_file_;
  }

 private:
  /// Repair any torn tail, then append one frame. Updates valid_size_.
  bool append_frame(const std::string& frame);
  void apply_commit(std::string_view payload);
  void apply_import(std::string_view payload);
  void maybe_snapshot();

  StorageMedium& medium_;
  std::string journal_file_;
  std::string snapshot_file_;
  std::size_t snapshot_every_;

  History history_;
  std::string frame_;  // Reused encode buffer for one journal record.

  std::size_t valid_size_ = 0;        // Well-framed journal prefix length.
  std::size_t synced_watermark_ = 0;  // Journal size after last commit.
  std::vector<std::pair<std::size_t, std::size_t>>
      tail_records_;  // (offset, size) of records past the watermark.
  std::size_t commits_since_snapshot_ = 0;
  std::size_t last_snapshot_size_ = 0;  // Written or loaded by recover().
  WriterStats writer_;
};

}  // namespace asa_repro::durable
