// A node's durable commit state: write-ahead journal + periodic snapshot.
//
// Write-ahead discipline (the contract with commit::CommitPeer, which
// holds the node's log directly — CommitPeer::set_journal — and calls
// record_commit for every finished commit and record_import for every
// history adoption):
//
//   journal append succeeds  →  in-memory history append  →  ack sent
//
// A commit whose journal append fails is neither recorded nor
// acknowledged — the client's retry (same request id) drives a fresh
// attempt. So every *acknowledged* commit is on the medium before any
// client learns of it, which is exactly what makes crash recovery by
// replay sound. This library is a leaf: the peer's entry type is this
// file's Entry.
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
// Snapshots: the full per-GUID image is atomically written to the
// snapshot file (as kImport frames) and the journal truncated to zero
// once both (a) `snapshot_every` commit records have been journaled since
// the last snapshot and (b) the journal has grown to at least the size of
// the last snapshot written (or loaded by recover()). Rule (b) makes the
// schedule geometric: each rewrite is paid for by at least as many
// journal bytes, so total snapshot bytes stay within twice the journal
// bytes and a commit costs O(1) amortised however long the history, while
// a recovery replays at most about one image's worth of journal. The
// journal since the last snapshot is the increment — there is no
// checkpoint chain. A failed snapshot write keeps the journal; a corrupt
// snapshot at recovery is flagged and its intact frames still applied.
//
// Persistent vs transient state: the image is what snapshots and the
// journal carry. The (guid, update id) dedup table beside it is
// transient — never written, rebuilt by recover() and record_import —
// so the record path is one flat probe plus one append into buffers the
// log reuses.
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
#include <string>
#include <vector>

#include "durable/journal.hpp"
#include "durable/storage_medium.hpp"

namespace asa_repro::durable {

/// One committed history entry (commit::CommitPeer::CommittedEntry).
struct Entry {
  std::uint64_t update_id;
  std::uint64_t request_id;
  std::uint64_t payload;

  friend bool operator==(const Entry&, const Entry&) = default;
};

using GuidHistories = std::map<std::uint64_t, std::vector<Entry>>;

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

  /// Write-ahead one acknowledged commit. True only when the record is
  /// durably framed on the medium; on false the caller MUST NOT record
  /// or acknowledge the commit.
  bool record_commit(std::uint64_t guid, std::uint64_t update_id,
                     std::uint64_t request_id, std::uint64_t payload);

  /// Journal the node's complete history for `guid` after a wholesale
  /// adoption (bootstrap import or peer reconciliation). Best-effort:
  /// a false return (stalled disk) only delays durability until the
  /// next recovery re-reconciles.
  bool record_import(std::uint64_t guid, const std::vector<Entry>& entries);

  /// Journal a ring membership change observed by this node.
  bool record_membership(bool joined, std::uint64_t node_id);

  /// Three-phase-local recovery: load + apply the snapshot, scan the
  /// journal (torn-tail truncation, CRC-skip), apply surviving records,
  /// then physically truncate the journal's torn tail so subsequent
  /// appends extend a well-framed prefix.
  RecoveryStats recover();

  /// Drop up to `max_records` whole records from the unsynced tail
  /// (partial flush / page-cache loss). Never cuts acknowledged commit
  /// records. Returns records dropped: 0 when the medium refuses the
  /// truncate (stalled), and those records stay droppable later.
  std::size_t drop_unsynced_tail(std::size_t max_records);

  /// The journaled per-GUID history image (what replay reconstructed
  /// plus everything recorded since).
  [[nodiscard]] const GuidHistories& histories() const { return image_; }

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
  /// The set of (guid, update id) pairs in the image: an open-addressing
  /// table with linear probing and backward-shift deletion, so a lookup
  /// is one probe sequence over one flat array and a warm insert
  /// allocates nothing.
  class SeenTable {
   public:
    /// The slot holding (guid, update_id), or the empty slot where it
    /// would go. Valid until the next insert or erase.
    [[nodiscard]] std::size_t find(std::uint64_t guid,
                                   std::uint64_t update_id) const;
    [[nodiscard]] bool occupied(std::size_t slot) const {
      return slot < slots_.size() && slots_[slot].used;
    }
    /// Fill `slot` (an empty slot returned by find for this key).
    void fill(std::size_t slot, std::uint64_t guid, std::uint64_t update_id);
    void insert(std::uint64_t guid, std::uint64_t update_id);
    void erase(std::uint64_t guid, std::uint64_t update_id);
    void clear();

   private:
    struct Slot {
      std::uint64_t guid = 0;
      std::uint64_t update_id = 0;
      bool used = false;
    };
    void grow();

    std::vector<Slot> slots_;  // Size is zero or a power of two.
    std::size_t size_ = 0;
  };

  /// Repair any torn tail, then append one frame. Updates valid_size_.
  bool append_frame(const std::string& frame);
  /// Replace `guid`'s image (and its dedup entries) with `entries`.
  void replace_history(std::uint64_t guid, std::vector<Entry> entries);
  void apply_commit(std::string_view payload);
  void apply_import(std::string_view payload);
  void maybe_snapshot();

  StorageMedium& medium_;
  std::string journal_file_;
  std::string snapshot_file_;
  std::size_t snapshot_every_;

  GuidHistories image_;  // Ordered: restart imports histories in key order.
  SeenTable seen_;
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
