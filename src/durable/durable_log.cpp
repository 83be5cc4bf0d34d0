#include "durable/durable_log.hpp"

#include <algorithm>
#include <utility>

namespace asa_repro::durable {

namespace {

constexpr std::size_t kCommitPayloadSize = 32;
constexpr std::size_t kImportHeaderSize = 12;
constexpr std::size_t kImportEntrySize = 24;

void put_import_payload(std::string& out, std::uint64_t guid,
                        const std::vector<Entry>& entries) {
  put_u64(out, guid);
  put_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    put_u64(out, e.update_id);
    put_u64(out, e.request_id);
    put_u64(out, e.payload);
  }
}

/// SplitMix64 finalisation of the combined key: spreads consecutive
/// update ids and GUIDs over the whole table.
std::uint64_t slot_hash(std::uint64_t guid, std::uint64_t update_id) {
  std::uint64_t z = guid ^ (update_id * 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

// ---- SeenTable. ----

std::size_t DurableLog::SeenTable::find(std::uint64_t guid,
                                        std::uint64_t update_id) const {
  if (slots_.empty()) return 0;
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = slot_hash(guid, update_id) & mask;
  while (slots_[slot].used && (slots_[slot].guid != guid ||
                               slots_[slot].update_id != update_id)) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void DurableLog::SeenTable::fill(std::size_t slot, std::uint64_t guid,
                                 std::uint64_t update_id) {
  if (slots_.empty()) {
    grow();
    slot = find(guid, update_id);
  }
  slots_[slot] = Slot{guid, update_id, true};
  // Keep the load factor at or below 3/4: probe runs stay within a few
  // slots, and the table is no larger than the tree it replaced.
  if (++size_ * 4 > slots_.size() * 3) grow();
}

void DurableLog::SeenTable::insert(std::uint64_t guid,
                                   std::uint64_t update_id) {
  const std::size_t slot = find(guid, update_id);
  if (!occupied(slot)) fill(slot, guid, update_id);
}

void DurableLog::SeenTable::erase(std::uint64_t guid,
                                  std::uint64_t update_id) {
  std::size_t hole = find(guid, update_id);
  if (!occupied(hole)) return;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole whenever the hole lies on their path from their home slot, so
  // no tombstones are needed and every lookup stays one contiguous run.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t next = (hole + 1) & mask; slots_[next].used;
       next = (next + 1) & mask) {
    const std::size_t home =
        slot_hash(slots_[next].guid, slots_[next].update_id) & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole].used = false;
  --size_;
}

void DurableLog::SeenTable::clear() {
  slots_.clear();
  size_ = 0;
}

void DurableLog::SeenTable::grow() {
  std::vector<Slot> old(std::max<std::size_t>(slots_.size() * 2, 64));
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (!s.used) continue;
    std::size_t slot = slot_hash(s.guid, s.update_id) & mask;
    while (slots_[slot].used) slot = (slot + 1) & mask;
    slots_[slot] = s;
  }
}

// ---- DurableLog. ----

DurableLog::DurableLog(StorageMedium& medium, std::string name,
                       std::size_t snapshot_every)
    : medium_(medium),
      journal_file_(name + ".journal"),
      snapshot_file_(name + ".snapshot"),
      snapshot_every_(snapshot_every) {}

bool DurableLog::append_frame(const std::string& frame) {
  // Self-repair: a previous torn append may have left garbage past the
  // last well-framed record. Appending after it would desynchronise the
  // frame stream, so cut back to the known-good prefix first.
  if (medium_.size(journal_file_) != valid_size_) {
    if (!medium_.truncate(journal_file_, valid_size_)) {
      ++writer_.append_failures;
      return false;
    }
    ++writer_.tail_repairs;
  }
  if (!medium_.append(journal_file_, frame)) {
    ++writer_.append_failures;
    return false;
  }
  valid_size_ += frame.size();
  return true;
}

bool DurableLog::record_commit(std::uint64_t guid, std::uint64_t update_id,
                               std::uint64_t request_id,
                               std::uint64_t payload) {
  const std::size_t slot = seen_.find(guid, update_id);
  if (seen_.occupied(slot)) return true;  // Already durable.
  frame_.clear();
  const std::size_t start = begin_frame(frame_);
  put_u64(frame_, guid);
  put_u64(frame_, update_id);
  put_u64(frame_, request_id);
  put_u64(frame_, payload);
  end_frame(frame_, start, RecordType::kCommit);
  if (!append_frame(frame_)) return false;
  image_[guid].push_back(Entry{update_id, request_id, payload});
  seen_.fill(slot, guid, update_id);
  ++writer_.commits_recorded;
  // An acknowledged commit is synced: the partial-flush fault may never
  // drop it, and any earlier unsynced tail records are now covered too.
  synced_watermark_ = valid_size_;
  tail_records_.clear();
  ++commits_since_snapshot_;
  maybe_snapshot();
  return true;
}

bool DurableLog::record_import(std::uint64_t guid,
                               const std::vector<Entry>& entries) {
  frame_.clear();
  const std::size_t start = begin_frame(frame_);
  put_import_payload(frame_, guid, entries);
  end_frame(frame_, start, RecordType::kImport);
  const std::size_t offset = valid_size_;
  if (!append_frame(frame_)) return false;
  tail_records_.emplace_back(offset, frame_.size());
  replace_history(guid, entries);
  ++writer_.imports_recorded;
  return true;
}

bool DurableLog::record_membership(bool joined, std::uint64_t node_id) {
  frame_.clear();
  const std::size_t start = begin_frame(frame_);
  frame_.push_back(joined ? '\1' : '\0');
  put_u64(frame_, node_id);
  end_frame(frame_, start, RecordType::kMembership);
  const std::size_t offset = valid_size_;
  if (!append_frame(frame_)) return false;
  tail_records_.emplace_back(offset, frame_.size());
  ++writer_.membership_recorded;
  return true;
}

void DurableLog::replace_history(std::uint64_t guid,
                                 std::vector<Entry> entries) {
  // An import is the node's complete adopted history: replace, so a
  // reconciliation that reordered history stays authoritative.
  std::vector<Entry>& history = image_[guid];
  for (const Entry& e : history) seen_.erase(guid, e.update_id);
  history = std::move(entries);
  for (const Entry& e : history) seen_.insert(guid, e.update_id);
}

void DurableLog::apply_commit(std::string_view payload) {
  if (payload.size() < kCommitPayloadSize) return;
  const std::uint64_t guid = get_u64(payload, 0);
  const std::uint64_t update_id = get_u64(payload, 8);
  const std::size_t slot = seen_.find(guid, update_id);
  if (seen_.occupied(slot)) return;  // Snapshot overlap.
  image_[guid].push_back(
      Entry{update_id, get_u64(payload, 16), get_u64(payload, 24)});
  seen_.fill(slot, guid, update_id);
}

void DurableLog::apply_import(std::string_view payload) {
  if (payload.size() < kImportHeaderSize) return;
  const std::uint64_t guid = get_u64(payload, 0);
  const std::uint32_t count = get_u32(payload, 8);
  if (payload.size() <
      kImportHeaderSize + static_cast<std::size_t>(count) * kImportEntrySize) {
    return;
  }
  std::vector<Entry> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t base =
        kImportHeaderSize + static_cast<std::size_t>(i) * kImportEntrySize;
    entries.push_back(Entry{get_u64(payload, base), get_u64(payload, base + 8),
                            get_u64(payload, base + 16)});
  }
  replace_history(guid, std::move(entries));
}

RecoveryStats DurableLog::recover() {
  RecoveryStats stats;
  image_.clear();
  seen_.clear();
  tail_records_.clear();
  last_snapshot_size_ = 0;

  if (const auto snapshot = medium_.read(snapshot_file_);
      snapshot.has_value() && !snapshot->empty()) {
    last_snapshot_size_ = snapshot->size();
    const ScanResult scan = scan_journal(*snapshot);
    stats.snapshot_loaded = !scan.records.empty();
    stats.snapshot_corrupt =
        scan.skipped_crc > 0 || scan.truncated_bytes > 0;
    for (const JournalRecord& record : scan.records) {
      if (record.type == RecordType::kImport) apply_import(record.payload);
    }
  }

  const std::string journal = medium_.read(journal_file_).value_or("");
  const ScanResult scan = scan_journal(journal);
  stats.skipped_crc = scan.skipped_crc;
  stats.truncated_bytes = scan.truncated_bytes;
  for (const JournalRecord& record : scan.records) {
    switch (record.type) {
      case RecordType::kCommit:
        apply_commit(record.payload);
        break;
      case RecordType::kImport:
        apply_import(record.payload);
        break;
      case RecordType::kMembership:
        ++stats.membership_records;
        break;
    }
  }
  stats.replayed_records = scan.records.size();
  for (const auto& [guid, entries] : image_) {
    stats.entries_recovered += entries.size();
  }

  // Physically cut the torn tail so future appends extend a well-framed
  // prefix (best-effort: a stalled disk leaves the repair to append time).
  if (scan.truncated_bytes > 0) {
    medium_.truncate(journal_file_, scan.valid_size);
  }
  valid_size_ = scan.valid_size;
  synced_watermark_ = valid_size_;
  commits_since_snapshot_ = 0;
  return stats;
}

std::size_t DurableLog::drop_unsynced_tail(std::size_t max_records) {
  std::size_t dropped = 0;
  std::size_t new_size = valid_size_;
  for (auto it = tail_records_.rbegin();
       dropped < max_records && it != tail_records_.rend(); ++it) {
    const auto [offset, size] = *it;
    if (offset + size != new_size) break;  // Not the physical tail.
    new_size = offset;
    ++dropped;
  }
  // The records are gone only once the truncate lands: a stalled medium
  // refuses it, and they stay in the tail for a later partial flush.
  if (dropped == 0 || !medium_.truncate(journal_file_, new_size)) return 0;
  tail_records_.resize(tail_records_.size() - dropped);
  valid_size_ = new_size;
  writer_.tail_records_dropped += dropped;
  return dropped;
}

void DurableLog::maybe_snapshot() {
  if (snapshot_every_ == 0 || commits_since_snapshot_ < snapshot_every_ ||
      valid_size_ < last_snapshot_size_) {
    return;
  }
  commits_since_snapshot_ = 0;
  std::size_t bytes_needed = 0;
  for (const auto& [guid, entries] : image_) {
    bytes_needed += kFrameHeaderSize + kImportHeaderSize +
                    entries.size() * kImportEntrySize;
  }
  std::string bytes;
  bytes.reserve(bytes_needed);
  for (const auto& [guid, entries] : image_) {
    const std::size_t start = begin_frame(bytes);
    put_import_payload(bytes, guid, entries);
    end_frame(bytes, start, RecordType::kImport);
  }
  if (!medium_.replace(snapshot_file_, bytes)) {
    ++writer_.snapshot_failures;  // Journal still covers everything.
    return;
  }
  ++writer_.snapshots_written;
  last_snapshot_size_ = bytes.size();
  // Replay dedupes by update id, so a failed truncate (journal replaying
  // over the snapshot) is safe — just larger.
  if (medium_.truncate(journal_file_, 0)) {
    valid_size_ = 0;
    synced_watermark_ = 0;
    tail_records_.clear();
  }
}

}  // namespace asa_repro::durable
