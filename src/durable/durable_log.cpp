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

const std::vector<Entry> kNoEntries;

}  // namespace

const History::Record* History::find(std::uint64_t guid) const {
  const auto* slot = records_.find(guid);
  return slot == nullptr ? nullptr : slot->get();
}

History::Record& History::record(std::uint64_t guid) {
  const auto [slot, created] = records_.try_emplace(guid);
  if (created) *slot = std::make_unique<Record>();
  return **slot;
}

const std::vector<Entry>& History::entries(std::uint64_t guid) const {
  const Record* rec = find(guid);
  return rec == nullptr ? kNoEntries : rec->entries;
}

bool History::contains(std::uint64_t guid, std::uint64_t update_id) const {
  const Record* rec = find(guid);
  return rec != nullptr && rec->ids.find(update_id) != nullptr;
}

bool History::append(std::uint64_t guid, const Entry& entry) {
  Record& rec = record(guid);
  if (!rec.ids.try_emplace(entry.update_id).second) return false;
  rec.entries.push_back(entry);
  ++size_;
  return true;
}

void History::replace(std::uint64_t guid, std::vector<Entry> entries) {
  Record& rec = record(guid);
  size_ += entries.size() - rec.entries.size();
  rec.entries = std::move(entries);
  rec.ids = {};  // A FlatMap never erases: ids absent from `entries` go.
  for (const Entry& e : rec.entries) (void)rec.ids.try_emplace(e.update_id);
}

std::vector<std::uint64_t> History::guids() const {
  std::vector<std::uint64_t> guids;
  records_.for_each(
      [&guids](std::uint64_t guid, const auto&) { guids.push_back(guid); });
  std::sort(guids.begin(), guids.end());
  return guids;
}

std::size_t History::indexed() const {
  std::size_t n = 0;
  records_.for_each(
      [&n](std::uint64_t, const auto& rec) { n += rec->ids.size(); });
  return n;
}

std::size_t History::resident_bytes() const {
  std::size_t bytes = records_.bytes();
  records_.for_each([&bytes](std::uint64_t, const auto& rec) {
    bytes += sizeof(Record) + rec->entries.capacity() * sizeof(Entry) +
             rec->ids.bytes();
  });
  return bytes;
}

DurableLog::DurableLog(StorageMedium& medium, std::string name,
                       std::size_t snapshot_every)
    : medium_(medium),
      journal_file_(name + ".journal"),
      snapshot_file_(name + ".snapshot"),
      snapshot_every_(snapshot_every) {}

GuidHistories DurableLog::histories() const {
  GuidHistories out;
  for (const std::uint64_t guid : history_.guids()) {
    out.emplace(guid, history_.entries(guid));
  }
  return out;
}

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
  if (history_.contains(guid, update_id)) return true;  // Already durable.
  frame_.clear();
  const std::size_t start = begin_frame(frame_);
  put_u64(frame_, guid);
  put_u64(frame_, update_id);
  put_u64(frame_, request_id);
  put_u64(frame_, payload);
  end_frame(frame_, start, RecordType::kCommit);
  if (!append_frame(frame_)) return false;
  (void)history_.append(guid, Entry{update_id, request_id, payload});
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
                               std::vector<Entry> entries) {
  history_.replace(guid, std::move(entries));
  return journal_history(guid);
}

bool DurableLog::journal_history(std::uint64_t guid) {
  frame_.clear();
  const std::size_t start = begin_frame(frame_);
  put_import_payload(frame_, guid, history_.entries(guid));
  end_frame(frame_, start, RecordType::kImport);
  const std::size_t offset = valid_size_;
  if (!append_frame(frame_)) return false;
  tail_records_.emplace_back(offset, frame_.size());
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

void DurableLog::apply_commit(std::string_view payload) {
  if (payload.size() < kCommitPayloadSize) return;
  const std::uint64_t guid = get_u64(payload, 0);
  // An update already applied (snapshot overlap) is skipped.
  (void)history_.append(guid, Entry{get_u64(payload, 8), get_u64(payload, 16),
                                    get_u64(payload, 24)});
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
  history_.replace(guid, std::move(entries));
}

RecoveryStats DurableLog::recover() {
  RecoveryStats stats;
  history_ = {};
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
  stats.entries_recovered = history_.size();

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
  const std::vector<std::uint64_t> guids = history_.guids();
  std::string bytes;
  bytes.reserve(guids.size() * (kFrameHeaderSize + kImportHeaderSize) +
                history_.size() * kImportEntrySize);
  for (const std::uint64_t guid : guids) {
    const std::size_t start = begin_frame(bytes);
    put_import_payload(bytes, guid, history_.entries(guid));
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
