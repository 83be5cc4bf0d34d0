// CRC-framed append-only journal encoding (the on-medium record format).
//
// Frame layout (all integers little-endian):
//
//   offset size  field
//   0      1     magic 'A'
//   1      1     record type
//   2      4     payload length (u32)
//   6      4     payload CRC-32 (u32)
//   10     4     header CRC-32 over bytes [0,10) (u32)
//   14     len   payload
//
// The two checksums split corruption into two recoverable classes:
//
//  * An invalid header (bad magic, bad header CRC, or a payload length
//    that runs past end-of-file) means the frame boundary itself is
//    untrustworthy — the classic torn tail after a crash mid-append.
//    Replay stops and reports the remaining bytes for truncation; no
//    later frame can be located reliably, and write-ahead discipline
//    guarantees nothing past the tear was ever acknowledged.
//
//  * A valid header with a payload CRC mismatch is isolated bit-rot
//    inside one record. The frame boundary is intact, so replay skips
//    exactly that record and continues — later acknowledged commits
//    survive a single rotten byte.
//
// The framing layer is deliberately ignorant of record semantics; see
// durable_log.hpp for the record payloads and replay-application rules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace asa_repro::durable {

/// Journal record types. Values are part of the on-medium format.
enum class RecordType : std::uint8_t {
  kCommit = 1,      // One acknowledged commit-instance transition.
  kImport = 2,      // A history adopted wholesale (bootstrap/reconcile).
  kMembership = 3,  // Ring membership change observed by this node.
};

constexpr char kJournalMagic = 'A';
constexpr std::size_t kFrameHeaderSize = 14;

/// One decoded journal record.
struct JournalRecord {
  RecordType type;
  std::string payload;
};

/// Outcome of scanning a journal byte stream.
struct ScanResult {
  std::vector<JournalRecord> records;  // Frames with valid payload CRC.
  std::uint64_t skipped_crc = 0;       // Frames dropped for payload bit-rot.
  std::uint64_t truncated_bytes = 0;   // Torn-tail bytes past valid_size.
  std::size_t valid_size = 0;          // Prefix length ending at the last
                                       // well-framed record boundary.
};

/// Encode one frame (header + payload) ready for a medium append.
[[nodiscard]] std::string encode_frame(RecordType type,
                                       std::string_view payload);

/// Encode a frame in place at the end of `out`, with no intermediate
/// payload string: begin_frame reserves the header and returns the
/// frame's offset, the caller appends the payload (put_u64/put_u32), and
/// end_frame fills the header in from the bytes written since.
[[nodiscard]] std::size_t begin_frame(std::string& out);
void end_frame(std::string& out, std::size_t frame_start, RecordType type);

/// Scan `bytes` front to back applying the torn-tail / CRC-skip rules
/// documented above. Never throws; a scan of garbage yields zero records
/// and truncated_bytes == bytes.size().
[[nodiscard]] ScanResult scan_journal(std::string_view bytes);

// ---- Little-endian integer helpers shared by record payload codecs. ----

void put_u32(std::string& out, std::uint32_t value);
void put_u64(std::string& out, std::uint64_t value);
/// Read at `offset`; returns 0 when out of range (callers bounds-check
/// via payload length before trusting values).
[[nodiscard]] std::uint32_t get_u32(std::string_view bytes,
                                    std::size_t offset);
[[nodiscard]] std::uint64_t get_u64(std::string_view bytes,
                                    std::size_t offset);

}  // namespace asa_repro::durable
