#include "durable/journal.hpp"

#include "durable/crc32.hpp"

namespace asa_repro::durable {

namespace {

/// Store `value` little-endian into `out[0, N)`.
template <std::size_t N, typename T>
void store_le(char* out, T value) {
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
}

}  // namespace

void put_u32(std::string& out, std::uint32_t value) {
  char word[4];
  store_le<4>(word, value);
  out.append(word, sizeof word);
}

void put_u64(std::string& out, std::uint64_t value) {
  char word[8];
  store_le<8>(word, value);
  out.append(word, sizeof word);
}

std::uint32_t get_u32(std::string_view bytes, std::size_t offset) {
  if (offset + 4 > bytes.size()) return 0;
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) |
            static_cast<std::uint8_t>(bytes[offset + static_cast<std::size_t>(i)]);
  }
  return value;
}

std::uint64_t get_u64(std::string_view bytes, std::size_t offset) {
  if (offset + 8 > bytes.size()) return 0;
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) |
            static_cast<std::uint8_t>(bytes[offset + static_cast<std::size_t>(i)]);
  }
  return value;
}

std::string encode_frame(RecordType type, std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  const std::size_t start = begin_frame(frame);
  frame.append(payload);
  end_frame(frame, start, type);
  return frame;
}

std::size_t begin_frame(std::string& out) {
  const std::size_t start = out.size();
  out.append(kFrameHeaderSize, '\0');
  return start;
}

void end_frame(std::string& out, std::size_t frame_start, RecordType type) {
  char* header = out.data() + frame_start;
  const std::string_view payload(header + kFrameHeaderSize,
                                 out.size() - frame_start - kFrameHeaderSize);
  header[0] = kJournalMagic;
  header[1] = static_cast<char>(type);
  store_le<4>(header + 2, static_cast<std::uint32_t>(payload.size()));
  store_le<4>(header + 6, crc32(payload));
  store_le<4>(header + 10, crc32(std::string_view(header, 10)));
}

ScanResult scan_journal(std::string_view bytes) {
  ScanResult result;
  std::size_t offset = 0;
  bool in_gap = false;  // Scanning byte-wise for the next valid header.
  while (offset + kFrameHeaderSize <= bytes.size()) {
    const std::string_view header = bytes.substr(offset, kFrameHeaderSize);
    const bool header_ok =
        header[0] == kJournalMagic &&
        get_u32(header, 10) == crc32(header.substr(0, 10));
    const std::uint32_t len = get_u32(header, 2);
    if (!header_ok || offset + kFrameHeaderSize + len > bytes.size()) {
      // Untrustworthy frame boundary: resynchronise by scanning forward
      // for the next valid header (the header CRC makes a false match
      // vanishingly unlikely). If none exists this is the torn tail and
      // the loop ends with the remainder counted as truncated.
      in_gap = true;
      ++offset;
      continue;
    }
    if (in_gap) {
      // A corrupt region bounded by valid frames: one record lost to
      // header bit-rot, not a tear — later records are intact.
      ++result.skipped_crc;
      in_gap = false;
    }
    const std::string_view payload =
        bytes.substr(offset + kFrameHeaderSize, len);
    if (crc32(payload) == get_u32(header, 6)) {
      result.records.push_back(JournalRecord{
          static_cast<RecordType>(static_cast<std::uint8_t>(header[1])),
          std::string(payload)});
    } else {
      ++result.skipped_crc;  // Isolated payload bit-rot: skip one record.
    }
    offset += kFrameHeaderSize + len;
    result.valid_size = offset;
  }
  result.truncated_bytes = bytes.size() - result.valid_size;
  return result;
}

}  // namespace asa_repro::durable
