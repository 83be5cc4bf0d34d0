// Wire frames for the data-plane of the storage layer.
//
// Storage frames share the simulated network with commit-protocol frames;
// they are distinguished by a leading magic byte (see node_host.hpp). The
// format is deliberately simple: fixed header, 20-byte identifier, raw
// payload bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha1.hpp"

namespace asa_repro::storage {

inline constexpr char kStorageMagic = 'S';

struct StorageFrame {
  enum class Op : std::uint8_t {
    kPut = 0,           // client -> node: store block under pid.
    kPutAck = 1,        // node -> client: stored (status 1) or refused (0).
    kGet = 2,           // client -> node: fetch block for pid.
    kGetReply = 3,      // node -> client: block bytes (status 1) or miss (0).
    kHistoryGet = 4,    // client -> node: fetch version history for guid key.
    kHistoryReply = 5,  // node -> client: sequence of (request_id, payload).
  };

  Op op = Op::kPut;
  std::uint64_t ticket = 0;  // Correlates requests with replies.
  crypto::Sha1Digest id{};   // PID digest (or GUID digest for history ops).
  std::uint8_t status = 0;
  std::vector<std::uint8_t> payload;

  [[nodiscard]] std::string serialize() const {
    std::string out;
    out.reserve(2 + 8 + id.size() + 1 + payload.size());
    out.push_back(kStorageMagic);
    out.push_back(static_cast<char>(op));
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>((ticket >> (8 * i)) & 0xFF));
    }
    out.append(reinterpret_cast<const char*>(id.data()), id.size());
    out.push_back(static_cast<char>(status));
    out.append(reinterpret_cast<const char*>(payload.data()), payload.size());
    return out;
  }

  [[nodiscard]] static std::optional<StorageFrame> parse(
      std::string_view data) {
    constexpr std::size_t kHeader = 2 + 8 + 20 + 1;
    if (data.size() < kHeader || data[0] != kStorageMagic) {
      return std::nullopt;
    }
    if (static_cast<std::uint8_t>(data[1]) > 5) return std::nullopt;
    StorageFrame f;
    f.op = static_cast<Op>(data[1]);
    for (int i = 0; i < 8; ++i) {
      f.ticket |= std::uint64_t{static_cast<std::uint8_t>(data[2 + i])}
                  << (8 * i);
    }
    for (std::size_t i = 0; i < f.id.size(); ++i) {
      f.id[i] = static_cast<std::uint8_t>(data[10 + i]);
    }
    f.status = static_cast<std::uint8_t>(data[30]);
    f.payload.assign(data.begin() + kHeader, data.end());
    return f;
  }
};

/// Payload encoding for kHistoryReply: a flat list of
/// (request_id, payload) pairs, 16 bytes each, little-endian.
[[nodiscard]] inline std::vector<std::uint8_t> encode_history(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& entries) {
  std::vector<std::uint8_t> out;
  out.reserve(entries.size() * 16);
  for (const auto& [request_id, payload] : entries) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>((request_id >> (8 * i)) & 0xFF));
    }
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>((payload >> (8 * i)) & 0xFF));
    }
  }
  return out;
}

[[nodiscard]] inline std::vector<std::pair<std::uint64_t, std::uint64_t>>
decode_history(const std::vector<std::uint8_t>& bytes) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (std::size_t off = 0; off + 16 <= bytes.size(); off += 16) {
    std::uint64_t request_id = 0;
    std::uint64_t payload = 0;
    for (int i = 0; i < 8; ++i) {
      request_id |= std::uint64_t{bytes[off + i]} << (8 * i);
      payload |= std::uint64_t{bytes[off + 8 + i]} << (8 * i);
    }
    out.emplace_back(request_id, payload);
  }
  return out;
}

}  // namespace asa_repro::storage
