// Wire messages for the commit protocol runtime.
//
// The simulated network carries opaque byte strings; these helpers define
// the commit protocol's small fixed-size frame, which serialize() writes
// into a sim::Payload's in-place buffer (no allocation) and parse() reads
// from any byte view. The free/not_free messages of the abstract model
// never appear here: they are node-internal, exchanged between sibling
// machine instances on the same peer (paper section 2.2's per-node
// serialisation of updates).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>

#include "sim/payload.hpp"

namespace asa_repro::commit {

/// Identifies one logical update request from a client. Retried attempts
/// get fresh update_ids but share the request_id, letting readers collapse
/// duplicate commits of the same logical update.
struct UpdateKey {
  std::uint64_t guid = 0;       // Which version history is being extended.
  std::uint64_t update_id = 0;  // Unique per attempt.

  friend bool operator==(const UpdateKey&, const UpdateKey&) = default;
  friend auto operator<=>(const UpdateKey&, const UpdateKey&) = default;
};

struct WireMessage {
  enum class Kind : std::uint8_t {
    kUpdate = 0,     // Client -> peer: request to commit an update.
    kVote = 1,       // Peer -> peer: vote for an update.
    kCommit = 2,     // Peer -> peer: commit an update.
    kCommitted = 3,  // Peer -> client: the update finished locally.
  };

  Kind kind = Kind::kUpdate;
  std::uint64_t guid = 0;
  std::uint64_t update_id = 0;
  std::uint64_t request_id = 0;  // Stable across retry attempts.
  std::uint64_t payload = 0;     // The PID (or value) being committed.

  /// Frame size: the kind byte and four little-endian words.
  static constexpr std::size_t kFrameBytes = 1 + 4 * sizeof(std::uint64_t);
  static_assert(kFrameBytes <= sim::Payload::kInline);

  [[nodiscard]] UpdateKey key() const { return {guid, update_id}; }

  [[nodiscard]] sim::Payload serialize() const {
    sim::Payload frame = sim::Payload::uninitialized(kFrameBytes);
    char* out = frame.data();
    out[0] = static_cast<char>(kind);
    std::size_t off = 1;
    for (std::uint64_t v : {guid, update_id, request_id, payload}) {
      for (int i = 0; i < 8; ++i) {
        out[off++] = static_cast<char>((v >> (8 * i)) & 0xFF);
      }
    }
    return frame;
  }

  [[nodiscard]] static std::optional<WireMessage> parse(
      std::string_view data) {
    if (data.size() != kFrameBytes) return std::nullopt;
    if (static_cast<std::uint8_t>(data[0]) > 3) return std::nullopt;
    WireMessage m;
    m.kind = static_cast<Kind>(data[0]);
    std::uint64_t* fields[] = {&m.guid, &m.update_id, &m.request_id,
                               &m.payload};
    std::size_t off = 1;
    for (std::uint64_t* f : fields) {
      std::uint64_t v = 0;
      for (int i = 0; i < 8; ++i) {
        v |= std::uint64_t{static_cast<std::uint8_t>(data[off++])} << (8 * i);
      }
      *f = v;
    }
    return m;
  }
};

}  // namespace asa_repro::commit
