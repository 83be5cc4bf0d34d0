// CRC-32 (IEEE 802.3 polynomial, reflected) for journal record framing.
//
// Every journal frame carries two checksums (header and payload) so that
// recovery can distinguish a torn tail (truncate) from an isolated bit-rot
// hit (skip one record) — see journal.hpp. Slicing-by-8: eight table
// lookups per eight input bytes, with a bytewise tail. Journal frames and
// snapshot re-encoding put it on the commit path.
#pragma once

#include <cstdint>
#include <string_view>

namespace asa_repro::durable {

/// CRC-32 of `bytes` (initial value 0xFFFFFFFF, final XOR, reflected
/// polynomial 0xEDB88320 — the zlib/PNG convention).
[[nodiscard]] std::uint32_t crc32(std::string_view bytes);

}  // namespace asa_repro::durable
