// Strict number parsing shared by every reader of user-supplied text: the
// command-line tools and the replay-file readers (ChaosConfig::parse,
// FaultEvent::parse, ReplayPlan::parse).
//
// std::stoul and friends accept "4x" (parsing the 4), skip leading
// whitespace and silently wrap "-1", and `istream >>` into an unsigned
// wraps "-5" the same way, so a mistyped value runs a different experiment
// than the one asked for. These helpers accept only a whole string holding
// one plain number.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

namespace asa_repro::sim {

/// Base-10 digits only: rejects empty strings, signs, whitespace, trailing
/// garbage and values that overflow 64 bits.
inline std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (const char ch : text) {
    if (ch < '0' || ch > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (value > (kMax - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

/// parse_u64 narrowed to T; values above T's maximum are rejected, and a
/// signed T still never accepts a negative value.
template <typename T>
std::optional<T> parse_unsigned(const std::string& text) {
  const std::optional<std::uint64_t> value = parse_u64(text);
  if (!value.has_value() ||
      *value > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    return std::nullopt;
  }
  return static_cast<T>(*value);
}

/// A finite decimal number spanning the whole string.
inline std::optional<double> parse_double(const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace asa_repro::sim
