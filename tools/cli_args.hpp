// Strict option parsing shared by every command-line tool.
//
// std::stoul and friends accept "4x" (parsing the 4), skip leading
// whitespace and silently wrap "-1", so a mistyped option runs a different
// experiment than the one asked for. These helpers accept only a whole
// string holding one plain number, and an option given last without its
// value is missing it, not empty; anything else is a usage error, which
// every tool reports with exit code 2.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

namespace asa_repro::cli {

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

inline std::optional<std::uint32_t> parse_u32(const std::string& text) {
  return parse_unsigned<std::uint32_t>(text);
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

/// Thrown by the *_arg helpers. Tools catch it around option parsing,
/// print what() and exit 2.
class BadArgument : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The value after the option `argv[i]`, stepping `i` onto it; BadArgument
/// when the option is the last argument, so `--spans-out` given last
/// cannot run as if it were absent.
inline std::string next_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    throw BadArgument(std::string(argv[i]) + " expects a value");
  }
  return argv[++i];
}

/// The value of `option` as an unsigned number of type T, or BadArgument.
template <typename T>
T unsigned_arg(const std::string& option, const std::string& value) {
  if (const std::optional<T> parsed = parse_unsigned<T>(value)) return *parsed;
  throw BadArgument(option + " expects an unsigned integer, got '" + value +
                    "'");
}

/// The value of `option` as a finite number, or BadArgument.
inline double double_arg(const std::string& option, const std::string& value) {
  if (const std::optional<double> parsed = parse_double(value)) return *parsed;
  throw BadArgument(option + " expects a number, got '" + value + "'");
}

}  // namespace asa_repro::cli
