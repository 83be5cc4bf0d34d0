// Command-line options shared by every tool.
//
// A tool states each option once, as one row of its option table: the
// spellings, the value's name, the help text, where the value is stored
// and which of the tool's modes read it. cli::Options parses argv against
// the table and prints --help from it. Once the tool has named its mode,
// require_mode refuses every given option that the mode would ignore, so
// no flag is ever parsed and then silently dropped.
//
// Numbers are parsed strictly (sim/parse_number.hpp): "4x", "-1" and ""
// are usage errors, never a different experiment. An option given last
// without its value is missing it, not empty. Every usage error throws
// BadArgument, which cli::run reports with exit code 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/parse_number.hpp"

namespace asa_repro::cli {

using sim::parse_double;
using sim::parse_unsigned;

/// A usage error: cli::run prints what() and exits 2.
class BadArgument : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

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

/// Stores one option's value; `option` is the spelling given, for messages.
using Store =
    std::function<void(const std::string& option, const std::string& value)>;

/// A set of mode facets, one bit each. A tool with one kind of mode gives
/// each mode a bit; a tool whose mode is a pair (fsmgen: a model and a
/// render kind) gives each half its own group of facets.
using Modes = std::uint32_t;
inline constexpr Modes kAllModes = ~Modes{0};

/// A facet's name for --help, and the group it belongs to.
struct Facet {
  Modes bit = 0;
  std::string_view name;
  int group = 0;
};

/// One row of a tool's option table.
struct Option {
  std::vector<std::string_view> names;  // Spellings: {"-o", "--out"}.
  std::string_view value;               // Value name; empty for a switch.
  std::string_view help;
  Store store;
  Modes modes = kAllModes;  // The facets whose code reads the option.
};

namespace detail {
template <typename T>
struct Optional : std::false_type {};
template <typename T>
struct Optional<std::optional<T>> : std::true_type {};

template <typename T>
T value_as(const std::string& option, const std::string& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    return value;
  } else if constexpr (std::is_floating_point_v<T>) {
    return double_arg(option, value);
  } else {
    return unsigned_arg<T>(option, value);
  }
}
}  // namespace detail

/// Store the value into `target`: a string as given, a number strictly
/// parsed; a std::optional target is engaged.
template <typename T>
Store to(T& target) {
  return [&target](const std::string& option, const std::string& value) {
    if constexpr (detail::Optional<T>::value) {
      target = detail::value_as<typename T::value_type>(option, value);
    } else {
      target = detail::value_as<T>(option, value);
    }
  };
}

/// A switch: set `target` to `value` when given.
inline Store set(bool& target, bool value = true) {
  return [&target, value](const std::string&, const std::string&) {
    target = value;
  };
}

/// A whole percentage, kept as a fraction (--reads 20 stores 0.2).
inline Store percent(double& target) {
  return [&target](const std::string& option, const std::string& value) {
    target = unsigned_arg<int>(option, value) / 100.0;
  };
}

/// A tool's option table and the options one command line gave.
class Options {
 public:
  /// `usage` opens --help: the synopsis line, then any prose (the modes).
  Options(std::string_view usage, std::vector<Facet> facets,
          std::vector<Option> rows)
      : usage_(usage), facets_(std::move(facets)), rows_(std::move(rows)) {
    rows_.push_back({{"-h", "--help"}, {}, "print this help", {}});
  }

  /// Parse argv into the rows' targets, in order. Returns false when
  /// --help was given: the help is printed and the tool should exit 0.
  bool parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t row = find(arg);
      if (row + 1 == rows_.size()) {  // The help row, added last.
        print_help();
        return false;
      }
      std::string value;
      if (!rows_[row].value.empty()) {
        if (i + 1 >= argc) throw BadArgument(arg + " expects a value");
        value = argv[++i];
      }
      rows_[row].store(arg, value);
      given_.emplace_back(row, arg);
    }
    return true;
  }

  /// BadArgument, naming the option and `mode_name`, for the first given
  /// option that is not read by every facet of `mode`.
  void require_mode(Modes mode, const std::string& mode_name) const {
    for (const auto& [row, spelling] : given_) {
      if ((rows_[row].modes & mode) != mode) {
        throw BadArgument(spelling + " does not apply to " + mode_name);
      }
    }
  }

  /// require_mode for a mode that is a single facet, named as in --help.
  void require_mode(Modes mode) const {
    for (const Facet& facet : facets_) {
      if (facet.bit == mode) require_mode(mode, std::string(facet.name));
    }
  }

 private:
  std::size_t find(const std::string& arg) const {
    for (std::size_t row = 0; row < rows_.size(); ++row) {
      for (const std::string_view name : rows_[row].names) {
        if (name == arg) return row;
      }
    }
    throw BadArgument("unknown option " + arg + " (see --help)");
  }

  /// " [only with a or b]" or " [not with c]", whichever is shorter, for
  /// each facet group some of whose facets do not read the row.
  std::string restriction(const Option& row) const {
    std::string out;
    for (int group = 0;; ++group) {
      std::vector<std::string_view> with[2];  // [reads the row?]
      for (const Facet& f : facets_) {
        if (f.group == group) with[(row.modes & f.bit) != 0].push_back(f.name);
      }
      if (with[0].empty() && with[1].empty()) break;
      if (with[0].empty()) continue;
      const bool only = with[1].size() <= with[0].size();
      out += out.empty() ? " [" : "; ";
      out += only ? "only with " : "not with ";
      for (std::size_t i = 0; i < with[only].size(); ++i) {
        (out += i == 0 ? "" : " or ") += with[only][i];
      }
    }
    return out.empty() ? out : out + "]";
  }

  void print_help() const {
    constexpr std::size_t kColumn = 24;  // Where the help text starts.
    constexpr std::size_t kWidth = 79;
    std::cout << usage_ << "\noptions:\n";
    for (const Option& row : rows_) {
      std::string out = " ";
      for (const std::string_view name : row.names) {
        (out += out.size() > 1 ? ", " : " ") += name;
      }
      if (!row.value.empty()) (out += ' ') += row.value;
      // Word-wrap the help text into the column after the spellings.
      std::size_t column = out.size();
      std::istringstream words(std::string(row.help) + restriction(row));
      bool first = true;
      for (std::string word; words >> word; first = false) {
        if (first ? column + 2 > kColumn : column + 1 + word.size() > kWidth) {
          out += '\n';
          column = 0;
        }
        const std::size_t pad = column < kColumn ? kColumn - column : 1;
        out.append(pad, ' ') += word;
        column += pad + word.size();
      }
      std::cout << out << "\n";
    }
  }

  std::string_view usage_;
  std::vector<Facet> facets_;
  std::vector<Option> rows_;
  std::vector<std::pair<std::size_t, std::string>> given_;  // argv order.
};

/// Run a tool's main, reporting a BadArgument as "<tool>: <message>" on
/// stderr with exit code 2.
template <typename Main>
int run(std::string_view tool, Main&& tool_main) {
  try {
    return tool_main();
  } catch (const BadArgument& error) {
    std::cerr << tool << ": " << error.what() << "\n";
    return 2;
  }
}

}  // namespace asa_repro::cli
