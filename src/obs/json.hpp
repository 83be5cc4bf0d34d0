// Minimal JSON support for the observability layer.
//
// The metrics exporter and the asareport tool need exactly two things: a
// deterministic way to WRITE the versioned metrics/trace files, and a way
// to READ them back (report rendering, schema validation, round-trip
// tests). Both sides are implemented here against a small JsonValue tree —
// no external dependency, no feature beyond what the asa-metrics/1 and
// asa-trace/1 schemas use (objects, arrays, strings, integers, doubles,
// booleans, null).
//
// Writing is deterministic by construction: objects serialize members in
// insertion order, and every producer in this repo inserts keys in a fixed
// order, so identical runs yield byte-identical files.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace asa_repro::obs {

/// JSON string escaping (quotes, backslash, control characters including
/// newlines — trace details embed arbitrary text).
[[nodiscard]] std::string json_escape(const std::string& raw);

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(std::int64_t i) : kind_(Kind::kInt), int_(i) {}
  explicit JsonValue(std::uint64_t u)
      : kind_(Kind::kInt), int_(static_cast<std::int64_t>(u)) {}
  explicit JsonValue(double d) : kind_(Kind::kDouble), double_(d) {}
  explicit JsonValue(std::string s)
      : kind_(Kind::kString), string_(std::move(s)) {}
  explicit JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}

  [[nodiscard]] static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  [[nodiscard]] static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] std::int64_t as_int() const {
    return kind_ == Kind::kDouble ? static_cast<std::int64_t>(double_)
                                  : int_;
  }
  [[nodiscard]] double as_double() const {
    return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
  }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const std::vector<JsonValue>& items() const { return items_; }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  members() const {
    return members_;
  }

  /// Object member by key (first occurrence), or nullptr.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  void push_back(JsonValue v) { items_.push_back(std::move(v)); }
  void set(std::string key, JsonValue v) {
    members_.emplace_back(std::move(key), std::move(v));
  }

  /// Serialize. Compact (no whitespace) unless `indent` >= 0, in which case
  /// nested values are indented by that many extra spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parse one JSON document. Returns nullopt on any syntax error (trailing
/// garbage after the document is also an error). JSONL readers split the
/// stream into lines and parse each one with this.
[[nodiscard]] std::optional<JsonValue> parse_json(const std::string& text);

}  // namespace asa_repro::obs
