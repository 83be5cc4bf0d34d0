// Minimal JSON support for the observability layer.
//
// Every asa-* document and trace line is WRITTEN through one streaming
// serialiser, JsonWriter, which appends to a string with no document tree
// in between, and READ back (report rendering, schema validation,
// round-trip tests) into a small JsonValue tree. JsonValue::dump is a walk
// of the tree into the same writer, so there is one formatting path. No external dependency,
// no feature beyond what the asa-* schemas use (objects, arrays, strings,
// integers, doubles, booleans, null).
//
// Writing is deterministic by construction: members come out in the order
// the producer writes them, and every producer in this repo writes keys in
// a fixed order, so identical runs yield byte-identical files.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace asa_repro::obs {

class JsonValue;

/// Streaming serialiser: appends one JSON document to `out` as the producer
/// walks its own data. Compact (no whitespace) when `indent` < 0; otherwise
/// every member and item starts on a new line indented by `indent` spaces
/// per open container, a key is followed by ": ", and an empty container
/// stays "{}" / "[]". Keys and strings are escaped: quotes, backslash and
/// control characters (trace details embed arbitrary text) as \n, \t, ...
/// or \u00XX. The caller keeps the nesting balanced: key() only inside an
/// object, each followed by one value.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out, int indent = -1)
      : out_(out), indent_(indent) {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view k);

  JsonWriter& null();
  JsonWriter& value(bool b);
  JsonWriter& value(std::int64_t i);
  JsonWriter& value(std::uint64_t u);
  JsonWriter& value(double d);
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  /// A whole tree, written as if its nodes had been passed one by one.
  JsonWriter& value(const JsonValue& v);

  /// `key(k)` then `value(v)`.
  template <typename T>
  JsonWriter& member(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

 private:
  /// Separator and line break before a value (nothing after a key).
  void next_item();
  void newline(int depth);
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);

  std::string& out_;
  int indent_;
  int depth_ = 0;           // Open containers.
  bool empty_ = true;       // The innermost container has no items yet.
  bool after_key_ = false;  // The next value completes a member.
};

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

  /// Serialize through JsonWriter. Compact (no whitespace) unless
  /// `indent` >= 0, in which case nested values are indented by that many
  /// extra spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
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
