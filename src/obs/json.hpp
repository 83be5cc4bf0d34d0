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

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <variant>
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
///
/// Tokens are written through a raw cursor into a fixed chunk inside the
/// writer, which is appended to `out` in blocks: a token costs one room
/// check and a copy, not several string appends. `out` is complete each
/// time a root value closes (the chunk is flushed then), so a caller may
/// append to `out` between root values: JSONL is one root value per line
/// through one writer. In the middle of a document `out` holds only what
/// has been flushed, and an abandoned document's tail is never written.
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
  /// Same as JsonValue(std::uint64_t): the schemas' integers are signed.
  JsonWriter& value(std::uint64_t u) {
    return value(static_cast<std::int64_t>(u));
  }
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
  static constexpr std::size_t kChunk = 4096;

  /// Separator and line break before a value (nothing after a key).
  void next_item() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    next_item_slow();
  }
  void next_item_slow();
  /// An optional ',' then, when indenting, a line break and the current
  /// depth's indent.
  void separate(bool comma);
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  /// A scalar or container ended: flush if it was the root value.
  JsonWriter& ended();

  /// The cursor, with at least `n` <= kChunk bytes of room behind it.
  char* room(std::size_t n) {
    if (static_cast<std::size_t>(chunk_ + kChunk - cur_) < n) flush();
    return cur_;
  }
  void put(char c) {
    *room(1) = c;
    ++cur_;
  }
  void put(const char* p, std::size_t n);
  void fill(char c, std::size_t n);
  /// `s` escaped between a '"' and `tail` (the closing quote, plus the
  /// colon after a key).
  void put_quoted(std::string_view s, std::string_view tail);
  void flush() {
    if (cur_ == chunk_) return;
    out_.append(chunk_, cur_);
    cur_ = chunk_;
  }

  std::string& out_;
  int indent_;
  int depth_ = 0;           // Open containers.
  bool empty_ = true;       // The innermost container has no items yet.
  bool after_key_ = false;  // The next value completes a member.
  char chunk_[kChunk];
  char* cur_ = chunk_;  // Next free byte of chunk_.
};

/// A parsed (or hand-built) JSON tree. One variant per node: a node holds
/// only its own kind's payload (40 bytes), so building, moving and freeing
/// a large tree (the flight view of a long run) stays cheap.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  using Items = std::vector<JsonValue>;
  using Members = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;
  explicit JsonValue(bool b) : value_(b) {}
  explicit JsonValue(std::int64_t i) : value_(i) {}
  explicit JsonValue(std::uint64_t u)
      : value_(static_cast<std::int64_t>(u)) {}
  explicit JsonValue(double d) : value_(d) {}
  explicit JsonValue(std::string s) : value_(std::move(s)) {}
  explicit JsonValue(const char* s) : value_(std::string(s)) {}

  [[nodiscard]] static JsonValue array() {
    JsonValue v;
    v.value_.emplace<Items>();
    return v;
  }
  [[nodiscard]] static JsonValue object() {
    JsonValue v;
    v.value_.emplace<Members>();
    return v;
  }

  /// The variant's alternatives follow Kind's order.
  [[nodiscard]] Kind kind() const {
    return static_cast<Kind>(value_.index());
  }
  [[nodiscard]] bool is_null() const { return kind() == Kind::kNull; }
  [[nodiscard]] bool is_number() const {
    return kind() == Kind::kInt || kind() == Kind::kDouble;
  }
  [[nodiscard]] bool is_string() const { return kind() == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind() == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind() == Kind::kObject; }

  // Accessors of another kind read as false, 0, "" or empty.
  [[nodiscard]] bool as_bool() const {
    const bool* b = std::get_if<bool>(&value_);
    return b != nullptr && *b;
  }
  [[nodiscard]] std::int64_t as_int() const {
    if (const double* d = std::get_if<double>(&value_)) {
      return static_cast<std::int64_t>(*d);
    }
    const std::int64_t* i = std::get_if<std::int64_t>(&value_);
    return i == nullptr ? 0 : *i;
  }
  [[nodiscard]] double as_double() const {
    if (const std::int64_t* i = std::get_if<std::int64_t>(&value_)) {
      return static_cast<double>(*i);
    }
    const double* d = std::get_if<double>(&value_);
    return d == nullptr ? 0.0 : *d;
  }
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Items& items() const;
  [[nodiscard]] const Members& members() const;

  /// Object member by key (first occurrence), or nullptr.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Room for `n` items (array) or members (object).
  void reserve(std::size_t n);
  /// Append to an array; set appends a member to an object (no check for
  /// an existing key), its value constructed in place from `args`. Either
  /// on another kind throws std::bad_variant_access.
  void push_back(JsonValue v) {
    std::get<Items>(value_).push_back(std::move(v));
  }
  template <typename... Args>
  void set(std::string key, Args&&... args) {
    std::get<Members>(value_).emplace_back(
        std::piecewise_construct, std::forward_as_tuple(std::move(key)),
        std::forward_as_tuple(std::forward<Args>(args)...));
  }

  /// Serialize through JsonWriter. Compact (no whitespace) unless
  /// `indent` >= 0, in which case nested values are indented by that many
  /// extra spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
  std::variant<std::monostate, bool, std::int64_t, double, std::string,
               Items, Members>
      value_;
};

/// Parse one JSON document. Returns nullopt on any syntax error (trailing
/// garbage after the document is also an error). JSONL readers split the
/// stream into lines and parse each one with this.
[[nodiscard]] std::optional<JsonValue> parse_json(const std::string& text);

}  // namespace asa_repro::obs
