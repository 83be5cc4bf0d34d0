#include "obs/json.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cstring>

namespace asa_repro::obs {

namespace {

/// Whether `c` is copied as is into a JSON string (the one escaping rule:
/// quotes, backslash and control characters are escaped). A table, so the
/// copy loop tests each byte with one load.
constexpr auto kPlain = [] {
  std::array<bool, 256> plain{};
  for (int c = 0x20; c < 256; ++c) plain[c] = c != '"' && c != '\\';
  return plain;
}();

bool plain(unsigned char c) { return kPlain[c]; }

/// The escape sequence of a character that is not plain(), into `code`;
/// returns its length.
std::size_t escape(unsigned char c, char (&code)[6]) {
  static constexpr char kHex[] = "0123456789abcdef";
  code[0] = '\\';
  switch (c) {
    case '"': code[1] = '"'; return 2;
    case '\\': code[1] = '\\'; return 2;
    case '\n': code[1] = 'n'; return 2;
    case '\r': code[1] = 'r'; return 2;
    case '\t': code[1] = 't'; return 2;
    case '\b': code[1] = 'b'; return 2;
    case '\f': code[1] = 'f'; return 2;
    default:
      code[1] = 'u';
      code[2] = '0';
      code[3] = '0';
      code[4] = kHex[c >> 4];
      code[5] = kHex[c & 0xF];
      return 6;
  }
}

}  // namespace

void JsonWriter::put(const char* p, std::size_t n) {
  if (static_cast<std::size_t>(chunk_ + kChunk - cur_) < n) {
    flush();
    if (n > kChunk) {  // Larger than any chunk: straight through.
      out_.append(p, n);
      return;
    }
  }
  std::memcpy(cur_, p, n);
  cur_ += n;
}

void JsonWriter::fill(char c, std::size_t n) {
  while (n > 0) {
    const std::size_t step = std::min(n, kChunk);
    std::memset(room(step), c, step);
    cur_ += step;
    n -= step;
  }
}

void JsonWriter::put_quoted(std::string_view s, std::string_view tail) {
  const std::size_t n = s.size();
  if (n + 1 + tail.size() <= kChunk) {
    // Copy while checking, into room for the whole token: a plain string
    // (every key, almost every value) takes one pass and one room check.
    char* p = room(n + 1 + tail.size());
    *p++ = '"';
    std::size_t i = 0;
    while (i < n && plain(static_cast<unsigned char>(s[i]))) {
      p[i] = s[i];
      ++i;
    }
    if (i == n) {
      p += n;
      for (const char c : tail) *p++ = c;
      cur_ = p;
      return;
    }
  }
  put('"');
  std::size_t run = 0;  // Start of the pending plain run.
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (plain(c)) continue;
    put(s.data() + run, i - run);
    run = i + 1;
    char code[6];
    put(code, escape(c, code));
  }
  put(s.data() + run, n - run);
  put(tail.data(), tail.size());
}

void JsonWriter::separate(bool comma) {
  // Shallow indents are written as one fixed 16-byte store of spaces (the
  // room check covers the whole store); deeper ones use memset.
  static constexpr char kSpaces[] = "                ";
  constexpr std::size_t kShallow = sizeof kSpaces - 1;
  const std::size_t pad =
      indent_ < 0 ? 0
                  : static_cast<std::size_t>(indent_) *
                        static_cast<std::size_t>(depth_);
  if (pad + 2 + kShallow > kChunk) {  // Deeper than a chunk holds.
    if (comma) put(',');
    put('\n');
    fill(' ', pad);
    return;
  }
  char* p = room(pad + 2 + kShallow);
  if (comma) *p++ = ',';
  if (indent_ >= 0) {
    *p++ = '\n';
    if (pad <= kShallow) {
      std::memcpy(p, kSpaces, kShallow);
    } else {
      std::memset(p, ' ', pad);
    }
    p += pad;
  }
  cur_ = p;
}

void JsonWriter::next_item_slow() {
  if (depth_ == 0) return;  // The document's root value.
  const bool comma = !empty_;
  empty_ = false;
  separate(comma);
}

JsonWriter& JsonWriter::ended() {
  if (depth_ == 0) flush();
  return *this;
}

JsonWriter& JsonWriter::open(char bracket) {
  next_item();
  put(bracket);
  ++depth_;
  empty_ = true;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  --depth_;
  if (!empty_ && indent_ >= 0) separate(false);
  put(bracket);
  // The enclosing container now holds this one.
  empty_ = false;
  return ended();
}

JsonWriter& JsonWriter::key(std::string_view k) {
  next_item();
  put_quoted(k, indent_ >= 0 ? std::string_view("\": ")
                             : std::string_view("\":"));
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  next_item();
  put("null", 4);
  return ended();
}

JsonWriter& JsonWriter::value(bool b) {
  next_item();
  if (b) {
    put("true", 4);
  } else {
    put("false", 5);
  }
  return ended();
}

JsonWriter& JsonWriter::value(std::int64_t i) {
  next_item();
  constexpr std::size_t kMax = 20;  // "-9223372036854775808".
  char* p = room(kMax);
  cur_ = std::to_chars(p, p + kMax, i).ptr;
  return ended();
}


JsonWriter& JsonWriter::value(double d) {
  next_item();
  // Shortest round-trippable form, locale-independent.
  constexpr std::size_t kMax = 32;
  char* p = room(kMax);
  const auto [end, ec] = std::to_chars(p, p + kMax, d);
  if (ec == std::errc()) {
    cur_ = end;
  } else {
    *p = '0';
    cur_ = p + 1;
  }
  return ended();
}

JsonWriter& JsonWriter::value(std::string_view s) {
  next_item();
  put_quoted(s, "\"");
  return ended();
}

JsonWriter& JsonWriter::value(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: return null();
    case JsonValue::Kind::kBool: return value(v.as_bool());
    case JsonValue::Kind::kInt: return value(v.as_int());
    case JsonValue::Kind::kDouble: return value(v.as_double());
    case JsonValue::Kind::kString: return value(std::string_view(v.as_string()));
    case JsonValue::Kind::kArray:
      begin_array();
      for (const JsonValue& item : v.items()) value(item);
      return end_array();
    case JsonValue::Kind::kObject:
      begin_object();
      for (const auto& [k, member] : v.members()) {
        key(k);
        value(member);
      }
      return end_object();
  }
  return *this;
}

const std::string& JsonValue::as_string() const {
  static const std::string kNone;
  const std::string* s = std::get_if<std::string>(&value_);
  return s == nullptr ? kNone : *s;
}

const JsonValue::Items& JsonValue::items() const {
  static const Items kNone;
  const Items* items = std::get_if<Items>(&value_);
  return items == nullptr ? kNone : *items;
}

const JsonValue::Members& JsonValue::members() const {
  static const Members kNone;
  const Members* members = std::get_if<Members>(&value_);
  return members == nullptr ? kNone : *members;
}

void JsonValue::reserve(std::size_t n) {
  if (Items* items = std::get_if<Items>(&value_)) items->reserve(n);
  if (Members* members = std::get_if<Members>(&value_)) members->reserve(n);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, v] : members()) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  JsonWriter(out, indent).value(*this);
  return out;
}

namespace {

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  int depth = 0;
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  std::optional<std::string> parse_string() {
    skip_ws();
    if (pos >= text.size() || text[pos] != '"') return std::nullopt;
    ++pos;
    std::string out;
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos >= text.size()) return std::nullopt;
        const char esc = text[pos++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos + 4 > text.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return std::nullopt;
            }
            // Our own writer only emits \uXXXX for control characters; decode
            // the BMP code point as UTF-8 (surrogate pairs unsupported).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // Unterminated.
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    bool integral = true;
    while (pos < text.size()) {
      const char c = text[pos];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos;
      } else {
        break;
      }
    }
    const std::string token = text.substr(start, pos - start);
    if (token.empty() || token == "-") return std::nullopt;
    try {
      if (integral) return JsonValue(std::int64_t(std::stoll(token)));
      return JsonValue(std::stod(token));
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }

  std::optional<JsonValue> parse_value() {
    if (++depth > kMaxDepth) return std::nullopt;
    struct DepthGuard {
      int& d;
      ~DepthGuard() { --d; }
    } guard{depth};
    skip_ws();
    if (pos >= text.size()) return std::nullopt;
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      JsonValue obj = JsonValue::object();
      skip_ws();
      if (consume('}')) return obj;
      while (true) {
        auto key = parse_string();
        if (!key.has_value()) return std::nullopt;
        if (!consume(':')) return std::nullopt;
        auto value = parse_value();
        if (!value.has_value()) return std::nullopt;
        obj.set(std::move(*key), std::move(*value));
        if (consume(',')) continue;
        if (consume('}')) return obj;
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos;
      JsonValue arr = JsonValue::array();
      skip_ws();
      if (consume(']')) return arr;
      while (true) {
        auto value = parse_value();
        if (!value.has_value()) return std::nullopt;
        arr.push_back(std::move(*value));
        if (consume(',')) continue;
        if (consume(']')) return arr;
        return std::nullopt;
      }
    }
    if (c == '"') {
      auto s = parse_string();
      if (!s.has_value()) return std::nullopt;
      return JsonValue(std::move(*s));
    }
    if (text.compare(pos, 4, "true") == 0) {
      pos += 4;
      return JsonValue(true);
    }
    if (text.compare(pos, 5, "false") == 0) {
      pos += 5;
      return JsonValue(false);
    }
    if (text.compare(pos, 4, "null") == 0) {
      pos += 4;
      return JsonValue();
    }
    return parse_number();
  }
};

}  // namespace

std::optional<JsonValue> parse_json(const std::string& text) {
  Parser p{text};
  auto value = p.parse_value();
  if (!value.has_value()) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) return std::nullopt;  // Trailing garbage.
  return value;
}

}  // namespace asa_repro::obs
