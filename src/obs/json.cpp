#include "obs/json.hpp"

#include <cctype>
#include <charconv>

namespace asa_repro::obs {

namespace {

/// Append `raw` to `out` in JSON-escaped form. The one escaping rule.
void append_escaped(std::string& out, std::string_view raw) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // Start of the pending unescaped run.
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(raw, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(code, sizeof code);
      }
    }
  }
  out.append(raw, run);
}

}  // namespace

void JsonWriter::newline(int depth) {
  out_ += '\n';
  out_.append(
      static_cast<std::size_t>(indent_) * static_cast<std::size_t>(depth),
      ' ');
}

void JsonWriter::next_item() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (depth_ == 0) return;  // The document's root value.
  if (!empty_) out_ += ',';
  empty_ = false;
  if (indent_ >= 0) newline(depth_);
}

JsonWriter& JsonWriter::open(char bracket) {
  next_item();
  out_ += bracket;
  ++depth_;
  empty_ = true;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  --depth_;
  if (!empty_ && indent_ >= 0) newline(depth_);
  out_ += bracket;
  // The enclosing container now holds this one.
  empty_ = false;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  next_item();
  out_ += '"';
  append_escaped(out_, k);
  out_ += indent_ >= 0 ? "\": " : "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  next_item();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  next_item();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t i) {
  next_item();
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, i);
  out_.append(buf, end);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t u) {
  // Same as JsonValue(std::uint64_t): the schemas' integers are signed.
  return value(static_cast<std::int64_t>(u));
}

JsonWriter& JsonWriter::value(double d) {
  next_item();
  // Shortest round-trippable form, locale-independent.
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, d);
  if (ec == std::errc()) {
    out_.append(buf, end);
  } else {
    out_ += '0';
  }
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  next_item();
  out_ += '"';
  append_escaped(out_, s);
  out_ += '"';
  return *this;
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

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
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
