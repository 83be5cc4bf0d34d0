#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace asa_repro::obs {

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent < 0 ? std::string()
                 : "\n" + std::string(static_cast<std::size_t>(indent) *
                                          (static_cast<std::size_t>(depth) + 1),
                                      ' ');
  const std::string close_pad =
      indent < 0 ? std::string()
                 : "\n" + std::string(static_cast<std::size_t>(indent) *
                                          static_cast<std::size_t>(depth),
                                      ' ');
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kInt:
      out += std::to_string(int_);
      break;
    case Kind::kDouble: {
      // Shortest round-trippable form, locale-independent.
      char buf[32];
      const auto [end, ec] =
          std::to_chars(buf, buf + sizeof buf, double_);
      if (ec == std::errc()) {
        out.append(buf, end);
      } else {
        out += "0";
      }
      break;
    }
    case Kind::kString:
      out += '"';
      out += json_escape(string_);
      out += '"';
      break;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : items_) {
        if (!first) out += ',';
        first = false;
        out += pad;
        item.dump_to(out, indent, depth + 1);
      }
      if (!items_.empty()) out += close_pad;
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) out += ',';
        first = false;
        out += pad;
        out += '"';
        out += json_escape(key);
        out += "\":";
        if (indent >= 0) out += ' ';
        value.dump_to(out, indent, depth + 1);
      }
      if (!members_.empty()) out += close_pad;
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
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
