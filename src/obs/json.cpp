#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace commroute::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
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

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[32];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) {
      break;
    }
  }
  return buf;
}

void JsonWriter::begin_field(std::string_view key) {
  if (!body_.empty()) {
    body_ += ',';
  }
  body_ += '"';
  body_ += json_escape(key);
  body_ += "\":";
}

JsonWriter& JsonWriter::field(std::string_view key, std::string_view value) {
  begin_field(key);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, const std::string& value) {
  return field(key, std::string_view(value));
}

JsonWriter& JsonWriter::field(std::string_view key, const char* value) {
  return field(key, std::string_view(value));
}

JsonWriter& JsonWriter::field(std::string_view key, std::uint64_t value) {
  begin_field(key);
  body_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::int64_t value) {
  begin_field(key);
  body_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, int value) {
  return field(key, static_cast<std::int64_t>(value));
}

JsonWriter& JsonWriter::field(std::string_view key, double value) {
  begin_field(key);
  body_ += json_number(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, bool value) {
  begin_field(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw_field(std::string_view key,
                                  std::string_view json) {
  begin_field(key);
  body_ += json;
  return *this;
}

std::string JsonWriter::str() const { return "{" + body_ + "}"; }

std::optional<std::uint64_t> JsonValue::as_u64() const {
  if (!is_number() || as_number() != std::floor(as_number())) {
    return std::nullopt;
  }
  return truncate_number<std::uint64_t>(this);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) {
    return nullptr;
  }
  for (const auto& [k, v] : as_object()) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

namespace {

/// Recursion ceiling for nested arrays/objects: deep enough for any
/// record this codebase emits, shallow enough that hostile input (e.g.
/// 100k opening brackets fed to commroute-obs) cannot blow the stack.
constexpr int kMaxDepth = 256;

struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  bool done() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }
  bool eat(char c) {
    if (!done() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (!done() && (text[pos] == ' ' || text[pos] == '\t' ||
                       text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }
  bool eat_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) == lit) {
      pos += lit.size();
      return true;
    }
    return false;
  }
};

bool parse_value(Cursor& c, JsonValue& out, int depth);

bool parse_string_body(Cursor& c, std::string& out) {
  // Opening quote already consumed.
  while (!c.done()) {
    const char ch = c.text[c.pos++];
    if (ch == '"') {
      return true;
    }
    if (static_cast<unsigned char>(ch) < 0x20) {
      return false;  // raw control characters must be escaped
    }
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (c.done()) {
      return false;
    }
    const char esc = c.text[c.pos++];
    switch (esc) {
      case '"':
        out += '"';
        break;
      case '\\':
        out += '\\';
        break;
      case '/':
        out += '/';
        break;
      case 'b':
        out += '\b';
        break;
      case 'f':
        out += '\f';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 'u': {
        if (c.pos + 4 > c.text.size()) {
          return false;
        }
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = c.text[c.pos++];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return false;
          }
        }
        // UTF-8 encode the BMP code point (surrogate pairs are not
        // combined; each half encodes independently, which is enough
        // for round-tripping our own escaper's output).
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
        return false;
    }
  }
  return false;  // unterminated
}

bool parse_number(Cursor& c, JsonValue& out) {
  const std::size_t start = c.pos;
  if (c.eat('-')) {
  }
  // JSON requires a digit here: "+1", ".5", and bare "-" are rejected.
  if (c.done() || c.peek() < '0' || c.peek() > '9') {
    return false;
  }
  while (!c.done() && ((c.peek() >= '0' && c.peek() <= '9') ||
                       c.peek() == '.' || c.peek() == 'e' ||
                       c.peek() == 'E' || c.peek() == '+' ||
                       c.peek() == '-')) {
    ++c.pos;
  }
  const std::string token(c.text.substr(start, c.pos - start));
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
    return false;  // malformed, or overflowed past double range
  }
  out.value = v;
  return true;
}

bool parse_value(Cursor& c, JsonValue& out, int depth) {
  if (depth > kMaxDepth) {
    return false;
  }
  c.skip_ws();
  if (c.done()) {
    return false;
  }
  const char ch = c.peek();
  if (ch == '{') {
    ++c.pos;
    JsonValue::Object obj;
    c.skip_ws();
    if (c.eat('}')) {
      out.value = std::move(obj);
      return true;
    }
    for (;;) {
      c.skip_ws();
      if (!c.eat('"')) {
        return false;
      }
      std::string key;
      if (!parse_string_body(c, key)) {
        return false;
      }
      c.skip_ws();
      if (!c.eat(':')) {
        return false;
      }
      JsonValue member;
      if (!parse_value(c, member, depth + 1)) {
        return false;
      }
      obj.emplace_back(std::move(key), std::move(member));
      c.skip_ws();
      if (c.eat(',')) {
        continue;
      }
      if (c.eat('}')) {
        out.value = std::move(obj);
        return true;
      }
      return false;
    }
  }
  if (ch == '[') {
    ++c.pos;
    JsonValue::Array arr;
    c.skip_ws();
    if (c.eat(']')) {
      out.value = std::move(arr);
      return true;
    }
    for (;;) {
      JsonValue element;
      if (!parse_value(c, element, depth + 1)) {
        return false;
      }
      arr.push_back(std::move(element));
      c.skip_ws();
      if (c.eat(',')) {
        continue;
      }
      if (c.eat(']')) {
        out.value = std::move(arr);
        return true;
      }
      return false;
    }
  }
  if (ch == '"') {
    ++c.pos;
    std::string s;
    if (!parse_string_body(c, s)) {
      return false;
    }
    out.value = std::move(s);
    return true;
  }
  if (c.eat_literal("true")) {
    out.value = true;
    return true;
  }
  if (c.eat_literal("false")) {
    out.value = false;
    return true;
  }
  if (c.eat_literal("null")) {
    out.value = nullptr;
    return true;
  }
  return parse_number(c, out);
}

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text) {
  Cursor c{text};
  JsonValue v;
  if (!parse_value(c, v, 0)) {
    return std::nullopt;
  }
  c.skip_ws();
  if (!c.done()) {
    return std::nullopt;  // trailing garbage
  }
  return v;
}

std::string json_render(const JsonValue& value) {
  if (value.is_null()) {
    return "null";
  }
  if (value.is_bool()) {
    return value.as_bool() ? "true" : "false";
  }
  if (value.is_number()) {
    return json_number(value.as_number());
  }
  if (value.is_string()) {
    return "\"" + json_escape(value.as_string()) + "\"";
  }
  if (value.is_array()) {
    std::string out = "[";
    const JsonValue::Array& arr = value.as_array();
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += json_render(arr[i]);
    }
    out += ']';
    return out;
  }
  std::string out = "{";
  const JsonValue::Object& obj = value.as_object();
  for (std::size_t i = 0; i < obj.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += '"';
    out += json_escape(obj[i].first);
    out += "\":";
    out += json_render(obj[i].second);
  }
  out += '}';
  return out;
}

}  // namespace commroute::obs
