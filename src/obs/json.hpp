// Minimal JSON support for the observability layer: an ordered-field
// object writer (used by metric snapshots, JSONL events, and the bench
// output) and a small validating parser (used by tests and tools that
// round-trip the emitted records). Deliberately not a general JSON
// library: one object per writer, no incremental arrays, no comments.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace commroute::obs {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
std::string json_escape(std::string_view s);

/// Formats a finite double with the shortest precision that round-trips;
/// non-finite values render as null (JSON has no NaN/Inf).
std::string json_number(double value);

/// Builds one JSON object with fields in insertion order. str() renders
/// the complete object; a writer is copyable so events can be stored.
class JsonWriter {
 public:
  JsonWriter& field(std::string_view key, std::string_view value);
  JsonWriter& field(std::string_view key, const std::string& value);
  JsonWriter& field(std::string_view key, const char* value);
  JsonWriter& field(std::string_view key, std::uint64_t value);
  JsonWriter& field(std::string_view key, std::int64_t value);
  JsonWriter& field(std::string_view key, int value);
  JsonWriter& field(std::string_view key, double value);
  JsonWriter& field(std::string_view key, bool value);
  /// Inserts `json` verbatim as the value (for nested objects/arrays).
  JsonWriter& raw_field(std::string_view key, std::string_view json);

  std::string str() const;

 private:
  void begin_field(std::string_view key);
  std::string body_;
};

/// Parsed JSON value. Objects preserve field order; lookup is linear
/// (records in this codebase have a handful of fields).
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;
  using Storage =
      std::variant<std::nullptr_t, bool, double, std::string, Array, Object>;

  Storage value;

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value); }
  bool is_bool() const { return std::holds_alternative<bool>(value); }
  bool is_number() const { return std::holds_alternative<double>(value); }
  bool is_string() const { return std::holds_alternative<std::string>(value); }
  bool is_array() const { return std::holds_alternative<Array>(value); }
  bool is_object() const { return std::holds_alternative<Object>(value); }

  bool as_bool() const { return std::get<bool>(value); }
  double as_number() const { return std::get<double>(value); }
  /// The number as a uint64_t when it is an integer with
  /// 0 <= x < 2^64; nullopt for anything else (non-numbers, fractions,
  /// negatives, values a cast could not represent). Loaders turn nullopt
  /// into a ParseError naming the field.
  std::optional<std::uint64_t> as_u64() const;
  const std::string& as_string() const { return std::get<std::string>(value); }
  const Array& as_array() const { return std::get<Array>(value); }
  const Object& as_object() const { return std::get<Object>(value); }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
};

/// The number `v` points at, times `scale`, truncated toward zero into
/// the unsigned type T: exactly static_cast<T>(x) wherever that cast is
/// defined. nullopt when `v` is null or not a number, and when the
/// truncated value does not fit in T (NaN, <= -1, >= 2^bits), where the
/// cast would be undefined. Readers of untrusted JSON convert numbers
/// through this and treat nullopt like an absent field.
template <typename T>
std::optional<T> truncate_number(const JsonValue* v, double scale = 1.0) {
  static_assert(std::is_unsigned_v<T>);
  if (v == nullptr || !v->is_number()) {
    return std::nullopt;
  }
  const double x = v->as_number() * scale;
  // 2^bits is exact as a double; the negated test also rejects NaN.
  const double limit =
      2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
  if (!(x > -1.0 && x < limit)) {
    return std::nullopt;
  }
  return static_cast<T>(x);
}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected). nullopt on any syntax error. Hardened
/// for untrusted input: nesting beyond 256 levels, non-standard numbers
/// (leading '+', bare '.', overflow to infinity), and raw control
/// characters inside strings are all rejected rather than crashing or
/// silently accepted. Bytes >= 0x80 pass through verbatim (the parser
/// does not validate UTF-8), and duplicate keys are kept in order.
std::optional<JsonValue> json_parse(std::string_view text);

/// Renders a parsed value back to compact JSON text (objects keep field
/// order). Round-trips json_parse output up to number formatting.
std::string json_render(const JsonValue& value);

}  // namespace commroute::obs
