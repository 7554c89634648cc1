// Malformed-input robustness of the JSON parser. The parser feeds on
// untrusted bytes (JSONL traces from disk, BENCH_*.json handed to the
// CLI), so every broken shape here must come back as nullopt — never a
// crash, hang, or silent acceptance — and the hardening limits (nesting
// depth, strict number syntax, raw control characters) must hold.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace commroute {
namespace {

TEST(JsonRobust, TruncatedDocumentsAreRejected) {
  const std::vector<std::string> cases = {
      "",
      "{",
      "[",
      "{\"a\"",
      "{\"a\":",
      "{\"a\":1",
      "{\"a\":1,",
      "[1,2",
      "[1,",
      "tru",
      "nul",
      "-",
      "{\"a\":{\"b\":1}",
  };
  for (const std::string& text : cases) {
    EXPECT_FALSE(obs::json_parse(text).has_value()) << "accepted: " << text;
  }
}

TEST(JsonRobust, BadEscapesAndUnterminatedStringsAreRejected) {
  const std::vector<std::string> cases = {
      "\"abc",          // unterminated
      "\"a\\\"",        // escape eats the closing quote
      "\"\\q\"",        // unknown escape
      "\"\\u12\"",      // \u needs four hex digits
      "\"\\u12G4\"",    // non-hex digit
      "\"\\uZZZZ\"",
      "\"\\\"",         // lone backslash-quote, never closed
      "{\"a\\u00\":1}",  // truncated escape inside a key
  };
  for (const std::string& text : cases) {
    EXPECT_FALSE(obs::json_parse(text).has_value()) << "accepted: " << text;
  }
}

TEST(JsonRobust, RawControlCharactersInStringsAreRejected) {
  for (int c = 0; c < 0x20; ++c) {
    std::string text = "\"a_b\"";
    text[2] = static_cast<char>(c);
    EXPECT_FALSE(obs::json_parse(text).has_value())
        << "accepted raw control char " << c;
  }
  // Escaped, the same characters are fine.
  EXPECT_TRUE(obs::json_parse("\"a\\nb\\u0001c\"").has_value());
}

TEST(JsonRobust, HighBytesPassThroughVerbatim) {
  // The parser does not validate UTF-8: both well-formed multibyte
  // sequences and stray >= 0x80 bytes survive untouched.
  const std::string utf8 = "\"caf\xc3\xa9\"";
  const auto parsed = obs::json_parse(utf8);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "caf\xc3\xa9");

  const std::string stray = std::string("\"a") + '\xff' + "b\"";
  const auto stray_parsed = obs::json_parse(stray);
  ASSERT_TRUE(stray_parsed.has_value());
  EXPECT_EQ(stray_parsed->as_string().size(), 3u);
}

TEST(JsonRobust, NonStandardNumbersAreRejected) {
  const std::vector<std::string> cases = {
      "+1", ".5", "-.5", "-", "1e", "1e+", "1.5e-", "01x", "0x10", "NaN",
      "Infinity", "-Infinity",
  };
  for (const std::string& text : cases) {
    EXPECT_FALSE(obs::json_parse(text).has_value()) << "accepted: " << text;
  }
  EXPECT_TRUE(obs::json_parse("-0.5e+10").has_value());
  EXPECT_TRUE(obs::json_parse("0").has_value());
}

TEST(JsonRobust, OverflowToInfinityIsRejected) {
  EXPECT_FALSE(obs::json_parse("1e999").has_value());
  EXPECT_FALSE(obs::json_parse("-1e999").has_value());
  EXPECT_FALSE(obs::json_parse("{\"v\":1e999}").has_value());
  // Near the edge of double range but finite: fine.
  EXPECT_TRUE(obs::json_parse("1e308").has_value());
}

TEST(JsonRobust, AsU64AcceptsOnlyIntegersInUint64Range) {
  const auto u64 = [](const char* text) {
    return obs::json_parse(text)->as_u64();
  };
  EXPECT_EQ(u64("0"), 0u);
  EXPECT_EQ(u64("42"), 42u);
  EXPECT_EQ(u64("1e3"), 1000u);
  // The largest double below 2^64 still converts; 2^64 itself does not.
  EXPECT_EQ(u64("18446744073709549568"), 18446744073709549568ULL);
  EXPECT_FALSE(u64("18446744073709551616").has_value());
  EXPECT_FALSE(u64("-5").has_value());
  EXPECT_FALSE(u64("2.5").has_value());
  EXPECT_FALSE(u64("1e30").has_value());
  EXPECT_FALSE(u64("\"5\"").has_value());
  EXPECT_FALSE(u64("null").has_value());
}

TEST(JsonRobust, DeepNestingIsRejectedWithoutCrashing) {
  // Far beyond the depth limit: must return nullopt, not blow the stack.
  const std::string deep_open(10000, '[');
  EXPECT_FALSE(obs::json_parse(deep_open).has_value());

  std::string deep_balanced(10000, '[');
  deep_balanced += "1";
  deep_balanced += std::string(10000, ']');
  EXPECT_FALSE(obs::json_parse(deep_balanced).has_value());

  // Comfortably inside the limit still parses.
  std::string shallow(100, '[');
  shallow += "1";
  shallow += std::string(100, ']');
  EXPECT_TRUE(obs::json_parse(shallow).has_value());
}

TEST(JsonRobust, TrailingGarbageIsRejected) {
  const std::vector<std::string> cases = {
      "1 2", "{} x", "null,", "[1] [2]", "\"a\"\"b\"", "{}{}",
  };
  for (const std::string& text : cases) {
    EXPECT_FALSE(obs::json_parse(text).has_value()) << "accepted: " << text;
  }
  EXPECT_TRUE(obs::json_parse("  {\"a\":1}  \n").has_value());
}

TEST(JsonRobust, StructuralGarbageIsRejected) {
  const std::vector<std::string> cases = {
      "{\"a\" 1}",      // missing colon
      "{\"a\":1 \"b\":2}",  // missing comma
      "{1:2}",          // non-string key
      "[1 2]",
      "{,}",
      "[,]",
      "{\"a\":}",
  };
  for (const std::string& text : cases) {
    EXPECT_FALSE(obs::json_parse(text).has_value()) << "accepted: " << text;
  }
}

TEST(JsonRobust, RenderRoundTripsParsedDocuments) {
  const std::string text =
      "{\"type\":\"unit\",\"n\":7,\"ratio\":1.5,\"flag\":true,"
      "\"none\":null,\"list\":[1,\"two\",{\"deep\":false}],"
      "\"text\":\"a\\\"b\\nc\"}";
  const auto parsed = obs::json_parse(text);
  ASSERT_TRUE(parsed.has_value());
  const std::string rendered = obs::json_render(*parsed);

  // Rendering is stable: parse(render(v)) renders identically.
  const auto reparsed = obs::json_parse(rendered);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(obs::json_render(*reparsed), rendered);

  // Field order and values survive.
  ASSERT_TRUE(reparsed->is_object());
  EXPECT_EQ(reparsed->as_object().front().first, "type");
  EXPECT_DOUBLE_EQ(reparsed->find("ratio")->as_number(), 1.5);
  EXPECT_EQ(reparsed->find("text")->as_string(), "a\"b\nc");
  EXPECT_EQ(reparsed->find("list")->as_array().size(), 3u);
}

TEST(JsonRobust, DuplicateKeysAreKeptInOrder) {
  const auto parsed = obs::json_parse("{\"k\":1,\"k\":2}");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->as_object().size(), 2u);
  // find() returns the first occurrence.
  EXPECT_DOUBLE_EQ(parsed->find("k")->as_number(), 1.0);
}

}  // namespace
}  // namespace commroute
