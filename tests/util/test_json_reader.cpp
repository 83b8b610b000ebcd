// JSON reader: the store's record/manifest parser. Round-trip of %.17g
// numbers matters most — resume byte-identity rests on it.
#include "util/json_reader.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace ides {
namespace {

TEST(JsonReaderTest, ParsesScalarsAndStructure) {
  const JsonValue root = parseJson(
      "{\"name\": \"x\", \"n\": -12.5, \"ok\": true, \"off\": false,\n"
      " \"nil\": null, \"list\": [1, 2, 3], \"nested\": {\"a\": [[]]}}");
  ASSERT_TRUE(root.isObject());
  EXPECT_EQ(root.stringAt("name"), "x");
  EXPECT_EQ(root.numberAt("n"), -12.5);
  EXPECT_TRUE(root.boolAt("ok"));
  EXPECT_FALSE(root.boolAt("off"));
  EXPECT_EQ(root.at("nil").kind, JsonValue::Kind::Null);
  ASSERT_TRUE(root.at("list").isArray());
  ASSERT_EQ(root.at("list").items.size(), 3u);
  EXPECT_EQ(root.at("list").items[2].numberValue, 3.0);
  ASSERT_TRUE(root.at("nested").at("a").isArray());
}

TEST(JsonReaderTest, PreservesMemberOrder) {
  const JsonValue root = parseJson("{\"z\": 1, \"a\": 2, \"m\": 3}");
  ASSERT_EQ(root.members.size(), 3u);
  EXPECT_EQ(root.members[0].first, "z");
  EXPECT_EQ(root.members[1].first, "a");
  EXPECT_EQ(root.members[2].first, "m");
}

TEST(JsonReaderTest, DecodesEscapes) {
  const JsonValue root =
      parseJson("{\"s\": \"a\\\"b\\\\c\\n\\t\\u0041\"}");
  EXPECT_EQ(root.stringAt("s"), "a\"b\\c\n\tA");
}

TEST(JsonReaderTest, RoundTrips17DigitDoublesExactly) {
  for (const double value :
       {0.1, 1.0 / 3.0, 123456.789012345, 2.2250738585072014e-308,
        9.87654321e+12, -0.030000000000000002}) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "{\"v\": %.17g}", value);
    const JsonValue root = parseJson(buf);
    EXPECT_EQ(root.numberAt("v"), value) << buf;
  }
}

TEST(JsonReaderTest, MalformedInputThrowsWithOffset) {
  for (const char* bad :
       {"", "{", "{\"a\" 1}", "[1,,2]", "{\"a\": tru}", "nul", "\"open",
        "{\"a\": 1} trailing", "[1e]", "{\"a\": \"\\x\"}"}) {
    EXPECT_THROW((void)parseJson(bad), std::runtime_error) << bad;
  }
  try {
    (void)parseJson("{\"a\": }");
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(JsonReaderTest, QuoteEscapesControlBytesAndRoundTripsEveryByte) {
  std::string all;
  for (int c = 0x01; c <= 0x7F; ++c) {
    const std::string one(1, static_cast<char>(c));
    const std::string quoted = jsonQuote(one);
    for (const char q : quoted) {
      EXPECT_GE(static_cast<unsigned char>(q), 0x20) << "byte " << c;
    }
    EXPECT_EQ(parseJson(quoted).stringValue, one) << "byte " << c;
    all += one;
  }
  EXPECT_EQ(parseJson(jsonQuote(all)).stringValue, all);
  EXPECT_EQ(jsonQuote("a\n\x01\"\\"), "\"a\\n\\u0001\\\"\\\\\"");
}

TEST(JsonReaderTest, TypedAccessorsNameTheOffendingKey) {
  const JsonValue root = parseJson("{\"a\": 1}");
  try {
    (void)root.stringAt("a");
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("\"a\""), std::string::npos);
  }
  EXPECT_THROW((void)root.numberAt("missing"), std::runtime_error);
  EXPECT_EQ(root.find("missing"), nullptr);
}

}  // namespace
}  // namespace ides
