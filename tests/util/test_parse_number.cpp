#include "util/parse_number.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace ides {
namespace {

/// The message parseNumber throws for `text` as a value of "--flag", or ""
/// if it parses.
template <typename T>
std::string errorFor(std::string_view text, T lo = 0,
                     T hi = std::numeric_limits<T>::max()) {
  try {
    parseNumber<T>("--flag", text, lo, hi);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

bool outOfRange(const std::string& message) {
  return message.find("is out of range") != std::string::npos;
}

TEST(ParseNumber, AcceptsWholeTokens) {
  EXPECT_EQ(parseNumber<std::size_t>("--nodes", "10"), 10u);
  EXPECT_EQ(parseNumber<int>("--x", "-42"), -42);
  EXPECT_EQ(parseNumber<std::uint64_t>("--seed", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parseNumber<std::int64_t>("--x", "-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_DOUBLE_EQ(parseNumber<double>("--deadline", "1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parseNumber<double>("--deadline", "2e-3"), 0.002);
  EXPECT_EQ(parseNumber("--port", "8080", 0, 65535), 8080);
}

TEST(ParseNumber, RejectsTrailingGarbage) {
  // std::stoul reads "10x" as 10.
  EXPECT_EQ(errorFor<std::size_t>("10x"),
            "--flag: \"10x\" is not a non-negative integer");
  EXPECT_FALSE(errorFor<int>("8080x").empty());
  EXPECT_FALSE(errorFor<int>("0x10").empty());
  EXPECT_FALSE(errorFor<int>("10 ").empty());
  EXPECT_FALSE(errorFor<int>(" 10").empty());
  EXPECT_FALSE(errorFor<double>("1.5s", 0.0).empty());
}

TEST(ParseNumber, RejectsASignOnAnUnsignedType) {
  // std::stoul wraps "-5" to 2^64 - 5.
  EXPECT_EQ(errorFor<std::size_t>("-5"),
            "--flag: \"-5\" is not a non-negative integer");
  EXPECT_FALSE(errorFor<std::uint64_t>("-0").empty());
  EXPECT_FALSE(errorFor<std::size_t>("+5").empty());
}

TEST(ParseNumber, RejectsOverflow) {
  EXPECT_TRUE(outOfRange(errorFor<std::uint64_t>("18446744073709551616")));
  EXPECT_TRUE(outOfRange(errorFor<int>("2147483648")));
  EXPECT_TRUE(outOfRange(errorFor<int>("-2147483649", INT32_MIN)));
  EXPECT_TRUE(outOfRange(errorFor<double>("1e400", 0.0)));
}

TEST(ParseNumber, RejectsAFractionOrExponentForAnIntegerFlag) {
  // std::stoi reads "3.9e9" as 3.
  EXPECT_EQ(errorFor<int>("3.9e9"), "--flag: \"3.9e9\" is not an integer");
  EXPECT_FALSE(errorFor<int>("1e3").empty());
  EXPECT_FALSE(errorFor<std::size_t>("2.0").empty());
}

TEST(ParseNumber, RejectsAnEmptyValue) {
  EXPECT_EQ(errorFor<int>(""), "--flag: empty value");
  EXPECT_EQ(errorFor<double>("", 0.0), "--flag: empty value");
}

TEST(ParseNumber, RejectsNonFiniteReals) {
  EXPECT_FALSE(errorFor<double>("inf", 0.0).empty());
  EXPECT_FALSE(errorFor<double>("nan", 0.0).empty());
}

TEST(ParseNumber, ChecksTheRange) {
  EXPECT_EQ(errorFor<int>("70000", 0, 65535),
            "--flag: 70000 is out of range [0, 65535]");
  EXPECT_EQ(errorFor<int>("65535", 0, 65535), "");
  EXPECT_TRUE(outOfRange(errorFor<int>("-1")));
  EXPECT_TRUE(outOfRange(errorFor<std::size_t>("0", 1)));
  EXPECT_TRUE(outOfRange(errorFor<double>("-0.5", 0.0)));
}

}  // namespace
}  // namespace ides
