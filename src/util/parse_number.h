// Strict whole-token number parsing for command-line flags and config
// values, shared by ides_cli and ides_serve.
//
// std::stoul and friends read a numeric prefix ("10x" is 10, "3.9e9" is 3)
// and wrap a negative into an unsigned type ("-5" is 2^64 - 5, which turned
// `--current -5` into a run that never ends). A flag value is one whole
// token instead: parseNumber takes all of the text or throws.
#pragma once

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace ides {

/// Parses all of `text` as a base-10 number of type T within [lo, hi].
/// Integers are an optional '-' (signed T only) and digits; a floating-point
/// T also takes a fraction and an exponent, and must be finite. Throws
/// std::invalid_argument with a message that starts with `name` on an empty
/// value, any character outside the number (whitespace, '+', a trailing
/// suffix, a fraction or exponent for an integer T such as "3.9e9"), a sign
/// on an unsigned T, overflow of T, or a value outside [lo, hi].
template <typename T>
T parseNumber(std::string_view name, std::string_view text,
              T lo = std::numeric_limits<T>::lowest(),
              T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  const auto fail = [&](const std::string& why) {
    return std::invalid_argument(std::string(name) + ": " + why);
  };
  if (text.empty()) throw fail("empty value");
  const char* const end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  const bool overflow = ec == std::errc::result_out_of_range;
  bool whole = ptr == end && (ec == std::errc{} || overflow);
  const char* kind = "a non-negative integer";
  if constexpr (std::is_floating_point_v<T>) {
    whole = whole && std::isfinite(value);
    kind = "a finite number";
  } else if constexpr (std::is_signed_v<T>) {
    kind = "an integer";
  }
  if (!whole) throw fail("\"" + std::string(text) + "\" is not " + kind);
  if (overflow || value < lo || value > hi) {
    std::ostringstream why;
    why << text << " is out of range [" << lo << ", " << hi << "]";
    throw fail(why.str());
  }
  return value;
}

}  // namespace ides
