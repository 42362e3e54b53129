// Strict, whole-string numeric parsing for CLI flags and spec tokens.
//
// std::strtoull-style parsing silently turns garbage into 0 ("--count abc"
// runs a zero-scenario soak that exits green); these helpers accept a value
// only when the ENTIRE string is a well-formed number in range, and return
// nullopt otherwise so callers can fail loudly.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>

namespace amac::util {

/// Parses a non-negative decimal integer. The whole string must be digits
/// (no sign, no whitespace, no trailing junk) and fit in 64 bits.
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(
    std::string_view v) {
  std::uint64_t out = 0;
  const char* end = v.data() + v.size();
  const auto res = std::from_chars(v.data(), end, out);
  if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
  return out;
}


/// Parses a finite decimal floating-point value (fixed or scientific
/// form). The whole string must parse, and inf/nan are rejected — a NaN
/// ratio would slide through min/max range checks (every comparison is
/// false) and silently disable whatever the flag controls.
[[nodiscard]] inline std::optional<double> parse_double(std::string_view v) {
  double out = 0.0;
  const char* end = v.data() + v.size();
  const auto res =
      std::from_chars(v.data(), end, out, std::chars_format::general);
  if (res.ec != std::errc{} || res.ptr != end || !std::isfinite(out)) {
    return std::nullopt;
  }
  return out;
}

}  // namespace amac::util
