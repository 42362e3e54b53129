// Strict CLI-number parsing: the helpers behind bench_fuzz_soak's flag
// handling (and the fuzz spec parser). The property being pinned is
// whole-string strictness — the std::strtoull failure mode where
// "--count abc" silently became 0 and a soak ran zero scenarios must stay
// impossible.
#include "util/parse.hpp"

#include <gtest/gtest.h>

namespace amac::util {
namespace {

TEST(ParseU64, AcceptsWholeDecimalStrings) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), ~std::uint64_t{0});
}

TEST(ParseU64, RejectsGarbageWholeOrTrailing) {
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("abc").has_value());
  EXPECT_FALSE(parse_u64("12abc").has_value());  // strtoull would say 12
  EXPECT_FALSE(parse_u64("abc12").has_value());
  EXPECT_FALSE(parse_u64(" 12").has_value());
  EXPECT_FALSE(parse_u64("12 ").has_value());
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("+1").has_value());
  EXPECT_FALSE(parse_u64("1e5").has_value());
  EXPECT_FALSE(parse_u64("0x10").has_value());  // decimal only
}

TEST(ParseU64, RejectsOverflow) {
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());  // 2^64
  EXPECT_FALSE(parse_u64("99999999999999999999999").has_value());
}

TEST(ParseDouble, AcceptsFixedAndScientific) {
  EXPECT_EQ(parse_double("0"), 0.0);
  EXPECT_EQ(parse_double("0.5"), 0.5);
  EXPECT_EQ(parse_double("1e-3"), 1e-3);
  EXPECT_EQ(parse_double("-2.25"), -2.25);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("0.5x").has_value());
  EXPECT_FALSE(parse_double("half").has_value());
}

TEST(ParseDouble, RejectsNonFinite) {
  // NaN slides through min/max range checks (all comparisons false), so it
  // must be rejected at the parse layer.
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("-inf").has_value());
  EXPECT_FALSE(parse_double("1e999").has_value());
}

}  // namespace
}  // namespace amac::util
