// Coverage-signature pins (tier-1).
//
//   * quarter-log bucket boundaries land exactly on powers of four, and the
//     saturated (protocol) variant caps at 15;
//   * ProtocolStats fold into the signature's protocol buckets, and the
//     key / engine_key / protocol_key projections partition the dimensions
//     exactly (equal keys <=> equal signatures; the engine projection is
//     the PR-4 signature space bit for bit);
//   * real runs populate the protocol dimensions per algorithm (Ben-Or
//     coins, wPAXOS proposals, flooding gather width);
//   * rarity-weighted mutation-base selection over a skewed corpus picks
//     rare signatures at >= 2x their uniform share (seeded 10k-draw run,
//     deterministic).
#include <gtest/gtest.h>

#include "fuzz/fuzzer.hpp"
#include "util/hash.hpp"

namespace amac::fuzz {
namespace {

using harness::Algorithm;

TEST(FuzzBuckets, QuarterLogBoundariesAreExact) {
  // 0 -> 0; otherwise 1 + floor(log4 v): boundaries at exact powers of 4.
  EXPECT_EQ(magnitude_bucket(0), 0);
  EXPECT_EQ(magnitude_bucket(1), 1);
  EXPECT_EQ(magnitude_bucket(3), 1);
  EXPECT_EQ(magnitude_bucket(4), 2);
  EXPECT_EQ(magnitude_bucket(15), 2);
  EXPECT_EQ(magnitude_bucket(16), 3);
  EXPECT_EQ(magnitude_bucket(63), 3);
  EXPECT_EQ(magnitude_bucket(64), 4);
  EXPECT_EQ(magnitude_bucket(255), 4);
  EXPECT_EQ(magnitude_bucket(256), 5);
  // The general law at every power-of-four boundary.
  std::uint64_t power = 1;
  for (std::uint8_t k = 0; k < 31; ++k, power *= 4) {
    EXPECT_EQ(magnitude_bucket(power), k + 1) << "4^" << int(k);
    if (k > 0) {
      EXPECT_EQ(magnitude_bucket(power - 1), k) << "4^" << int(k);
    }
  }
}

TEST(FuzzBuckets, SaturatedVariantCapsAt15) {
  EXPECT_EQ(saturated_bucket(0), 0);
  EXPECT_EQ(saturated_bucket(1), 1);
  // 4^14 is the last value in bucket 14's range start... everything at or
  // beyond bucket 15 pins to 15, so the field packs in 4 bits.
  EXPECT_EQ(saturated_bucket(std::uint64_t{1} << 28), 15);  // 4^14
  EXPECT_EQ(saturated_bucket(std::uint64_t{1} << 40), 15);
  EXPECT_EQ(saturated_bucket(~std::uint64_t{0}), 15);
  for (std::uint64_t v : {std::uint64_t{5}, std::uint64_t{100},
                          std::uint64_t{100000}}) {
    EXPECT_EQ(saturated_bucket(v), magnitude_bucket(v)) << v;
  }
}

TEST(FuzzSignature, SizeBucketSeparatesLargeTopologies) {
  // v4 added the scenario size bucket to the engine projection: identical
  // engine observables at n=24 and n=4096 are different coverage points,
  // so a soak that promotes scenarios to large topologies grows distinct
  // signatures instead of folding into the small-n ones.
  const Scenario s = generate_scenario(3);
  RunReport r;
  const CoverageSignature small_sig = coverage_signature(s, r);
  EXPECT_EQ(small_sig.size_bucket, saturated_bucket(s.n));
  EXPECT_LT(small_sig.size_bucket, 6);  // the pinned corpus stays small-n

  Scenario big = s;
  promote_to_large(big, 4096);
  const CoverageSignature big_sig = coverage_signature(big, r);
  EXPECT_EQ(big_sig.size_bucket, 7);  // 4^6 <= 4096 < 4^7
  EXPECT_NE(big_sig.engine_key(), small_sig.engine_key());
  EXPECT_NE(big_sig.key(), small_sig.key());

  // n = 1024 is the first bucket counted as large (CoverageSummary
  // large_sigs: size_bucket >= 6).
  EXPECT_EQ(saturated_bucket(1024), 6);
  EXPECT_EQ(saturated_bucket(1023), 5);
}

TEST(FuzzSignature, ProtocolStatsFoldIntoProtocolBuckets) {
  const Scenario s = generate_scenario(11);
  RunReport r;
  r.protocol.max_round = 17;       // bucket 3 (16..63)
  r.protocol.coin_flips = 2;       // bucket 1
  r.protocol.proposals = 3;        // proposals + changes = 5 -> bucket 2
  r.protocol.change_events = 2;
  r.protocol.max_learned = 0;      // bucket 0
  r.protocol.quiet_resets = 5;     // bucket 2 (4..15), v5 dimension
  const CoverageSignature sig = coverage_signature(s, r);
  EXPECT_EQ(sig.round_bucket, 3);
  EXPECT_EQ(sig.coin_bucket, 1);
  EXPECT_EQ(sig.proposal_bucket, 2);
  EXPECT_EQ(sig.learned_bucket, 0);
  EXPECT_EQ(sig.quiet_bucket, 2);
  EXPECT_EQ(sig.protocol_key(),
            (std::uint64_t{2} << 16) | (std::uint64_t{3} << 12) |
                (std::uint64_t{1} << 8) | (std::uint64_t{2} << 4));
}

TEST(FuzzSignature, KeyProjectionsPartitionTheDimensions) {
  CoverageSignature sig;
  sig.scheduler = 5;
  sig.wheel_bucket = 4;
  sig.overflow_bucket = 2;
  sig.batch_bucket = 1;
  sig.decide_bucket = 6;
  sig.flags = CoverageSignature::kHasHolds | CoverageSignature::kLateHolds;
  sig.failure = 0;
  sig.round_bucket = 2;
  sig.coin_bucket = 0;
  sig.proposal_bucket = 7;
  sig.learned_bucket = 1;

  // Since v3 the engine projection (52 bits with the fault buckets) plus
  // the protocol buckets no longer pack into 64 bits, so the full key is a
  // hash combine of the two projections — reproducible, and equal to the
  // same combine computed by hand.
  {
    util::Hasher h;
    h.mix_u64(sig.engine_key());
    h.mix_u64(sig.protocol_key());
    EXPECT_EQ(sig.key(), h.digest());
  }

  // Changing only a protocol bucket changes key and protocol_key but not
  // engine_key; changing only an engine field does the reverse.
  CoverageSignature other = sig;
  other.coin_bucket = 5;
  EXPECT_NE(other.key(), sig.key());
  EXPECT_NE(other.protocol_key(), sig.protocol_key());
  EXPECT_EQ(other.engine_key(), sig.engine_key());

  other = sig;
  other.overflow_bucket = 0;
  EXPECT_NE(other.key(), sig.key());
  EXPECT_EQ(other.protocol_key(), sig.protocol_key());
  EXPECT_NE(other.engine_key(), sig.engine_key());

  // Equal signatures, equal keys (the combine is deterministic).
  other = sig;
  EXPECT_EQ(other.key(), sig.key());
}

TEST(FuzzSignature, RealRunsPopulateProtocolDimensionsPerAlgorithm) {
  // Find one scenario per interesting algorithm in the pinned seed range
  // and check the protocol observables really flow through.
  bool saw_benor = false;
  bool saw_wpaxos = false;
  bool saw_flooding = false;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const Scenario s = generate_scenario(seed);
    const RunReport r = run_scenario(s);
    if (r.failure != FailureKind::kNone) continue;
    if (s.algorithm == Algorithm::kBenOr && !saw_benor) {
      saw_benor = true;
      // Every Ben-Or run advances at least into round 1.
      EXPECT_GE(r.protocol.max_round, 1u) << format_spec(s);
    }
    if (s.algorithm == Algorithm::kWPaxos && !saw_wpaxos &&
        r.condition_met) {
      saw_wpaxos = true;
      // A deciding wPAXOS run started at least one proposal and observed
      // change events.
      EXPECT_GE(r.protocol.proposals, 1u) << format_spec(s);
      EXPECT_GE(r.protocol.change_events, 1u) << format_spec(s);
      EXPECT_GE(r.protocol.max_round, 1u) << format_spec(s);
    }
    if (s.algorithm == Algorithm::kFlooding && !saw_flooding &&
        r.condition_met) {
      saw_flooding = true;
      // Flooding decides only once some node knows all n pairs.
      EXPECT_GE(r.protocol.max_learned, 2u) << format_spec(s);
    }
  }
  EXPECT_TRUE(saw_benor);
  EXPECT_TRUE(saw_wpaxos);
  EXPECT_TRUE(saw_flooding);
}

TEST(FuzzCorpusRarity, HitsAreCountedPerSignature) {
  CoverageCorpus corpus(8);
  CoverageSignature common;
  common.scheduler = 1;
  CoverageSignature rare;
  rare.scheduler = 2;
  EXPECT_TRUE(corpus.observe(common));
  for (int i = 0; i < 99; ++i) EXPECT_FALSE(corpus.observe(common));
  EXPECT_TRUE(corpus.observe(rare));
  EXPECT_EQ(corpus.hits(common.key()), 100u);
  EXPECT_EQ(corpus.hits(rare.key()), 1u);
  EXPECT_EQ(corpus.hits(0xDEAD), 0u);  // never observed
  EXPECT_EQ(corpus.distinct_signatures(), 2u);
}

TEST(FuzzCorpusRarity, RareSignaturesAreSelectedAtTwiceUniformShare) {
  // Skewed corpus: 9 entries whose shared signature has been hit 100
  // times, 1 entry whose signature was hit once. Uniform selection would
  // pick the rare entry 1/10 of the time; inverse-frequency weighting
  // gives it 1/(1 + 9/100) ~ 0.917. The assertion only demands >= 2x the
  // uniform share — far from the expected value, so the seeded run can
  // never flake — and the draw stream is fixed, so this is deterministic.
  CoverageCorpus corpus(16);
  CoverageSignature common;
  common.scheduler = 1;
  CoverageSignature rare;
  rare.scheduler = 2;
  (void)corpus.observe(rare);
  for (int i = 0; i < 100; ++i) (void)corpus.observe(common);

  for (std::uint64_t seed = 1; seed <= 9; ++seed) {
    corpus.admit(generate_scenario(seed), common.key());
  }
  const Scenario rare_scenario = generate_scenario(777);
  corpus.admit(rare_scenario, rare.key());
  ASSERT_EQ(corpus.size(), 10u);

  const std::string rare_spec = format_spec(rare_scenario);
  util::Rng rng(0x5E1EC7);
  std::size_t rare_draws = 0;
  constexpr std::size_t kDraws = 10000;
  for (std::size_t i = 0; i < kDraws; ++i) {
    if (format_spec(corpus.select_base(rng)) == rare_spec) ++rare_draws;
  }
  // Uniform share would be ~1000; demand at least double.
  EXPECT_GE(rare_draws, 2 * kDraws / 10)
      << "rarity weighting did not favor the rare signature";
}

TEST(FuzzCorpusRarity, SplicePartnersAreSelectedAtTwiceUniformShare) {
  // Same statistical pin as above, on the draw stream a splice partner
  // sees (the soak draws the partner with select_base right after the
  // base): cross-scenario splices must pull structure from the frontier,
  // not from whichever signature floods the pool. Identical skewed corpus,
  // fixed draw stream — deterministic, never flakes.
  CoverageCorpus corpus(16);
  CoverageSignature common;
  common.scheduler = 1;
  CoverageSignature rare;
  rare.scheduler = 2;
  (void)corpus.observe(rare);
  for (int i = 0; i < 100; ++i) (void)corpus.observe(common);

  for (std::uint64_t seed = 1; seed <= 9; ++seed) {
    corpus.admit(generate_scenario(seed), common.key());
  }
  const Scenario rare_scenario = generate_scenario(777);
  corpus.admit(rare_scenario, rare.key());
  ASSERT_EQ(corpus.size(), 10u);

  const std::string rare_spec = format_spec(rare_scenario);
  util::Rng rng(0xB5121CE);
  std::size_t rare_draws = 0;
  constexpr std::size_t kDraws = 10000;
  for (std::size_t i = 0; i < kDraws; ++i) {
    if (format_spec(corpus.select_base(rng)) == rare_spec) ++rare_draws;
  }
  EXPECT_GE(rare_draws, 2 * kDraws / 10)
      << "partner selection did not favor the rare signature";
}

TEST(FuzzCorpusRarity, PreSeededEntriesCountAsMaximallyRare) {
  // --corpus-in pre-seeds carry sig_key 0 with zero observations; they
  // must weigh like a once-seen signature (not crash or starve), so a
  // resumed nightly frontier is mutated immediately.
  CoverageCorpus corpus(4);
  corpus.admit(generate_scenario(1));  // no signature recorded
  util::Rng rng(42);
  const Scenario& picked = corpus.select_base(rng);
  EXPECT_EQ(format_spec(picked), format_spec(generate_scenario(1)));

  // Mixed with a heavily-hit entry, the unseen pre-seed dominates.
  CoverageSignature common;
  common.scheduler = 3;
  for (int i = 0; i < 50; ++i) (void)corpus.observe(common);
  corpus.admit(generate_scenario(2), common.key());
  std::size_t preseed_draws = 0;
  for (int i = 0; i < 1000; ++i) {
    if (format_spec(corpus.select_base(rng)) ==
        format_spec(generate_scenario(1))) {
      ++preseed_draws;
    }
  }
  EXPECT_GT(preseed_draws, 700u);  // expected ~ 50/51 ~ 0.98
}

}  // namespace
}  // namespace amac::fuzz
