// Sharded parallel soak: partition, per-shard execution, and the
// deterministic canonical-order merge (fuzz::partition_soak /
// run_soak_shard / merge_soak_shards — the building blocks of
// run_soak(jobs > 1)), plus the corpus file IO resilience contracts
// (tolerant --corpus-in loading, atomic --corpus-out writes).
//
// The headline pin: a mutation-free sharded soak reports the SAME corpus
// digest as the sequential soak of the same seed range — including the
// pinned 504-corpus digest — and the merge does not care what order
// shards complete in.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "fuzz/corpus_io.hpp"
#include "fuzz/fuzzer.hpp"

namespace amac::fuzz {
namespace {

TEST(FuzzShardPartition, CoversTheRunRangeContiguouslyInOrder) {
  for (const std::size_t count : {1u, 2u, 7u, 504u, 1000u}) {
    for (const std::size_t jobs : {1u, 2u, 3u, 4u, 16u, 2000u}) {
      const auto shards = partition_soak(count, jobs);
      ASSERT_EQ(shards.size(), std::min(jobs, count));
      std::size_t next = 0;
      for (std::size_t k = 0; k < shards.size(); ++k) {
        EXPECT_EQ(shards[k].shard_index, k);
        EXPECT_EQ(shards[k].first_index, next);
        EXPECT_GE(shards[k].count, 1u);
        // Sizes differ by at most one, remainder on the earlier shards.
        EXPECT_LE(shards[k].count, count / shards.size() + 1);
        next += shards[k].count;
      }
      EXPECT_EQ(next, count);
    }
  }
  EXPECT_TRUE(partition_soak(0, 4).empty());
  // jobs == 0 is clamped up to 1, never a crash or an empty partition.
  ASSERT_EQ(partition_soak(10, 0).size(), 1u);
  EXPECT_EQ(partition_soak(10, 0)[0].count, 10u);
}

TEST(FuzzShardMerge, PinnedCorpusDigestIsJobCountInvariant) {
  // The acceptance pin: --jobs 4 on the 504-scenario corpus reports the
  // exact digest --jobs 1 does — which is the historical sequential
  // constant from test_fuzz_smoke.cpp. Every distinct-signature statistic
  // is job-count-invariant too (signature sets merge as unions).
  constexpr std::uint64_t kPinned504Digest = 0x4bc22ec0b0a6e511ULL;

  SoakOptions options;
  options.seed_base = 1;
  options.count = 504;
  options.differential_every = 0;

  options.jobs = 1;
  const SoakResult sequential = run_soak(options);
  EXPECT_EQ(sequential.corpus_digest, kPinned504Digest);

  options.jobs = 4;
  const SoakResult sharded = run_soak(options);
  EXPECT_EQ(sharded.corpus_digest, kPinned504Digest);

  EXPECT_EQ(sharded.runs, sequential.runs);
  EXPECT_EQ(sharded.per_algorithm, sequential.per_algorithm);
  EXPECT_EQ(sharded.crash_scenarios, sequential.crash_scenarios);
  EXPECT_EQ(sharded.wheel_events, sequential.wheel_events);
  EXPECT_EQ(sharded.overflow_events, sequential.overflow_events);
  EXPECT_EQ(sharded.coverage.distinct, sequential.coverage.distinct);
  EXPECT_EQ(sharded.coverage.engine_distinct,
            sequential.coverage.engine_distinct);
  EXPECT_EQ(sharded.coverage.protocol_distinct,
            sequential.coverage.protocol_distinct);
  EXPECT_EQ(sharded.coverage.per_scheduler, sequential.coverage.per_scheduler);
  EXPECT_EQ(sharded.failures.size(), sequential.failures.size());
}

TEST(FuzzShardMerge, IsCompletionOrderIndependent) {
  // merge_soak_shards sorts by shard_index, so handing it the per-shard
  // results in ANY vector order — completion order on real threads is
  // nondeterministic — must give identical output, digest for digest and
  // spec for spec.
  SoakOptions options;
  options.seed_base = 1;
  options.count = 120;
  options.differential_every = 0;

  const auto shards = partition_soak(options.count, 4);
  ASSERT_EQ(shards.size(), 4u);
  std::vector<ShardSoakResult> in_order;
  for (const auto& shard : shards) {
    in_order.push_back(run_soak_shard(options, shard));
  }

  const SoakResult canonical = merge_soak_shards(options, in_order);
  std::vector<std::vector<std::size_t>> permutations = {
      {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}};
  for (const auto& perm : permutations) {
    std::vector<ShardSoakResult> shuffled;
    for (const std::size_t k : perm) shuffled.push_back(in_order[k]);
    const SoakResult merged = merge_soak_shards(options, shuffled);
    EXPECT_EQ(merged.corpus_digest, canonical.corpus_digest);
    EXPECT_EQ(merged.runs, canonical.runs);
    EXPECT_EQ(merged.coverage.distinct, canonical.coverage.distinct);
    ASSERT_EQ(merged.corpus.size(), canonical.corpus.size());
    for (std::size_t i = 0; i < merged.corpus.size(); ++i) {
      EXPECT_EQ(format_spec(merged.corpus[i]),
                format_spec(canonical.corpus[i]));
    }
    ASSERT_EQ(merged.failures.size(), canonical.failures.size());
    for (std::size_t i = 0; i < merged.failures.size(); ++i) {
      EXPECT_EQ(format_spec(merged.failures[i].scenario),
                format_spec(canonical.failures[i].scenario));
    }
  }
}

TEST(FuzzShardMerge, MutatingShardedSoakIsReproducible) {
  // Mutant interleaving is shard-local (RNG salted by the shard's first
  // seed): a mutating sharded soak is exactly reproducible for a fixed
  // (seed-base, count, jobs) triple.
  SoakOptions options;
  options.seed_base = 77;
  options.count = 200;
  options.differential_every = 0;
  options.mutate_ratio = 0.5;
  options.jobs = 3;
  const SoakResult a = run_soak(options);
  const SoakResult b = run_soak(options);
  EXPECT_GT(a.mutated_runs, 0u);
  EXPECT_EQ(a.corpus_digest, b.corpus_digest);
  EXPECT_EQ(a.mutated_runs, b.mutated_runs);
  EXPECT_EQ(a.coverage.distinct, b.coverage.distinct);
  ASSERT_EQ(a.corpus.size(), b.corpus.size());
  for (std::size_t i = 0; i < a.corpus.size(); ++i) {
    EXPECT_EQ(format_spec(a.corpus[i]), format_spec(b.corpus[i]));
  }
}

TEST(FuzzShardMerge, ProgressCallbackSeesEveryGlobalIndexExactlyOnce) {
  SoakOptions options;
  options.seed_base = 1;
  options.count = 60;
  options.differential_every = 0;
  options.jobs = 4;
  std::vector<int> seen(options.count, 0);
  options.on_scenario = [&](std::size_t index, const Scenario&,
                            const RunReport&) {
    ASSERT_LT(index, seen.size());
    ++seen[index];  // serialized by run_soak's progress mutex
  };
  (void)run_soak(options);
  for (const int n : seen) EXPECT_EQ(n, 1);
}

// ---- corpus IO ----------------------------------------------------------

TEST(FuzzCorpusIo, TolerantLoadKeepsValidEntriesAndCountsSkips) {
  // A stale nightly frontier (restored across a spec-grammar change) may
  // hold a few lines the current parser rejects; the valid remainder must
  // survive the load.
  std::istringstream in(
      "# comment\n"
      "5\n"
      "this-is-not-a-spec\n"
      "\n"
      "7\n"
      "amacfuzz1:bogus\n");
  std::ostringstream warnings;
  const CorpusLoadResult res =
      load_corpus_stream(in, "mixed.txt", /*strict=*/false, &warnings);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.loaded, 2u);
  EXPECT_EQ(res.skipped, 2u);
  ASSERT_EQ(res.scenarios.size(), 2u);
  EXPECT_EQ(format_spec(res.scenarios[0]), format_spec(generate_scenario(5)));
  EXPECT_EQ(format_spec(res.scenarios[1]), format_spec(generate_scenario(7)));
  // Per-line warnings carry file:line so the nightly log pinpoints them.
  EXPECT_NE(warnings.str().find("mixed.txt:3"), std::string::npos);
  EXPECT_NE(warnings.str().find("mixed.txt:6"), std::string::npos);
}

TEST(FuzzCorpusIo, StrictLoadFailsOnTheFirstMalformedLine) {
  std::istringstream in("5\nnot-a-spec\n7\n");
  const CorpusLoadResult res =
      load_corpus_stream(in, "strict.txt", /*strict=*/true, nullptr);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("strict.txt:2"), std::string::npos);
}

TEST(FuzzCorpusIo, AllMalformedFailsEvenWhenTolerant) {
  // Silently "resuming" from nothing would restart the frontier — the one
  // tolerance failure mode strictness must still catch.
  std::istringstream in("junk\nmore junk\n");
  const CorpusLoadResult res =
      load_corpus_stream(in, "bad.txt", /*strict=*/false, nullptr);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.skipped, 2u);
  EXPECT_NE(res.error.find("every corpus spec line is malformed"),
            std::string::npos);
}

TEST(FuzzCorpusIo, EmptyOrCommentOnlyFilesLoadAsEmptyCorpora) {
  std::istringstream in("# only a comment\n\n");
  const CorpusLoadResult res =
      load_corpus_stream(in, "empty.txt", /*strict=*/false, nullptr);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.loaded, 0u);
  EXPECT_EQ(res.skipped, 0u);
}

TEST(FuzzCorpusIo, AtomicWriteRoundTripsAndLeavesNoTempResidue) {
  const std::string path = testing::TempDir() + "amac_corpus_atomic.txt";
  std::vector<Scenario> corpus = {generate_scenario(3), generate_scenario(9)};
  std::string error;
  ASSERT_TRUE(write_corpus_file(path, corpus, &error)) << error;
  // The temp staging file must be gone after the rename.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  const CorpusLoadResult res =
      load_corpus_file(path, /*strict=*/true, nullptr);
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(res.loaded, 2u);
  EXPECT_EQ(format_spec(res.scenarios[0]), format_spec(corpus[0]));
  EXPECT_EQ(format_spec(res.scenarios[1]), format_spec(corpus[1]));

  // Overwriting an existing corpus goes through the same rename and
  // replaces the contents wholesale.
  corpus.push_back(generate_scenario(11));
  ASSERT_TRUE(write_corpus_file(path, corpus, &error)) << error;
  EXPECT_EQ(load_corpus_file(path, true, nullptr).loaded, 3u);
  std::remove(path.c_str());
}

TEST(FuzzCorpusIo, WriteToUnwritableDirectoryFailsWithoutTouchingTarget) {
  std::string error;
  EXPECT_FALSE(write_corpus_file("/nonexistent-dir/corpus.txt", {}, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace amac::fuzz
