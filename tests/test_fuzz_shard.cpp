// Sharded parallel soak (run_soak with jobs > 1), plus the corpus file IO
// resilience contracts (tolerant --corpus-in loading, atomic --corpus-out
// writes).
//
// The headline pin: a mutation-free sharded soak reports the SAME result
// as the sequential soak of the same seed range — every tally, every
// coverage count, both key sets, the failures and the corpus digest
// (including the pinned 504-corpus digest).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "fuzz/corpus_io.hpp"
#include "fuzz/fuzzer.hpp"

namespace amac::fuzz {
namespace {

/// Every SoakResult field except `corpus` (shard-local by design: each
/// shard's ring keeps its own newest entries) must match.
void expect_same_soak(const SoakResult& a, const SoakResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.differential_runs, b.differential_runs);
  EXPECT_EQ(a.per_algorithm, b.per_algorithm);
  EXPECT_EQ(a.crash_scenarios, b.crash_scenarios);
  EXPECT_EQ(a.mid_flight_crash_scenarios, b.mid_flight_crash_scenarios);
  EXPECT_EQ(a.wheel_events, b.wheel_events);
  EXPECT_EQ(a.overflow_events, b.overflow_events);
  EXPECT_EQ(a.overflow_scenarios, b.overflow_scenarios);
  EXPECT_EQ(a.resized_scenarios, b.resized_scenarios);
  EXPECT_EQ(a.dropped_frames, b.dropped_frames);
  EXPECT_EQ(a.duplicated_frames, b.duplicated_frames);
  EXPECT_EQ(a.faulted_scenarios, b.faulted_scenarios);
  EXPECT_EQ(a.mutated_runs, b.mutated_runs);
  EXPECT_EQ(a.large_scenarios, b.large_scenarios);
  EXPECT_EQ(a.log_scenarios, b.log_scenarios);
  EXPECT_EQ(a.differential_skipped, b.differential_skipped);
  EXPECT_EQ(a.budget_skipped, b.budget_skipped);
  const CoverageSummary& ca = a.coverage;
  const CoverageSummary& cb = b.coverage;
  EXPECT_EQ(ca.distinct, cb.distinct);
  EXPECT_EQ(ca.engine_distinct, cb.engine_distinct);
  EXPECT_EQ(ca.protocol_distinct, cb.protocol_distinct);
  EXPECT_EQ(ca.per_scheduler, cb.per_scheduler);
  EXPECT_EQ(ca.overflow_sigs, cb.overflow_sigs);
  EXPECT_EQ(ca.resize_sigs, cb.resize_sigs);
  EXPECT_EQ(ca.batch_sigs, cb.batch_sigs);
  EXPECT_EQ(ca.crash_sigs, cb.crash_sigs);
  EXPECT_EQ(ca.hold_sigs, cb.hold_sigs);
  EXPECT_EQ(ca.protocol_sigs, cb.protocol_sigs);
  EXPECT_EQ(ca.fault_sigs, cb.fault_sigs);
  EXPECT_EQ(ca.large_sigs, cb.large_sigs);
  EXPECT_EQ(ca.log_sigs, cb.log_sigs);
  EXPECT_EQ(a.engine_keys, b.engine_keys);
  EXPECT_EQ(a.protocol_keys, b.protocol_keys);
  EXPECT_EQ(a.corpus_digest, b.corpus_digest);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(format_spec(a.failures[i].scenario),
              format_spec(b.failures[i].scenario));
    EXPECT_EQ(format_spec(a.failures[i].minimal),
              format_spec(b.failures[i].minimal));
  }
}

TEST(FuzzShardMerge, PinnedCorpusDigestIsJobCountInvariant) {
  // The acceptance pin: --jobs 4 reports the exact result --jobs 1 does,
  // and --jobs 0 is clamped to one shard that still runs every scenario.
  // The 504 digest is the historical sequential constant from
  // test_fuzz_smoke.cpp; the second set turns on every family at once
  // (differential sampling, fault floors, large and log-service
  // promotion), so each coverage count and key set is exercised.
  SoakOptions pinned;
  pinned.seed_base = 1;
  pinned.count = 504;
  pinned.differential_every = 0;
  SoakOptions families;
  families.seed_base = 1;
  families.count = 300;
  families.differential_every = 7;
  families.log_every = 40;
  families.fault_rate = 0.05;
  families.dup_rate = 0.02;
  families.large_every = 75;
  families.large_n = 1024;

  pinned.jobs = 1;
  const SoakResult pinned_sequential = run_soak(pinned);
  EXPECT_EQ(pinned_sequential.corpus_digest, 0x4bc22ec0b0a6e511ULL);
  families.jobs = 1;
  const SoakResult families_sequential = run_soak(families);
  EXPECT_EQ(families_sequential.log_scenarios, 8u);
  EXPECT_EQ(families_sequential.large_scenarios, 3u);
  EXPECT_EQ(families_sequential.coverage.large_sigs, 2u);
  EXPECT_EQ(families_sequential.coverage.fault_sigs, 160u);
  EXPECT_EQ(families_sequential.corpus_digest, 0x7ee0cd88051b10a7ULL);

  for (const std::size_t jobs : {0u, 4u}) {
    SCOPED_TRACE(jobs);
    pinned.jobs = jobs;
    expect_same_soak(run_soak(pinned), pinned_sequential);
    families.jobs = jobs;
    expect_same_soak(run_soak(families), families_sequential);
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
