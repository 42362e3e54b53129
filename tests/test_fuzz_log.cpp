// The log-service scenario family (signature-space v6 pins).
//
//   * `log=ops@batch@window@lease` round-trips through format_spec /
//     parse_spec exactly, is omitted for the instance family, and
//     malformed tokens are rejected rather than zero-filled;
//   * promote_to_log_service is deterministic, lands inside the family
//     envelope (wPAXOS, no faults, no scripts), and is a clamp fixpoint;
//   * a leader-crash log scenario runs the whole replicated log under
//     run_scenario: the report carries the service observables, the
//     coverage signature raises kLogService plus nonzero recovery and
//     re-election buckets, and the run is fingerprint-deterministic;
//   * a slot whose nodes all crashed undecided is not a decided slot: it
//     replays clean instead of as a per-slot oracle failure;
//   * mutation can ENTER the family (the kLogService op), and every such
//     mutant survives the clamp round-trip;
//   * a log-promoting soak is digest-identical across job counts and
//     reaches engine-space signatures an instance-only soak cannot — the
//     set-difference acceptance the CI fuzz lane asserts at 2000
//     scenarios, pinned here at a smaller budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "fuzz/fuzzer.hpp"

namespace amac::fuzz {
namespace {

using harness::Algorithm;

// The leader-crash repro line: node 4 is the initial lease holder
// (ReplicatedLog elects n-1 first), and tick 3 takes it down mid-service,
// forcing slot recovery and a re-election under the new leader.
constexpr const char* kLeaderCrashSpec =
    "amacfuzz1:seed=7:alg=wpaxos:topo=clique:n=5:aux=0:sched=sync:fack=2:"
    "late=0:in=alt:ids=identity:f=0:hz=1000000:log=64@4@2@8:crashes=4@3";

TEST(FuzzLogSpec, RoundTripsLogFields) {
  const auto s = parse_spec(kLeaderCrashSpec);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->log_ops, 64u);
  EXPECT_EQ(s->log_batch, 4u);
  EXPECT_EQ(s->log_window, 2u);
  EXPECT_EQ(s->log_lease, 8u);
  EXPECT_EQ(format_spec(*s), kLeaderCrashSpec);
}

TEST(FuzzLogSpec, OmittedForInstanceFamily) {
  const Scenario s = generate_scenario(11);
  ASSERT_EQ(s.log_ops, 0u);  // blind generation never draws the family
  EXPECT_EQ(format_spec(s).find(":log="), std::string::npos);
  const auto parsed = parse_spec(format_spec(s));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->log_ops, 0u);
  EXPECT_EQ(format_spec(*parsed), format_spec(s));
}

TEST(FuzzLogSpec, RejectsMalformedTokens) {
  const std::string base =
      "amacfuzz1:seed=1:alg=wpaxos:topo=clique:n=4:aux=0:sched=sync:fack=2:"
      "late=0:in=all0:ids=identity:f=0:hz=1000000";
  EXPECT_FALSE(parse_spec(base + ":log=0@1@1@1").has_value());   // zero ops
  EXPECT_FALSE(parse_spec(base + ":log=8@0@1@1").has_value());   // zero knob
  EXPECT_FALSE(parse_spec(base + ":log=8@1@1").has_value());     // 3 fields
  EXPECT_FALSE(parse_spec(base + ":log=8@1@1@1@1").has_value()); // 5 fields
  EXPECT_FALSE(parse_spec(base + ":log=abc@1@1@1").has_value()); // garbage
  EXPECT_TRUE(parse_spec(base + ":log=8@1@1@1").has_value());
}

TEST(FuzzLogPromotion, DeterministicAndInsideEnvelope) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Scenario s = generate_scenario(seed);
    promote_to_log_service(s);
    const std::string context = format_spec(s);
    ASSERT_GT(s.log_ops, 0u) << context;
    // Family envelope: the service IS the wPAXOS renewal + leased
    // CommitFlood stack, runs without scripts and (by choice) fault-free,
    // and keeps crashes (re-election coverage is the family's point).
    EXPECT_EQ(s.algorithm, Algorithm::kWPaxos) << context;
    EXPECT_NE(s.scheduler, SchedulerKind::kScripted) << context;
    // Contention's fack bound covers one instance's density; a pipelined
    // slot sequence overruns any static bound, so the family excludes it.
    EXPECT_NE(s.scheduler, SchedulerKind::kContention) << context;
    EXPECT_TRUE(s.script.empty()) << context;
    EXPECT_TRUE(s.faults.empty()) << context;
    EXPECT_EQ(s.drop_rate_bp, 0u) << context;
    EXPECT_EQ(s.dup_rate_bp, 0u) << context;
    // Clamp fixpoint: promotion already applied the envelope.
    Scenario clamped = s;
    clamp_to_envelope(clamped);
    EXPECT_EQ(format_spec(clamped), context);
    // Deterministic: promotion draws only from the scenario's own seed.
    Scenario again = generate_scenario(seed);
    promote_to_log_service(again);
    EXPECT_EQ(format_spec(again), context);
    // And the result still round-trips.
    const auto parsed = parse_spec(context);
    ASSERT_TRUE(parsed.has_value()) << context;
    EXPECT_EQ(format_spec(*parsed), context);
  }
}

TEST(FuzzLogRun, LeaderCrashRunsServiceAndSignalsCoverage) {
  const auto s = parse_spec(kLeaderCrashSpec);
  ASSERT_TRUE(s.has_value());
  const RunReport r = run_scenario(*s);
  EXPECT_TRUE(r.log_service);
  EXPECT_EQ(r.failure, FailureKind::kNone) << r.detail;
  EXPECT_TRUE(r.verdict.ok());
  // The crash took the lease holder: recovery and re-election both fired.
  EXPECT_GT(r.log_slots_recovered, 0u);
  EXPECT_GT(r.log_re_elections, 0u);
  EXPECT_NE(r.log_kv_digest, 0u);

  const CoverageSignature sig = coverage_signature(*s, r);
  EXPECT_TRUE(sig.flags & CoverageSignature::kHasCrashes);
  EXPECT_TRUE(sig.flags & CoverageSignature::kLogService);
  EXPECT_GT(sig.recover_bucket, 0u);
  EXPECT_GT(sig.reelect_bucket, 0u);

  // Same spec, same fingerprint: the family keeps the replay contract.
  const RunReport r2 = run_scenario(*s);
  EXPECT_EQ(r2.fingerprint, r.fingerprint);
  EXPECT_EQ(r2.log_kv_digest, r.log_kv_digest);
}

TEST(FuzzLogRun, AllCrashedSlotIsNotADecidedSlot) {
  // Both nodes crash at tick 0, before deciding anything: the slot's
  // instance is vacuously all-decided, but no node decided. The service
  // must keep it in flight (a stall, not a decision) instead of handing
  // it to the per-slot oracle, and termination is not owed under crashes.
  const auto s = parse_spec(
      "amacfuzz1:seed=411:alg=wpaxos:topo=star:n=2:aux=0:sched=skewed:"
      "fack=1:late=0:in=all1:ids=identity:f=0:hz=30000:log=1@1@1@1:"
      "crashes=1@0,0@0");
  ASSERT_TRUE(s.has_value());
  const RunReport r = run_scenario(*s);
  EXPECT_TRUE(r.log_service);
  EXPECT_EQ(r.failure, FailureKind::kNone) << r.detail;
  EXPECT_TRUE(r.verdict.agreement);
  EXPECT_TRUE(r.verdict.validity);
  EXPECT_FALSE(r.verdict.termination);
  EXPECT_GT(r.log_slots_recovered, 0u);
}

TEST(FuzzLogRun, InstanceFamilyReportsNoService) {
  const Scenario s = generate_scenario(3);
  const RunReport r = run_scenario(s);
  EXPECT_FALSE(r.log_service);
  const CoverageSignature sig = coverage_signature(s, r);
  EXPECT_FALSE(sig.flags & CoverageSignature::kLogService);
  EXPECT_FALSE(sig.flags & CoverageSignature::kLeaseBroken);
  EXPECT_EQ(sig.recover_bucket, 0u);
  EXPECT_EQ(sig.reelect_bucket, 0u);
}

TEST(FuzzLogMutation, CanEnterFamilyAndSurvivesClamp) {
  util::Rng rng(0xF00DFACE);
  std::size_t entered = 0;
  for (std::uint64_t seed = 1; seed <= 200 && entered < 5; ++seed) {
    const Scenario base = generate_scenario(seed);
    const Scenario mutant = mutate_scenario(base, nullptr, rng);
    if (mutant.log_ops == 0) continue;
    ++entered;
    const std::string context = format_spec(mutant);
    EXPECT_EQ(mutant.algorithm, Algorithm::kWPaxos) << context;
    EXPECT_TRUE(mutant.faults.empty()) << context;
    EXPECT_TRUE(mutant.script.empty()) << context;
    Scenario clamped = mutant;
    clamp_to_envelope(clamped);
    EXPECT_EQ(format_spec(clamped), context) << "mutant not a clamp fixpoint";
    const auto parsed = parse_spec(context);
    ASSERT_TRUE(parsed.has_value()) << context;
    EXPECT_EQ(format_spec(*parsed), context);
  }
  EXPECT_GT(entered, 0u) << "kLogService mutation never fired in 200 draws";
}

TEST(FuzzLogSoak, DigestStableAcrossJobsAndWidensEngineCoverage) {
  // The CI acceptance in miniature: a log-promoting soak must (a) fold the
  // identical corpus digest whatever the shard count, and (b) reach
  // engine-space signature keys the instance-only soak at the same budget
  // cannot (kLogService lives in the packed flags, so every log signature
  // is such a key — the assertion is the SET DIFFERENCE, mirroring CI).
  SoakOptions plain;
  plain.count = 120;
  plain.seed_base = 1;
  plain.differential_every = 0;
  plain.shrink_failures = false;
  const SoakResult base = run_soak(plain);
  EXPECT_EQ(base.log_scenarios, 0u);
  EXPECT_EQ(base.coverage.log_sigs, 0u);

  SoakOptions logged = plain;
  logged.log_every = 15;
  const SoakResult a = run_soak(logged);
  logged.jobs = 3;
  const SoakResult b = run_soak(logged);
  EXPECT_EQ(a.corpus_digest, b.corpus_digest);
  EXPECT_EQ(a.log_scenarios, b.log_scenarios);
  EXPECT_EQ(a.log_scenarios, 8u);  // ceil(120 / 15) promoted global indices
  EXPECT_GT(a.coverage.log_sigs, 0u);

  std::set<std::uint64_t> widened;
  std::set_difference(a.engine_keys.begin(), a.engine_keys.end(),
                      base.engine_keys.begin(), base.engine_keys.end(),
                      std::inserter(widened, widened.begin()));
  EXPECT_GT(widened.size(), 0u)
      << "log-promoting soak reached no engine signature the instance-only "
         "soak missed";
}

TEST(FuzzLogSoak, LogRunsAreNotDifferentialSkips) {
  // The family never replays on the reference engine, so its runs are not
  // due a replay: only n > kDifferentialMaxN skips are counted.
  SoakOptions options;
  options.count = 30;
  options.seed_base = 1;
  options.differential_every = 7;
  options.log_every = 1;
  options.shrink_failures = false;
  const SoakResult result = run_soak(options);
  EXPECT_EQ(result.log_scenarios, 30u);
  EXPECT_EQ(result.differential_runs, 0u);
  EXPECT_EQ(result.differential_skipped, 0u);
}

}  // namespace
}  // namespace amac::fuzz
