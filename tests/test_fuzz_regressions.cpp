// Pinned fuzz regression corpus.
//
// Each spec below is a full scenario line (NOT a bare seed), so it stays
// frozen even as the generator evolves. Two families:
//
//   * crash-during-in-flight-ack scenarios surfaced by the generator: a
//     node crashes while its broadcast still has undelivered copies, so the
//     engine must cancel exactly the post-crash deliveries (the non-atomic
//     broadcast of paper §2) — each is replayed differentially against the
//     frozen reference engine and must stay bit-identical;
//
//   * the paper's own counterexample shapes, rebuilt as fuzzer specs: the
//     oracle must DETECT them (they violate agreement by design), and the
//     shrinker must minimize them — proving the fuzzer has teeth, not just
//     that the generator's envelope is safe.
#include <gtest/gtest.h>

#include <string>

#include "fuzz/fuzzer.hpp"

namespace amac::fuzz {
namespace {

// Surfaced by scanning generated seeds for report.mid_flight_crashes > 0
// (see the fuzzing HOWTO in fuzz/fuzzer.hpp); pinned as full specs.
constexpr const char* kMidFlightCrashSpecs[] = {
    // Ben-Or under receiver contention, two crashes inside the first ack
    // windows (two broadcasts cancelled mid-flight).
    "amacfuzz1:seed=16:alg=benor:topo=clique:n=9:aux=0:sched=contention:"
    "fack=1:late=0:in=split:ids=perm:f=4:hz=1000000:crashes=1@1,2@7",
    // Flooding on a torus: the crash cuts a forwarding broadcast in half.
    "amacfuzz1:seed=34:alg=flooding:topo=torus:n=16:aux=4:sched=contention:"
    "fack=3:late=0:in=split:ids=perm:f=0:hz=30000:crashes=7@28",
    // wPAXOS, synchronous rounds, two mid-round crashes.
    "amacfuzz1:seed=93:alg=wpaxos:topo=torus:n=9:aux=3:sched=sync:fack=3:"
    "late=0:in=all0:ids=perm:f=0:hz=30000:crashes=0@27,7@11",
    // wPAXOS on a skewed clique (persistently slow links): both crashes
    // land between a broadcast and its (late) ack. With dead-root pruning
    // nodes 2 and 6 have nothing in flight after t=21, so the times sit
    // inside that window (the earlier 2@31,6@42 cancel nothing).
    "amacfuzz1:seed=20:alg=wpaxos:topo=clique:n=13:aux=0:sched=skewed:"
    "fack=5:late=0:in=split:ids=perm:f=0:hz=30000:crashes=2@17,6@20",
    // Ben-Or with both crashes inside its declared f=2 budget: liveness
    // must survive the cancelled copies.
    "amacfuzz1:seed=48:alg=benor:topo=clique:n=9:aux=0:sched=sync:fack=4:"
    "late=0:in=split:ids=perm:f=2:hz=1000000:crashes=4@26,6@32",
};

TEST(FuzzRegressions, CrashDuringInFlightAckStaysCleanAndBitIdentical) {
  RunOptions options;
  options.differential = true;
  for (const char* spec : kMidFlightCrashSpecs) {
    const auto scenario = parse_spec(spec);
    ASSERT_TRUE(scenario.has_value()) << spec;
    ASSERT_FALSE(scenario->crashes.empty()) << spec;

    const RunReport r = run_scenario(*scenario, options);
    // The pinned property: the crash really interrupts an in-flight
    // broadcast, and every oracle (safety, liveness where expected,
    // monitor, engine equivalence) stays green.
    EXPECT_GE(r.mid_flight_crashes, 1u) << spec;
    EXPECT_EQ(r.failure, FailureKind::kNone) << spec << "\n" << r.detail;
    ASSERT_TRUE(r.differential_ran);
    EXPECT_EQ(r.fingerprint, r.reference_fingerprint)
        << "engine divergence on " << spec;

    // Replays of a pinned spec are bit-identical.
    EXPECT_EQ(run_scenario(*scenario, options).trace_digest, r.trace_digest)
        << spec;
  }
}

// Holdback holds applied AFTER Network construction (late=1): the calendar
// wheel was sized from the pre-hold fack(), so the held deliveries land
// past it and take the overflow heap, popping from it in place. Pinned as
// full specs: the far deliveries must keep spilling — and stay
// bit-identical to the (wheel-less) reference engine — no matter how the
// generator evolves.
constexpr const char* kLateHoldOverflowSpecs[] = {
    // Flooding on a 14-clique, three staggered holds out to ~136 ticks.
    "amacfuzz1:seed=43:alg=flooding:topo=clique:n=14:aux=0:sched=holdback:"
    "fack=5:late=1:in=alt:ids=perm:f=0:hz=1000000:holds=9@129,11@59,12@136",
    // Two-phase commit with tightly clustered releases around tick 46.
    "amacfuzz1:seed=378:alg=two_phase:topo=clique:n=11:aux=0:sched=holdback:"
    "fack=2:late=1:in=all0:ids=perm:f=0:hz=1000000:holds=6@50,9@46,1@44",
    // Flooding with a crash riding alongside the late holds: the heap
    // path interleaves with mid-flight cancellation.
    "amacfuzz1:seed=3849:alg=flooding:topo=clique:n=14:aux=0:sched=holdback:"
    "fack=4:late=1:in=all1:ids=perm:f=0:hz=30000:crashes=12@19:"
    "holds=13@56,2@96,7@96",
};

TEST(FuzzRegressions, LateHoldsSpillToOverflowAndStayBitIdentical) {
  RunOptions options;
  options.differential = true;
  for (const char* spec : kLateHoldOverflowSpecs) {
    const auto scenario = parse_spec(spec);
    ASSERT_TRUE(scenario.has_value()) << spec;
    ASSERT_TRUE(scenario->late_holds) << spec;

    const RunReport r = run_scenario(*scenario, options);
    // The pinned property: the late holds really spill past the
    // construction-sized wheel, and every oracle (safety, liveness, engine
    // equivalence) stays green.
    EXPECT_GT(r.stats.overflow_pushes, 0u) << spec;
    EXPECT_EQ(r.failure, FailureKind::kNone) << spec << "\n" << r.detail;
    ASSERT_TRUE(r.differential_ran);
    EXPECT_EQ(r.fingerprint, r.reference_fingerprint)
        << "engine divergence on " << spec;

    // Replays of a pinned spec are bit-identical.
    EXPECT_EQ(run_scenario(*scenario, options).trace_digest, r.trace_digest)
        << spec;
  }
}

TEST(FuzzRegressions, HoldReleaseAtBoundaryNeverStretchesOrSpills) {
  // Pins the HoldbackScheduler release boundary at engine level: a hold
  // whose release is 1 can never be live (delays are >= 1, so every
  // delivery already lands at or past it). The run must behave exactly
  // like the un-held scenario — dense fast path intact, nothing pushed
  // beyond the wheel window — and stay bit-identical to the reference
  // engine. See Schedulers.HoldbackReleaseBoundary* for the schedule-level
  // boundary tests.
  const char* spec =
      "amacfuzz1:seed=1:alg=flooding:topo=clique:n=6:aux=0:sched=holdback:"
      "fack=3:late=0:in=split:ids=identity:f=0:hz=1000000:holds=2@1";
  const auto scenario = parse_spec(spec);
  ASSERT_TRUE(scenario.has_value()) << spec;

  RunOptions options;
  options.differential = true;
  const RunReport r = run_scenario(*scenario, options);
  EXPECT_EQ(r.failure, FailureKind::kNone) << r.detail;
  EXPECT_TRUE(r.condition_met);  // crash-free flooding must terminate
  EXPECT_EQ(r.stats.overflow_pushes, 0u)
      << "an expired hold pushed deliveries past the wheel window";
  ASSERT_TRUE(r.differential_ran);
  EXPECT_EQ(r.fingerprint, r.reference_fingerprint)
      << "engine divergence on " << spec;
  EXPECT_EQ(run_scenario(*scenario, options).trace_digest, r.trace_digest)
      << spec;
}

TEST(FuzzRegressions, WPaxosLeaderHandoffSurvivesStaleLargerProposal) {
  // Surfaced by the coverage-steered mutation stream: under this scripted
  // timeline node 8 floods proposal (tag 6, id 8) while it still believes
  // itself leader; the true max-id leader (node 9) then issues (tag 5,
  // id 9), which is lexicographically SMALLER. WPaxos's at-most-once
  // cursor used to advance on the stale larger pn before the
  // current-leader gate ran, so every node that had processed (6,8)
  // silently swallowed the real leader's flood — no relay, no response,
  // not even a rejection — and the proposer wedged at 5 of 6 promises
  // with nothing left to trigger a retry. The cursor is now scoped to the
  // current leader's propositions; this pin keeps it that way.
  const char* spec =
      "amacfuzz1:seed=259:alg=wpaxos:topo=geo:n=10:aux=0:sched=scripted:"
      "fack=2:late=0:in=all0:ids=identity:f=0:hz=1000000:script=1@1@2@1";
  const auto scenario = parse_spec(spec);
  ASSERT_TRUE(scenario.has_value()) << spec;

  RunOptions options;
  options.differential = true;
  const RunReport r = run_scenario(*scenario, options);
  EXPECT_EQ(r.failure, FailureKind::kNone) << r.detail;
  EXPECT_TRUE(r.condition_met) << "wPAXOS wedged below the promise majority";
  ASSERT_TRUE(r.differential_ran);
  EXPECT_EQ(r.fingerprint, r.reference_fingerprint)
      << "engine divergence on " << spec;
  EXPECT_EQ(run_scenario(*scenario, options).trace_digest, r.trace_digest);
}

// wPAXOS split votes at exactly n/2. With even n, a prepare could end at
// yes = no = n/2: no majority either way, and the proposer used to retry
// only on a majority of rejections, so with no change event left it
// wedged and the queue drained with nobody decided. It now retries as
// soon as a yes-majority is out of reach. Each spec below (identity ids,
// lock-step rounds, contended proposers on a geometric graph) wedged that
// way before the fix.
constexpr const char* kSplitVoteSpecs[] = {
    "amacfuzz1:seed=40017273:alg=wpaxos:topo=geo:n=8:aux=0:sched=sync:"
    "fack=1:late=0:in=alt:ids=identity:f=0:hz=100000",
    "amacfuzz1:seed=40017311:alg=wpaxos:topo=geo:n=10:aux=0:sched=sync:"
    "fack=1:late=0:in=alt:ids=identity:f=0:hz=100000",
    "amacfuzz1:seed=40017351:alg=wpaxos:topo=geo:n=12:aux=0:sched=sync:"
    "fack=1:late=0:in=alt:ids=identity:f=0:hz=100000",
    "amacfuzz1:seed=40017638:alg=wpaxos:topo=geo:n=12:aux=0:sched=sync:"
    "fack=1:late=0:in=alt:ids=identity:f=0:hz=100000",
    "amacfuzz1:seed=40017984:alg=wpaxos:topo=geo:n=12:aux=0:sched=sync:"
    "fack=1:late=0:in=alt:ids=identity:f=0:hz=100000",
    "amacfuzz1:seed=60000228:alg=wpaxos:topo=geo:n=10:aux=0:sched=sync:"
    "fack=1:late=0:in=alt:ids=identity:f=0:hz=100000",
    "amacfuzz1:seed=60000228:alg=wpaxos:topo=geo:n=10:aux=0:sched=sync:"
    "fack=2:late=0:in=alt:ids=identity:f=0:hz=100000",
    // The same wedge inside the replicated log: a renewal slot split, and
    // recovery's relaunches split again until it gave up.
    "amacfuzz1:seed=40017311:alg=wpaxos:topo=geo:n=10:aux=0:sched=sync:"
    "fack=1:late=0:in=alt:ids=identity:f=0:hz=1000000:log=128@8@4@4",
};

TEST(FuzzRegressions, WPaxosSplitVoteAtHalfRetriesAndDecides) {
  RunOptions options;
  options.differential = true;
  for (const char* spec : kSplitVoteSpecs) {
    const auto scenario = parse_spec(spec);
    ASSERT_TRUE(scenario.has_value()) << spec;
    EXPECT_EQ(format_spec(*scenario), spec);
    const RunReport r = run_scenario(*scenario, options);
    EXPECT_EQ(r.failure, FailureKind::kNone) << spec << "\n" << r.detail;
    EXPECT_TRUE(r.verdict.termination) << spec;
    if (r.log_service) continue;  // log replays run on one engine only
    // The Lemma 4.2 monitor watched every event and found nothing.
    EXPECT_GT(r.monitor_checks, 0u) << spec;
    ASSERT_TRUE(r.differential_ran) << spec;
    EXPECT_EQ(r.fingerprint, r.reference_fingerprint) << spec;
  }
}

TEST(FuzzRegressions, WPaxosSplitVoteSweepAllDecide) {
  // The scan that found the split: 1001 seeds x n in {8, 10, 12}. Before
  // the fix, 5 of these 3003 runs wedged (the first five specs above).
  std::size_t runs = 0;
  std::size_t failures = 0;
  for (const std::size_t n : {8, 10, 12}) {
    for (std::uint64_t seed = 40017000; seed <= 40018000; ++seed) {
      const std::string spec =
          "amacfuzz1:seed=" + std::to_string(seed) +
          ":alg=wpaxos:topo=geo:n=" + std::to_string(n) +
          ":aux=0:sched=sync:fack=1:late=0:in=alt:ids=identity:f=0:"
          "hz=100000";
      const auto scenario = parse_spec(spec);
      ASSERT_TRUE(scenario.has_value()) << spec;
      const RunReport r = run_scenario(*scenario, RunOptions{});
      ++runs;
      if (r.failure != FailureKind::kNone) {
        ++failures;
        ADD_FAILURE() << spec << "\n" << r.detail;
      }
    }
  }
  EXPECT_EQ(runs, 3003u);
  EXPECT_EQ(failures, 0u);
}

// Link-fault regression family: full specs with non-empty fault plans,
// pinned so the seed-salted (broadcast_id, sender, receiver) hash keeps
// making the exact same drop/duplicate decisions in both engines. Each
// spec stays inside its algorithm's fault envelope (clamp_to_envelope
// rules: two_phase deferral+duplication only, wPAXOS loss only, flooding
// and Ben-Or anything), so safety must hold even though termination is
// not claimed.
constexpr const char* kLinkFaultSpecs[] = {
    // Flooding on a torus under global drop + duplicate rates plus a
    // deferral window: both fault partitions active at once.
    "amacfuzz1:seed=5:alg=flooding:topo=torus:n=16:aux=4:sched=contention:"
    "fack=1:late=0:in=multi:ids=perm:f=0:hz=30000:drop=400:dup=200:"
    "faults=0@1@2@40",
    // Ben-Or with two crashes inside its f=4 budget AND lossy links: the
    // randomized path tolerates loss, duplication, and crash fallout
    // together (82 drops / 41 duplicates at the pinned seed).
    "amacfuzz1:seed=16:alg=benor:topo=clique:n=9:aux=0:sched=contention:"
    "fack=1:late=0:in=split:ids=perm:f=4:hz=30000:crashes=1@1,2@7:"
    "drop=400:dup=200:faults=0@1@2@40",
    // Two-phase commit in its envelope: no permanent loss, only a finite
    // deferral window and duplicated frames.
    "amacfuzz1:seed=10:alg=two_phase:topo=clique:n=10:aux=0:"
    "sched=contention:fack=2:late=0:in=split:ids=identity:f=0:hz=30000:"
    "dup=200:faults=0@1@2@40",
    // wPAXOS in its envelope: loss but never duplication (acceptor
    // responses are counted, not deduplicated).
    "amacfuzz1:seed=12:alg=wpaxos:topo=line:n=11:aux=0:sched=contention:"
    "fack=1:late=0:in=alt:ids=perm:f=0:hz=30000:drop=400:faults=0@1@2@40",
};

TEST(FuzzRegressions, LinkFaultPlansStayCleanAndBitIdentical) {
  RunOptions options;
  options.differential = true;
  std::uint64_t total_drops = 0;
  std::uint64_t total_dups = 0;
  for (const char* spec : kLinkFaultSpecs) {
    const auto scenario = parse_spec(spec);
    ASSERT_TRUE(scenario.has_value()) << spec;
    ASSERT_TRUE(scenario->drop_rate_bp != 0 || scenario->dup_rate_bp != 0 ||
                !scenario->faults.empty())
        << spec;
    // Pinned specs must round-trip exactly (the --replay contract covers
    // the fault grammar too).
    EXPECT_EQ(format_spec(*scenario), spec);

    const RunReport r = run_scenario(*scenario, options);
    // The pinned property: faults really fire, safety holds, and the
    // calendar engine stays bit-identical to the frozen reference engine
    // under the exact same drop/duplicate decisions.
    EXPECT_GT(r.stats.drops + r.stats.duplicates, 0u) << spec;
    EXPECT_EQ(r.failure, FailureKind::kNone) << spec << "\n" << r.detail;
    ASSERT_TRUE(r.differential_ran);
    EXPECT_EQ(r.fingerprint, r.reference_fingerprint)
        << "engine divergence on " << spec;
    total_drops += r.stats.drops;
    total_dups += r.stats.duplicates;

    // Replays of a pinned spec are bit-identical.
    EXPECT_EQ(run_scenario(*scenario, options).trace_digest, r.trace_digest)
        << spec;
  }
  EXPECT_GT(total_drops, 0u);
  EXPECT_GT(total_dups, 0u);
}

// A broadcast partly deferred by a finite drop window: some copies of one
// fan-out are kept at their scheduled ticks and the rest deferred past the
// window. The engines must emit the kept copies first, then the deferred
// ones; with the two groups swapped in Network::start_broadcast every soak
// and digest still passes (their fault floors add rates, not windows), so
// these specs pin the order through the reference differential.
constexpr const char* kPartialDeferralSpecs[] = {
    // Flooding on a 4-clique: node 0's copies to node 1 arriving before
    // tick 10 are deferred to it; its other copies of the same broadcasts
    // are kept.
    "amacfuzz1:seed=3:alg=flooding:topo=clique:n=4:aux=0:sched=sync:fack=2:"
    "late=0:in=alt:ids=identity:f=0:hz=1000000:faults=0@1@0@10",
    // wPAXOS on a 3x3 grid under random delays, two finite windows.
    "amacfuzz1:seed=3:alg=wpaxos:topo=grid:n=9:aux=3:sched=uniform:fack=3:"
    "late=0:in=alt:ids=perm:f=0:hz=1000000:faults=4@1@0@12,2@5@3@20",
};

TEST(FuzzRegressions, PartialDeferralStaysBitIdentical) {
  RunOptions options;
  options.differential = true;
  for (const char* spec : kPartialDeferralSpecs) {
    const auto scenario = parse_spec(spec);
    ASSERT_TRUE(scenario.has_value()) << spec;
    EXPECT_EQ(format_spec(*scenario), spec);

    const RunReport r = run_scenario(*scenario, options);
    EXPECT_GT(r.stats.drops, 0u) << spec;  // drops count deferred copies
    EXPECT_EQ(r.failure, FailureKind::kNone) << spec << "\n" << r.detail;
    ASSERT_TRUE(r.differential_ran);
    EXPECT_EQ(r.fingerprint, r.reference_fingerprint)
        << "engine divergence on " << spec;
  }
}

TEST(FuzzOracle, DetectsAgreementViolationUnderPermanentLinkLoss) {
  // WHY the envelope exists: AnonymousMinFlood is reliable-delivery-only
  // (Theorem 3.3's model), so a permanent drop window on the value-flow
  // link — outside the generator's and clamp's envelope, inside the spec
  // language — makes node 1 decide its own 1 while node 0 decides 0. The
  // oracle must flag it (agreement is unconditional under faults).
  const auto scenario = parse_spec(
      "amacfuzz1:seed=1:alg=anonymous:topo=line:n=2:aux=0:sched=sync:"
      "fack=2:late=0:in=split:ids=identity:f=0:hz=1000000:faults=0@1@0@inf");
  ASSERT_TRUE(scenario.has_value());
  const RunReport r = run_scenario(*scenario);
  EXPECT_EQ(r.failure, FailureKind::kAgreement) << r.detail;
  EXPECT_FALSE(r.verdict.agreement);
  EXPECT_TRUE(r.verdict.validity);
  EXPECT_GT(r.stats.drops, 0u);
}

TEST(FuzzShrinker, StripsFaultNoiseToTheMinimalPlan) {
  // A bloated variant of the same violation: five nodes, a duplicate
  // rate, and three windows that do NOT matter alongside the one that
  // does. Two-phase shrinking must strip every irrelevant fault field
  // (structural candidates drop whole windows and zero the rates; the
  // value phase can't touch the essential window's infinite end) and
  // reach the minimal plan: exactly the severed 0->1 link, rates zero.
  const auto scenario = parse_spec(
      "amacfuzz1:seed=1:alg=anonymous:topo=line:n=5:aux=0:sched=sync:"
      "fack=3:late=0:in=split:ids=identity:f=0:hz=1000000:"
      "dup=200:faults=0@1@0@inf,3@4@5@90,2@1@10@60,4@3@0@40");
  ASSERT_TRUE(scenario.has_value());
  ASSERT_EQ(run_scenario(*scenario).failure, FailureKind::kAgreement);

  const ShrinkResult shrunk =
      shrink_scenario(*scenario, FailureKind::kAgreement);
  EXPECT_GT(shrunk.reductions, 0u);
  EXPECT_EQ(shrunk.scenario.dup_rate_bp, 0u);
  EXPECT_EQ(shrunk.scenario.drop_rate_bp, 0u);
  ASSERT_EQ(shrunk.scenario.faults.size(), 1u);
  EXPECT_EQ(shrunk.scenario.faults[0].from, 0u);
  EXPECT_EQ(shrunk.scenario.faults[0].to, 1u);
  EXPECT_EQ(shrunk.scenario.faults[0].until_tick, mac::kForever);
  EXPECT_LE(shrunk.scenario.n, 3u);  // surplus nodes shed too
  // The minimal scenario still fails the same way, and its spec replays.
  EXPECT_EQ(shrunk.report.failure, FailureKind::kAgreement);
  const auto replayed = parse_spec(format_spec(shrunk.scenario));
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(run_scenario(*replayed).failure, FailureKind::kAgreement);
}

TEST(FuzzOracle, DetectsTheorem33StyleAgreementViolation) {
  // AnonymousMinFlood under a holdback adversary — outside the generator's
  // envelope, inside the spec language: node 0 (the only 0-input) has every
  // delivery held past the others' D+1 phases, so they decide 1 while node
  // 0 decides 0. The paper's Theorem 3.3 argument, as a one-line repro.
  const auto scenario = parse_spec(
      "amacfuzz1:seed=1:alg=anonymous:topo=line:n=2:aux=0:sched=holdback:"
      "fack=2:late=0:in=split:ids=identity:f=0:hz=1000000:holds=0@300");
  ASSERT_TRUE(scenario.has_value());
  const RunReport r = run_scenario(*scenario);
  EXPECT_EQ(r.failure, FailureKind::kAgreement) << r.detail;
  EXPECT_FALSE(r.verdict.agreement);
  EXPECT_TRUE(r.verdict.validity);
}

TEST(FuzzShrinker, MinimizesAgreementCounterexample) {
  // A deliberately bloated version of the same violation: ring of 8, four
  // held senders, fack 3. Greedy shrinking must keep the violation while
  // shedding nodes and holds.
  const auto scenario = parse_spec(
      "amacfuzz1:seed=1:alg=anonymous:topo=ring:n=8:aux=0:sched=holdback:"
      "fack=3:late=0:in=alt:ids=identity:f=0:hz=1000000:"
      "holds=0@400,2@400,4@400,6@400");
  ASSERT_TRUE(scenario.has_value());
  ASSERT_EQ(run_scenario(*scenario).failure, FailureKind::kAgreement);

  const ShrinkResult shrunk =
      shrink_scenario(*scenario, FailureKind::kAgreement);
  EXPECT_GT(shrunk.reductions, 0u);
  EXPECT_LE(shrunk.scenario.n, 4u);         // 8 -> ring minimum territory
  EXPECT_LE(shrunk.scenario.holds.size(), 2u);
  // The minimal scenario still fails the same way, and its spec replays.
  EXPECT_EQ(shrunk.report.failure, FailureKind::kAgreement);
  const auto replayed = parse_spec(format_spec(shrunk.scenario));
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(run_scenario(*replayed).failure, FailureKind::kAgreement);
}

TEST(FuzzShrinker, DropsIrrelevantCrashes) {
  // The violation needs only the hold; the crash of an uninvolved node is
  // noise the shrinker must strip (alongside surplus nodes).
  const auto scenario = parse_spec(
      "amacfuzz1:seed=1:alg=anonymous:topo=line:n=6:aux=0:sched=holdback:"
      "fack=2:late=0:in=all1:ids=identity:f=0:hz=1000000:"
      "holds=5@300:crashes=2@9000");
  ASSERT_TRUE(scenario.has_value());
  // All-ones inputs with node 5 held: every node already agrees on 1 —
  // EXCEPT that holding node 5 stalls nothing value-relevant, so this run
  // is actually clean; flip to the split pattern for the violation.
  Scenario bloated = *scenario;
  bloated.inputs = InputPattern::kSplit;
  bloated.holds = {HoldSpec{0, 300}, HoldSpec{1, 300}, HoldSpec{2, 300}};
  normalize_scenario(bloated);
  const RunReport r = run_scenario(bloated);
  ASSERT_EQ(r.failure, FailureKind::kAgreement) << r.detail;

  const ShrinkResult shrunk =
      shrink_scenario(bloated, FailureKind::kAgreement);
  EXPECT_TRUE(shrunk.scenario.crashes.empty())
      << "irrelevant crash survived shrinking: "
      << format_spec(shrunk.scenario);
  EXPECT_LT(shrunk.scenario.n, bloated.n);
}

TEST(FuzzShrinker, PinnedShrinkOutputs) {
  // The exact minimal spec of each shrink, so a change to the shrinker's
  // candidates or value walks shows up as a changed line. An output may
  // only get shorter: a longer minimal repro is a regression.
  struct Pin {
    const char* input;
    std::size_t budget;
    const char* minimal;
  };
  const Pin pins[] = {
      // Scripted slots: every slot's recv, ack and per-receiver delays walk
      // toward their targets (ack toward the just-shrunk recv).
      {"amacfuzz1:seed=1:alg=anonymous:topo=line:n=5:aux=0:sched=scripted:"
       "fack=20:late=0:in=split:ids=identity:f=0:hz=1000000:"
       "script=0@0@20@18,0@1@20@19,1@0@12@2-9+3-7,3@0@9@4",
       400,
       "amacfuzz1:seed=1:alg=anonymous:topo=line:n=2:aux=0:sched=scripted:"
       "fack=3:late=0:in=split:ids=identity:f=0:hz=1000000:script=0@0@3@3"},
      // A drop rate and two finite windows: the rate walks toward 0 and the
      // surviving window's end toward its start + 1.
      {"amacfuzz1:seed=1:alg=anonymous:topo=line:n=5:aux=0:sched=sync:"
       "fack=3:late=0:in=split:ids=identity:f=0:hz=1000000:"
       "drop=300:faults=0@1@0@400,3@4@5@90",
       400,
       "amacfuzz1:seed=1:alg=anonymous:topo=line:n=2:aux=0:sched=sync:"
       "fack=1:late=0:in=split:ids=identity:f=0:hz=1000000:faults=0@1@0@3"},
      // The inputs of StripsFaultNoiseToTheMinimalPlan,
      // MinimizesAgreementCounterexample, DropsIrrelevantCrashes (its
      // bloated scenario, normalized) and
      // MinimizesHoldReleaseToExactThreshold.
      {"amacfuzz1:seed=1:alg=anonymous:topo=line:n=5:aux=0:sched=sync:"
       "fack=3:late=0:in=split:ids=identity:f=0:hz=1000000:"
       "dup=200:faults=0@1@0@inf,3@4@5@90,2@1@10@60,4@3@0@40",
       150,
       "amacfuzz1:seed=1:alg=anonymous:topo=line:n=2:aux=0:sched=sync:"
       "fack=1:late=0:in=split:ids=identity:f=0:hz=1000000:faults=0@1@0@inf"},
      {"amacfuzz1:seed=1:alg=anonymous:topo=ring:n=8:aux=0:sched=holdback:"
       "fack=3:late=0:in=alt:ids=identity:f=0:hz=1000000:"
       "holds=0@400,2@400,4@400,6@400",
       150,
       "amacfuzz1:seed=1:alg=anonymous:topo=ring:n=3:aux=0:sched=holdback:"
       "fack=1:late=0:in=alt:ids=identity:f=0:hz=1000000:holds=0@3,2@3"},
      {"amacfuzz1:seed=1:alg=anonymous:topo=line:n=6:aux=0:sched=holdback:"
       "fack=2:late=0:in=split:ids=identity:f=0:hz=1000000:"
       "crashes=2@9000:holds=0@300,1@300,2@300",
       150,
       "amacfuzz1:seed=1:alg=anonymous:topo=line:n=4:aux=0:sched=holdback:"
       "fack=1:late=0:in=split:ids=identity:f=0:hz=1000000:holds=2@4"},
      {"amacfuzz1:seed=1:alg=anonymous:topo=ring:n=8:aux=0:sched=holdback:"
       "fack=3:late=0:in=alt:ids=identity:f=0:hz=1000000:"
       "holds=0@400,2@400,4@400,6@400",
       400,
       "amacfuzz1:seed=1:alg=anonymous:topo=ring:n=3:aux=0:sched=holdback:"
       "fack=1:late=0:in=alt:ids=identity:f=0:hz=1000000:holds=0@3,2@3"},
  };
  for (const Pin& pin : pins) {
    const auto scenario = parse_spec(pin.input);
    ASSERT_TRUE(scenario.has_value()) << pin.input;
    const ShrinkResult shrunk =
        shrink_scenario(*scenario, FailureKind::kAgreement, pin.budget);
    EXPECT_EQ(format_spec(shrunk.scenario), pin.minimal) << pin.input;
  }

  // An expected counterexample (ROADMAP 2.1): stability's kEnvelopes row
  // roams every topology, though the algorithm is correct only on a
  // standalone line under sync (Theorem 3.9's strawman). The generator's
  // seed 30047583 puts it on a geometric graph, where it breaks agreement.
  const Scenario stability = generate_scenario(30047583);
  const RunReport r = run_scenario(stability);
  ASSERT_EQ(r.failure, FailureKind::kAgreement) << r.detail;
  EXPECT_EQ(r.end_time, 30u);
  EXPECT_EQ(
      format_spec(shrink_scenario(stability, FailureKind::kAgreement).scenario),
      "amacfuzz1:seed=30047583:alg=stability:topo=geo:n=12:aux=0:sched=sync:"
      "fack=1:late=0:in=alt:ids=perm:f=0:hz=1000000");
}

}  // namespace
}  // namespace amac::fuzz
