// Coverage-steered mutation fuzzing (tier-1 pins).
//
//   * every generated scenario is a clamp_to_envelope fixpoint, so the
//     generator and the mutation clamp read one kEnvelopes row alike;
//   * every mutant — including chains of mutants — survives the
//     clamp_to_envelope round-trip: spec-exact (format/parse), inside its
//     algorithm's guarantee envelope, and buildable;
//   * mutation is deterministic given the rng state, and a long chained
//     mutant stream is pinned by digest;
//   * CoverageSignature is stable, discriminates engine paths, and the
//     corpus is bounded with exact novelty detection;
//   * a mutating soak strictly widens distinct-signature coverage over
//     pure generation at the same budget (the acceptance property the CI
//     fuzz lane asserts at 2000 scenarios);
//   * schedule-space shrinking minimizes a seeded violation's hold release
//     to its exact reproduction threshold, not just to fewer holds.
#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz/fuzzer.hpp"
#include "util/hash.hpp"

namespace amac::fuzz {
namespace {

using harness::Algorithm;

/// The envelope assertions of test_fuzz_smoke.cpp, applied to a mutant.
void expect_in_envelope(const Scenario& s, const std::string& context) {
  const BuiltScenario b = build_scenario(s);
  const std::size_t count = b.graph.node_count();
  ASSERT_GE(count, 2u) << context;
  ASSERT_TRUE(b.graph.is_connected()) << context;
  ASSERT_EQ(b.inputs.size(), count) << context;
  ASSERT_EQ(b.ids.size(), count) << context;

  if (s.algorithm == Algorithm::kAnonymous ||
      s.algorithm == Algorithm::kStability) {
    EXPECT_EQ(s.scheduler, SchedulerKind::kSynchronous) << context;
    EXPECT_TRUE(s.crashes.empty()) << context;
  }
  if (s.algorithm == Algorithm::kTwoPhase ||
      s.algorithm == Algorithm::kBenOr) {
    EXPECT_EQ(s.topology, TopologyKind::kClique) << context;
  }
  if (s.algorithm == Algorithm::kTwoPhase) {
    EXPECT_TRUE(s.crashes.empty()) << context;
  }
  if (s.algorithm == Algorithm::kBenOr) {
    EXPECT_LT(2 * s.benor_f, count) << context;
    EXPECT_LE(s.crashes.size(), s.benor_f) << context;
  }
  for (const auto& c : s.crashes) EXPECT_LT(c.node, count) << context;
  for (const auto& h : s.holds) EXPECT_LT(h.sender, count) << context;
  if (s.scheduler != SchedulerKind::kHoldback) {
    EXPECT_TRUE(s.holds.empty()) << context;
    EXPECT_FALSE(s.late_holds) << context;
  }
  if (s.scheduler != SchedulerKind::kScripted) {
    EXPECT_TRUE(s.script.empty()) << context;
  }
  for (const auto& t : s.script) {
    EXPECT_LT(t.sender, count) << context;
    EXPECT_GE(t.ack, 1u) << context;
    EXPECT_GE(t.recv, 1u) << context;
    EXPECT_LE(t.recv, t.ack) << context;
    // Per-receiver overrides: in range, deduplicated, sorted, delays
    // inside [1, ack], and recv is exactly their maximum.
    mac::Time max_delay = 0;
    for (std::size_t i = 0; i < t.delays.size(); ++i) {
      EXPECT_LT(t.delays[i].first, count) << context;
      if (i > 0) {
        EXPECT_LT(t.delays[i - 1].first, t.delays[i].first) << context;
      }
      EXPECT_GE(t.delays[i].second, 1u) << context;
      EXPECT_LE(t.delays[i].second, t.ack) << context;
      max_delay = std::max(max_delay, t.delays[i].second);
    }
    if (!t.delays.empty()) {
      EXPECT_EQ(t.recv, max_delay) << context;
    }
  }
  EXPECT_GE(s.fack, 1u) << context;

  // Link-fault envelope (the bounded-loss rules clamp_to_envelope
  // enforces): synchronous-only algorithms see a perfectly reliable MAC;
  // two-phase commit tolerates deferral and duplication but never
  // permanent loss; wPAXOS counts acceptor responses, so never
  // duplication. Rates and window counts stay inside the mutation bounds.
  const bool sync_only = s.algorithm == Algorithm::kAnonymous ||
                         s.algorithm == Algorithm::kStability;
  if (sync_only) {
    EXPECT_EQ(s.drop_rate_bp, 0u) << context;
    EXPECT_EQ(s.dup_rate_bp, 0u) << context;
    EXPECT_TRUE(s.faults.empty()) << context;
  }
  if (s.algorithm == Algorithm::kTwoPhase) {
    EXPECT_EQ(s.drop_rate_bp, 0u) << context;
    for (const auto& w : s.faults) {
      EXPECT_NE(w.until_tick, mac::kForever) << context;
    }
  }
  if (s.algorithm == Algorithm::kWPaxos) {
    EXPECT_EQ(s.dup_rate_bp, 0u) << context;
  }
  EXPECT_LE(s.drop_rate_bp, 2000u) << context;  // kMaxFaultRateBp
  EXPECT_LE(s.dup_rate_bp, 2000u) << context;
  EXPECT_LE(s.faults.size(), 4u) << context;  // kMaxFaultWindows
  for (const auto& w : s.faults) {
    EXPECT_LT(w.from, count) << context;
    EXPECT_LT(w.to, count) << context;
    EXPECT_NE(w.from, w.to) << context;
    if (w.until_tick != mac::kForever) {
      EXPECT_GT(w.until_tick, w.from_tick) << context;  // live window
    }
  }
}

TEST(FuzzMutation, MutantChainsSurviveRoundTripAndStayInEnvelope) {
  // Chains of mutants (mutant-of-mutant, with occasional splice partners)
  // must stay spec-exact and inside the guarantee envelope — this is what
  // makes a mutant violation a real bug and its printed spec replayable.
  // The folded spec stream pins the mutator itself: any change to an op,
  // its rng draws or the clamp moves the digest, while the soak pins only
  // see such a change through run fingerprints. The chains are long enough
  // for every list to reach its cap.
  util::Rng rng(0xC07E4A6E);
  util::Hasher stream;
  std::size_t full_holds = 0;
  std::size_t full_crashes = 0;
  std::size_t full_script = 0;
  std::size_t full_faults = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    Scenario s = generate_scenario(seed);
    const Scenario partner = generate_scenario(seed + 1000);
    for (int step = 0; step < 24; ++step) {
      const Scenario* splice = (step % 3 == 2) ? &partner : nullptr;
      s = mutate_scenario(s, splice, rng);
      const std::string spec = format_spec(s);
      stream.mix_string(spec);
      const std::string context = "seed " + std::to_string(seed) + " step " +
                                  std::to_string(step) + ": " + spec;
      // Spec round-trip is exact.
      const auto parsed = parse_spec(spec);
      ASSERT_TRUE(parsed.has_value()) << context;
      EXPECT_EQ(format_spec(*parsed), spec) << context;
      expect_in_envelope(s, context);
      full_holds += s.holds.size() == 6 ? 1 : 0;
      full_crashes += s.crashes.size() == 4 ? 1 : 0;
      full_script += s.script.size() == 6 ? 1 : 0;
      full_faults += s.faults.size() == 4 ? 1 : 0;
    }
  }
  EXPECT_EQ(stream.digest(), 0xc2815d1af921fdccULL);
  // Each list cap (6 holds, 4 crashes, 6 script slots, 4 fault windows)
  // is reached.
  EXPECT_GT(full_holds, 0u);
  EXPECT_GT(full_crashes, 0u);
  EXPECT_GT(full_script, 0u);
  EXPECT_GT(full_faults, 0u);
}

TEST(FuzzSpec, PerReceiverScriptSlotsRoundTripExactly) {
  // The non-uniform 4th script field: "r-d+r-d" lists per-receiver
  // delays; a bare integer keeps the uniform form. Both must round-trip
  // bit for bit (the --replay contract), and recv is derived as the
  // maximum listed delay, matching normalize_scenario.
  const char* spec =
      "amacfuzz1:seed=1:alg=flooding:topo=clique:n=6:aux=0:sched=scripted:"
      "fack=3:late=0:in=split:ids=identity:f=0:hz=1000000:"
      "script=0@0@4@1-2+3-4,1@1@3@2";
  const auto parsed = parse_spec(spec);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->script.size(), 2u);
  const ScriptSlot& per = parsed->script[0];
  EXPECT_EQ(per.sender, 0u);
  EXPECT_EQ(per.index, 0u);
  EXPECT_EQ(per.ack, 4u);
  ASSERT_EQ(per.delays.size(), 2u);
  EXPECT_EQ(per.delays[0], (std::pair<NodeId, mac::Time>{1, 2}));
  EXPECT_EQ(per.delays[1], (std::pair<NodeId, mac::Time>{3, 4}));
  EXPECT_EQ(per.recv, 4u);  // max listed delay
  const ScriptSlot& uni = parsed->script[1];
  EXPECT_TRUE(uni.delays.empty());
  EXPECT_EQ(uni.recv, 2u);
  EXPECT_EQ(format_spec(*parsed), spec);

  // The scenario builds and runs clean: unlisted receivers fall back to
  // delay 1 and the run is deterministic.
  const RunReport a = run_scenario(*parsed);
  const RunReport b = run_scenario(*parsed);
  EXPECT_EQ(a.failure, FailureKind::kNone) << a.detail;
  EXPECT_EQ(a.trace_digest, b.trace_digest);
}

TEST(FuzzSpec, PerReceiverDelaysAreCanonicalizedByNormalize) {
  // normalize_scenario canonicalizes messy per-receiver lists through
  // mac::canonicalize_script, the form ScriptedScheduler replays: later
  // entries win duplicates, out-of-range receivers are dropped, delays
  // clamp into [1, ack], the list sorts by receiver, and recv becomes the
  // maximum listed delay — so format/parse round-trips exactly on the
  // result.
  Scenario s = generate_scenario(1);
  s.algorithm = Algorithm::kFlooding;
  s.topology = TopologyKind::kClique;
  s.n = 5;
  s.scheduler = SchedulerKind::kScripted;
  ScriptSlot slot;
  slot.sender = 0;
  slot.index = 0;
  slot.ack = 3;
  slot.recv = 1;
  slot.delays = {{4, 2}, {9, 1}, {1, 0}, {4, 7}, {2, 3}};
  s.script = {slot};
  normalize_scenario(s);

  ASSERT_EQ(s.script.size(), 1u);
  const ScriptSlot& t = s.script[0];
  // receiver 9 dropped (out of range), duplicate 4 resolved later-wins
  // (delay 7, clamped to ack=3), delay 0 clamped up to 1, sorted.
  ASSERT_EQ(t.delays.size(), 3u);
  EXPECT_EQ(t.delays[0], (std::pair<NodeId, mac::Time>{1, 1}));
  EXPECT_EQ(t.delays[1], (std::pair<NodeId, mac::Time>{2, 3}));
  EXPECT_EQ(t.delays[2], (std::pair<NodeId, mac::Time>{4, 3}));
  EXPECT_EQ(t.recv, 3u);

  const auto parsed = parse_spec(format_spec(s));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(format_spec(*parsed), format_spec(s));
}

TEST(FuzzSpec, NormalizedScriptReplaysAtTheParsedFingerprint) {
  // Every shrink candidate is a normalized line, so normalizing must not
  // change a run. Here each per-receiver slot lists only receivers outside
  // the graph; such a slot replays as the uniform slot recv = 1 (what every
  // unlisted receiver gets), and its normalized line must say so rather
  // than keep the slot's old recv. The wPAXOS fingerprint was re-pinned
  // from 0x2d995b1874195b96 when a leader stopped restarting its proposal
  // for a change made before it launched; the normalized script did not
  // move.
  struct Case {
    const char* spec;
    const char* normalized_script;
    std::uint64_t fingerprint;
  };
  const Case cases[] = {
      {"amacfuzz1:seed=5:alg=flooding:topo=ring:n=4:aux=0:sched=scripted:"
       "fack=4:late=0:in=alt:ids=identity:f=0:hz=1000000:script=0@0@4@9-3",
       "0@0@4@1", 0x303d090613c611c1ULL},
      {"amacfuzz1:seed=9:alg=wpaxos:topo=grid:n=9:aux=3:sched=scripted:"
       "fack=6:late=0:in=alt:ids=perm:f=0:hz=1000000:"
       "script=2@0@6@11-5+12-6,4@1@3@2",
       "2@0@6@1,4@1@3@2", 0x7265a3788ed8fafbULL},
  };
  for (const Case& c : cases) {
    const auto parsed = parse_spec(c.spec);
    ASSERT_TRUE(parsed.has_value()) << c.spec;
    Scenario normalized = *parsed;
    normalize_scenario(normalized);
    const std::string line = format_spec(normalized);
    const std::size_t at = line.find(":script=");
    ASSERT_NE(at, std::string::npos) << line;
    const std::size_t from = at + std::string_view(":script=").size();
    EXPECT_EQ(line.substr(from, line.find(':', from) - from),
              c.normalized_script);
    const RunReport as_parsed = run_scenario(*parsed);
    EXPECT_EQ(as_parsed.fingerprint, c.fingerprint) << c.spec;
    EXPECT_EQ(run_scenario(normalized).fingerprint, as_parsed.fingerprint)
        << line;
  }
}

TEST(FuzzMutation, DeterministicGivenRngState) {
  const Scenario base = generate_scenario(7);
  const Scenario partner = generate_scenario(8);
  util::Rng a(123);
  util::Rng b(123);
  for (int i = 0; i < 50; ++i) {
    const Scenario ma = mutate_scenario(base, &partner, a);
    const Scenario mb = mutate_scenario(base, &partner, b);
    EXPECT_EQ(format_spec(ma), format_spec(mb));
  }
}

TEST(FuzzMutation, MutantsRunCleanInsideTheirEnvelopes) {
  // Clamped mutants make guarantees the oracle can hold them to; a sample
  // must run violation-free (deterministic: fixed rng, so never flaky).
  util::Rng rng(99);
  std::size_t ran = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Scenario s = generate_scenario(seed);
    s = mutate_scenario(s, nullptr, rng);
    const RunReport r = run_scenario(s);
    EXPECT_EQ(r.failure, FailureKind::kNone)
        << format_spec(s) << "\n" << r.detail;
    ++ran;
  }
  EXPECT_EQ(ran, 20u);
}

TEST(FuzzMutation, GeneratedScenariosAreClampFixpoints) {
  // generate_scenario and clamp_to_envelope both derive their constraints
  // from kEnvelopes; a row the generator honors but the clamp rewrites (or
  // the reverse) shows up here as a generated scenario the clamp changes.
  std::size_t outside = 0;
  for (std::uint64_t seed = 1; seed <= 5000; ++seed) {
    const Scenario s = generate_scenario(seed);
    if (!inside_envelope(s)) {
      ++outside;
      ADD_FAILURE() << "seed " << seed << ": " << format_spec(s);
      if (outside >= 5) break;
    }
  }
  EXPECT_EQ(outside, 0u);
}

TEST(FuzzMutation, ScriptedTimelineMutantsStayInEnvelopeOver500Seeds) {
  // The ScriptedScheduler timeline property: every mutant of a scripted
  // timeline — including chains where retime/swap/duplicate/drop ops
  // rearrange the slots — still satisfies the algorithm's envelope after
  // clamp_to_envelope, across 500 seeded chains. inside_envelope() is the
  // clamp fixpoint check: a mutant passing it makes guarantees the oracle
  // can hold it to, which is what makes a mutant violation a real bug.
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    util::Rng rng(seed * 0x9E3779B9u + 7);
    // Start from a scripted scenario: a generated base pushed through the
    // timeline conversion (mutate until the scheduler flips to scripted,
    // which kScriptTimeline is drawn into within a few attempts).
    Scenario s = generate_scenario(seed);
    for (int attempt = 0; attempt < 64 &&
                          s.scheduler != SchedulerKind::kScripted;
         ++attempt) {
      s = mutate_scenario(s, nullptr, rng);
      // Scripted timelines are unreachable inside the log-service family
      // (its envelope owns the Network end to end), so a chain that
      // crossed in restarts from the base rather than wedging there.
      if (s.log_ops > 0) s = generate_scenario(seed);
    }
    if (s.scheduler != SchedulerKind::kScripted) continue;  // sync-only alg

    // Now a chain of further mutants; every one must stay a clamp
    // fixpoint, spec-round-trip exactly, and keep its slots well-formed.
    for (int step = 0; step < 6; ++step) {
      s = mutate_scenario(s, nullptr, rng);
      const std::string context =
          "seed " + std::to_string(seed) + " step " + std::to_string(step) +
          ": " + format_spec(s);
      EXPECT_TRUE(inside_envelope(s)) << context;
      const auto parsed = parse_spec(format_spec(s));
      ASSERT_TRUE(parsed.has_value()) << context;
      EXPECT_EQ(format_spec(*parsed), format_spec(s)) << context;
      expect_in_envelope(s, context);
      // Synchronous-only algorithms can never carry a scripted timeline.
      if (s.algorithm == Algorithm::kAnonymous ||
          s.algorithm == Algorithm::kStability) {
        EXPECT_NE(s.scheduler, SchedulerKind::kScripted) << context;
      }
    }
  }
}

TEST(FuzzMutation, FaultWindowSpliceRecombinesBothParentsInEnvelope) {
  // The kSpliceFaultWindows crossover: children that mix drop windows
  // from BOTH parents must appear (fault timelines neither parent ran),
  // and every mutant of the fault-bearing pair — whatever op fired — must
  // stay a clamp_to_envelope fixpoint. Sentinel windows use exact
  // (from, to, from_tick, until_tick) tuples no other op reproduces, so a
  // mixed plan can only come from the recombination op; the draw stream
  // is fixed, so the count below is deterministic.
  Scenario base = generate_scenario(1);
  base.algorithm = Algorithm::kFlooding;
  base.topology = TopologyKind::kClique;
  base.n = 8;
  base.aux = 0;
  base.scheduler = SchedulerKind::kSynchronous;
  base.crashes.clear();
  base.holds.clear();
  base.script.clear();
  base.faults = {FaultSpec{0, 1, 100, 107}, FaultSpec{1, 2, 200, 207}};
  clamp_to_envelope(base);
  ASSERT_TRUE(inside_envelope(base));
  ASSERT_EQ(base.faults.size(), 2u);

  Scenario partner = base;
  partner.seed = 999;
  partner.faults = {FaultSpec{2, 3, 300, 307}, FaultSpec{3, 4, 400, 407}};
  clamp_to_envelope(partner);
  ASSERT_EQ(partner.faults.size(), 2u);

  const auto window_eq = [](const FaultSpec& a, const FaultSpec& b) {
    return a.from == b.from && a.to == b.to && a.from_tick == b.from_tick &&
           a.until_tick == b.until_tick;
  };
  const auto has_window_from = [&](const Scenario& s,
                                   const std::vector<FaultSpec>& parent) {
    for (const auto& w : s.faults) {
      for (const auto& p : parent) {
        if (window_eq(w, p)) return true;
      }
    }
    return false;
  };

  util::Rng rng(0x57A7B1E);
  std::size_t recombined = 0;
  for (int i = 0; i < 400; ++i) {
    const Scenario m = mutate_scenario(base, &partner, rng);
    EXPECT_TRUE(inside_envelope(m)) << format_spec(m);
    const auto parsed = parse_spec(format_spec(m));
    ASSERT_TRUE(parsed.has_value()) << format_spec(m);
    if (has_window_from(m, base.faults) &&
        has_window_from(m, partner.faults)) {
      ++recombined;
    }
  }
  EXPECT_GE(recombined, 3u)
      << "no mutants recombined fault windows from both parents";
}

TEST(FuzzMutation, DeliberatelyUnclampedScriptedMutantIsRejected) {
  // The negative half of the property: hand-build timeline violations the
  // clamp would have fixed and check inside_envelope rejects each one —
  // proving the fixpoint check has teeth, not just that mutants happen to
  // pass it.
  util::Rng rng(0xBADC0DE);
  Scenario base;  // a flooding base: scripted timelines are in-envelope
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 200 && !found; ++seed) {
    base = generate_scenario(seed);
    found = base.algorithm == Algorithm::kFlooding;
  }
  ASSERT_TRUE(found);
  Scenario s = base;
  // Mutation never changes the algorithm, so every mutant stays flooding.
  for (int attempt = 0;
       attempt < 256 &&
       (s.scheduler != SchedulerKind::kScripted || s.script.empty());
       ++attempt) {
    s = mutate_scenario(s, nullptr, rng);
    // Scripted timelines are unreachable inside the log-service family
    // (its envelope owns the Network end to end); a chain that crossed in
    // restarts from the base rather than wedging there.
    if (s.log_ops > 0) s = base;
  }
  ASSERT_EQ(s.scheduler, SchedulerKind::kScripted);
  ASSERT_TRUE(inside_envelope(s));
  ASSERT_FALSE(s.script.empty());

  // Receive delay above the ack delay: violates the abstract MAC layer
  // contract (a copy delivered after its own ack).
  Scenario bad = s;
  bad.script[0].recv = bad.script[0].ack + 5;
  EXPECT_FALSE(inside_envelope(bad));

  // Ack beyond the mutation bound.
  bad = s;
  bad.script[0].ack = 100000;
  EXPECT_FALSE(inside_envelope(bad));

  // A scripted timeline on a synchronous-only algorithm: an expected
  // counterexample (Theorem 3.3), never a fuzz target.
  bad = s;
  bad.algorithm = Algorithm::kAnonymous;
  EXPECT_FALSE(inside_envelope(bad));

  // Scripted slots dangling on a non-scripted scheduler.
  bad = s;
  bad.scheduler = SchedulerKind::kUniformRandom;
  EXPECT_FALSE(inside_envelope(bad));

  // Clamping each rejected mutant re-admits it.
  clamp_to_envelope(bad);
  EXPECT_TRUE(inside_envelope(bad));
}

TEST(FuzzMutation, ClampPinsEveryFieldRange) {
  // Every bounded field set past both ends of its mutation range, and what
  // clamp_to_envelope returns. The bounds are written out here, not read
  // from numeric_fields(), so a dropped or edited descriptor fails.
  Scenario lo;  // holdback flooding, every value below its range
  lo.algorithm = Algorithm::kFlooding;
  lo.topology = TopologyKind::kClique;
  lo.n = 6;
  lo.scheduler = SchedulerKind::kHoldback;
  lo.fack = 0;
  lo.holds = {{0, 0}, {1, 1}};
  lo.crashes = {{2, 0}};
  lo.faults = {{0, 1, 0, 0}, {1, 0, 50, 10}};
  clamp_to_envelope(lo);
  EXPECT_EQ(lo.fack, 1u);
  ASSERT_EQ(lo.holds.size(), 2u);
  EXPECT_EQ(lo.holds[0].release, 2u);
  EXPECT_EQ(lo.holds[1].release, 2u);
  ASSERT_EQ(lo.crashes.size(), 1u);
  EXPECT_EQ(lo.crashes[0].when, 1u);
  ASSERT_EQ(lo.faults.size(), 2u);
  EXPECT_EQ(lo.faults[0].until_tick, 1u);  // from + 1
  EXPECT_EQ(lo.faults[1].until_tick, 51u);

  Scenario hi = lo;  // every value above its range
  hi.n = 100;
  hi.fack = 1000;
  hi.holds = {{0, 99999}};
  hi.crashes.clear();
  for (NodeId u = 0; u < 6; ++u) hi.crashes.push_back({u, 99999});
  hi.drop_rate_bp = 9999;
  hi.dup_rate_bp = 9999;
  hi.faults = {{0, 1, 99999, 100000},
               {1, 2, 10, 99999},
               {2, 3, 100, mac::kForever},
               {3, 4, 5, 6},
               {4, 5, 7, 8}};
  clamp_to_envelope(hi);
  EXPECT_EQ(hi.n, 24u);
  EXPECT_EQ(hi.fack, 64u);
  ASSERT_EQ(hi.holds.size(), 1u);
  EXPECT_EQ(hi.holds[0].release, 4000u);
  ASSERT_EQ(hi.crashes.size(), 4u);
  for (const auto& c : hi.crashes) EXPECT_EQ(c.when, 5000u);
  EXPECT_EQ(hi.drop_rate_bp, 2000u);
  EXPECT_EQ(hi.dup_rate_bp, 2000u);
  ASSERT_EQ(hi.faults.size(), 4u);
  EXPECT_EQ(hi.faults[0].from_tick, 3999u);
  EXPECT_EQ(hi.faults[0].until_tick, 4000u);
  EXPECT_EQ(hi.faults[1].until_tick, 4000u);
  EXPECT_EQ(hi.faults[2].until_tick, mac::kForever);
  EXPECT_EQ(hi.faults[3].until_tick, 6u);

  // Two-phase takes no permanent loss: an endless window heals 64 ticks
  // after it opens, inside the window-end range, and the drop rate goes.
  Scenario two_phase = hi;
  two_phase.algorithm = Algorithm::kTwoPhase;
  two_phase.crashes.clear();
  two_phase.faults = {{0, 1, 10, mac::kForever}, {1, 0, 3990, mac::kForever}};
  clamp_to_envelope(two_phase);
  EXPECT_EQ(two_phase.drop_rate_bp, 0u);
  EXPECT_EQ(two_phase.dup_rate_bp, 2000u);
  ASSERT_EQ(two_phase.faults.size(), 2u);
  EXPECT_EQ(two_phase.faults[0].until_tick, 74u);
  EXPECT_EQ(two_phase.faults[1].until_tick, 4000u);

  Scenario scripted = lo;  // scripted flooding: slot values at both ends
  scripted.n = 8;
  scripted.scheduler = SchedulerKind::kScripted;
  scripted.faults.clear();
  scripted.script = {{0, 0, 0, 0, {}}, {1, 99, 999, 0, {{2, 999}, {3, 0}}}};
  for (NodeId u = 2; u < 7; ++u) {
    scripted.script.push_back({u, 99, 999, 999, {}});
  }
  clamp_to_envelope(scripted);
  ASSERT_EQ(scripted.script.size(), 6u);
  EXPECT_EQ(scripted.script[0].index, 0u);
  EXPECT_EQ(scripted.script[0].ack, 1u);
  EXPECT_EQ(scripted.script[0].recv, 1u);
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_EQ(scripted.script[i].index, 12u);
    EXPECT_EQ(scripted.script[i].ack, 32u);
    EXPECT_EQ(scripted.script[i].recv, 32u);
  }
  ASSERT_EQ(scripted.script[1].delays.size(), 2u);
  EXPECT_EQ(scripted.script[1].delays[0].second, 32u);
  EXPECT_EQ(scripted.script[1].delays[1].second, 1u);
  EXPECT_EQ(scripted.fack, 32u);  // derived from the slots

  Scenario log_lo = lo;  // the log family's knobs at both ends
  log_lo.log_ops = 1;
  log_lo.log_batch = 0;
  log_lo.log_window = 0;
  log_lo.log_lease = 0;
  clamp_to_envelope(log_lo);
  EXPECT_EQ(log_lo.algorithm, Algorithm::kWPaxos);
  EXPECT_EQ(log_lo.log_ops, 8u);
  EXPECT_EQ(log_lo.log_batch, 1u);
  EXPECT_EQ(log_lo.log_window, 1u);
  EXPECT_EQ(log_lo.log_lease, 1u);
  Scenario log_hi = lo;
  log_hi.log_ops = 100000;
  log_hi.log_batch = 99;
  log_hi.log_window = 99;
  log_hi.log_lease = 999;
  clamp_to_envelope(log_hi);
  EXPECT_EQ(log_hi.log_ops, 256u);
  EXPECT_EQ(log_hi.log_batch, 16u);
  EXPECT_EQ(log_hi.log_window, 8u);
  EXPECT_EQ(log_hi.log_lease, 32u);
}

TEST(FuzzMutation, ScriptedMutantsRunCleanAndExerciseScriptedPaths) {
  // Scripted mutants inside their envelopes must run violation-free, and
  // the scripted scheduler really drives the runs (nonzero traffic,
  // deterministic replay from the spec line).
  util::Rng rng(2024);
  std::size_t scripted_runs = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Scenario s = generate_scenario(seed);
    for (int attempt = 0; attempt < 64 &&
                          s.scheduler != SchedulerKind::kScripted;
         ++attempt) {
      s = mutate_scenario(s, nullptr, rng);
      // Scripted timelines are unreachable inside the log-service family
      // (its envelope owns the Network end to end), so a chain that
      // crossed in restarts from the base rather than wedging there.
      if (s.log_ops > 0) s = generate_scenario(seed);
    }
    if (s.scheduler != SchedulerKind::kScripted) continue;
    ++scripted_runs;
    const RunReport r = run_scenario(s);
    EXPECT_EQ(r.failure, FailureKind::kNone)
        << format_spec(s) << "\n" << r.detail;
    EXPECT_GT(r.stats.broadcasts, 0u) << format_spec(s);
    // Spec-line replay is bit-identical (the repro contract).
    const auto replayed = parse_spec(format_spec(s));
    ASSERT_TRUE(replayed.has_value());
    EXPECT_EQ(run_scenario(*replayed).fingerprint, r.fingerprint)
        << format_spec(s);
  }
  EXPECT_GE(scripted_runs, 20u);
}

TEST(FuzzCoverage, SignatureIsStableAndDiscriminatesEnginePaths) {
  // Same scenario, same signature (bit-stable run to run).
  const Scenario s = generate_scenario(11);
  const CoverageSignature sig_a = coverage_signature(s, run_scenario(s));
  const CoverageSignature sig_b = coverage_signature(s, run_scenario(s));
  EXPECT_EQ(sig_a.key(), sig_b.key());

  // A late-hold overflow scenario and a plain synchronous scenario must
  // land in different signatures (different scheduler, overflow and hold
  // dimensions) — the signal that steers mutation toward rare paths.
  const auto late_spec = parse_spec(
      "amacfuzz1:seed=43:alg=flooding:topo=clique:n=14:aux=0:sched=holdback:"
      "fack=5:late=1:in=alt:ids=perm:f=0:hz=1000000:holds=9@129,11@59,12@136");
  ASSERT_TRUE(late_spec.has_value());
  const RunReport late_report = run_scenario(*late_spec);
  const CoverageSignature late_sig =
      coverage_signature(*late_spec, late_report);
  EXPECT_NE(late_sig.key(), sig_a.key());
  EXPECT_GT(late_sig.overflow_bucket, 0);
  EXPECT_TRUE(late_sig.flags & CoverageSignature::kHasHolds);
  EXPECT_TRUE(late_sig.flags & CoverageSignature::kLateHolds);
}

TEST(FuzzCoverage, CorpusIsBoundedAndDetectsNovelty) {
  CoverageCorpus corpus(4);
  CoverageSignature sig;
  sig.scheduler = 1;
  EXPECT_TRUE(corpus.observe(sig));
  EXPECT_FALSE(corpus.observe(sig));  // exact dedup on the packed key
  sig.overflow_bucket = 2;
  EXPECT_TRUE(corpus.observe(sig));
  EXPECT_EQ(corpus.distinct_signatures(), 2u);

  for (std::uint64_t seed = 1; seed <= 7; ++seed) {
    corpus.admit(generate_scenario(seed));
  }
  EXPECT_EQ(corpus.size(), 4u);  // bounded: ring-replaced, never grows
  // Ring replacement: seeds 5, 6, 7 overwrote slots 0, 1, 2.
  EXPECT_EQ(corpus.entry(0).seed, 5u);
  EXPECT_EQ(corpus.entry(1).seed, 6u);
  EXPECT_EQ(corpus.entry(2).seed, 7u);
  EXPECT_EQ(corpus.entry(3).seed, 4u);
}

TEST(FuzzCoverage, MutatingSoakStrictlyWidensCoverage) {
  // The acceptance property, at the CI budget: --mutate 0.5 over 2000
  // scenarios must discover strictly more distinct signatures than pure
  // generation of the same budget, while staying violation-free. Both
  // soaks are deterministic, so this can never flake.
  SoakOptions pure;
  pure.seed_base = 1;
  pure.count = 2000;
  pure.differential_every = 0;
  const SoakResult pure_result = run_soak(pure);
  ASSERT_TRUE(pure_result.ok());
  EXPECT_EQ(pure_result.mutated_runs, 0u);

  SoakOptions mutating = pure;
  mutating.mutate_ratio = 0.5;
  const SoakResult mutated_result = run_soak(mutating);
  ASSERT_TRUE(mutated_result.ok());
  EXPECT_GT(mutated_result.mutated_runs, 0u);

  EXPECT_GT(mutated_result.coverage.distinct, pure_result.coverage.distinct)
      << "mutation failed to widen signature coverage over blind generation";
  // The protocol dimension must strictly refine the engine-only (PR-4)
  // projection, and mutation must reach protocol corners pure generation
  // MISSED (a set difference, not a count comparison: replacing half the
  // generated stream with mutants can lose a pure corner for every mutant
  // corner gained, so strict count-widening flips on noise while the
  // difference stays non-empty) — the CI assertions.
  EXPECT_GT(mutated_result.coverage.distinct,
            mutated_result.coverage.engine_distinct);
  std::size_t mutant_only_protocol = 0;
  for (const std::uint64_t key : mutated_result.protocol_keys) {
    if (!pure_result.protocol_keys.contains(key)) ++mutant_only_protocol;
  }
  EXPECT_GT(mutant_only_protocol, 0u)
      << "mutation reached no protocol corner pure generation missed";
  EXPECT_GT(mutated_result.coverage.protocol_sigs, 0u);
  // The corpus digest folds every fingerprint, so the two soaks really ran
  // different scenario streams.
  EXPECT_NE(mutated_result.corpus_digest, pure_result.corpus_digest);
  EXPECT_LE(mutated_result.corpus.size(), CoverageCorpus::kDefaultMaxEntries);
}

TEST(FuzzCoverage, InitialCorpusSeedsMutationBases) {
  // A soak seeded from an external corpus can mutate from the very first
  // scenario (no warm-up needed) — the --corpus-in path.
  SoakOptions options;
  options.seed_base = 1;
  options.count = 60;
  options.differential_every = 0;
  options.mutate_ratio = 1.0;
  options.initial_corpus.push_back(generate_scenario(5000));
  const SoakResult result = run_soak(options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.mutated_runs, result.runs);
}

TEST(FuzzShrinker, MinimizesHoldReleaseToExactThreshold) {
  // The schedule-space shrinking demo: a bloated Theorem 3.3-style
  // violation (anonymous min-flood, ring of 8, four held senders at
  // release 400) must shrink not only structurally but in VALUES — the
  // surviving hold release lands exactly at its reproduction threshold:
  // the violation reproduces at the shrunk release and provably does not
  // one tick below it.
  const auto scenario = parse_spec(
      "amacfuzz1:seed=1:alg=anonymous:topo=ring:n=8:aux=0:sched=holdback:"
      "fack=3:late=0:in=alt:ids=identity:f=0:hz=1000000:"
      "holds=0@400,2@400,4@400,6@400");
  ASSERT_TRUE(scenario.has_value());
  ASSERT_EQ(run_scenario(*scenario).failure, FailureKind::kAgreement);

  // 400 attempts: room for both phases to reach fixpoint.
  const ShrinkResult shrunk =
      shrink_scenario(*scenario, FailureKind::kAgreement, 400);
  EXPECT_EQ(shrunk.report.failure, FailureKind::kAgreement);
  ASSERT_FALSE(shrunk.scenario.holds.empty());

  // Values were minimized, not just entries dropped.
  for (const auto& h : shrunk.scenario.holds) {
    EXPECT_LT(h.release, 400u) << format_spec(shrunk.scenario);
  }
  // Exactness: decrementing any hold release makes the violation vanish
  // (the failure is monotone in the release for this family, and the
  // binary search's final no-progress pass probed release - 1).
  for (std::size_t i = 0; i < shrunk.scenario.holds.size(); ++i) {
    if (shrunk.scenario.holds[i].release == 0) continue;
    Scenario below = shrunk.scenario;
    below.holds[i].release -= 1;
    normalize_scenario(below);
    EXPECT_NE(run_scenario(below).failure, FailureKind::kAgreement)
        << "hold " << i << " of " << format_spec(shrunk.scenario)
        << " is not at its threshold";
  }
  // The minimal spec still replays to the same violation.
  const auto replayed = parse_spec(format_spec(shrunk.scenario));
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(run_scenario(*replayed).failure, FailureKind::kAgreement);
}

}  // namespace
}  // namespace amac::fuzz
