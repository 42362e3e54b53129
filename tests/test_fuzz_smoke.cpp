// Fuzz smoke lane (tier-1): the pinned seed corpus must run clean.
//
//   * the generator stays inside every algorithm's guarantee envelope;
//   * spec lines round-trip exactly (the --replay contract), every table
//     entry included, and lines that would not round-trip are rejected;
//   * replaying a scenario is bit-identical, run to run and spec to spec;
//   * a sampled subset matches the frozen reference engine exactly;
//   * the 504-scenario corpus (seeds 1..504, the same range the CI fuzz
//     lane soaks) produces zero property violations across all six
//     algorithms.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fuzz/fuzzer.hpp"
#include "net/graph.hpp"

namespace amac::fuzz {
namespace {

using harness::Algorithm;

TEST(FuzzSpec, RoundTripsExactly) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Scenario s = generate_scenario(seed);
    const std::string spec = format_spec(s);
    const auto parsed = parse_spec(spec);
    ASSERT_TRUE(parsed.has_value()) << spec;
    EXPECT_EQ(format_spec(*parsed), spec);
  }
}

TEST(FuzzSpec, BareSeedMeansGeneratedScenario) {
  const auto parsed = parse_spec("42");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(format_spec(*parsed), format_spec(generate_scenario(42)));
}

TEST(FuzzSpec, RejectsMalformedInput) {
  EXPECT_FALSE(parse_spec("").has_value());
  EXPECT_FALSE(parse_spec("amacfuzz1").has_value());  // missing fields
  EXPECT_FALSE(parse_spec("amacfuzz2:seed=1").has_value());
  EXPECT_FALSE(parse_spec("amacfuzz1:seed=x:alg=wpaxos").has_value());
  const std::string good = format_spec(generate_scenario(7));
  EXPECT_TRUE(parse_spec(good).has_value());
  EXPECT_FALSE(parse_spec(good + ":bogus=1").has_value());

  // Lines that would run a scenario other than the one they state.
  const std::string base =
      "amacfuzz1:seed=1:alg=flooding:topo=ring:n=4:aux=0:sched=sync:fack=1"
      ":late=0:in=alt:ids=identity:f=0:hz=100";
  ASSERT_TRUE(parse_spec(base).has_value());
  EXPECT_TRUE(parse_spec(base + ":crashes=3@17").has_value());
  EXPECT_TRUE(parse_spec(base + ":script=1@2@3@1-2").has_value());
  for (const char* bad : {
           ":crashes=3@17:crashes=1@2",  // a second list is not appended
           ":seed=2",                    // a second scalar does not win
           ":crashes=", ":holds=", ":script=", ":faults=",  // empty lists
           ":crashes=3@17,", ":crashes=,3@17", ":crashes=3@17,,1@2",
           ":holds=1@5,", ":faults=0@1@2@inf,",
           ":script=1@2@3@1-2+", ":script=1@2@3@+1-2", ":script=1@2@3@4,",
       }) {
    EXPECT_FALSE(parse_spec(base + bad).has_value()) << bad;
  }
}

// One hand-made scenario that sets every spec token, left un-normalized
// (its per-receiver slot's recv already mirrors the largest delay, as the
// parser sets it). Its line pins the token order and every value format.
Scenario every_token_scenario() {
  Scenario s;
  s.seed = 123456789;
  s.algorithm = Algorithm::kWPaxos;
  s.topology = TopologyKind::kGrid;
  s.n = 12;
  s.aux = 3;
  s.scheduler = SchedulerKind::kScripted;
  s.fack = 9;
  s.late_holds = true;
  s.inputs = InputPattern::kMultivalued;
  s.ids = IdAssignment::kPermuted;
  s.benor_f = 2;
  s.horizon = 30000;
  s.log_ops = 40;
  s.log_batch = 3;
  s.log_window = 2;
  s.log_lease = 5;
  s.crashes = {{1, 17}, {4, 2}};
  s.holds = {{2, 40}};
  s.script = {ScriptSlot{0, 1, 9, 4, {}},
              ScriptSlot{3, 0, 7, 6, {{1, 6}, {5, 2}}}};
  s.drop_rate_bp = 150;
  s.dup_rate_bp = 25;
  s.faults = {{0, 1, 10, 50}, {2, 3, 0, mac::kForever}};
  return s;
}

constexpr const char* kEveryToken =
    "amacfuzz1:seed=123456789:alg=wpaxos:topo=grid:n=12:aux=3:sched=scripted"
    ":fack=9:late=1:in=multi:ids=perm:f=2:hz=30000:log=40@3@2@5"
    ":crashes=1@17,4@2:holds=2@40:script=0@1@9@4,3@0@7@1-6+5-2:drop=150"
    ":dup=25:faults=0@1@10@50,2@3@0@inf";

std::vector<std::string> spec_tokens(const std::string& spec) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    tokens.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) return tokens;
    start = colon + 1;
  }
}

std::string join_tokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) out += (out.empty() ? "" : ":") + t;
  return out;
}

TEST(FuzzSpec, EveryTokenRoundTripsAndEachRequiredTokenIsRequired) {
  const Scenario s = every_token_scenario();
  ASSERT_EQ(format_spec(s), kEveryToken);
  const auto parsed = parse_spec(kEveryToken);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(format_spec(*parsed), kEveryToken);
  EXPECT_EQ(parsed->script[1].recv, 6u);
  EXPECT_EQ(parsed->faults[1].until_tick, mac::kForever);

  const std::vector<std::string> tokens = spec_tokens(kEveryToken);
  ASSERT_EQ(tokens.size(), 20u);  // the magic plus one token per field
  const std::set<std::string> required = {"seed", "alg",  "topo", "n",
                                          "aux",  "sched", "fack", "late",
                                          "in",   "ids",  "f",    "hz"};
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string key = tokens[i].substr(0, tokens[i].find('='));
    std::vector<std::string> without = tokens;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
    const std::string line = join_tokens(without);
    const auto back = parse_spec(line);
    if (required.count(key) != 0) {
      EXPECT_FALSE(back.has_value()) << "accepted without " << key;
    } else {
      // An omitted optional token means its absent value, nothing else.
      ASSERT_TRUE(back.has_value()) << line;
      EXPECT_EQ(format_spec(*back), line);
    }
    EXPECT_FALSE(parse_spec(std::string(kEveryToken) + ":" + tokens[i]))
        << "accepted a repeated " << key;
  }
  // Keys are accepted in any order.
  std::vector<std::string> reversed(tokens.rbegin(), tokens.rend() - 1);
  reversed.insert(reversed.begin(), tokens[0]);
  const auto shuffled = parse_spec(join_tokens(reversed));
  ASSERT_TRUE(shuffled.has_value());
  EXPECT_EQ(format_spec(*shuffled), kEveryToken);
}

TEST(FuzzSpec, MutatedLinesNeverCrashAndAcceptedOnesAreCanonical) {
  // Seeded character-level mutations (flip, drop, duplicate) over valid
  // lines. parse_spec must never crash, and whatever it accepts must reach
  // a fixpoint of format_spec after one round trip.
  std::vector<std::string> lines = {kEveryToken};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Scenario s = generate_scenario(seed);
    lines.push_back(format_spec(s));
    promote_to_log_service(s);
    lines.push_back(format_spec(s));
  }
  constexpr std::string_view kAlphabet = "0123456789:=@,+-infabcz";
  util::Rng rng(20140715);
  std::size_t accepted = 0;
  for (int c = 0; c < 10000; ++c) {
    std::string x = lines[rng.uniform(0, lines.size() - 1)];
    const std::size_t edits = rng.uniform(1, 3);
    for (std::size_t e = 0; e < edits && !x.empty(); ++e) {
      const std::size_t at = rng.uniform(0, x.size() - 1);
      switch (rng.uniform(0, 2)) {
        case 0:  // flip
          x[at] = kAlphabet[rng.uniform(0, kAlphabet.size() - 1)];
          break;
        case 1:  // drop
          x.erase(at, 1);
          break;
        default:  // duplicate
          x.insert(at, 1, x[at]);
          break;
      }
    }
    const auto parsed = parse_spec(x);
    if (!parsed) continue;
    ++accepted;
    const std::string once = format_spec(*parsed);
    const auto again = parse_spec(once);
    ASSERT_TRUE(again.has_value()) << x << "\n -> " << once;
    EXPECT_EQ(format_spec(*again), once) << x;
  }
  // The mutants must exercise acceptance as well as rejection (about 4%
  // of them are accepted).
  EXPECT_GT(accepted, 100u);
  EXPECT_LT(accepted, 9000u);
}

TEST(FuzzLargeTopology, PromotedScenariosStaySparseAndRoundTrip) {
  // promote_to_large rewrites any generated scenario into its n=4096
  // counterpart. The result must stay inside the large-topology envelope
  // (sparse O(n)-edge family; no clique-locked algorithm; no
  // liveness-checked wPAXOS, whose n-proposer duel is unbounded) and its
  // spec line must survive format -> parse -> format exactly — the
  // --replay contract the soak's repro lines depend on.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Scenario s = generate_scenario(seed);
    promote_to_large(s, 4096);
    EXPECT_EQ(s.n, 4096u);
    const bool sparse = s.topology == TopologyKind::kGrid ||
                        s.topology == TopologyKind::kTorus ||
                        s.topology == TopologyKind::kBinaryTree ||
                        s.topology == TopologyKind::kStar;
    EXPECT_TRUE(sparse) << format_spec(s);
    EXPECT_NE(s.algorithm, Algorithm::kTwoPhase) << format_spec(s);
    EXPECT_NE(s.algorithm, Algorithm::kBenOr) << format_spec(s);
    if (s.algorithm == Algorithm::kWPaxos) {
      EXPECT_FALSE(termination_expected(s)) << format_spec(s);
    }
    const std::string spec = format_spec(s);
    const auto parsed = parse_spec(spec);
    ASSERT_TRUE(parsed.has_value()) << spec;
    EXPECT_EQ(format_spec(*parsed), spec);
  }
}

TEST(FuzzLargeTopology, PromotionIsDeterministicAndBuildsConnected) {
  Scenario a = generate_scenario(17);
  Scenario b = generate_scenario(17);
  promote_to_large(a, 4096);
  promote_to_large(b, 4096);
  EXPECT_EQ(format_spec(a), format_spec(b));  // pure function of (s, n)
  const BuiltScenario built = build_scenario(a);
  // Grid/torus promotion picks the near-square w with (w+1)^2 <= n, so
  // w * (n / w) may round a node or two below n; never more.
  EXPECT_GE(built.graph.node_count(), 4095u);
  EXPECT_LE(built.graph.node_count(), 4096u);
  EXPECT_TRUE(built.graph.is_connected());
}

TEST(FuzzGenerator, StaysInsideGuaranteeEnvelopes) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Scenario s = generate_scenario(seed);
    const BuiltScenario b = build_scenario(s);
    const std::size_t count = b.graph.node_count();
    ASSERT_GE(count, 2u);
    ASSERT_TRUE(b.graph.is_connected());
    ASSERT_EQ(b.inputs.size(), count);
    ASSERT_EQ(b.ids.size(), count);

    // Theorem 3.3/3.9 algorithms only ever face the synchronous scheduler.
    if (s.algorithm == Algorithm::kAnonymous ||
        s.algorithm == Algorithm::kStability) {
      EXPECT_EQ(s.scheduler, SchedulerKind::kSynchronous);
      EXPECT_TRUE(s.crashes.empty());
    }
    // Single-hop algorithms stay on the clique.
    if (s.algorithm == Algorithm::kTwoPhase ||
        s.algorithm == Algorithm::kBenOr) {
      EXPECT_EQ(s.topology, TopologyKind::kClique);
    }
    if (s.algorithm == Algorithm::kTwoPhase) EXPECT_TRUE(s.crashes.empty());
    if (s.algorithm == Algorithm::kBenOr) {
      EXPECT_LT(2 * s.benor_f, count);
      EXPECT_LE(s.crashes.size(), s.benor_f);
    }
    for (const auto& c : s.crashes) EXPECT_LT(c.node, count);
    if (s.scheduler != SchedulerKind::kHoldback) {
      EXPECT_TRUE(s.holds.empty());
      EXPECT_FALSE(s.late_holds);
    }
    // kScripted is mutation-only: the generator must never emit it (the
    // pinned corpus digest depends on the generated draw range).
    EXPECT_NE(s.scheduler, SchedulerKind::kScripted);
    EXPECT_TRUE(s.script.empty());
    // Link faults are mutation/CLI-floor-only for the same reason: a
    // generated scenario always builds with the empty LinkFaultPlan.
    EXPECT_EQ(s.drop_rate_bp, 0u);
    EXPECT_EQ(s.dup_rate_bp, 0u);
    EXPECT_TRUE(s.faults.empty());
    EXPECT_TRUE(b.faults.empty());
  }
}

TEST(FuzzReplay, BitIdenticalRunToRunAndSpecToSpec) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Scenario s = generate_scenario(seed);
    const RunReport a = run_scenario(s);
    const RunReport b = run_scenario(s);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << format_spec(s);
    EXPECT_EQ(a.trace_digest, b.trace_digest);

    const auto replayed = parse_spec(format_spec(s));
    ASSERT_TRUE(replayed.has_value());
    const RunReport c = run_scenario(*replayed);
    EXPECT_EQ(a.fingerprint, c.fingerprint) << format_spec(s);
    EXPECT_EQ(a.trace_digest, c.trace_digest);
  }
}

TEST(FuzzDifferential, SampledScenariosMatchReferenceEngine) {
  RunOptions options;
  options.differential = true;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Scenario s = generate_scenario(seed);
    const RunReport r = run_scenario(s, options);
    ASSERT_TRUE(r.differential_ran);
    EXPECT_EQ(r.failure, FailureKind::kNone)
        << format_spec(s) << "\n" << r.detail;
    EXPECT_EQ(r.fingerprint, r.reference_fingerprint) << format_spec(s);
    // The Lemma 4.2 monitor really runs on every wPAXOS scenario.
    if (s.algorithm == Algorithm::kWPaxos) {
      EXPECT_GT(r.monitor_checks, 0u) << format_spec(s);
    }
  }
}

TEST(FuzzDifferential, FaultedScenariosMatchReferenceEngineBitForBit) {
  // The fault layer's differential contract: both engines consult the same
  // pure (broadcast_id, sender, receiver) hash, so a NON-empty
  // LinkFaultPlan must leave the calendar engine and the frozen reference
  // engine bit-identical — same fingerprints, same trace digests, same
  // drop/duplicate counters folded in. Safety stays unconditional
  // (clamp_to_envelope keeps each algorithm inside its legal fault class);
  // only termination claims are waived under faults.
  RunOptions options;
  options.differential = true;
  std::uint64_t total_drops = 0;
  std::uint64_t total_dups = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Scenario s = generate_scenario(seed);
    s.drop_rate_bp = 400;
    s.dup_rate_bp = 200;
    s.faults.push_back(FaultSpec{0, 1, 2, 40});
    clamp_to_envelope(s);
    const RunReport r = run_scenario(s, options);
    ASSERT_TRUE(r.differential_ran);
    EXPECT_EQ(r.failure, FailureKind::kNone)
        << format_spec(s) << "\n" << r.detail;
    EXPECT_EQ(r.fingerprint, r.reference_fingerprint) << format_spec(s);
    total_drops += r.stats.drops;
    total_dups += r.stats.duplicates;
  }
  // The sweep must actually exercise the fault path, not just survive a
  // clamp down to the empty plan.
  EXPECT_GT(total_drops, 0u);
  EXPECT_GT(total_dups, 0u);
}

TEST(FuzzSoak, PinnedCorpusRunsCleanAcrossAllSixAlgorithms) {
  SoakOptions options;
  options.seed_base = 1;
  options.count = 504;  // >= 500-scenario acceptance floor; 72 differential
  options.differential_every = 7;
  const SoakResult result = run_soak(options);

  EXPECT_EQ(result.runs, 504u);
  EXPECT_EQ(result.differential_runs, 72u);
  for (std::size_t i = 0; i < harness::kAlgorithmCount; ++i) {
    EXPECT_GE(result.per_algorithm[i], 40u)
        << "algorithm " << harness::algorithm_name(static_cast<Algorithm>(i))
        << " under-sampled";
  }
  EXPECT_GT(result.crash_scenarios, 0u);
  EXPECT_GT(result.mid_flight_crash_scenarios, 0u)
      << "corpus no longer exercises crash-during-in-flight-ack";
  for (const auto& f : result.failures) {
    ADD_FAILURE() << "violation kind="
                  << failure_name(f.report.failure) << "\n  spec    "
                  << format_spec(f.scenario) << "\n  minimal "
                  << format_spec(f.minimal) << "\n  " << f.report.detail;
  }

  // The corpus digest folds every run fingerprint: rerunning the soak must
  // reproduce it exactly (full-pipeline determinism), so any generator or
  // engine behavior change is a visible, reviewable digest change. The
  // rerun is SHARDED across three threads — the canonical seed-order merge
  // makes the job count invisible in every digest (the dedicated suite is
  // tests/test_fuzz_shard.cpp).
  SoakOptions again = options;
  again.differential_every = 0;  // differential replay never alters runs
  again.jobs = 3;
  EXPECT_EQ(run_soak(again).corpus_digest, result.corpus_digest);
}

TEST(FuzzSoak, PinnedCorpusDigestAndProtocolRefinement) {
  // The determinism regression for the whole seed-only pipeline: generated
  // scenarios carry an empty LinkFaultPlan (the generator never draws
  // faults; the plan hash is consulted only when a plan is installed), so
  // the pinned 504-corpus digest is bit-identical to the digest pinned
  // before the fault dimensions existed. A change to this constant means
  // run behavior moved and must be a reviewed, deliberate decision.
  //
  // Pin history: 0xfa43aa7e095f5b45 (PR 2-5) was re-pinned once, in the PR
  // that added fault injection, because fixing the wPAXOS at-most-once
  // cursor (it parked on a deposed leader's larger proposal number and
  // silently swallowed the new leader's flood — a genuine liveness bug
  // against Theorem 4.6) changed the wPAXOS subset of the corpus. The
  // fault layer itself contributes nothing here: every scenario below runs
  // with the empty plan.
  constexpr std::uint64_t kPinned504Digest = 0x4bc22ec0b0a6e511ULL;

  SoakOptions options;
  options.seed_base = 1;
  options.count = 504;
  options.differential_every = 0;
  const SoakResult result = run_soak(options);
  EXPECT_EQ(result.corpus_digest, kPinned504Digest);

  // The protocol buckets strictly refine the engine-only projection.
  EXPECT_GT(result.coverage.distinct, result.coverage.engine_distinct);
  EXPECT_GT(result.coverage.protocol_distinct, 1u);
}

TEST(FuzzSoak, PinnedMutatingSoakDigest) {
  // The seed-only pin above never draws the mutator, the envelope clamp,
  // the fault floors or the log-service promotion. This soak runs all four
  // (half its runs are mutants, every scenario passes through
  // clamp_to_envelope under a 5% drop floor, every 40th generated one runs
  // the replicated log), so a change to any mutation op, any kEnvelopes
  // row or any clamp rule moves this digest. Mutant streams are
  // shard-local, so the pin holds only at jobs = 1.
  constexpr std::uint64_t kPinnedMutatingDigest = 0x1af84af829e015b2ULL;

  SoakOptions options;
  options.seed_base = 1;
  options.count = 1000;
  options.differential_every = 0;
  options.mutate_ratio = 0.5;
  options.fault_rate = 0.05;
  options.log_every = 40;
  options.jobs = 1;
  const SoakResult result = run_soak(options);
  EXPECT_TRUE(result.ok());
  EXPECT_GT(result.mutated_runs, 0u);
  EXPECT_GT(result.log_scenarios, 0u);
  EXPECT_GT(result.faulted_scenarios, 0u);
  EXPECT_EQ(result.corpus_digest, kPinnedMutatingDigest);
}

}  // namespace
}  // namespace amac::fuzz
