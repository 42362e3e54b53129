// The adversarial scenario fuzzer: property-based testing for the whole
// stack. generate -> run on the calendar engine -> check the paper's
// properties -> (sampled) differential replay on the frozen reference
// engine -> on violation, shrink to a minimal one-line repro.
//
// Oracles checked per scenario:
//   * agreement + validity (verify::check_consensus) — demanded for EVERY
//     generated scenario: the paper's safety properties are quantified over
//     all schedules and crash patterns inside each algorithm's envelope;
//   * termination — demanded exactly when termination_expected(s): the
//     scenario is inside the algorithm's liveness envelope (crash-free for
//     the deterministic algorithms, <= f crashes for Ben-Or);
//   * Lemma 4.2 response conservation (verify::ResponseConservationMonitor)
//     on every wPAXOS scenario, checked after every engine event;
//   * engine equivalence — a sampled subset of scenarios is replayed on
//     mac::ReferenceNetwork (the frozen PR-1 baseline) and the run
//     fingerprints (event-trace digest + verdict digest + stats + decisions)
//     must match bit for bit.
//
// ---------------------------------------------------------------------------
// Fuzzing HOWTO
//
// Run a soak (release build; 500+ scenarios is a couple of seconds):
//
//   ./bench_fuzz_soak --count 1000 --seed-base 1 --differential-every 7
//
// Every scenario is derived from one seed; a violation prints a line like
//
//   VIOLATION kind=agreement spec=amacfuzz1:seed=42:alg=...:crashes=3@7
//   minimal  spec=amacfuzz1:seed=42:alg=...:n=3:...
//
// Reproduce either one (bit-identical run, same digest) with
//
//   ./bench_fuzz_soak --replay 'amacfuzz1:seed=42:alg=...'
//   ./bench_fuzz_soak --replay 42          # bare seed = generated scenario
//
// Coverage-steered mutation: every run folds its EngineStats, its
// mac::ProtocolStats, and its run shape into a CoverageSignature.
// Scenarios that produce a signature never seen before enter a bounded
// in-memory corpus, and with
//
//   ./bench_fuzz_soak --count 20000 --mutate 0.35
//
// that fraction of runs is spent mutating corpus entries instead of blind
// generation. Mutation bases are RARITY-WEIGHTED (CoverageCorpus::
// select_base), so the budget concentrates on the thinly-explored
// frontier. The ops (fuzz::MutationOp) edit ticks, holds, crashes,
// transports, fault plans and SCRIPTED TIMELINES, so the paper's
// hand-built counterexample orderings (Theorem 3.3-style) are inside the
// search space. Mutants are clamped back into each algorithm's guarantee
// envelope (clamp_to_envelope; inside_envelope() checks the fixpoint), so
// a mutant violation is always a real bug. The soak summary prints the
// coverage table; CI asserts the mutating soak strictly widens
// full-signature AND protocol-dimension coverage over pure generation at
// the same budget, and that the full signature count strictly exceeds its
// engine-only projection.
//
// Unreliable links (signature-space v3): a scenario may carry a
// mac::LinkFaultPlan — global drop/duplicate rates and per-link drop
// windows (spec tokens on Scenario and FaultSpec). Every drop/duplicate
// decision is a pure seed-salted hash of (broadcast, sender, receiver), so
// faulted runs replay bit-identically on BOTH engines and differential
// sampling keeps working under faults. Faults enter through mutation, the
// soak-wide --fault-rate/--dup-rate floors and hand-written specs, never
// the generator, so the pinned seed-only corpus digest is untouched.
//
// Mutants take faults only where their kEnvelopes row keeps safety
// (clamp_to_envelope); termination is demanded only of fault-free or
// deferral-only scenarios (termination_expected), agreement/validity
// ALWAYS. The Lemma 4.2 monitor assumes reliable delivery, so it is gated
// off whenever the plan is non-empty. The drop/duplicate magnitudes join
// the coverage signature as two saturated log4 buckets.
//
// Large topologies (signature-space v4): `--large-every K --large-n N`
// promotes every K-th generated scenario to an N-node counterpart
// (fuzz::promote_to_large), so scale bugs (lane sizing, wheel spill at
// depth, batch reservation) get the same one-line `--replay` repro as
// everything else. The scenario's size joins the signature as a saturated
// log4 bucket, differential sampling skips scenarios above
// kDifferentialMaxN nodes (counted in the summary), and
// `--max-seconds S` bounds the whole soak by wall clock — each shard stops
// starting new runs once the deadline passes (budgeted soaks trade digest
// reproducibility for a predictable CI footprint).
//
// The log-service family (signature-space v6): a scenario with `log=`
// fields runs log::ReplicatedLog instead of a one-shot instance (see
// Scenario::log_ops). `--log-every K` promotes every K-th generated
// scenario into the family (fuzz::promote_to_log_service), and the
// kLogService/kPerturbLogKnobs mutation ops enter and explore it from the
// corpus. Service runs are judged by the service's own
// per-slot oracle PLUS a log-level one: verify::check_log_prefix folds each
// live replica's contiguous decided prefix into a digest and demands
// equality across replicas (replicated-state-machine consistency, not just
// per-slot agreement). How many slots fell to recovery and how many lease
// re-elections ran join the signature as two saturated log4 buckets, with
// flag bits for "ran the service" and "lease broken at exit" — so a soak
// that promotes into the family reaches engine-signature corners an
// instance-only soak cannot, which CI asserts as a set difference over the
// printed engine-key lists. The family never replays differentially
// (ReplicatedLog needs mac::Network), so its runs are not counted as skips.
//
//   --corpus-out FILE   write the final corpus as spec lines (one per line)
//   --corpus-in FILE    pre-seed the mutation corpus from such a file
//                       (# and blank lines are skipped)
//   --sig-version       print kSignatureSpaceVersion and exit
//
// The nightly lane (.github/workflows/nightly.yml) runs a long-horizon
// mutating soak with a date-derived --seed-base and a PERSISTENT corpus:
// the previous night's corpus is restored from actions/cache (keyed on
// kSignatureSpaceVersion, date-fallback prefix match), pre-seeded via
// --corpus-in, and the widened corpus is cached back — each night resumes
// from the frontier instead of rediscovering it. Bump
// kSignatureSpaceVersion whenever a signature dimension is added/removed/
// re-bucketed so stale frontiers are dropped.
//
// Sharded parallel soak: --jobs N splits the seed range into N contiguous
// per-shard seed streams and runs each shard on its own thread with a
// PRIVATE Fuzzer state — its own CoverageCorpus, stats block, and mutation
// RNG (salted by the shard's first seed, so shard 0 of a 1-job soak
// reproduces the historical single-thread mutation stream exactly). The
// shards are internal to run_soak: each lands in the slot of its index, so
// the merge walks them in CANONICAL SEED ORDER by construction, never in
// completion order:
//
//   * the corpus digest folds every run fingerprint in seed order, so the
//     merged digest is BIT-IDENTICAL to a single-threaded soak of the same
//     range — `--jobs 4` on the pinned 504 corpus reports the same
//     0x1ad39f21a7990f62 as `--jobs 1` (tests/test_fuzz_shard.cpp pins
//     this, and the CI lanes assert it on every push);
//   * coverage merges as the union of the shards' CoverageCorpus signature
//     maps, and one pass over that union derives the coverage table and
//     both projection key sets — set union is partition- and
//     order-independent, so every distinct/engine/protocol count matches
//     the sequential soak;
//   * per-algorithm/per-scheduler tallies and fault counters are sums;
//     failures concatenate in canonical order;
//   * the merged mutation corpus concatenates shard corpora in canonical
//     order (deduplicated by spec), keeping the newest
//     CoverageCorpus::kDefaultMaxEntries entries.
//
// Runs themselves are seed-deterministic and state-isolated, so with
// mutation OFF the sharded run executes the exact same scenario set as the
// sequential one (differential sampling keys off the GLOBAL run index).
// With mutation ON, mutant interleaving is shard-local: a mutating soak is
// exactly reproducible for a fixed (seed-base, count, jobs) triple, but
// different job counts explore different mutant streams — only the
// seed-only digest is invariant across job counts, which is precisely
// what the pinned-corpus lanes run.
//
// How the corpus is pinned: the CI smoke lane and tests/test_fuzz_smoke.cpp
// run the FIXED seed range [1, N] (seed-base 1) with mutation OFF, so the
// pinned corpus only changes when the generator itself changes — a
// generator edit shows up as a reviewable corpus-digest change in the
// smoke test, never as silent drift (mutation never alters seed-only
// generation; the digest with --mutate 0 is bit-identical to PR 2/3).
// Mutant streams are pinned separately: FuzzSoak.PinnedMutatingSoakDigest
// and the bench_fuzz_soak_cli_*_digest ctest entries. Scenarios that once
// exposed bugs are pinned FOREVER as full spec lines (not bare seeds) in
// tests/test_fuzz_regressions.cpp, immune to generator AND mutator
// evolution.
//
// Extending coverage: a new algorithm joins by extending
// harness::Algorithm + algorithm_factory and adding its row to kEnvelopes
// (fuzz/scenario.hpp), which the generator, the mutation clamp, the
// termination oracle and the builders all read; a new scheduler joins via
// SchedulerKind + build_scenario, and a bounded numeric Scenario value via
// one NumericField descriptor (its range, clamp and shrink target).
// Everything downstream — oracle, differential replay, coverage
// signatures, mutation, shrinking, soak lane, repro specs — is inherited.
// A new engine-path counter becomes a coverage dimension by extending
// CoverageSignature and coverage_signature(); a new ALGORITHM observable
// becomes one by overriding mac::Process::protocol_stats and bucketing the
// field here. Either way, bump kSignatureSpaceVersion.
// ---------------------------------------------------------------------------
#pragma once

#include <array>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fuzz/scenario.hpp"
#include "verify/checker.hpp"

namespace amac::fuzz {

enum class FailureKind : std::uint8_t {
  kNone = 0,
  kAgreement = 1,     ///< two nodes decided differently
  kValidity = 2,      ///< a decided value was nobody's input
  kTermination = 3,   ///< liveness expected but some node never decided
  kInvariant = 4,     ///< Lemma 4.2 response-conservation monitor tripped
  kDifferential = 5,  ///< calendar vs reference engine fingerprint mismatch
};

[[nodiscard]] const char* failure_name(FailureKind k);

struct RunOptions {
  bool differential = false;  ///< also replay on the reference engine
};

/// Everything observed from one scenario execution.
struct RunReport {
  verify::ConsensusVerdict verdict;
  mac::EngineStats stats;
  mac::ProtocolStats protocol;  ///< algorithm-level counters
  mac::Time end_time = 0;
  bool condition_met = false;
  std::uint64_t trace_digest = 0;  ///< engine event-trace digest
  std::uint64_t fingerprint = 0;   ///< trace + verdict + stats + decisions
  std::uint64_t monitor_checks = 0;
  std::size_t mid_flight_crashes = 0;  ///< crashes that cancelled in-flight
                                       ///< deliveries (the non-atomic
                                       ///< broadcast edge case); counted
                                       ///< on the calendar engine only
  bool differential_ran = false;
  std::uint64_t reference_fingerprint = 0;  ///< when differential_ran
  FailureKind failure = FailureKind::kNone;
  std::string detail;  ///< human-readable failure description
  // Log-service observables (zero/false for the instance family). The
  // verdict above is synthesized for service runs: agreement/validity fold
  // the service's per-slot oracle plus the applied-prefix digest equality,
  // termination is service completion.
  bool log_service = false;  ///< the run drove a log::ReplicatedLog
  std::size_t log_slots_recovered = 0;  ///< slots that fell to the slow path
  std::size_t log_re_elections = 0;     ///< renewals that changed the leader
  bool log_lease_broken = false;  ///< lease still broken when drive returned
  std::uint64_t log_kv_digest = 0;  ///< applied state-machine digest
};

/// Builds, runs, and judges one scenario (deterministic: same scenario,
/// same report bit for bit).
[[nodiscard]] RunReport run_scenario(const Scenario& s,
                                     const RunOptions& options = {});

// ---- coverage -----------------------------------------------------------

/// Version of the signature space: the set of CoverageSignature dimensions
/// and their bucketing. Bump it whenever a signature field is added,
/// removed, or re-bucketed — persisted corpora (the nightly actions/cache
/// frontier) are keyed on it, so a signature-space change starts a fresh
/// frontier instead of resuming against stale novelty bookkeeping.
/// History: 1 = PR-4 engine-only dimensions; 2 = + protocol dimensions
/// (round/coin/proposal/learned buckets) and the scripted scheduler kind;
/// 3 = + link-fault dimensions (drop/duplicate magnitude buckets) — the
/// engine projection outgrew 64 bits alongside the protocol buckets, so
/// key() became a hash combine of the two projections; 4 = + the scenario
/// size bucket (saturated log4 of n), so large-topology runs are novel by
/// construction and scale-dependent engine paths get corpus slots;
/// 5 = + the stability quiet-reset bucket (how often late learning reset a
/// node's quiet-phase counter), so runs that stress the stability
/// algorithm's convergence detection are distinguishable from
/// straight-line floods;
/// 6 = + the log-service dimensions (recovered-slot and re-election
/// buckets, plus the kLogService/kLeaseBroken flag bits) — the scenario
/// family that runs the replicated log instead of a one-shot instance;
/// 7 = - the wheel-resize bucket: the calendar wheel no longer resizes, so
/// far events always take the overflow heap (already bucketed).
inline constexpr std::uint32_t kSignatureSpaceVersion = 7;

/// Quarter-log (log4) magnitude bucket: 0 -> 0, otherwise
/// 1 + floor(log4(v)) — boundaries at exact powers of four. Exact counts
/// would make every run's signature unique and novelty meaningless; coarse
/// magnitude buckets keep the signature space small enough that blind
/// generation saturates it and novelty measures paths, not identity.
[[nodiscard]] std::uint8_t magnitude_bucket(std::uint64_t v);

/// magnitude_bucket saturated at 15, so the bucket packs in 4 bits (the
/// protocol dimensions use this; 4^14 is far beyond any realistic count).
[[nodiscard]] std::uint8_t saturated_bucket(std::uint64_t v);

/// What a run exercised, folded into a small discrete signature: run-shape
/// features read off EngineStats (wheel vs overflow vs batch traffic
/// bucketed by magnitude, how many ack windows the run
/// took), the scheduler kind, the crash/hold interaction bits — and, since
/// signature-space v2, the PROTOCOL dimensions read off mac::ProtocolStats
/// (round/phase depth, Ben-Or coin-flip depth, wPAXOS proposal traffic,
/// gather progress, bucketed the same quarter-log way). Two runs with equal
/// keys drove the same engine paths AND reached the same protocol corners
/// at the same order of magnitude; a never-seen key is the novelty signal
/// that admits a scenario into the mutation corpus.
///
/// Deliberately NOT part of the signature: the algorithm and topology.
/// Those dimensions are swept exhaustively by the generator anyway, and
/// folding them in makes nearly every fresh seed "novel" — the signature
/// must saturate under blind generation so that novelty measures engine
/// paths, not scenario identity. Buckets are quarter-log (log4) for the
/// same reason.
struct CoverageSignature {
  // Flag bits (flags field).
  static constexpr std::uint8_t kHasCrashes = 1u << 0;
  static constexpr std::uint8_t kMidFlightCrash = 1u << 1;
  static constexpr std::uint8_t kHasHolds = 1u << 2;
  static constexpr std::uint8_t kLateHolds = 1u << 3;
  static constexpr std::uint8_t kTerminationExpected = 1u << 4;
  static constexpr std::uint8_t kConditionMet = 1u << 5;
  // Log-service bits (signature-space v6); both zero for the instance
  // family, so pre-v6 signatures survive unchanged there.
  static constexpr std::uint8_t kLogService = 1u << 6;  ///< ran ReplicatedLog
  static constexpr std::uint8_t kLeaseBroken = 1u << 7; ///< lease broken at exit

  std::uint8_t scheduler = 0;        ///< SchedulerKind
  /// Saturated log4 bucket of the scenario's n (signature-space v4). Size
  /// IS a signature dimension, unlike algorithm/topology: engine behavior
  /// genuinely bifurcates with scale (lane growth, overflow spill, batch
  /// reservation sizes), and the generator does NOT sweep it — large
  /// scenarios only enter via promotion/specs, so the dimension cannot
  /// make every fresh seed novel. Bucket >= 6 <=> n >= 1024.
  std::uint8_t size_bucket = 0;
  std::uint8_t wheel_bucket = 0;     ///< log4 bucket of wheel pushes
  std::uint8_t overflow_bucket = 0;  ///< log4 bucket of overflow pushes
  std::uint8_t batch_bucket = 0;     ///< log4 bucket of batch fan-outs
  std::uint8_t decide_bucket = 0;    ///< log4 of end_time / fack (ack windows)
  std::uint8_t flags = 0;            ///< kHasCrashes | ... interaction bits
  std::uint8_t failure = 0;          ///< FailureKind
  // Link-fault dimensions (signature-space v3): how much loss and
  // duplication the run's fault plan actually inflicted, saturated log4
  // buckets of EngineStats::drops / ::duplicates. Fault-free runs bucket
  // to 0, so the v2 signatures survive unchanged under an empty plan.
  std::uint8_t drop_bucket = 0;  ///< dropped + deferred copies
  std::uint8_t dup_bucket = 0;   ///< duplicated copies
  // Protocol dimensions (signature-space v2), saturated log4 buckets of the
  // run's aggregated mac::ProtocolStats.
  std::uint8_t round_bucket = 0;     ///< max round / phase / proposal tag
  std::uint8_t coin_bucket = 0;      ///< Ben-Or coin flips
  std::uint8_t proposal_bucket = 0;  ///< wPAXOS proposals + change events
  std::uint8_t learned_bucket = 0;   ///< widest gather set (flooding et al.)
  /// Stability quiet-phase resets (signature-space v5): how often late
  /// learning pulled a node's quiet counter back to zero. Zero for every
  /// other algorithm, so pre-v5 signatures survive unchanged there.
  std::uint8_t quiet_bucket = 0;
  // Log-service dimensions (signature-space v6), saturated log4 buckets of
  // LogServiceStats: how much of the service's recovery and re-election
  // machinery the run exercised. Zero for the instance family. Engine
  // dimensions, not protocol ones — they describe which service code paths
  // (relaunch, lease restore) the multiplexed engine drove.
  std::uint8_t recover_bucket = 0;  ///< slots recovered to the slow path
  std::uint8_t reelect_bucket = 0;  ///< lease re-elections

  /// The identity: equal keys <=> equal signatures (up to hash collision —
  /// since v3 the engine projection plus the protocol buckets no longer
  /// fit 64 packed bits, so the key is a hash combine of the two
  /// projections).
  [[nodiscard]] std::uint64_t key() const;

  /// The engine-only projection (protocol dimensions zeroed): the PR-4
  /// space plus, since v3, the two fault buckets. The soak counts distinct
  /// engine keys separately so CI can assert the protocol dimension
  /// strictly refines it.
  [[nodiscard]] std::uint64_t engine_key() const;

  /// The protocol-only projection (the protocol buckets alone): how many
  /// distinct ALGORITHM corners a soak reached, independent of which
  /// queue paths carried them.
  [[nodiscard]] std::uint64_t protocol_key() const;
};

/// Derives the signature of one executed scenario.
[[nodiscard]] CoverageSignature coverage_signature(const Scenario& s,
                                                   const RunReport& r);

/// Bounded corpus of signature-novel scenarios: the mutation engine's seed
/// pool. `observe` records a signature (counting every hit, novel or not)
/// and reports novelty — the soak's one record of every distinct signature
/// it reached; `admit` stores a scenario as a mutation base
/// (ring-replacing the oldest when full, so the pool tracks the novelty
/// frontier). Signature bookkeeping and scenario storage are split because
/// only clean (non-violating) runs may become mutation bases — mutating a
/// known violation would just re-find it.
///
/// Mutation-base selection is RARITY-WEIGHTED: `select_base` samples
/// entries with probability inversely proportional to how often their
/// signature has been hit across the whole soak, so the mutator spends its
/// budget on the thinly-explored frontier instead of re-mutating the
/// signatures blind generation reaches anyway (entries whose signature was
/// never observed — --corpus-in pre-seeds — count as hit once, i.e.
/// maximally rare). The statistical pin lives in tests/
/// test_fuzz_coverage.cpp: over a skewed corpus, rare signatures are drawn
/// at >= 2x their uniform share.
class CoverageCorpus {
 public:
  /// One distinct signature: the first struct observed with its key (key
  /// equality implies struct equality, so first-seen is canonical) and how
  /// often the key was observed.
  struct SignatureRecord {
    CoverageSignature signature;
    std::uint64_t hits = 0;
  };

  /// Mutation bases a soak keeps (per shard, and in the merged corpus).
  static constexpr std::size_t kDefaultMaxEntries = 256;

  explicit CoverageCorpus(std::size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}

  /// Records `sig` (incrementing its hit count); true iff its key was
  /// never seen before.
  bool observe(const CoverageSignature& sig);

  /// Adds a mutation base (ring-replaces the oldest entry when full),
  /// remembering its signature key for rarity weighting.
  void admit(const Scenario& s, std::uint64_t sig_key = 0);

  /// Rarity-weighted draw of a mutation base (see class comment).
  /// Deterministic given the rng state. Requires size() > 0.
  [[nodiscard]] const Scenario& select_base(util::Rng& rng) const;

  /// How often a signature key has been observed (0 if never).
  [[nodiscard]] std::uint64_t hits(std::uint64_t sig_key) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const Scenario& entry(std::size_t i) const {
    return entries_[i].scenario;
  }
  [[nodiscard]] std::vector<Scenario> entries() const;
  [[nodiscard]] std::size_t distinct_signatures() const {
    return signatures_.size();
  }
  /// Every distinct signature observed, by key.
  [[nodiscard]] const std::map<std::uint64_t, SignatureRecord>& signatures()
      const {
    return signatures_;
  }

 private:
  struct Entry {
    Scenario scenario;
    std::uint64_t sig_key = 0;
  };

  std::size_t max_entries_;
  std::size_t next_replace_ = 0;
  std::vector<Entry> entries_;
  std::map<std::uint64_t, SignatureRecord> signatures_;
};

// ---- shrinking ----------------------------------------------------------

struct ShrinkResult {
  Scenario scenario;           ///< the minimal still-failing scenario
  RunReport report;            ///< its failing report
  std::size_t attempts = 0;    ///< candidate runs spent
  std::size_t reductions = 0;  ///< accepted shrink steps
};

/// Two-phase scenario minimization, keeping every candidate that still
/// fails with the SAME FailureKind. Phase 1 (structural, greedy) drops list
/// items and takes each numeric_fields() jump (log_ops' leaves the log
/// family), halving and decrement. Phase 2 binary-searches every field
/// toward its target, so the minimal spec carries threshold values — for
/// monotone failures, decrementing any minimized value makes the violation
/// disappear. The phases alternate until a fixpoint or `max_attempts`
/// candidate runs are spent. Candidates replay on the reference engine too
/// exactly when `kind` is kDifferential. Requires run_scenario(s,
/// {.differential = kind == kDifferential}).failure == kind.
[[nodiscard]] ShrinkResult shrink_scenario(const Scenario& s,
                                           FailureKind kind,
                                           std::size_t max_attempts = 150);

// ---- soak loop ----------------------------------------------------------

/// Differential replays are skipped for scenarios with n above this cap:
/// the frozen ReferenceNetwork scans all n^2 pending slots per delivery, so
/// one 4096-node replay would cost more than the rest of the soak combined.
/// Skips are counted in SoakResult::differential_skipped and surfaced in
/// the summary. Log-family runs never replay differentially, so they are
/// not skips.
inline constexpr std::size_t kDifferentialMaxN = 1024;

struct SoakOptions {
  std::uint64_t seed_base = 1;
  std::size_t count = 500;
  /// Worker threads (--jobs): the seed range is partitioned into this many
  /// contiguous shards, each run on its own thread with private fuzzer
  /// state, then merged in canonical seed order (see the sharding section
  /// of the header comment). 1 (the default) runs the historical
  /// sequential loop on the calling thread; any value reports the same
  /// corpus digest for a mutation-free soak of the same seed range.
  /// Clamped to [1, count].
  std::size_t jobs = 1;
  /// Every k-th scenario is replayed differentially on the reference
  /// engine (0 disables differential sampling).
  std::size_t differential_every = 7;
  bool shrink_failures = true;
  /// Fraction of runs spent mutating coverage-corpus entries instead of
  /// generating from the seed stream. 0 (the default) disables mutation
  /// entirely and reproduces the PR-2/3 soak bit for bit — the pinned
  /// corpus digest depends on this. The mutation RNG is derived from
  /// seed_base, so a mutating soak is as reproducible as a pure one.
  double mutate_ratio = 0.0;
  /// Soak-wide link-fault floors (--fault-rate / --dup-rate, fractions in
  /// [0, 1]): every scenario's drop/duplicate rate is raised to at least
  /// this much, then clamped back into its algorithm's bounded-loss
  /// envelope (clamp_to_envelope). 0 (the default) leaves scenarios
  /// untouched, so the pinned corpus digest is preserved.
  double fault_rate = 0.0;
  double dup_rate = 0.0;
  /// Every k-th GENERATED (never mutated) scenario is promoted to a
  /// large-topology counterpart of `large_n` nodes via promote_to_large
  /// (--large-every / --large-n). 0 (the default) disables promotion and
  /// leaves the seed stream untouched — the pinned corpus digest depends
  /// on this. Promotion happens after the fault floors, so large scenarios
  /// carry the soak's fault envelope too; keyed off the GLOBAL run index,
  /// so the promoted set is identical across job counts.
  std::size_t large_every = 0;
  std::size_t large_n = 4096;
  /// Every k-th GENERATED (never mutated) scenario is rewritten into the
  /// log-service family via promote_to_log_service (--log-every). 0 (the
  /// default) disables promotion — the pinned corpus digest depends on
  /// this. Applied after the fault floors (the family clamp re-scrubs
  /// faults anyway) and WINNING over large promotion when both trigger on
  /// one index (a large-n service soak would dominate the shard); keyed off
  /// the GLOBAL run index, so the promoted set is identical across job
  /// counts.
  std::size_t log_every = 0;
  /// Wall-clock budget in seconds (--max-seconds; 0 = unlimited). Each
  /// shard checks the deadline before every run and stops early once it
  /// passes, recording the skipped remainder in budget_skipped. A budgeted
  /// soak is NOT digest-reproducible (how far it gets depends on the
  /// machine) — the pinned-corpus lanes never set this; the nightly's
  /// bounded step asserts only violations, not digests.
  double max_seconds = 0.0;
  /// Pre-seeded mutation bases (--corpus-in), run before anything else.
  std::vector<Scenario> initial_corpus;
  /// Progress callback after every scenario (may be empty).
  std::function<void(std::size_t index, const Scenario&, const RunReport&)>
      on_scenario;
};

struct SoakFailure {
  Scenario scenario;
  Scenario minimal;  ///< == scenario when shrinking is off
  RunReport report;  ///< report of `minimal`
};

/// Aggregated view of the signature space a soak explored, printed as the
/// coverage table in the soak summary. All counts are over DISTINCT
/// signatures, not runs.
struct CoverageSummary {
  std::size_t distinct = 0;
  /// Distinct ENGINE-ONLY projections (CoverageSignature::engine_key): the
  /// PR-4 signature space. CI asserts distinct > engine_distinct — the
  /// protocol dimension must strictly refine the engine one.
  std::size_t engine_distinct = 0;
  /// Distinct PROTOCOL-ONLY projections (protocol_key): how many distinct
  /// algorithm corners (round/coin/proposal/learned bucket tuples) ran.
  std::size_t protocol_distinct = 0;
  std::array<std::size_t, kSchedulerKindCount> per_scheduler{};
  std::size_t overflow_sigs = 0;  ///< signatures with overflow traffic
  std::size_t batch_sigs = 0;     ///< signatures with batch fan-outs
  std::size_t crash_sigs = 0;     ///< signatures with crashes
  std::size_t hold_sigs = 0;      ///< signatures with holdback holds
  std::size_t protocol_sigs = 0;  ///< signatures with protocol traffic
                                  ///< (any nonzero protocol bucket)
  std::size_t fault_sigs = 0;     ///< signatures with link-fault traffic
                                  ///< (nonzero drop or duplicate bucket)
  std::size_t large_sigs = 0;     ///< signatures from large scenarios
                                  ///< (size_bucket >= 6, i.e. n >= 1024)
  std::size_t log_sigs = 0;       ///< signatures from log-service runs
                                  ///< (kLogService flag set)
};

struct SoakResult {
  std::size_t runs = 0;
  std::size_t differential_runs = 0;
  std::array<std::size_t, harness::kAlgorithmCount> per_algorithm{};
  std::size_t crash_scenarios = 0;
  std::size_t mid_flight_crash_scenarios = 0;
  /// Calendar-path coverage: how the corpus's events split between the
  /// wheel and the overflow heap, and how many scenarios exercised the
  /// overflow path (late holds, far crash plans). Surfaced in the soak
  /// summary so CI logs show the overflow path really ran.
  std::uint64_t wheel_events = 0;
  std::uint64_t overflow_events = 0;
  std::size_t overflow_scenarios = 0;  ///< scenarios with >= 1 heap event
  /// Link-fault traffic across the soak: copies the fault plans dropped or
  /// deferred, copies they duplicated, and how many scenarios ran with a
  /// non-empty plan at all. Surfaced in the soak summary so CI logs show
  /// the fault paths really ran.
  std::uint64_t dropped_frames = 0;
  std::uint64_t duplicated_frames = 0;
  std::size_t faulted_scenarios = 0;
  std::size_t mutated_runs = 0;     ///< runs drawn from the mutation engine
  std::size_t large_scenarios = 0;  ///< runs promoted to the large family
  std::size_t log_scenarios = 0;    ///< runs in the log-service family
                                    ///< (promoted, mutated, or pre-seeded)
  /// Differential replays skipped because the scenario's n exceeded
  /// kDifferentialMaxN (they still ran and were checked on the calendar
  /// engine — only the reference A/B was skipped). Log-family runs are
  /// never due a replay, so they never count here.
  std::size_t differential_skipped = 0;
  /// Runs never started because the --max-seconds budget expired first.
  std::size_t budget_skipped = 0;
  CoverageSummary coverage;         ///< distinct-signature breakdown
  /// Every distinct protocol projection (CoverageSignature::protocol_key)
  /// the soak reached, as a set — printed by the soak summary so the CI
  /// acceptance assertion can be a SET DIFFERENCE: the mutating soak must
  /// reach protocol corners pure generation missed. (A count comparison is
  /// the wrong pin: replacing half the generated stream with mutants can
  /// lose a pure corner for every mutant corner gained, so strict
  /// count-widening flips on noise while the difference stays non-empty.)
  std::set<std::uint64_t> protocol_keys;
  /// Every distinct engine projection (engine_key) the soak reached, as a
  /// set — printed by the soak summary so the log-family CI assertion can
  /// also be a set difference: a --log-every soak must reach engine
  /// corners (recovered/re-election buckets, the service flag bits) an
  /// instance-only soak cannot.
  std::set<std::uint64_t> engine_keys;
  std::vector<Scenario> corpus;     ///< final mutation corpus (--corpus-out)
  std::uint64_t corpus_digest = 0;  ///< fold of every run fingerprint: the
                                    ///< one number that pins the corpus
  std::vector<SoakFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Runs scenarios for seeds [seed_base, seed_base + count), collecting
/// failures (each shrunk to a minimal repro when enabled). With
/// SoakOptions::jobs > 1 the range is sharded across threads and the
/// per-shard results merged in canonical seed order — the merged corpus
/// digest of a mutation-free soak is bit-identical to jobs == 1.
[[nodiscard]] SoakResult run_soak(const SoakOptions& options);

}  // namespace amac::fuzz
