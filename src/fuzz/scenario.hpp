// Scenario model for the adversarial fuzzer: one plain-data record that
// fully determines a simulated consensus run — algorithm, topology family,
// scheduler family and parameters, crash schedule, holdback schedule, input
// pattern, id assignment — plus the master seed every derived random stream
// (topology wiring, inputs, ids, scheduler delays, Ben-Or coins) is drawn
// from. Same Scenario => bit-identical run, on either engine.
//
// Scenarios exist in two representations:
//   * the struct below (what the runner and shrinker manipulate), and
//   * a one-line textual spec (`format_spec` / `parse_spec`, round-trip
//     exact) used for `--replay` command lines and the pinned regression
//     corpus. A violation report therefore fits in one copy-pastable line.
//
// `generate_scenario(seed)` draws every dimension from a single util::Rng
// stream and only emits combinations inside the algorithms' guarantee
// envelopes (kEnvelopes: e.g. the Theorem 3.3/3.9 algorithms only ever get
// the synchronous scheduler, crash schedules only go to crash-tolerant or
// safety-only-checked algorithms). Hand-written specs may step outside the
// envelope — that is how the paper's own counterexample schedules are
// reproduced with the same tooling (see tests/test_fuzz_regressions.cpp).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "mac/engine.hpp"
#include "mac/schedulers.hpp"
#include "net/graph.hpp"
#include "util/rng.hpp"

namespace amac::fuzz {

enum class TopologyKind : std::uint8_t {
  kClique = 0,
  kLine = 1,
  kRing = 2,
  kStar = 3,
  kGrid = 4,
  kTorus = 5,
  kBinaryTree = 6,
  kBarbell = 7,
  kRandomConnected = 8,
  kRandomGeometric = 9,
};
inline constexpr std::size_t kTopologyKindCount = 10;

enum class SchedulerKind : std::uint8_t {
  kSynchronous = 0,
  kMaxDelay = 1,  ///< builds kSynchronous's scheduler: every delay is fack
  kUniformRandom = 2,
  kSkewed = 3,
  kContention = 4,
  kHoldback = 5,  ///< UniformRandom base + per-sender release holds
  kScripted = 6,  ///< exact per-broadcast timeline (Scenario::script slots)
};
inline constexpr std::size_t kSchedulerKindCount = 7;
/// How many scheduler kinds generate_scenario draws from. kScripted is
/// deliberately NOT generated — scripted timelines enter the search space
/// only through mutation (timeline ops over corpus entries) and hand-written
/// specs, so the pinned seed-only corpus digest is unchanged by its
/// existence.
inline constexpr std::size_t kGeneratedSchedulerKindCount = 6;

enum class InputPattern : std::uint8_t {
  kAllZero = 0,
  kAllOne = 1,
  kAlternating = 2,
  kSplit = 3,
  kRandom = 4,
  kMultivalued = 5,  ///< values in [0, 6); general-value algorithms only
};
inline constexpr std::size_t kInputPatternCount = 6;

enum class IdAssignment : std::uint8_t { kIdentity = 0, kPermuted = 1 };

struct CrashSpec {
  NodeId node = kNoNode;
  mac::Time when = 0;
};

struct HoldSpec {
  NodeId sender = kNoNode;
  mac::Time release = 0;
};

/// One scripted broadcast slot (kScripted only): the `index`-th broadcast
/// of `sender` takes `ack` ticks to ack and delivers to every receiver
/// after `recv` ticks (the dense uniform form of ScriptedScheduler).
/// Unscripted broadcasts fall back to synchronous rounds of length 1, so a
/// few slots suffice to build the paper's hand-crafted adversarial
/// orderings (Theorem 3.3-style) while the rest of the run stays lock-step.
///
/// When `delays` is non-empty the slot is per-receiver instead of uniform:
/// each listed receiver gets its own delay, unlisted receivers get delay 1,
/// and `recv` mirrors the largest listed delay (normalize keeps them in
/// sync). In the spec line the 4th slot field then reads `r-d+r-d+...`
/// instead of a bare integer.
struct ScriptSlot {
  NodeId sender = kNoNode;
  std::uint32_t index = 0;  ///< which broadcast of the sender (0-based)
  mac::Time ack = 1;        ///< ack delay; >= recv and every listed delay
  mac::Time recv = 1;       ///< shared receive delay, in [1, ack]
  /// Per-receiver (receiver, delay) overrides; empty means uniform `recv`.
  std::vector<std::pair<NodeId, mac::Time>> delays;
};

/// One directed-link drop window for the fault plan (see
/// mac/link_faults.hpp): deliveries on `from -> to` whose arrival tick
/// lands in [from_tick, until_tick) are deferred to until_tick, or lost
/// outright when until_tick is mac::kForever. Spec token:
/// `from@to@from_tick@until_tick` with `inf` for kForever.
struct FaultSpec {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  mac::Time from_tick = 0;
  mac::Time until_tick = mac::kForever;
};

struct Scenario {
  std::uint64_t seed = 0;  ///< master seed for every derived random stream
  harness::Algorithm algorithm = harness::Algorithm::kFlooding;
  TopologyKind topology = TopologyKind::kRing;
  std::uint32_t n = 4;    ///< requested size (actual count may derive, e.g.
                          ///< grid width x height); see build_scenario
  std::uint32_t aux = 0;  ///< grid/torus width, barbell path length
  SchedulerKind scheduler = SchedulerKind::kSynchronous;
  mac::Time fack = 1;     ///< scheduler delay bound (sync: round length)
  bool late_holds = false;  ///< apply holds AFTER Network construction, so
                            ///< the calendar wheel is sized from the
                            ///< pre-hold bound and held deliveries take the
                            ///< overflow-heap path
  InputPattern inputs = InputPattern::kAlternating;
  IdAssignment ids = IdAssignment::kIdentity;
  std::size_t benor_f = 0;  ///< Ben-Or crash-tolerance parameter
  mac::Time horizon = 100000;
  std::vector<CrashSpec> crashes;
  std::vector<HoldSpec> holds;     ///< kHoldback only
  std::vector<ScriptSlot> script;  ///< kScripted only
  // Link-fault plan (mac::LinkFaultPlan), in basis points of kRateScale.
  // The generator never draws faults (mirroring kScripted); they enter via
  // mutation, soak CLI floors, and hand-written specs, so the pinned
  // seed-only corpus digest is unchanged by their existence. The plan's
  // hash seed is derived from `seed` (kFaultSalt), never stored in specs.
  std::uint32_t drop_rate_bp = 0;  ///< global drop rate, parts per 10000
  std::uint32_t dup_rate_bp = 0;   ///< global duplicate rate, parts per 10000
  std::vector<FaultSpec> faults;   ///< per-link drop windows
  // Log-service family (log::ReplicatedLog): log_ops > 0 switches the run
  // from a one-shot consensus instance to the replicated log — a slot
  // sequence multiplexed over one Network, with elected leases, CommitFlood
  // fast-path slots, stalled-slot recovery, and re-election after a leader
  // crash. Like kScripted and faults, the generator never draws the family
  // (pinned seed-only corpus digest unchanged); it enters via
  // promote_to_log_service (SoakOptions::log_every), the kLogService
  // mutation, and hand-written specs. Spec token: `log=ops@batch@window@
  // lease`, emitted only when log_ops > 0. When log_ops == 0 the knobs
  // below are inert and normalize resets them to these defaults.
  std::uint32_t log_ops = 0;    ///< client ops; 0 = instance family
  std::uint32_t log_batch = 8;  ///< ops per decided slot (LogConfig)
  std::uint32_t log_window = 4; ///< pipelined slots in flight
  std::uint32_t log_lease = 64; ///< slots per lease renewal
};

// ---- enum names (spec tokens) ------------------------------------------
//
// One table per enum, indexed by enumerator value and shared by format_spec,
// parse_spec and the *_name() functions. Every entry is a string literal, so
// its data() is NUL-terminated.

inline constexpr std::array<std::string_view, kTopologyKindCount>
    kTopologyNames = {"clique", "line",  "ring",    "star",     "grid",
                      "torus",  "tree",  "barbell", "randconn", "geo"};
inline constexpr std::array<std::string_view, kSchedulerKindCount>
    kSchedulerNames = {"sync",       "maxdelay", "uniform", "skewed",
                       "contention", "holdback", "scripted"};
inline constexpr std::array<std::string_view, kInputPatternCount>
    kInputPatternNames = {"all0", "all1", "alt", "split", "random", "multi"};
inline constexpr std::array<std::string_view, 2> kIdAssignmentNames = {
    "identity", "perm"};

[[nodiscard]] const char* scheduler_name(SchedulerKind k);

// ---- guarantee envelopes --------------------------------------------------
//
// What each algorithm's guarantees cover, one row per harness::Algorithm.
// termination_expected, normalize_scenario, generate_scenario,
// clamp_to_envelope, the mutation ops, promote_to_large and build_scenario
// all read these rows, so a new algorithm joins the fuzzer with one row
// plus its factory.

/// Which crash schedules an algorithm's guarantees cover.
enum class CrashEnvelope : std::uint8_t {
  kNone,        ///< crash-intolerant: runs stay crash-free
  kSafetyOnly,  ///< safe under crashes; live only crash-free (Theorem 3.2)
  kUpToF,       ///< live with up to benor_f < n/2 crashes (randomized)
};

/// One row of kEnvelopes. Unlisted fields default to the narrowest
/// envelope: any scheduler and topology, binary inputs, no crashes, and no
/// loss or duplication beyond deferral.
struct Envelope {
  harness::Algorithm algorithm;
  /// Theorems 3.3/3.9: under any other scheduler the algorithm genuinely
  /// violates agreement, so such runs are counterexamples, not bugs. Such
  /// rows take no link faults at all.
  bool synchronous_only = false;
  bool single_hop = false;      ///< clique only
  bool knows_diameter = false;  ///< the factory takes the graph's diameter D
  bool multivalued = false;     ///< general-value inputs, not just binary
  CrashEnvelope crashes = CrashEnvelope::kNone;
  // Which loss patterns must stay safe (Newport-Robinson, arXiv:1810.02848);
  // termination_expected withdraws the liveness demand under either.
  /// Agreement survives permanent loss (rate drops, kForever windows).
  /// Two-phase does not: a decided node's phase-1 and phase-2 messages can
  /// both vanish toward one witness, which then decides the other value.
  bool permanent_loss_safe = false;
  /// Agreement survives duplicated deliveries. wPAXOS does not: acceptor
  /// responses carry tallied counts with no dedup.
  bool duplicates_safe = false;
};

/// Rows in harness::Algorithm order (static_asserted below). The stability
/// row roams every topology although core/stability.hpp claims correctness
/// only on a standalone line L_D; that pairing is how the multihop
/// agreement failure at seed 30047583 surfaced.
inline constexpr std::array<Envelope, harness::kAlgorithmCount> kEnvelopes = {{
    {.algorithm = harness::Algorithm::kTwoPhase,
     .single_hop = true,
     .duplicates_safe = true},
    {.algorithm = harness::Algorithm::kFlooding,
     .multivalued = true,
     .crashes = CrashEnvelope::kSafetyOnly,
     .permanent_loss_safe = true,
     .duplicates_safe = true},
    {.algorithm = harness::Algorithm::kWPaxos,
     .multivalued = true,
     .crashes = CrashEnvelope::kSafetyOnly,
     .permanent_loss_safe = true},
    {.algorithm = harness::Algorithm::kAnonymous,
     .synchronous_only = true,
     .knows_diameter = true},
    {.algorithm = harness::Algorithm::kStability,
     .synchronous_only = true,
     .knows_diameter = true},
    {.algorithm = harness::Algorithm::kBenOr,
     .single_hop = true,
     .crashes = CrashEnvelope::kUpToF,
     .permanent_loss_safe = true,
     .duplicates_safe = true},
}};

static_assert(
    [] {
      for (std::size_t i = 0; i < kEnvelopes.size(); ++i) {
        if (static_cast<std::size_t>(kEnvelopes[i].algorithm) != i) {
          return false;
        }
      }
      return true;
    }(),
    "kEnvelopes rows must follow harness::Algorithm order");

[[nodiscard]] constexpr const Envelope& envelope(harness::Algorithm a) {
  return kEnvelopes[static_cast<std::size_t>(a)];
}

// ---- generation ---------------------------------------------------------

/// Deterministically expands `seed` into a scenario inside the guarantee
/// envelope (see header comment). Every draw comes from one Rng stream
/// seeded with `seed`, so the generated corpus is pinned by seed alone.
[[nodiscard]] Scenario generate_scenario(std::uint64_t seed);

/// True when the scenario's combination of algorithm, scheduler, crash
/// schedule, and fault plan is one the algorithm guarantees termination for
/// (the oracle demands termination exactly then; safety is demanded
/// always). The bounded-loss envelope: termination is only asserted when
/// both fault rates are zero and every drop window is finite — finite
/// windows merely defer deliveries (the ack stretches past them), while
/// rate drops and kForever windows lose copies outright.
[[nodiscard]] bool termination_expected(const Scenario& s);

/// Clamps a (possibly transformed) scenario back into well-formedness:
/// minimum sizes per topology, crash/hold node ids in range, Ben-Or's
/// f < n/2. Shrinking applies this after every transform; build_scenario
/// expects an already-normalized scenario.
void normalize_scenario(Scenario& s);

/// Rewrites a generated scenario into its large-topology counterpart at
/// `n` nodes (n >= 16): the topology is forced into a bounded-degree,
/// low-diameter family (grid/torus/tree/star — a 4096-clique is ~8.4M
/// edges and a 4096-ring gives D-knowledge algorithms a quadratic run),
/// clique-locked algorithms (two-phase, Ben-Or) become flooding, and the
/// safety-only horizon shrinks so non-terminating runs stay soak-sized.
/// Deterministic in (s, n); every other dimension — seed, scheduler,
/// inputs, ids, crashes, holds, faults — is kept, so the large family
/// inherits the generator's variety. NOT called by generate_scenario: the
/// pinned seed-only corpus digest never sees it. Large scenarios enter via
/// SoakOptions::large_every, hand-written specs, and --replay.
void promote_to_large(Scenario& s, std::uint32_t n);

/// Rewrites a generated scenario into its log-service counterpart: the
/// service knobs (ops/batch/window/lease) are drawn deterministically from
/// the scenario's seed (own salt), then clamp_to_envelope applies the
/// family's envelope — the algorithm becomes wPAXOS (the service IS wPAXOS
/// renewals plus leased CommitFlood slots), scripted timelines are scrubbed
/// (per-broadcast scripts index a one-shot instance's traffic, not a slot
/// sequence), link faults are scrubbed because the family runs fault-free
/// by choice (ReplicatedLog::network() could take a LinkFaultPlan before
/// drive(); the family never installs one), and crashes
/// are kept — a crash that takes the lease holder is exactly the
/// re-election/recovery coverage this family exists for. Deterministic in
/// `s`; NOT called by generate_scenario (the pinned seed-only corpus digest
/// never sees it). Log scenarios enter via SoakOptions::log_every, the
/// kLogService mutation, hand-written specs, and --replay.
void promote_to_log_service(Scenario& s);

// ---- mutation -----------------------------------------------------------

/// One mutation step applied to a corpus scenario by the coverage-steered
/// fuzzer (see fuzz/fuzzer.hpp). Every op goes through clamp_to_envelope
/// afterwards, so mutants are always well-formed AND inside the mutated
/// algorithm's guarantee envelope — a mutant "violation" is a real bug,
/// never an expected counterexample.
enum class MutationOp : std::uint8_t {
  kPerturbFack = 0,      ///< nudge/halve/double the delay bound
  kPerturbHoldRelease = 1,  ///< nudge/halve/double one hold's release tick
  kPerturbCrashTime = 2,    ///< nudge/halve/double one crash tick
  kRetimeHold = 3,       ///< redraw one hold's release from a wide range
  kAddHold = 4,          ///< add one hold (holdback scenarios only)
  kRemoveHold = 5,       ///< drop one hold
  kAddCrash = 6,         ///< add one crash (crash-tolerant envelopes only)
  kRemoveCrash = 7,      ///< drop one crash
  kToggleLateHolds = 8,  ///< flip early/late hold registration
  kReseed = 9,           ///< redraw the master seed (new wiring/inputs)
  kSpliceTransport = 10,  ///< take topology+scheduler from a second parent
  // Timeline ops: ScriptedScheduler scenarios (the paper's hand-built
  // counterexample shapes). kScriptTimeline converts any non-synchronous-
  // only scenario into a scripted one; the others perturb existing slots.
  kScriptTimeline = 11,      ///< switch to kScripted with a drawn timeline
  kRetimeScriptSlot = 12,    ///< redraw one slot's (ack, recv) delays
  kSwapScriptSlots = 13,     ///< exchange the delays of two slots
  kDuplicateScriptSlot = 14, ///< replay a slot at the sender's next index
  kDropScriptSlot = 15,      ///< remove one slot
  // Link-fault ops: perturb the scenario's LinkFaultPlan (drop windows,
  // rates). Clamp keeps every mutant inside the bounded-loss termination
  // envelope per algorithm (see clamp_to_envelope), so a faulted mutant
  // violation is still a real bug.
  kAddDropWindow = 16,     ///< add one per-link drop window
  kRemoveDropWindow = 17,  ///< drop one window
  kWidenDropWindow = 18,   ///< stretch one window (later until / earlier from)
  kNarrowDropWindow = 19,  ///< shrink one window
  kPerturbFaultRates = 20, ///< nudge the global drop/duplicate rates
  kScriptReceiverDelay = 21,  ///< retime ONE receiver inside a scripted slot
  /// Per-window fault-plan recombination with a second parent: each window
  /// slot takes the base's or the partner's window by a fair coin, and the
  /// global drop/duplicate rates recombine the same way. Complements
  /// kSpliceTransport, which copies the partner's whole plan along with
  /// its transport — this op explores fault timelines NEITHER parent ran.
  kSpliceFaultWindows = 22,
  // Log-service ops: enter and explore the replicated-log family (the
  // mutation-only entry mirrors kScriptTimeline — generated scenarios never
  // carry log= fields, so the pinned corpus digest is unchanged).
  kLogService = 23,      ///< convert into a log-service scenario
  kPerturbLogKnobs = 24, ///< nudge ops/batch/window/lease (log family only)
};
inline constexpr std::size_t kMutationOpCount = 25;

/// Clamps a mutated scenario back inside its algorithm's kEnvelopes row
/// (synchronous-only algorithms lose adversarial schedulers, single-hop
/// algorithms return to the clique, crashes and link faults go only where
/// the row covers them), bounds values to the mutation ranges, then
/// normalizes and recomputes the horizon. Mutation applies this after
/// every op; hand-written specs remain free to step outside the envelope.
void clamp_to_envelope(Scenario& s);

/// True iff the scenario is a fixpoint of clamp_to_envelope — i.e. already
/// inside its algorithm's guarantee envelope, spec for spec. Every mutant
/// emitted by mutate_scenario satisfies this (the property test over
/// scripted timelines pins it), which is exactly what makes a mutant
/// violation a real bug; a deliberately unclamped scenario is rejected.
[[nodiscard]] bool inside_envelope(const Scenario& s);

/// Applies one randomly chosen applicable mutation to a copy of `base`
/// (`splice`, when non-null, is the second parent for kSpliceTransport and
/// kSpliceFaultWindows) and returns the clamped, normalized mutant. Deterministic given the
/// rng state. The mutant keeps `base`'s seed unless kReseed fires, so its
/// derived streams (wiring, inputs, scheduler delays) stay pinned and the
/// spec line replays it exactly.
[[nodiscard]] Scenario mutate_scenario(const Scenario& base,
                                       const Scenario* splice,
                                       util::Rng& rng);

// ---- spec round-trip ----------------------------------------------------

/// One-line textual form, `amacfuzz1:seed=...:alg=...:...`. Round-trip
/// exact: parse_spec(format_spec(s)) reproduces `s` field for field.
///
/// The line is `amacfuzz1` followed by `:key=value` tokens in one fixed
/// order: scalar tokens always, list, `log` and rate tokens only when they
/// carry something. format_spec and parse_spec walk one field table
/// (kFields in scenario.cpp), so a token's key, bounds and position live in
/// exactly one place.
[[nodiscard]] std::string format_spec(const Scenario& s);

/// Parses a spec line (or, as a convenience, a bare decimal integer, which
/// means generate_scenario(seed)). Returns nullopt on malformed input.
///
/// Keys may come in any order, but nothing in an accepted line is dropped,
/// merged or overridden, so the scenario is exactly what the line states:
///   * every scalar key is required, and no key may appear twice (a second
///     `crashes=` is not appended, a second `seed=` does not win);
///   * lists (`crashes`, `holds`, `script`, `faults` and a script slot's
///     `r-d+r-d` delays) hold at least one item, with no empty item, so no
///     empty value and no leading, doubled or trailing separator;
///   * an optional token never spells its absent value: `log` fields and
///     the `drop`/`dup` rates are at least 1;
///   * numbers are plain decimals inside their field's bounds, and a fault
///     window's end may be `inf`.
[[nodiscard]] std::optional<Scenario> parse_spec(std::string_view spec);

// ---- materialization ----------------------------------------------------

/// A scenario turned into live objects, ready to construct a Network (or
/// ReferenceNetwork). Build is deterministic: building twice yields
/// behaviorally identical object graphs, which is what makes differential
/// replay and shrinking sound.
struct BuiltScenario {
  net::Graph graph;
  std::vector<mac::Value> inputs;
  std::vector<std::uint64_t> ids;  ///< engine index -> algorithm id
  std::unique_ptr<mac::Scheduler> scheduler;
  mac::HoldbackScheduler* holdback = nullptr;  ///< non-null iff kHoldback
  mac::ProcessFactory factory;
  std::vector<mac::CrashPlan> crashes;  ///< in-range subset of s.crashes
  /// Link-fault plan for both engines (empty() when the scenario has no
  /// faults); runners install it via Network::set_link_faults.
  mac::LinkFaultPlan faults;

  BuiltScenario() : graph(1) {}
};

/// Materializes the scenario. Out-of-range crash/hold node ids (possible in
/// hand-edited specs) are dropped, mirroring normalize_scenario. When
/// `s.late_holds` is false the holds are applied here; when true the caller
/// applies them after engine construction via `apply_holds`.
[[nodiscard]] BuiltScenario build_scenario(const Scenario& s);

/// Applies the scenario's holds to the built holdback scheduler (no-op for
/// other scheduler kinds). Used for the late-hold path.
void apply_holds(const Scenario& s, BuiltScenario& b);

}  // namespace amac::fuzz
