#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <thread>
#include <type_traits>

#include "log/replicated_log.hpp"
#include "log/workload.hpp"
#include "mac/reference_engine.hpp"
#include "verify/invariants.hpp"

namespace amac::fuzz {

namespace {

/// Runs and judges one instance scenario on one engine. The fingerprint
/// covers the trace, verdict, stats and per-node decisions, so two runs
/// are behaviorally identical iff their fingerprints match (up to hash
/// collision).
template <typename Net>
RunReport run_on_engine(const Scenario& s) {
  BuiltScenario b = build_scenario(s);
  const std::size_t count = b.graph.node_count();
  Net net(b.graph, b.factory, *b.scheduler);
  net.enable_trace_digest();
  // Both engines take the same pure-hash fault plan, so faulted
  // differential replays stay bit-identical.
  if (!b.faults.empty()) net.set_link_faults(b.faults);
  for (const auto& plan : b.crashes) net.schedule_crash(plan);
  // Late holds: the calendar wheel was sized from the pre-hold fack() at
  // construction, so the held deliveries must take the overflow-heap path.
  if (s.late_holds) apply_holds(s, b);

  RunReport r;
  // The Lemma 4.2 monitor reads calendar-engine internals; differential
  // replays on the reference engine skip it (it observes, never steers, so
  // its absence cannot change the reference run).
  std::optional<verify::ResponseConservationMonitor> monitor;
  if constexpr (std::is_same_v<Net, mac::Network>) {
    // The Lemma 4.2 ledger assumes reliable delivery (every response copy
    // eventually arrives exactly once); a non-empty fault plan deliberately
    // breaks that, so the monitor stands down rather than reporting
    // injected loss as a conservation bug.
    if (s.algorithm == harness::Algorithm::kWPaxos && b.faults.empty()) {
      monitor.emplace(b.ids);
    }
  }
  std::vector<bool> seen_crashed(count, false);
  const bool watch_crashes = !b.crashes.empty();
  if (monitor.has_value() || watch_crashes) {
    net.set_post_event_hook([&](Net& n) {
      if (watch_crashes) {
        for (NodeId u = 0; u < count; ++u) {
          if (!seen_crashed[u] && n.crashed(u)) {
            seen_crashed[u] = true;
            // A crash with copies still pending exercises the non-atomic
            // broadcast cancellation path (some neighbors receive, some
            // never do).
            if (n.in_flight_from(u) > 0) ++r.mid_flight_crashes;
          }
        }
      }
      if constexpr (std::is_same_v<Net, mac::Network>) {
        if (monitor.has_value()) monitor->check(n);
      }
    });
  }

  const auto result = net.run(mac::StopWhen::kAllDecided, s.horizon);
  r.verdict = verify::check_consensus(net, b.inputs);
  r.stats = net.stats();
  // Protocol stats are a post-run const read of process observables, so
  // collecting them cannot perturb the run. Reference-engine replays skip
  // it: the protocol dimension never enters fingerprints.
  if constexpr (std::is_same_v<Net, mac::Network>) {
    r.protocol = harness::collect_protocol_stats(net);
  }
  r.end_time = result.end_time;
  r.condition_met = result.condition_met;
  r.trace_digest = net.trace_digest();
  if (monitor.has_value()) r.monitor_checks = monitor->checks_performed();

  util::Hasher h;
  h.mix_u64(r.trace_digest);
  r.verdict.digest(h);
  h.mix_u64(r.stats.broadcasts);
  h.mix_u64(r.stats.dropped_busy);
  h.mix_u64(r.stats.deliveries);
  h.mix_u64(r.stats.acks);
  h.mix_u64(r.stats.payload_bytes);
  h.mix_u64(r.stats.max_payload_bytes);
  h.mix_u64(r.stats.peak_events);
  // Fault counters join the fingerprint only when the plan inflicted any:
  // fault-free runs keep the exact pre-fault fingerprint (the pinned
  // 504-corpus digest depends on this), while faulted differential pairs
  // must agree on the injected loss too.
  if (r.stats.drops != 0 || r.stats.duplicates != 0) {
    h.mix_u64(r.stats.drops);
    h.mix_u64(r.stats.duplicates);
  }
  h.mix_u64(r.end_time);
  h.mix_bool(r.condition_met);
  for (NodeId u = 0; u < count; ++u) {
    const auto& d = net.decision(u);
    h.mix_bool(d.decided);
    h.mix_i64(d.value);
    h.mix_u64(d.time);
    h.mix_bool(net.crashed(u));
  }
  r.fingerprint = h.digest();

  if (!r.verdict.agreement) {
    r.failure = FailureKind::kAgreement;
    r.detail = "agreement violated: " + r.verdict.summary();
  } else if (!r.verdict.validity) {
    r.failure = FailureKind::kValidity;
    r.detail = "validity violated: " + r.verdict.summary();
  } else if (monitor.has_value() && monitor->violated()) {
    r.failure = FailureKind::kInvariant;
    r.detail = monitor->report();
  } else if (termination_expected(s) && !r.condition_met) {
    r.failure = FailureKind::kTermination;
    std::ostringstream os;
    os << "termination expected but run stopped at t=" << r.end_time
       << " (horizon " << s.horizon << "): " << r.verdict.summary();
    r.detail = os.str();
  }
  return r;
}

/// Runs a log-service scenario (s.log_ops > 0): a log::ReplicatedLog over
/// the scenario's transport instead of a one-shot instance. The service
/// runs its own per-slot oracle as slots decide; on top of it the
/// log-level oracle (verify::check_log_prefix) demands applied-prefix
/// digest equality across live replicas. The verdict is synthesized from
/// those, and the fingerprint folds the service observables (kv digest,
/// prefix digest, stats, per-node crash flags) — no event-trace digest,
/// which is fine because differential replay is skipped for the family
/// anyway: the frozen ReferenceNetwork multiplexes instances, but only ones
/// added before the run, it has no retire_instance, and ReplicatedLog is
/// written against mac::Network.
RunReport run_log_scenario(const Scenario& s) {
  BuiltScenario b = build_scenario(s);
  log::LogConfig cfg;
  cfg.batch_size = s.log_batch;
  cfg.window = s.log_window;
  cfg.lease_slots = s.log_lease;
  cfg.crashes = b.crashes;
  const log::Workload workload(s.seed, s.log_ops);
  log::ReplicatedLog service(b.graph, *b.scheduler, workload, cfg);
  // Late holds keep their engine-level meaning: the service's Network sized
  // its wheel from the pre-hold bound, so held deliveries take the
  // overflow-heap path mid-service.
  if (s.late_holds) apply_holds(s, b);
  const log::LogServiceStats& st = service.drive(s.horizon);

  std::vector<mac::InstanceId> slot_instances;
  slot_instances.reserve(st.slots_total);
  for (std::size_t slot = 0; slot < st.slots_total; ++slot) {
    slot_instances.push_back(service.slot_instance(slot));
  }
  const verify::LogPrefixVerdict prefix =
      verify::check_log_prefix(service.network(), slot_instances);

  RunReport r;
  r.log_service = true;
  r.stats = service.network().stats();
  r.end_time = st.end_time;
  r.condition_met = st.complete;
  r.log_slots_recovered = st.slots_recovered;
  r.log_re_elections = st.re_elections;
  r.log_lease_broken = !st.lease_ok;
  r.log_kv_digest = service.state_machine().digest();
  r.verdict.agreement = st.oracle_failures == 0 && prefix.consistent;
  r.verdict.validity = st.oracle_failures == 0;
  r.verdict.termination = st.complete;

  util::Hasher h;
  h.mix_u64(0x1065E21CE);  // family tag: log fingerprints never alias
  h.mix_u64(r.log_kv_digest);
  h.mix_u64(prefix.digest);
  h.mix_u64(prefix.common_prefix);
  h.mix_u64(st.slots_decided);
  h.mix_u64(st.slots_full_paxos);
  h.mix_u64(st.slots_leased);
  h.mix_u64(st.slots_recovered);
  h.mix_u64(st.relaunches);
  h.mix_u64(st.re_elections);
  h.mix_u64(st.ops_applied);
  h.mix_u64(st.oracle_failures);
  h.mix_u64(r.stats.broadcasts);
  h.mix_u64(r.stats.deliveries);
  h.mix_u64(r.stats.payload_bytes);
  h.mix_u64(st.end_time);
  h.mix_bool(st.complete);
  h.mix_bool(st.lease_ok);
  h.mix_u64(st.leader);
  for (NodeId u = 0; u < b.graph.node_count(); ++u) {
    h.mix_bool(service.network().crashed(u));
  }
  r.fingerprint = h.digest();

  if (st.oracle_failures > 0) {
    r.failure = FailureKind::kAgreement;
    std::ostringstream os;
    os << "log per-slot oracle failures: " << st.oracle_failures << " (of "
       << st.slots_decided << " decided slots)";
    r.detail = os.str();
  } else if (!prefix.consistent) {
    r.failure = FailureKind::kAgreement;
    r.detail = "log " + prefix.detail;
  } else if (termination_expected(s) && !st.complete) {
    r.failure = FailureKind::kTermination;
    std::ostringstream os;
    os << "log service incomplete: " << st.slots_decided << "/"
       << st.slots_total << " slots decided, " << st.ops_applied << "/"
       << s.log_ops << " ops applied by t=" << st.end_time << " (horizon "
       << s.horizon
       << (st.horizon_exhausted ? ", horizon exhausted" : ", recovery gave up")
       << ")";
    r.detail = os.str();
  }
  return r;
}

}  // namespace

const char* failure_name(FailureKind k) {
  static constexpr std::array<const char*, 6> kNames = {
      "none", "agreement", "validity", "termination", "invariant",
      "differential"};
  const auto i = static_cast<std::size_t>(k);
  AMAC_ASSERT(i < kNames.size());
  return kNames[i];
}

RunReport run_scenario(const Scenario& s, const RunOptions& options) {
  // The log-service family runs a whole replicated log, not a one-shot
  // instance; its report is synthesized from the service's own oracle plus
  // the log-prefix check, and differential replay never applies (the soak
  // loop never requests it).
  if (s.log_ops > 0) return run_log_scenario(s);

  RunReport r = run_on_engine<mac::Network>(s);
  if (options.differential && r.failure == FailureKind::kNone) {
    const RunReport ref = run_on_engine<mac::ReferenceNetwork>(s);
    r.differential_ran = true;
    r.reference_fingerprint = ref.fingerprint;
    if (ref.fingerprint != r.fingerprint) {
      r.failure = FailureKind::kDifferential;
      std::ostringstream os;
      os << "engine divergence: calendar fingerprint " << std::hex
         << r.fingerprint << " (trace " << r.trace_digest
         << ") vs reference " << ref.fingerprint << " (trace "
         << ref.trace_digest << ")";
      r.detail = os.str();
    }
  }
  return r;
}

// ---- coverage -----------------------------------------------------------

std::uint8_t magnitude_bucket(std::uint64_t v) {
  return static_cast<std::uint8_t>((std::bit_width(v) + 1) / 2);
}

std::uint8_t saturated_bucket(std::uint64_t v) {
  return std::min<std::uint8_t>(magnitude_bucket(v), 15);
}

std::uint64_t CoverageSignature::key() const {
  // Since v3 the engine projection (52 bits) plus the four 4-bit protocol
  // buckets no longer pack into 64 bits, so the full key hash-combines the
  // two projections. Equal signatures still give equal keys; distinct ones
  // collide only with Hasher probability.
  util::Hasher h;
  h.mix_u64(engine_key());
  h.mix_u64(protocol_key());
  return h.digest();
}

std::uint64_t CoverageSignature::engine_key() const {
  // 60 bits packed (4+4+6+6+6+6+8+4+4+4+4+4): one word, with room for one
  // more 4-bit dimension before the key must move to hash-combining like
  // key() does.
  std::uint64_t k = 0;
  const auto pack = [&k](std::uint64_t v, unsigned bits) {
    AMAC_ASSERT(v < (std::uint64_t{1} << bits));
    k = (k << bits) | v;
  };
  pack(scheduler, 4);
  pack(size_bucket, 4);
  pack(wheel_bucket, 6);
  pack(overflow_bucket, 6);
  pack(batch_bucket, 6);
  pack(decide_bucket, 6);
  pack(flags, 8);
  pack(failure, 4);
  pack(drop_bucket, 4);
  pack(dup_bucket, 4);
  pack(recover_bucket, 4);
  pack(reelect_bucket, 4);
  return k;
}

std::uint64_t CoverageSignature::protocol_key() const {
  return (std::uint64_t{quiet_bucket} << 16) |
         (std::uint64_t{round_bucket} << 12) |
         (std::uint64_t{coin_bucket} << 8) |
         (std::uint64_t{proposal_bucket} << 4) | learned_bucket;
}

CoverageSignature coverage_signature(const Scenario& s, const RunReport& r) {
  CoverageSignature sig;
  sig.scheduler = static_cast<std::uint8_t>(s.scheduler);
  sig.size_bucket = saturated_bucket(s.n);
  sig.wheel_bucket = magnitude_bucket(r.stats.wheel_pushes);
  sig.overflow_bucket = magnitude_bucket(r.stats.overflow_pushes);
  sig.batch_bucket = magnitude_bucket(r.stats.batch_pushes);
  sig.decide_bucket =
      magnitude_bucket(r.end_time / std::max<mac::Time>(s.fack, 1));
  sig.drop_bucket = saturated_bucket(r.stats.drops);
  sig.dup_bucket = saturated_bucket(r.stats.duplicates);
  sig.round_bucket = saturated_bucket(r.protocol.max_round);
  sig.coin_bucket = saturated_bucket(r.protocol.coin_flips);
  sig.proposal_bucket =
      saturated_bucket(r.protocol.proposals + r.protocol.change_events);
  sig.learned_bucket = saturated_bucket(r.protocol.max_learned);
  sig.quiet_bucket = saturated_bucket(r.protocol.quiet_resets);
  if (!s.crashes.empty()) sig.flags |= CoverageSignature::kHasCrashes;
  if (r.mid_flight_crashes > 0) sig.flags |= CoverageSignature::kMidFlightCrash;
  if (!s.holds.empty()) sig.flags |= CoverageSignature::kHasHolds;
  if (s.late_holds) sig.flags |= CoverageSignature::kLateHolds;
  if (termination_expected(s)) {
    sig.flags |= CoverageSignature::kTerminationExpected;
  }
  if (r.condition_met) sig.flags |= CoverageSignature::kConditionMet;
  if (r.log_service) {
    sig.flags |= CoverageSignature::kLogService;
    if (r.log_lease_broken) sig.flags |= CoverageSignature::kLeaseBroken;
  }
  sig.recover_bucket = saturated_bucket(r.log_slots_recovered);
  sig.reelect_bucket = saturated_bucket(r.log_re_elections);
  sig.failure = static_cast<std::uint8_t>(r.failure);
  return sig;
}

bool CoverageCorpus::observe(const CoverageSignature& sig) {
  const auto [it, novel] =
      signatures_.try_emplace(sig.key(), SignatureRecord{sig, 0});
  ++it->second.hits;
  return novel;
}

void CoverageCorpus::admit(const Scenario& s, std::uint64_t sig_key) {
  if (entries_.size() < max_entries_) {
    entries_.push_back(Entry{s, sig_key});
    return;
  }
  entries_[next_replace_] = Entry{s, sig_key};
  next_replace_ = (next_replace_ + 1) % max_entries_;
}

std::uint64_t CoverageCorpus::hits(std::uint64_t sig_key) const {
  const auto it = signatures_.find(sig_key);
  return it == signatures_.end() ? 0 : it->second.hits;
}

const Scenario& CoverageCorpus::select_base(util::Rng& rng) const {
  AMAC_EXPECTS(!entries_.empty());
  // Inverse-frequency weights: an entry whose signature has been hit h
  // times weighs 1/h, so a once-seen frontier signature is h times more
  // likely to be mutated than one the soak keeps rediscovering. Entries
  // with no recorded signature (--corpus-in pre-seeds, before their first
  // run) count as hit once — maximally rare, which front-loads resuming
  // the persisted frontier. One rng draw either way, so a mutating soak
  // stays exactly reproducible from its seed base.
  double total = 0.0;
  for (const auto& e : entries_) {
    total += 1.0 / static_cast<double>(std::max<std::uint64_t>(
                       hits(e.sig_key), 1));
  }
  double draw = rng.uniform01() * total;
  for (const auto& e : entries_) {
    draw -= 1.0 / static_cast<double>(std::max<std::uint64_t>(
                      hits(e.sig_key), 1));
    if (draw < 0.0) return e.scenario;
  }
  return entries_.back().scenario;  // floating-point edge: last entry
}

std::vector<Scenario> CoverageCorpus::entries() const {
  std::vector<Scenario> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.scenario);
  return out;
}

// ---- shrinking ----------------------------------------------------------

namespace {

[[nodiscard]] std::vector<Scenario> shrink_candidates(const Scenario& s) {
  std::vector<Scenario> out;
  const std::string spec = format_spec(s);
  const auto add = [&](Scenario cand) {
    normalize_scenario(cand);
    if (format_spec(cand) != spec) out.push_back(std::move(cand));
  };
  /// Each field's jump to its target, halving and decrement (leaving the
  /// log family is log_ops' jump).
  const auto steps = [&](std::span<const NumericField> fields) {
    for (const NumericField& f : fields) {
      for (std::size_t i = 0; i < f.count(s); ++i) {
        const mac::Time v = f.get(s, i);
        const mac::Time target = f.target.at(s, i);
        if (f.forever && v == mac::kForever) continue;
        mac::Time last = v;  // a step repeating the previous one adds nothing
        for (const auto& [kind, to] : {std::pair{kShrinkJump, target},
                                       std::pair{kShrinkHalve, v / 2},
                                       std::pair{kShrinkDecrement, v - 1}}) {
          if ((f.shrink & kind) == 0 || to < target || to >= v || to == last) {
            continue;
          }
          Scenario cand = s;
          f.set(cand, i, to);
          add(std::move(cand));
          last = to;
        }
      }
    }
  };
  const auto drop_each = [&](auto member) {
    for (std::size_t i = 0; i < (s.*member).size(); ++i) {
      Scenario cand = s;
      (cand.*member).erase((cand.*member).begin() +
                           static_cast<std::ptrdiff_t>(i));
      add(std::move(cand));
    }
  };
  // Biggest reductions first: the greedy loop restarts after every
  // acceptance, so early wins compound. n leads the table.
  steps(numeric_fields().first(1));
  drop_each(&Scenario::crashes);
  drop_each(&Scenario::holds);
  drop_each(&Scenario::script);
  drop_each(&Scenario::faults);
  // Per-receiver script slots collapse back to uniform, or lose a receiver.
  for (std::size_t i = 0; i < s.script.size(); ++i) {
    if (s.script[i].delays.empty()) continue;
    Scenario cand = s;
    cand.script[i].delays.clear();  // back to the uniform `recv` slot
    add(std::move(cand));
    for (std::size_t j = 0; j < s.script[i].delays.size(); ++j) {
      cand = s;
      cand.script[i].delays.erase(cand.script[i].delays.begin() +
                                  static_cast<std::ptrdiff_t>(j));
      add(std::move(cand));
    }
  }
  steps(numeric_fields().subspan(1));
  return out;
}

}  // namespace

ShrinkResult shrink_scenario(const Scenario& s, FailureKind kind,
                             std::size_t max_attempts) {
  AMAC_EXPECTS(kind != FailureKind::kNone);
  // Differential divergences need the differential replay to reproduce;
  // every other kind shrinks faster without it.
  RunOptions run_options;
  run_options.differential = kind == FailureKind::kDifferential;

  ShrinkResult res;
  res.scenario = s;
  res.report = run_scenario(s, run_options);
  ++res.attempts;
  AMAC_EXPECTS(res.report.failure == kind);

  /// Runs one candidate against the budget; non-null iff it still fails
  /// with the same kind.
  const auto try_candidate =
      [&](const Scenario& cand) -> std::optional<RunReport> {
    if (res.attempts >= max_attempts) return std::nullopt;
    ++res.attempts;
    RunReport rep = run_scenario(cand, run_options);
    if (rep.failure != kind) return std::nullopt;
    return rep;
  };

  /// Phase 2 worker: binary search for the smallest value of item `i` of
  /// `f` in [target, current) that still reproduces the failure, committing
  /// every successful probe (for monotone failures, one less provably does
  /// not reproduce). A probe that normalize puts back to the current value
  /// (a derived one, such as fack under kScripted) is not run.
  const auto minimize_value = [&](const NumericField& f, std::size_t i) {
    bool reduced = false;
    mac::Time lo = f.target.at(res.scenario, i);
    mac::Time hi = f.get(res.scenario, i);
    if (f.forever && hi == mac::kForever) return false;
    while (lo < hi && res.attempts < max_attempts) {
      const mac::Time mid = lo + (hi - lo) / 2;
      Scenario cand = res.scenario;
      f.set(cand, i, mid);
      normalize_scenario(cand);
      if (f.get(cand, i) == f.get(res.scenario, i)) {
        hi = mid;
        continue;
      }
      if (auto rep = try_candidate(cand)) {
        res.scenario = std::move(cand);
        res.report = std::move(*rep);
        ++res.reductions;
        reduced = true;
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return reduced;
  };

  bool progress = true;
  while (progress && res.attempts < max_attempts) {
    progress = false;

    // Phase 1: greedy structural reduction (drop entries, shrink n/fack).
    bool improved = true;
    while (improved && res.attempts < max_attempts) {
      improved = false;
      for (const Scenario& cand : shrink_candidates(res.scenario)) {
        if (auto rep = try_candidate(cand)) {
          res.scenario = cand;
          res.report = std::move(*rep);
          ++res.reductions;
          improved = true;
          progress = true;
          break;  // restart the candidate scan from the smaller scenario
        }
        if (res.attempts >= max_attempts) break;
      }
    }

    // Phase 2: every searchable numeric field toward its target, over what
    // survived. Value edits never change entry counts, so indexing by
    // position is stable across the pass; a successful pass loops back to
    // phase 1 (a smaller release can unlock further structural drops).
    for (const NumericField& f : numeric_fields()) {
      if ((f.shrink & kShrinkSearch) == 0) continue;
      for (std::size_t i = 0; i < f.count(res.scenario); ++i) {
        progress |= minimize_value(f, i);
      }
    }
  }
  return res;
}

// ---- soak loop ----------------------------------------------------------

namespace {

/// Folds a distinct signature into the coverage table and both projection
/// key sets.
void note_signature(SoakResult& out, const CoverageSignature& sig) {
  CoverageSummary& cov = out.coverage;
  ++cov.distinct;
  if (sig.scheduler < kSchedulerKindCount) ++cov.per_scheduler[sig.scheduler];
  if (sig.overflow_bucket > 0) ++cov.overflow_sigs;
  if (sig.batch_bucket > 0) ++cov.batch_sigs;
  if (sig.flags & CoverageSignature::kHasCrashes) ++cov.crash_sigs;
  if (sig.flags & CoverageSignature::kHasHolds) ++cov.hold_sigs;
  if (sig.protocol_key() != 0) ++cov.protocol_sigs;
  if (sig.drop_bucket > 0 || sig.dup_bucket > 0) ++cov.fault_sigs;
  if (sig.size_bucket >= 6) ++cov.large_sigs;  // log4 bucket 6 <=> n >= 1024
  if (sig.flags & CoverageSignature::kLogService) ++cov.log_sigs;
  out.engine_keys.insert(sig.engine_key());
  out.protocol_keys.insert(sig.protocol_key());
}

/// What one shard hands the merge. `local` carries the run tallies and
/// failures only; the merge derives coverage, key sets, corpus and digest
/// from the other two fields.
struct Shard {
  SoakResult local;
  std::vector<std::uint64_t> fingerprints;  ///< every run's, in seed order
  CoverageCorpus corpus;  ///< distinct signatures + mutation bases
};

/// Runs global run indices [first, first + count) sequentially on the
/// calling thread, with a private CoverageCorpus and a mutation RNG salted
/// by the shard's first seed.
Shard run_shard(const SoakOptions& options, std::size_t first,
                std::size_t count) {
  Shard out;
  out.fingerprints.reserve(count);
  SoakResult& result = out.local;
  CoverageCorpus& corpus = out.corpus;
  // Pre-seeded bases carry no observed signature yet (sig_key 0, hits 0):
  // rarity weighting treats them as maximally rare, so a resumed nightly
  // frontier is mutated first (every shard resumes from the full frontier).
  for (const Scenario& s : options.initial_corpus) corpus.admit(s);
  // The mutation stream is salted off the shard's FIRST SEED, so mutant
  // interleaving is shard-local and a mutating soak is exactly
  // reproducible for a fixed (seed-base, count, jobs) triple. A
  // single-shard soak salts with seed_base + 0 — the historical stream
  // bit for bit. With mutate_ratio == 0 the rng is never drawn and the
  // run is bit-identical to the pre-mutation soak loop (the pinned
  // 504-corpus digest depends on this).
  util::Hasher mutate_seed;
  mutate_seed.mix_u64(options.seed_base + first);
  mutate_seed.mix_u64(0x4D757461746F72ULL);  // "Mutator"
  util::Rng mutate_rng(mutate_seed.digest());
  // Wall-clock budget (--max-seconds): each shard measures from its OWN
  // start, so every shard gets the full budget and a budgeted sharded soak
  // ends within one scenario of the deadline. Runs never started are
  // tallied, not silently dropped.
  const bool budgeted = options.max_seconds > 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(budgeted ? options.max_seconds : 0.0));

  for (std::size_t i = first; i < first + count; ++i) {
    if (budgeted && std::chrono::steady_clock::now() >= deadline) {
      result.budget_skipped += first + count - i;
      break;
    }
    Scenario s;
    bool mutated = false;
    if (options.mutate_ratio > 0.0 && corpus.size() > 0 &&
        mutate_rng.chance(options.mutate_ratio)) {
      // Rarity-weighted base selection: mutate the frontier, not the
      // signatures blind generation reaches anyway.
      const Scenario& base = corpus.select_base(mutate_rng);
      const Scenario* splice = nullptr;
      if (corpus.size() > 1 && mutate_rng.chance(0.35)) {
        // The partner is a second rarity-weighted draw, so splices import
        // structure from the frontier rather than from whichever signature
        // floods the pool.
        splice = &corpus.select_base(mutate_rng);
      }
      s = mutate_scenario(base, splice, mutate_rng);
      mutated = true;
    } else {
      s = generate_scenario(options.seed_base + i);
    }
    if (options.fault_rate > 0.0 || options.dup_rate > 0.0) {
      // Soak-wide fault floors: raise the scenario's rates to at least the
      // CLI floor, then clamp back into its algorithm's bounded-loss
      // envelope (which re-zeroes them where safety cannot take the
      // faults). With both floors at 0 this branch never runs, so the
      // pinned digest is untouched.
      const auto floor_bp = [](double rate) {
        return static_cast<std::uint32_t>(
            rate * static_cast<double>(mac::LinkFaultPlan::kRateScale) +
            0.5);
      };
      s.drop_rate_bp = std::max(s.drop_rate_bp, floor_bp(options.fault_rate));
      s.dup_rate_bp = std::max(s.dup_rate_bp, floor_bp(options.dup_rate));
      clamp_to_envelope(s);
    }
    if (!mutated && options.log_every != 0 && i % options.log_every == 0) {
      // Log-service family: promote every k-th GENERATED scenario to run
      // the whole replicated log. Wins over the large promotion on a
      // shared index (a 4096-node log run would dominate the shard), and
      // like it is keyed off the GLOBAL run index so the promoted set is
      // identical across job counts. Promotion clamps to the log envelope
      // itself, scrubbing any fault floors applied above.
      promote_to_log_service(s);
    } else if (!mutated && options.large_every != 0 &&
               i % options.large_every == 0) {
      // Large-topology family: promote every k-th GENERATED scenario (the
      // mutation envelope caps mutants at 24 nodes regardless, and fresh
      // generation keeps the family's other dimensions varied). Applied
      // AFTER the fault floors — clamp_to_envelope would shrink n right
      // back — and keyed off the GLOBAL run index, so the promoted set is
      // identical across job counts.
      promote_to_large(s, static_cast<std::uint32_t>(options.large_n));
      ++result.large_scenarios;
    }

    RunOptions run_options;
    // The log-service family never replays on the frozen reference engine
    // (run_log_scenario says why), so its runs are never due. Size-aware
    // sampling: the reference engine scans all n^2 pending slots per
    // delivery, so replaying a 4096-node scenario there would dominate the
    // soak. Size skips are counted, never silent.
    const bool diff_due = options.differential_every != 0 &&
                          i % options.differential_every == 0 &&
                          s.log_ops == 0;
    const bool diff_too_large = s.n > kDifferentialMaxN;
    run_options.differential = diff_due && !diff_too_large;
    if (diff_due && diff_too_large) ++result.differential_skipped;
    const RunReport report = run_scenario(s, run_options);

    ++result.runs;
    if (mutated) ++result.mutated_runs;
    if (run_options.differential) ++result.differential_runs;
    ++result.per_algorithm[static_cast<std::size_t>(s.algorithm)];
    if (!s.crashes.empty()) ++result.crash_scenarios;
    if (report.mid_flight_crashes > 0) ++result.mid_flight_crash_scenarios;
    result.wheel_events += report.stats.wheel_pushes;
    result.overflow_events += report.stats.overflow_pushes;
    if (report.stats.overflow_pushes > 0) ++result.overflow_scenarios;
    result.dropped_frames += report.stats.drops;
    result.duplicated_frames += report.stats.duplicates;
    if (s.drop_rate_bp != 0 || s.dup_rate_bp != 0 || !s.faults.empty()) {
      ++result.faulted_scenarios;
    }
    // Family membership, not promotion: mutants that entered via the
    // kLogService op and pre-seeded log corpus entries count too.
    if (s.log_ops > 0) ++result.log_scenarios;
    out.fingerprints.push_back(report.fingerprint);

    // Only clean runs become mutation bases: mutating a known violation
    // would just keep re-finding it.
    const CoverageSignature sig = coverage_signature(s, report);
    if (corpus.observe(sig) && report.failure == FailureKind::kNone) {
      corpus.admit(s, sig.key());
    }

    if (report.failure != FailureKind::kNone) {
      SoakFailure failure;
      failure.scenario = s;
      failure.minimal = s;
      failure.report = report;
      if (options.shrink_failures) {
        auto shrunk = shrink_scenario(s, report.failure);
        failure.minimal = std::move(shrunk.scenario);
        failure.report = std::move(shrunk.report);
      }
      result.failures.push_back(std::move(failure));
    }
    if (options.on_scenario) options.on_scenario(i, s, report);
  }
  return out;
}

/// Merges shards in vector order, which run_soak makes seed order:
/// digests fold per-run fingerprints in seed order, signature maps merge as
/// a union, tallies sum, failures concatenate, and the merged corpus keeps
/// the newest kDefaultMaxEntries spec-deduplicated entries.
SoakResult merge_shards(std::vector<Shard>& shards) {
  SoakResult out;
  util::Hasher digest_fold;
  std::map<std::uint64_t, CoverageSignature> signatures;
  std::set<std::string> corpus_specs;  // dedupe (shards share pre-seeds)
  for (Shard& sh : shards) {
    SoakResult& loc = sh.local;
    out.runs += loc.runs;
    out.differential_runs += loc.differential_runs;
    for (std::size_t i = 0; i < out.per_algorithm.size(); ++i) {
      out.per_algorithm[i] += loc.per_algorithm[i];
    }
    out.crash_scenarios += loc.crash_scenarios;
    out.mid_flight_crash_scenarios += loc.mid_flight_crash_scenarios;
    out.wheel_events += loc.wheel_events;
    out.overflow_events += loc.overflow_events;
    out.overflow_scenarios += loc.overflow_scenarios;
    out.dropped_frames += loc.dropped_frames;
    out.duplicated_frames += loc.duplicated_frames;
    out.faulted_scenarios += loc.faulted_scenarios;
    out.mutated_runs += loc.mutated_runs;
    out.large_scenarios += loc.large_scenarios;
    out.log_scenarios += loc.log_scenarios;
    out.differential_skipped += loc.differential_skipped;
    out.budget_skipped += loc.budget_skipped;
    // The merged digest folds EVERY run fingerprint in seed order — the
    // same fold a sequential soak of the whole range performs, so the
    // merged digest of a mutation-free soak is bit-identical to jobs == 1.
    for (const std::uint64_t fp : sh.fingerprints) digest_fold.mix_u64(fp);
    // Signature maps merge as a union: distinct-signature counts are
    // partition-independent (a union doesn't care which shard, or how many,
    // saw a key first).
    for (const auto& [key, rec] : sh.corpus.signatures()) {
      signatures.emplace(key, rec.signature);
    }
    for (SoakFailure& f : loc.failures) out.failures.push_back(std::move(f));
    for (Scenario& s : sh.corpus.entries()) {
      if (corpus_specs.insert(format_spec(s)).second) {
        out.corpus.push_back(std::move(s));
      }
    }
  }
  // Every run's engine and protocol keys are projections of a signature in
  // the union, so one pass over it derives the whole coverage view.
  for (const auto& [key, sig] : signatures) note_signature(out, sig);
  out.coverage.engine_distinct = out.engine_keys.size();
  out.coverage.protocol_distinct = out.protocol_keys.size();
  // Bound the merged corpus like the per-shard rings: keep the NEWEST
  // kDefaultMaxEntries entries (the frontier), dropping from the front.
  const std::size_t cap = CoverageCorpus::kDefaultMaxEntries;
  if (out.corpus.size() > cap) {
    out.corpus.erase(out.corpus.begin(),
                     out.corpus.begin() +
                         static_cast<std::ptrdiff_t>(out.corpus.size() - cap));
  }
  out.corpus_digest = digest_fold.digest();
  return out;
}

}  // namespace

SoakResult run_soak(const SoakOptions& options) {
  // Contiguous blocks in ascending seed order, sizes differing by at most
  // one (earlier shards take the remainder); shard k lands in slot k, so
  // the merge sees seed order whatever order the threads finish in.
  std::vector<Shard> shards(
      options.count == 0 ? 0 : std::clamp<std::size_t>(options.jobs, 1,
                                                        options.count));
  const auto run = [&shards, &options](std::size_t k,
                                       const SoakOptions& shard_options) {
    const std::size_t chunk = options.count / shards.size();
    const std::size_t rem = options.count % shards.size();
    shards[k] = run_shard(shard_options, k * chunk + std::min(k, rem),
                          chunk + (k < rem ? 1 : 0));
  };
  if (shards.size() <= 1) {
    // The historical sequential soak, on the calling thread.
    if (!shards.empty()) run(0, options);
  } else {
    // One thread per shard; shards share no mutable state on the hot path.
    // Only the caller's progress callback is shared, so it is serialized.
    SoakOptions threaded = options;
    std::mutex progress_mutex;
    if (options.on_scenario) {
      const auto inner = options.on_scenario;
      threaded.on_scenario = [&progress_mutex, inner](std::size_t index,
                                                      const Scenario& s,
                                                      const RunReport& r) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        inner(index, s, r);
      };
    }
    std::vector<std::thread> workers;
    workers.reserve(shards.size());
    for (std::size_t k = 0; k < shards.size(); ++k) {
      workers.emplace_back([&run, &threaded, k] { run(k, threaded); });
    }
    for (std::thread& w : workers) w.join();
  }
  return merge_shards(shards);
}

}  // namespace amac::fuzz
