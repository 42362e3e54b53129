#include "fuzz/scenario.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <limits>
#include <span>

#include "net/topologies.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"

namespace amac::fuzz {

namespace {

using harness::Algorithm;

// Salts separating the derived random streams. Every stream is
// Rng(hash(seed, salt)), so the dimensions can't alias each other and a
// shrink step that changes one dimension leaves the others' draws intact.
constexpr std::uint64_t kGenSalt = 0xF022ED11;
constexpr std::uint64_t kTopoSalt = 0x70601061;
constexpr std::uint64_t kInputSalt = 0x1A9B75C1;
constexpr std::uint64_t kIdSalt = 0x1DA551;
constexpr std::uint64_t kSchedSalt = 0x5C4EDD1E;
constexpr std::uint64_t kFaultSalt = 0xFA0175;
constexpr std::uint64_t kLargeSalt = 0x1A26E701;
constexpr std::uint64_t kLogSalt = 0x10654A17;

[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  util::Hasher h;
  h.mix_u64(seed);
  h.mix_u64(salt);
  return h.digest();
}

[[nodiscard]] std::uint32_t min_nodes(TopologyKind k) {
  switch (k) {
    case TopologyKind::kRing: return 3;
    case TopologyKind::kTorus: return 9;  // 3x3
    default: return 2;
  }
}

[[nodiscard]] net::Graph build_graph(const Scenario& s) {
  util::Rng rng(sub_seed(s.seed, kTopoSalt));
  const std::size_t n = std::max(s.n, min_nodes(s.topology));
  switch (s.topology) {
    case TopologyKind::kClique: return net::make_clique(n);
    case TopologyKind::kLine: return net::make_line(n);
    case TopologyKind::kRing: return net::make_ring(n);
    case TopologyKind::kStar: return net::make_star(n);
    case TopologyKind::kGrid: {
      const std::size_t w =
          std::clamp<std::size_t>(s.aux, 1, std::max<std::size_t>(1, n));
      const std::size_t h = std::max<std::size_t>(1, n / w);
      if (w * h < 2) return net::make_grid(2, 1);
      return net::make_grid(w, h);
    }
    case TopologyKind::kTorus: {
      const std::size_t w = std::clamp<std::size_t>(s.aux, 3, n / 3);
      const std::size_t h = std::max<std::size_t>(3, n / w);
      return net::make_torus(w, h);
    }
    case TopologyKind::kBinaryTree: return net::make_binary_tree(n);
    case TopologyKind::kBarbell: {
      const std::size_t path = std::max<std::uint32_t>(1, s.aux);
      const std::size_t k =
          n > path ? std::max<std::size_t>(1, (n - (path - 1)) / 2) : 1;
      return net::make_barbell(k, path);
    }
    case TopologyKind::kRandomConnected: {
      const double p = 0.05 + 0.30 * rng.uniform01();
      return net::make_random_connected(n, p, rng);
    }
    case TopologyKind::kRandomGeometric: {
      const double r = 0.20 + 0.30 * rng.uniform01();
      return net::make_random_geometric(n, r, rng);
    }
  }
  AMAC_ASSERT(false);
  return net::Graph(1);
}

[[nodiscard]] std::string_view name_of(std::span<const std::string_view> names,
                                       auto value) {
  const auto i = static_cast<std::size_t>(value);
  AMAC_ASSERT(i < names.size());
  return names[i];
}

}  // namespace

const char* scheduler_name(SchedulerKind k) {
  return name_of(kSchedulerNames, k).data();
}

bool termination_expected(const Scenario& s) {
  // The bounded-loss envelope (see the header). Duplicate rates are
  // excluded too: the oracle only promises termination on fault-free (or
  // deferral-only) runs.
  if (s.drop_rate_bp != 0 || s.dup_rate_bp != 0) return false;
  for (const auto& w : s.faults) {
    if (w.until_tick == mac::kForever) return false;
  }
  // Deterministic algorithms: Theorem 3.2 says one crash may already cost
  // liveness, so the oracle demands termination only crash-free. Ben-Or is
  // randomized and lives up to its declared f (normalize keeps f < n/2).
  if (envelope(s.algorithm).crashes == CrashEnvelope::kUpToF) {
    return s.crashes.size() <= s.benor_f;
  }
  return s.crashes.empty();
}

void normalize_scenario(Scenario& s) {
  s.n = std::max(s.n, min_nodes(s.topology));
  if (s.fack < 1) s.fack = 1;
  // Log-service knobs: inert (reset to defaults, so format_spec stays
  // canonical) outside the family, floored to well-formed values inside it.
  // Service runs cap n well under the engine's 4096-instance-id/kLeaderBits
  // ceilings — derived topology counts can overshoot s.n a little.
  if (s.log_ops == 0) {
    s.log_batch = 8;
    s.log_window = 4;
    s.log_lease = 64;
  } else {
    s.log_ops = std::min<std::uint32_t>(s.log_ops, 65536);
    s.log_batch = std::clamp<std::uint32_t>(s.log_batch, 1, 4096);
    s.log_window = std::clamp<std::uint32_t>(s.log_window, 1, 256);
    s.log_lease = std::clamp<std::uint32_t>(s.log_lease, 1, 65536);
    s.n = std::min<std::uint32_t>(s.n, 2048);
  }
  if (s.scheduler != SchedulerKind::kHoldback) {
    s.holds.clear();
    s.late_holds = false;
  }
  if (s.scheduler != SchedulerKind::kScripted) s.script.clear();
  const std::size_t count = build_graph(s).node_count();
  std::erase_if(s.crashes, [&](const CrashSpec& c) { return c.node >= count; });
  std::erase_if(s.holds, [&](const HoldSpec& h) { return h.sender >= count; });
  // Fault windows on out-of-range or self links are inert; so are finite
  // windows that close at or before they open. Dropping them keeps the
  // shrinker's "remove a window" steps canonical.
  std::erase_if(s.faults, [&](const FaultSpec& w) {
    return w.from >= count || w.to >= count || w.from == w.to ||
           (w.until_tick != mac::kForever && w.until_tick <= w.from_tick);
  });
  // The scenario's fack is the scripted scheduler's effective bound, so
  // decide-round bucketing and spec lines stay meaningful.
  if (s.scheduler == SchedulerKind::kScripted) {
    s.fack = mac::canonicalize_script(s.script, count);
  }
  if (envelope(s.algorithm).crashes == CrashEnvelope::kUpToF) {
    const std::size_t max_f = (count - 1) / 2;
    s.benor_f = std::min(s.benor_f, max_f);
    if (s.crashes.size() > s.benor_f) s.crashes.resize(s.benor_f);
  }
}

// ---- mutation -----------------------------------------------------------

namespace {

[[nodiscard]] mac::Time clamp_time(mac::Time t, mac::Time lo, mac::Time hi) {
  return t < lo ? lo : (t > hi ? hi : t);
}

// Link faults only go where SAFETY survives them (termination_expected
// separately withdraws the liveness demand on lossy plans), so a faulted
// mutant violation is a real bug. Synchronous-only rows get no faults at
// all; the others take deferral faults always, and permanent loss and
// duplicates as their kEnvelopes row says.
[[nodiscard]] bool faults_allowed(const Scenario& s) {
  // The log family is fault-free by choice: ReplicatedLog::network() would
  // take a LinkFaultPlan before drive(), but the family's runs never install
  // one (so clamp_to_envelope scrubs faults, and fault ops skip the family).
  return !envelope(s.algorithm).synchronous_only && s.log_ops == 0;
}

[[nodiscard]] bool permanent_loss_allowed(const Scenario& s) {
  return faults_allowed(s) && envelope(s.algorithm).permanent_loss_safe;
}

[[nodiscard]] bool duplicates_allowed(const Scenario& s) {
  return faults_allowed(s) && envelope(s.algorithm).duplicates_safe;
}

// ---- the numeric-field table ---------------------------------------------
//
// One descriptor per bounded numeric value. Ranges are wider than the
// generator's draws (that is where new coverage lives) but keep a mutant
// soak-sized: releases a few thousand ticks out, crash times inside every
// horizon the clamp picks, slot indices reachable, script acks inside the
// wheel's initial span (so scripted runs stress the batch path, not the
// heap), rates at most 20% so faulted runs still progress, and log knobs
// small enough that pipelining, stalls, renewals and re-elections
// interleave. Shrink targets may sit below a range: a minimal repro may be
// smaller than anything the soak mutates (release 0 holds nothing; log
// knobs halve to normalize's floors).

/// A scalar Scenario member M.
template <auto M>
constexpr NumericField scalar(NumericField f) {
  f.get = [](const Scenario& s, std::size_t) { return mac::Time{s.*M}; };
  f.set = [](Scenario& s, std::size_t, mac::Time v) {
    s.*M = static_cast<std::remove_reference_t<decltype(s.*M)>>(v);
  };
  return f;
}

/// Member M of item i of list L.
template <auto L, auto M>
[[nodiscard]] mac::Time item(const Scenario& s, std::size_t i) {
  return mac::Time{(s.*L)[i].*M};
}

/// Member M of every item of list L.
template <auto L, auto M>
constexpr NumericField member(NumericField f) {
  f.items = [](const Scenario& s) { return (s.*L).size(); };
  f.get = item<L, M>;
  f.set = [](Scenario& s, std::size_t i, mac::Time v) {
    auto& x = (s.*L)[i].*M;
    x = static_cast<std::remove_reference_t<decltype(x)>>(v);
  };
  return f;
}

/// The slot holding per-receiver delay `k` (delays numbered across all
/// slots in slot order); `k` becomes the delay's place in that slot.
template <typename S>
auto& delay_slot(S& s, std::size_t& k) {
  std::size_t i = 0;
  while (k >= s.script[i].delays.size()) k -= s.script[i++].delays.size();
  return s.script[i];
}

[[nodiscard]] bool in_log_family(const Scenario& s) { return s.log_ops > 0; }

template <auto M>
constexpr NumericField log_knob(mac::Time lo, mac::Time hi) {
  return scalar<M>({.lo = {lo}, .hi = {hi}, .target = {1},
                    .shrink = kShrinkHalve, .applies = in_log_family,
                    .perturbed_by = MutationOp::kPerturbLogKnobs});
}

constexpr NumericField kNodes = scalar<&Scenario::n>(
    {.lo = {2}, .hi = {24}, .target = {2},
     .shrink = kShrinkHalve | kShrinkDecrement});
/// Scripted scenarios derive fack from their slots (normalize_scenario).
constexpr NumericField kFack = scalar<&Scenario::fack>(
    {.lo = {1}, .hi = {64}, .target = {1},
     .shrink = kShrinkHalve | kShrinkDecrement | kShrinkSearch,
     .applies = [](const Scenario& s) {
       return s.scheduler != SchedulerKind::kScripted;
     },
     .perturbed_by = MutationOp::kPerturbFack});
/// The generator draws releases >= fack + 1 >= 2.
constexpr NumericField kRelease = member<&Scenario::holds, &HoldSpec::release>(
    {.lo = {2}, .hi = {4000}, .target = {0}, .shrink = kShrinkSearch,
     .perturbed_by = MutationOp::kPerturbHoldRelease});
constexpr NumericField kCrashTime =
    member<&Scenario::crashes, &CrashSpec::when>(
        {.lo = {1}, .hi = {5000}, .target = {0}, .shrink = kShrinkSearch,
         .perturbed_by = MutationOp::kPerturbCrashTime});
constexpr NumericField kSlotIndex =
    member<&Scenario::script, &ScriptSlot::index>({.lo = {0}, .hi = {12}});
/// Receive delays shrink before acks, so an ack walks toward its slot's
/// shrunk receive delay (the canonical slot keeps recv <= ack).
constexpr NumericField kSlotRecv = member<&Scenario::script, &ScriptSlot::recv>(
    {.lo = {1}, .hi = {0, item<&Scenario::script, &ScriptSlot::ack>},
     .target = {1}, .shrink = kShrinkSearch});
constexpr NumericField kSlotAck = member<&Scenario::script, &ScriptSlot::ack>(
    {.lo = {1}, .hi = {32},
     .target = {0, item<&Scenario::script, &ScriptSlot::recv>},
     .shrink = kShrinkSearch});
constexpr NumericField kReceiverDelay{
    .items = [](const Scenario& s) {
      std::size_t k = 0;
      for (const auto& t : s.script) k += t.delays.size();
      return k;
    },
    .get = [](const Scenario& s, std::size_t k) {
      return delay_slot(s, k).delays[k].second;
    },
    .set = [](Scenario& s, std::size_t k, mac::Time v) {
      delay_slot(s, k).delays[k].second = v;
    },
    .lo = {1},
    .hi = {0, [](const Scenario& s, std::size_t k) {
             return delay_slot(s, k).ack;
           }},
    .target = {1},
    .shrink = kShrinkSearch};
constexpr NumericField kDropRate = scalar<&Scenario::drop_rate_bp>(
    {.lo = {0}, .hi = {2000}, .target = {0},
     .shrink = kShrinkJump | kShrinkSearch, .applies = permanent_loss_allowed});
constexpr NumericField kDupRate = scalar<&Scenario::dup_rate_bp>(
    {.lo = {0}, .hi = {2000}, .target = {0},
     .shrink = kShrinkJump | kShrinkSearch, .applies = duplicates_allowed});
constexpr NumericField kWindowStart =
    member<&Scenario::faults, &FaultSpec::from_tick>({.lo = {0}, .hi = {3999}});
/// A finite window is at least one tick long, and narrows toward that; a
/// kForever one has no value to search (the structural pass removes it).
constexpr FieldBound kAfterStart{
    1, item<&Scenario::faults, &FaultSpec::from_tick>};
constexpr NumericField kWindowEnd =
    member<&Scenario::faults, &FaultSpec::until_tick>(
        {.lo = kAfterStart, .hi = {4000}, .target = kAfterStart,
         .shrink = kShrinkSearch, .forever = true});
/// Shrinking jumps to 0, out of the family: the biggest reduction when the
/// failure is not service-specific.
constexpr NumericField kLogOps = scalar<&Scenario::log_ops>(
    {.lo = {8}, .hi = {256}, .target = {0},
     .shrink = kShrinkJump | kShrinkHalve, .applies = in_log_family,
     .perturbed_by = MutationOp::kPerturbLogKnobs});

/// Walk order: n leads (the shrinker halves it before dropping list
/// items), a window's end clamps against its clamped start, the value
/// pass searches fack last, and kPerturbLogKnobs draws its field in this
/// order.
constexpr std::array kNumericFields{
    kNodes,       kRelease,     kCrashTime, kSlotIndex, kSlotRecv,
    kSlotAck,     kReceiverDelay,           kDropRate,  kDupRate,
    kWindowStart, kWindowEnd,   kFack,      kLogOps,
    log_knob<&Scenario::log_batch>(1, 16),
    log_knob<&Scenario::log_window>(1, 8),
    log_knob<&Scenario::log_lease>(1, 32)};

// List lengths a mutant may reach: a handful of slots (unscripted
// broadcasts fall back to lock-step) or windows already builds the paper's
// counterexample shapes or partition-and-heal ones.
constexpr std::size_t kMaxHolds = 6;
constexpr std::size_t kMaxCrashes = 4;
constexpr std::size_t kMaxScriptSlots = 6;
constexpr std::size_t kMaxFaultWindows = 4;

[[nodiscard]] bool applies(const NumericField& f, const Scenario& s) {
  return f.applies == nullptr || f.applies(s);
}

/// Halve, double, or nudge a tick value (the perturb-* ops).
[[nodiscard]] mac::Time perturb_time(mac::Time t, util::Rng& rng) {
  switch (rng.uniform(0, 3)) {
    case 0: return t / 2;
    case 1: return t * 2;
    case 2: return t + rng.uniform(1, 8);
    default: return t > 1 ? t - rng.uniform(1, std::min<mac::Time>(t - 1, 8))
                          : t + 1;
  }
}

/// The perturb ops' one edit path: draw one of the op's fields when it has
/// several, then an item when the field is a list member, then the edit,
/// clamped into the field's range at once (a log_ops halved to 0 would
/// leave the family).
bool perturb(Scenario& s, MutationOp op, util::Rng& rng) {
  std::array<const NumericField*, kNumericFields.size()> fields{};
  std::size_t count = 0;
  for (const NumericField& f : kNumericFields) {
    if (f.perturbed_by != op) continue;
    if (!applies(f, s) || f.count(s) == 0) return false;
    fields[count++] = &f;
  }
  const NumericField& f = *fields[count == 1 ? 0 : rng.uniform(0, count - 1)];
  const std::size_t i = f.items == nullptr ? 0 : rng.uniform(0, f.count(s) - 1);
  const mac::Time v = perturb_time(f.get(s, i), rng);
  f.set(s, i, clamp_time(v, f.lo.at(s, i), f.hi.at(s, i)));
  return true;
}

/// How many crashes a mutant may carry: none for crash-intolerant rows,
/// the mutation cap for safety-only ones, and Ben-Or's declared f.
[[nodiscard]] std::size_t crash_cap(const Scenario& s) {
  switch (envelope(s.algorithm).crashes) {
    case CrashEnvelope::kNone: return 0;
    case CrashEnvelope::kSafetyOnly: return kMaxCrashes;
    case CrashEnvelope::kUpToF: return s.benor_f;
  }
  AMAC_ASSERT(false);
  return 0;
}

/// Erases one uniformly drawn item; false when there is none.
template <typename T>
bool erase_one(std::vector<T>& v, util::Rng& rng) {
  if (v.empty()) return false;
  v.erase(v.begin() +
          static_cast<std::ptrdiff_t>(rng.uniform(0, v.size() - 1)));
  return true;
}

/// Applies `op` to `s` in place. Returns false when the op does not apply
/// to this scenario's shape (no holds to drop, wrong scheduler, ...). Ops
/// draw inside the numeric fields' ranges where a range is what they draw
/// from, and leave the rest to the clamp that follows every op.
bool apply_mutation(Scenario& s, MutationOp op, const Scenario* splice,
                    util::Rng& rng) {
  switch (op) {
    case MutationOp::kPerturbFack:
    case MutationOp::kPerturbHoldRelease:
    case MutationOp::kPerturbCrashTime:
    case MutationOp::kPerturbLogKnobs:
      return perturb(s, op, rng);
    case MutationOp::kRetimeHold: {
      if (s.holds.empty()) return false;
      auto& h = s.holds[rng.uniform(0, s.holds.size() - 1)];
      h.release = rng.uniform(kRelease.lo.value, 40 * s.fack + 200);
      return true;
    }
    case MutationOp::kAddHold: {
      if (s.scheduler != SchedulerKind::kHoldback ||
          s.holds.size() >= kMaxHolds) {
        return false;
      }
      HoldSpec h;
      h.sender = static_cast<NodeId>(rng.uniform(0, s.n - 1));
      h.release = rng.uniform(s.fack + 1, 20 * s.fack + 40);
      s.holds.push_back(h);
      return true;
    }
    case MutationOp::kRemoveHold:
      return erase_one(s.holds, rng);
    case MutationOp::kAddCrash: {
      if (s.crashes.size() >= crash_cap(s)) return false;
      CrashSpec c;
      c.node = static_cast<NodeId>(rng.uniform(0, s.n - 1));
      c.when = rng.uniform(kCrashTime.lo.value, 6 * s.fack + 2 * s.n);
      s.crashes.push_back(c);
      return true;
    }
    case MutationOp::kRemoveCrash:
      return erase_one(s.crashes, rng);
    case MutationOp::kToggleLateHolds:
      if (s.scheduler != SchedulerKind::kHoldback || s.holds.empty()) {
        return false;
      }
      s.late_holds = !s.late_holds;
      return true;
    case MutationOp::kReseed:
      s.seed = rng.uniform(1, 999'999'999);
      return true;
    case MutationOp::kSpliceTransport:
      if (splice == nullptr) return false;
      s.topology = splice->topology;
      s.n = splice->n;
      s.aux = splice->aux;
      s.scheduler = splice->scheduler;
      s.fack = splice->fack;
      s.late_holds = splice->late_holds;
      s.holds = splice->holds;
      s.script = splice->script;
      s.drop_rate_bp = splice->drop_rate_bp;
      s.dup_rate_bp = splice->dup_rate_bp;
      s.faults = splice->faults;
      return true;
    case MutationOp::kScriptTimeline: {
      // Theorem 3.3/3.9 algorithms are only guaranteed under the
      // synchronous scheduler; a scripted timeline would be an expected
      // counterexample, not a bug, so they never get one. Log scenarios
      // never get one either: scripts index a one-shot instance's
      // broadcasts, which means nothing to a slot sequence (clamp would
      // scrub it into a no-op mutant).
      if (envelope(s.algorithm).synchronous_only || s.log_ops > 0) {
        return false;
      }
      s.scheduler = SchedulerKind::kScripted;  // normalize drops the holds
      s.script.clear();
      const std::size_t slots = rng.uniform(1, 4);
      for (std::size_t i = 0; i < slots; ++i) {
        ScriptSlot t;
        t.sender = static_cast<NodeId>(rng.uniform(0, s.n - 1));
        t.index = static_cast<std::uint32_t>(rng.uniform(0, 5));
        t.ack = rng.uniform(kSlotAck.lo.value, kSlotAck.hi.value);
        t.recv = rng.uniform(kSlotRecv.lo.value, t.ack);
        s.script.push_back(t);
      }
      return true;
    }
    case MutationOp::kRetimeScriptSlot: {
      if (s.script.empty()) return false;
      auto& t = s.script[rng.uniform(0, s.script.size() - 1)];
      t.ack = rng.uniform(kSlotAck.lo.value, kSlotAck.hi.value);
      t.recv = rng.uniform(kSlotRecv.lo.value, t.ack);
      return true;
    }
    case MutationOp::kSwapScriptSlots: {
      // Exchange the delays of two slots while their (sender, index)
      // anchors stay put: a pure timeline reordering, the shape of the
      // paper's adversarial schedules.
      if (s.script.size() < 2) return false;
      const std::size_t i = rng.uniform(0, s.script.size() - 1);
      std::size_t j = rng.uniform(0, s.script.size() - 2);
      if (j >= i) ++j;
      std::swap(s.script[i].ack, s.script[j].ack);
      std::swap(s.script[i].recv, s.script[j].recv);
      return true;
    }
    case MutationOp::kDuplicateScriptSlot: {
      if (s.script.empty() || s.script.size() >= kMaxScriptSlots) {
        return false;
      }
      ScriptSlot t = s.script[rng.uniform(0, s.script.size() - 1)];
      t.index += 1;  // replay the same delays one broadcast later
      s.script.push_back(t);
      return true;
    }
    case MutationOp::kDropScriptSlot:
      // Keep at least one slot: a slotless scripted scenario is just the
      // synchronous scheduler in disguise (normalize can still empty the
      // script when a shrunk topology drops every scripted sender).
      return s.script.size() > 1 && erase_one(s.script, rng);
    case MutationOp::kAddDropWindow: {
      if (!faults_allowed(s) || s.faults.size() >= kMaxFaultWindows ||
          s.n < 2) {
        return false;
      }
      FaultSpec w;
      w.from = static_cast<NodeId>(rng.uniform(0, s.n - 1));
      w.to = static_cast<NodeId>(rng.uniform(0, s.n - 2));
      if (w.to >= w.from) ++w.to;  // distinct endpoints
      w.from_tick = rng.uniform(kWindowStart.lo.value, kWindowStart.hi.value);
      if (permanent_loss_allowed(s) && rng.chance(0.2)) {
        w.until_tick = mac::kForever;  // sever the link for good
      } else {
        w.until_tick = w.from_tick + rng.uniform(1, 64);
      }
      s.faults.push_back(w);
      return true;
    }
    case MutationOp::kRemoveDropWindow:
      return erase_one(s.faults, rng);
    case MutationOp::kWidenDropWindow: {
      if (s.faults.empty()) return false;
      auto& w = s.faults[rng.uniform(0, s.faults.size() - 1)];
      const mac::Time room = w.from_tick - kWindowStart.lo.value;
      const bool can_later = w.until_tick != mac::kForever;
      if (room == 0 && !can_later) return false;
      if (room > 0 && (!can_later || rng.chance(0.5))) {
        w.from_tick -= rng.uniform(1, std::min<mac::Time>(room, 32));
      } else {
        w.until_tick += rng.uniform(1, 64);
      }
      return true;
    }
    case MutationOp::kNarrowDropWindow: {
      if (s.faults.empty()) return false;
      auto& w = s.faults[rng.uniform(0, s.faults.size() - 1)];
      if (w.until_tick == mac::kForever) {
        // Heal the link: the infinite outage becomes a bounded one.
        w.until_tick = w.from_tick + rng.uniform(1, 64);
        return true;
      }
      // The window keeps kWindowEnd's least length.
      const mac::Time span = w.until_tick - w.from_tick;
      if (span <= kAfterStart.value) return false;
      const mac::Time cut = rng.uniform(1, span - kAfterStart.value);
      if (rng.chance(0.5)) {
        w.from_tick += cut;
      } else {
        w.until_tick -= cut;
      }
      return true;
    }
    case MutationOp::kPerturbFaultRates: {
      const bool drop_ok = applies(kDropRate, s);
      const bool dup_ok = applies(kDupRate, s);
      if (!drop_ok && !dup_ok) return false;
      const NumericField& f =
          drop_ok && (!dup_ok || rng.chance(0.5)) ? kDropRate : kDupRate;
      const mac::Time rate = f.get(s, 0);
      switch (rng.uniform(0, 2)) {
        case 0:  // fresh light rate (turns faults on)
          f.set(s, 0, rng.uniform(1, 500));
          break;
        case 1:  // intensify
          f.set(s, 0, rate + rng.uniform(1, 250));
          break;
        default:  // back toward the fault-free envelope
          f.set(s, 0, rate / 2);
          break;
      }
      return true;
    }
    case MutationOp::kScriptReceiverDelay: {
      // Retime ONE receiver of a scripted slot: the uniform slot becomes a
      // per-receiver one (unlisted receivers drop to ScriptedScheduler's
      // delay-1 default), which is the paper's "one node hears late" shape.
      if (s.script.empty()) return false;
      auto& t = s.script[rng.uniform(0, s.script.size() - 1)];
      const NodeId receiver = static_cast<NodeId>(rng.uniform(0, s.n - 1));
      const mac::Time lo = kReceiverDelay.lo.value;
      const mac::Time delay = rng.uniform(lo, std::max(lo, t.ack));
      bool replaced = false;
      for (auto& [r, d] : t.delays) {
        if (r == receiver) {
          d = delay;
          replaced = true;
        }
      }
      if (!replaced) t.delays.emplace_back(receiver, delay);
      return true;
    }
    case MutationOp::kSpliceFaultWindows: {
      // Slot i of the child takes parent A's or parent B's window i by a
      // fair coin, falling back to whichever parent still has a window
      // there (out-of-range links are later dropped, not remapped).
      if (splice == nullptr || !faults_allowed(s)) return false;
      if (s.faults.empty() && splice->faults.empty()) return false;
      const std::size_t slots = std::min<std::size_t>(
          std::max(s.faults.size(), splice->faults.size()), kMaxFaultWindows);
      std::vector<FaultSpec> child;
      child.reserve(slots);
      for (std::size_t i = 0; i < slots; ++i) {
        const bool from_base = rng.chance(0.5);
        const auto& first = from_base ? s.faults : splice->faults;
        const auto& second = from_base ? splice->faults : s.faults;
        if (i < first.size()) {
          child.push_back(first[i]);
        } else if (i < second.size()) {
          child.push_back(second[i]);
        }
      }
      s.faults = std::move(child);
      if (rng.chance(0.5)) s.drop_rate_bp = splice->drop_rate_bp;
      if (rng.chance(0.5)) s.dup_rate_bp = splice->dup_rate_bp;
      return true;
    }
    case MutationOp::kLogService: {
      // Enter the replicated-log family: the mutant runs a slot sequence
      // with elected leases instead of a one-shot instance. Crashes (and
      // the transport) carry over; clamp applies the family envelope.
      if (s.log_ops > 0) return false;
      s.log_ops = static_cast<std::uint32_t>(
          rng.uniform(kLogOps.lo.value, kLogOps.hi.value / 2));
      s.log_batch = static_cast<std::uint32_t>(rng.uniform(1, 8));
      s.log_window = static_cast<std::uint32_t>(rng.uniform(1, 4));
      s.log_lease = static_cast<std::uint32_t>(rng.uniform(1, 16));
      return true;
    }
  }
  AMAC_ASSERT(false);
  return false;
}

}  // namespace

void clamp_to_envelope(Scenario& s) {
  // Log-service family envelope (log_ops > 0): the service IS the wPAXOS
  // renewal + leased CommitFlood stack, so the algorithm is pinned.
  // Per-broadcast scripts index a one-shot instance's traffic, not a slot
  // sequence, so they are scrubbed; link faults are scrubbed by choice
  // below (faults_allowed). Crashes stay — a crash that takes the lease
  // holder is exactly the re-election/recovery coverage this family exists
  // for (the wPAXOS cap below still applies).
  if (s.log_ops > 0) {
    s.algorithm = Algorithm::kWPaxos;
    // The contention scheduler's declared fack bound covers ONE instance's
    // broadcast density; a pipelined slot sequence sustains arrivals above
    // the 1-frame-per-tick decode rate, so the receiver backlog — and with
    // it the worst delay — grows with the slot count and would trip the
    // scheduler's bound contract by design. No static bound fits a
    // service-length run; the family runs without that scheduler, and
    // without a script (normalize drops the slots).
    if (s.scheduler == SchedulerKind::kScripted ||
        s.scheduler == SchedulerKind::kContention) {
      s.scheduler = SchedulerKind::kUniformRandom;
    }
  }
  // The algorithm's kEnvelopes row, as generate_scenario draws it.
  const Envelope& env = envelope(s.algorithm);
  if (env.synchronous_only) s.scheduler = SchedulerKind::kSynchronous;
  if (env.single_hop) {
    s.topology = TopologyKind::kClique;
    s.aux = 0;
  }
  // Ben-Or's cap is left to normalize_scenario, which first drops crashes
  // on out-of-range nodes and then enforces crashes <= f < n/2.
  if (env.crashes != CrashEnvelope::kUpToF &&
      s.crashes.size() > crash_cap(s)) {
    s.crashes.resize(crash_cap(s));
  }
  if (!env.multivalued && s.inputs == InputPattern::kMultivalued) {
    s.inputs = InputPattern::kSplit;
  }
  if (s.script.size() > kMaxScriptSlots) s.script.resize(kMaxScriptSlots);
  // Link faults stay inside the row's bounded-loss envelope (see
  // faults_allowed and friends above).
  if (!faults_allowed(s)) s.faults.clear();
  if (!permanent_loss_allowed(s)) {
    s.drop_rate_bp = 0;
    for (auto& w : s.faults) {
      if (w.until_tick == mac::kForever) {
        w.until_tick = w.from_tick + 64;  // the range clamp below caps it
      }
    }
  }
  if (!duplicates_allowed(s)) s.dup_rate_bp = 0;
  if (s.faults.size() > kMaxFaultWindows) s.faults.resize(kMaxFaultWindows);
  // Every value into its range; one that does not apply is the rules' above
  // (rates) or normalize's (fack under kScripted, log knobs off the family).
  for (const NumericField& f : kNumericFields) {
    if (!applies(f, s)) continue;
    for (std::size_t i = 0; i < f.count(s); ++i) {
      const mac::Time v = f.get(s, i);
      if (f.forever && v == mac::kForever) continue;
      f.set(s, i, clamp_time(v, f.lo.at(s, i), f.hi.at(s, i)));
    }
  }
  normalize_scenario(s);
  // Same horizon policy as the generator: liveness runs get room, safety-
  // only runs stop once the interesting prefix has played out.
  s.horizon = termination_expected(s) ? 1'000'000 : 30'000;
}

std::span<const NumericField> numeric_fields() { return kNumericFields; }

bool inside_envelope(const Scenario& s) {
  Scenario clamped = s;
  clamp_to_envelope(clamped);
  return format_spec(clamped) == format_spec(s);
}

Scenario mutate_scenario(const Scenario& base, const Scenario* splice,
                         util::Rng& rng) {
  Scenario s = base;
  bool applied = false;
  for (int attempt = 0; attempt < 8 && !applied; ++attempt) {
    const auto op =
        static_cast<MutationOp>(rng.uniform(0, kMutationOpCount - 1));
    applied = apply_mutation(s, op, splice, rng);
  }
  // Every scenario admits a reseed, so some op always applies. An applied
  // op can still leave the spec unchanged — a perturb the clamp pulls back
  // to its range end, an edit normalize undoes — so a small share of
  // mutants equal their parent.
  if (!applied) apply_mutation(s, MutationOp::kReseed, splice, rng);
  clamp_to_envelope(s);
  return s;
}

Scenario generate_scenario(std::uint64_t seed) {
  util::Rng rng(sub_seed(seed, kGenSalt));
  Scenario s;
  s.seed = seed;
  s.algorithm = static_cast<Algorithm>(rng.uniform(0, 5));
  const Envelope& env = envelope(s.algorithm);

  // Topology: single-hop algorithms get the clique; the rest roam the
  // whole family.
  if (env.single_hop) {
    s.topology = TopologyKind::kClique;
  } else {
    s.topology =
        static_cast<TopologyKind>(rng.uniform(0, kTopologyKindCount - 1));
  }
  switch (s.topology) {
    case TopologyKind::kGrid: {
      s.aux = static_cast<std::uint32_t>(rng.uniform(2, 4));
      s.n = s.aux * static_cast<std::uint32_t>(rng.uniform(2, 4));
      break;
    }
    case TopologyKind::kTorus: {
      s.aux = static_cast<std::uint32_t>(rng.uniform(3, 4));
      s.n = s.aux * static_cast<std::uint32_t>(rng.uniform(3, 4));
      break;
    }
    case TopologyKind::kBarbell: {
      s.aux = static_cast<std::uint32_t>(rng.uniform(1, 3));
      s.n = static_cast<std::uint32_t>(rng.uniform(4, 12));
      break;
    }
    default: {
      const std::uint32_t lo = min_nodes(s.topology);
      const std::uint32_t hi = s.algorithm == Algorithm::kBenOr ? 9 : 14;
      s.n = static_cast<std::uint32_t>(rng.uniform(lo, std::max(lo, hi)));
      break;
    }
  }

  // Scheduler: Theorem 3.3/3.9 algorithms are synchronous-only. The draw
  // range is pinned to the GENERATED kinds (kScripted is mutation-only), so
  // adding scripted timelines did not move a single generated scenario —
  // the 504-corpus digest is bit-identical across that change.
  if (env.synchronous_only) {
    s.scheduler = SchedulerKind::kSynchronous;
  } else {
    s.scheduler = static_cast<SchedulerKind>(
        rng.uniform(0, kGeneratedSchedulerKindCount - 1));
  }
  s.fack = s.scheduler == SchedulerKind::kSynchronous
               ? rng.uniform(1, 4)
               : s.scheduler == SchedulerKind::kContention
                     ? rng.uniform(1, 3)  // contention: base delay
                     : rng.uniform(2, 6);

  if (s.scheduler == SchedulerKind::kHoldback) {
    const std::size_t hold_count = rng.uniform(1, 3);
    for (std::size_t i = 0; i < hold_count; ++i) {
      HoldSpec h;
      h.sender = static_cast<NodeId>(rng.uniform(0, s.n - 1));
      h.release = rng.uniform(s.fack + 1, 20 * s.fack + 40);
      s.holds.push_back(h);
    }
    s.late_holds = rng.chance(0.5);
  }

  // Inputs: binary patterns everywhere; multivalued only where the
  // algorithm supports general values.
  s.inputs = static_cast<InputPattern>(
      rng.uniform(0, env.multivalued ? kInputPatternCount - 1
                                     : kInputPatternCount - 2));
  s.ids = rng.chance(0.5) ? IdAssignment::kPermuted : IdAssignment::kIdentity;

  // Crash schedule, inside each algorithm's envelope. Crash times target
  // the first few ack windows, where broadcasts are mid-flight.
  const std::size_t count = build_graph(s).node_count();
  const auto draw_crashes = [&](std::size_t how_many) {
    for (std::size_t i = 0; i < how_many; ++i) {
      CrashSpec c;
      c.node = static_cast<NodeId>(rng.uniform(0, count - 1));
      c.when = rng.uniform(1, 6 * s.fack + 2 * count);
      s.crashes.push_back(c);
    }
  };
  switch (env.crashes) {
    case CrashEnvelope::kNone:
      break;
    case CrashEnvelope::kSafetyOnly:
      // A third of the runs get crashes.
      if (rng.chance(0.33)) draw_crashes(rng.uniform(1, 2));
      break;
    case CrashEnvelope::kUpToF:
      s.benor_f = rng.uniform(0, (count - 1) / 2);
      if (s.benor_f > 0) draw_crashes(rng.uniform(0, s.benor_f));
      break;
  }

  normalize_scenario(s);
  // Liveness runs get a generous horizon; safety-only runs are cut short
  // once the interesting (crash-interleaved) prefix has played out.
  s.horizon = termination_expected(s) ? 1'000'000 : 30'000;
  return s;
}

void promote_to_large(Scenario& s, std::uint32_t n) {
  s.n = std::max<std::uint32_t>(n, 16);
  // Clique-locked algorithms cannot scale: single-hop topologies are
  // Theta(n^2) edges, and Ben-Or's coin convergence needs tiny n anyway.
  // Flooding accepts every topology, scheduler, crash set, and fault plan,
  // so it inherits the rest of the scenario unchanged.
  if (envelope(s.algorithm).single_hop) s.algorithm = Algorithm::kFlooding;
  // Liveness-checked wPAXOS cannot scale either: n concurrent proposers
  // duel, and convergence time at n >= 1024 has no bound a soak can wait
  // out (a promoted crash-free run would be held against its 1M-tick
  // horizon). Safety-only wPAXOS runs — crashed or faulted, on the short
  // horizon below — are bounded and keep the Lemma 4.2 monitor running at
  // scale, so only the termination-expected ones are remapped.
  if (s.algorithm == Algorithm::kWPaxos && termination_expected(s)) {
    s.algorithm = Algorithm::kFlooding;
  }
  // Only bounded-degree, low-diameter shapes are affordable at n >= 1024:
  // cliques/barbells/randconn materialize ~n^2 edges, geo at the small-n
  // radii is nearly as dense, and a ring/line's n/2 diameter turns
  // D-knowledge runs quadratic. Other draws remap deterministically so
  // promotion stays a pure function of the scenario.
  const bool sparse = s.topology == TopologyKind::kGrid ||
                      s.topology == TopologyKind::kTorus ||
                      s.topology == TopologyKind::kBinaryTree ||
                      s.topology == TopologyKind::kStar;
  if (!sparse) {
    static constexpr TopologyKind kSparseFamily[] = {
        TopologyKind::kGrid, TopologyKind::kTorus, TopologyKind::kBinaryTree,
        TopologyKind::kStar};
    s.topology = kSparseFamily[sub_seed(s.seed, kLargeSalt) % 4];
  }
  if (s.topology == TopologyKind::kGrid ||
      s.topology == TopologyKind::kTorus) {
    // Near-square: width*height lands close to n and diameter ~2*sqrt(n).
    std::uint32_t w = 3;
    while ((w + 1) * (w + 1) <= s.n) ++w;
    s.aux = w;
  } else {
    s.aux = 0;
  }
  normalize_scenario(s);
  // Liveness runs keep the generator's horizon (they stop at decide, in
  // O(diameter) rounds); safety-only runs get a shorter prefix than the
  // small-n policy — the interesting schedule prefix is no longer at 4096
  // nodes than at 14, but each tick costs ~300x more deliveries.
  s.horizon = termination_expected(s) ? 1'000'000 : 4'000;
}

void promote_to_log_service(Scenario& s) {
  util::Rng rng(sub_seed(s.seed, kLogSalt));
  // Ops counts stay soak-sized (every slot is a full consensus instance)
  // and lease draws lean short, so renewals — and re-elections when the
  // base scenario's crashes take the lease holder — happen several times
  // per run. Everything else (seed, transport, crashes, holds) is
  // inherited; clamp_to_envelope applies the family envelope.
  s.log_ops = static_cast<std::uint32_t>(rng.uniform(16, 128));
  s.log_batch = static_cast<std::uint32_t>(rng.uniform(1, 8));
  s.log_window = static_cast<std::uint32_t>(rng.uniform(1, 4));
  s.log_lease = static_cast<std::uint32_t>(rng.uniform(2, 16));
  clamp_to_envelope(s);
}

// ---- spec round-trip ----------------------------------------------------

// The spec line is driven by one table, kFields, in spec order. Each entry
// names its key, says when the token is written (`present`; a null
// predicate means always, and then parse_spec requires the key) and how
// its value is written and read. The helpers below build the entries, and
// each list record type has one put_item/parse_item pair, so adding a token
// means adding one entry.

namespace {

struct Field {
  std::string_view key;
  bool (*present)(const Scenario&);
  void (*write)(std::string& out, const Scenario& s);
  bool (*read)(std::string_view value, Scenario& s);
};

void put_uint(std::string& out, std::uint64_t v) {
  std::array<char, 20> buf;
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  out.append(buf.data(), res.ptr);
}

/// Reads a whole-string decimal in [lo, hi] that also fits T.
template <typename T>
[[nodiscard]] bool read_uint(std::string_view v, T& out, std::uint64_t lo = 0,
                             std::uint64_t hi = ~std::uint64_t{0}) {
  const auto u = util::parse_u64(v);
  if (!u || *u < lo || *u > hi || *u > std::numeric_limits<T>::max()) {
    return false;
  }
  out = static_cast<T>(*u);
  return true;
}

// Spec lines are untrusted input, so every delay and tick has an upper
// bound far above anything generated, mutated or pinned (mutation caps
// ticks at 5000) and far below where virtual time could wrap: a tick plus
// many rounds of the largest delay still fits a mac::Time. `inf` (kForever)
// stays the one spelling of an unbounded fault window.
constexpr std::uint64_t kMaxSpecDelay = std::uint64_t{1} << 32;
constexpr std::uint64_t kMaxSpecTick = std::uint64_t{1} << 62;

[[nodiscard]] bool read_delay(std::string_view v, mac::Time& out) {
  return read_uint(v, out, 0, kMaxSpecDelay);
}

[[nodiscard]] bool read_tick(std::string_view v, mac::Time& out) {
  return read_uint(v, out, 0, kMaxSpecTick);
}

/// Splits `v` into N `sep`-separated fields. The last field keeps any
/// further separators: each caller's reader for it (read_uint, `inf`, or a
/// nested split ending in read_uint) rejects them, which spares a second
/// scan of every well-formed record.
template <std::size_t N>
[[nodiscard]] bool split(std::string_view v, char sep,
                         std::array<std::string_view, N>& out) {
  for (std::size_t i = 0; i + 1 < N; ++i) {
    const std::size_t at = v.find(sep);
    if (at == std::string_view::npos) return false;
    out[i] = v.substr(0, at);
    v.remove_prefix(at + 1);
  }
  out[N - 1] = v;
  return true;
}

/// Reads every `sep`-separated item of `v`. An empty list and an empty item
/// (a leading, doubled or trailing separator) are malformed.
[[nodiscard]] bool read_items(std::string_view v, char sep, auto&& read) {
  while (true) {
    const std::size_t at = v.find(sep);
    const std::string_view item = v.substr(0, at);
    if (item.empty() || !read(item)) return false;
    if (at == std::string_view::npos) return true;
    v.remove_prefix(at + 1);
  }
}

// ---- list records: `node@when`, `sender@release`, `s@i@ack@recv`,
// `from@to@start@until` --------------------------------------------------

void put_item(std::string& out, const CrashSpec& c) {
  put_uint(out, c.node);
  out += '@';
  put_uint(out, c.when);
}

[[nodiscard]] bool parse_item(std::string_view v, CrashSpec& c) {
  std::array<std::string_view, 2> f;
  return split(v, '@', f) && read_uint(f[0], c.node) &&
         read_tick(f[1], c.when);
}

void put_item(std::string& out, const HoldSpec& h) {
  put_uint(out, h.sender);
  out += '@';
  put_uint(out, h.release);
}

[[nodiscard]] bool parse_item(std::string_view v, HoldSpec& h) {
  std::array<std::string_view, 2> f;
  return split(v, '@', f) && read_uint(f[0], h.sender) &&
         read_tick(f[1], h.release);
}

/// The 4th field is the bare shared delay of a uniform slot, or the
/// `r-d+r-d` list of a per-receiver one (unlisted receivers delay 1).
void put_item(std::string& out, const ScriptSlot& t) {
  put_uint(out, t.sender);
  out += '@';
  put_uint(out, t.index);
  out += '@';
  put_uint(out, t.ack);
  out += '@';
  if (t.delays.empty()) {
    put_uint(out, t.recv);
    return;
  }
  for (std::size_t j = 0; j < t.delays.size(); ++j) {
    if (j != 0) out += '+';
    put_uint(out, t.delays[j].first);
    out += '-';
    put_uint(out, t.delays[j].second);
  }
}

/// A per-receiver slot's `recv` mirrors its largest listed delay, as
/// normalize_scenario keeps it.
[[nodiscard]] bool parse_item(std::string_view v, ScriptSlot& t) {
  std::array<std::string_view, 4> f;
  if (!split(v, '@', f) || !read_uint(f[0], t.sender) ||
      !read_uint(f[1], t.index) || !read_delay(f[2], t.ack)) {
    return false;
  }
  if (f[3].find('-') == std::string_view::npos) return read_delay(f[3], t.recv);
  t.recv = 1;
  t.delays.reserve(1 + std::count(f[3].begin(), f[3].end(), '+'));
  return read_items(f[3], '+', [&t](std::string_view pair) {
    std::array<std::string_view, 2> rd;
    auto& [receiver, delay] = t.delays.emplace_back();
    if (!split(pair, '-', rd) || !read_uint(rd[0], receiver) ||
        !read_delay(rd[1], delay)) {
      return false;
    }
    t.recv = std::max(t.recv, delay);
    return true;
  });
}

/// `until` is `inf` for a permanent (kForever) outage.
void put_item(std::string& out, const FaultSpec& w) {
  put_uint(out, w.from);
  out += '@';
  put_uint(out, w.to);
  out += '@';
  put_uint(out, w.from_tick);
  out += '@';
  if (w.until_tick == mac::kForever) {
    out += "inf";
  } else {
    put_uint(out, w.until_tick);
  }
}

[[nodiscard]] bool parse_item(std::string_view v, FaultSpec& w) {
  std::array<std::string_view, 4> f;
  if (!split(v, '@', f) || !read_uint(f[0], w.from) ||
      !read_uint(f[1], w.to) || !read_tick(f[2], w.from_tick)) {
    return false;
  }
  if (f[3] == "inf") {
    w.until_tick = mac::kForever;
    return true;
  }
  return read_tick(f[3], w.until_tick);
}

// ---- field helpers ------------------------------------------------------

/// A required decimal in [Lo, Hi].
template <auto M, std::uint64_t Lo = 0, std::uint64_t Hi = ~std::uint64_t{0}>
constexpr Field number(std::string_view key) {
  return {key, nullptr,
          [](std::string& out, const Scenario& s) { put_uint(out, s.*M); },
          [](std::string_view v, Scenario& s) {
            return read_uint(v, s.*M, Lo, Hi);
          }};
}

/// A required enum, spelled by its entry in `Names`.
template <auto M, const auto& Names>
constexpr Field token(std::string_view key) {
  return {key, nullptr,
          [](std::string& out, const Scenario& s) {
            out += name_of(Names, s.*M);
          },
          [](std::string_view v, Scenario& s) {
            const auto it = std::find(Names.begin(), Names.end(), v);
            if (it == Names.end()) return false;
            s.*M = static_cast<std::remove_reference_t<decltype(s.*M)>>(
                it - Names.begin());
            return true;
          }};
}

/// A fault rate in parts of kRateScale, written only when nonzero.
template <auto M>
constexpr Field rate(std::string_view key) {
  Field f = number<M, 1, mac::LinkFaultPlan::kRateScale>(key);
  f.present = [](const Scenario& s) { return s.*M != 0; };
  return f;
}

/// `,`-separated put_item/parse_item records, written only when nonempty.
template <auto M>
constexpr Field list(std::string_view key) {
  return {key, [](const Scenario& s) { return !(s.*M).empty(); },
          [](std::string& out, const Scenario& s) {
            for (std::size_t i = 0; i < (s.*M).size(); ++i) {
              if (i != 0) out += ',';
              put_item(out, (s.*M)[i]);
            }
          },
          [](std::string_view v, Scenario& s) {
            (s.*M).reserve(1 + std::count(v.begin(), v.end(), ','));
            return read_items(v, ',', [&s](std::string_view item) {
              return parse_item(item, (s.*M).emplace_back());
            });
          }};
}

template <auto First, auto...>
constexpr auto kFirst = First;

/// `@`-separated decimals in [Lo, Hi], written only when the first is
/// nonzero: a zero first field is spelled by omitting the token, which
/// keeps the round trip canonical.
template <std::uint64_t Lo, std::uint64_t Hi, auto... Ms>
constexpr Field group(std::string_view key) {
  return {key, [](const Scenario& s) { return s.*kFirst<Ms...> != 0; },
          [](std::string& out, const Scenario& s) {
            const char* sep = "";
            ((out += sep, put_uint(out, s.*Ms), sep = "@"), ...);
          },
          [](std::string_view v, Scenario& s) {
            std::array<std::string_view, sizeof...(Ms)> f;
            std::size_t i = 0;
            return split(v, '@', f) &&
                   (read_uint(f[i++], s.*Ms, Lo, Hi) && ...);
          }};
}

constexpr std::array kFields{
    number<&Scenario::seed>("seed"),
    token<&Scenario::algorithm, harness::kAlgorithmNames>("alg"),
    token<&Scenario::topology, kTopologyNames>("topo"),
    number<&Scenario::n, 1, 16384>("n"),
    number<&Scenario::aux, 0, 16384>("aux"),
    token<&Scenario::scheduler, kSchedulerNames>("sched"),
    number<&Scenario::fack, 1, kMaxSpecDelay>("fack"),
    number<&Scenario::late_holds, 0, 1>("late"),
    token<&Scenario::inputs, kInputPatternNames>("in"),
    token<&Scenario::ids, kIdAssignmentNames>("ids"),
    number<&Scenario::benor_f>("f"),
    number<&Scenario::horizon, 1, kMaxSpecTick>("hz"),
    group<1, 1'000'000, &Scenario::log_ops, &Scenario::log_batch,
          &Scenario::log_window, &Scenario::log_lease>("log"),
    list<&Scenario::crashes>("crashes"),
    list<&Scenario::holds>("holds"),
    list<&Scenario::script>("script"),
    rate<&Scenario::drop_rate_bp>("drop"),
    rate<&Scenario::dup_rate_bp>("dup"),
    list<&Scenario::faults>("faults"),
};
static_assert(kFields.size() <= 32, "parse_spec tracks seen keys in a u32");

constexpr std::uint32_t kRequired = [] {
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < kFields.size(); ++i) {
    if (kFields[i].present == nullptr) mask |= 1u << i;
  }
  return mask;
}();

constexpr std::string_view kMagic = "amacfuzz1";

}  // namespace

std::string format_spec(const Scenario& s) {
  std::string out;
  out.reserve(160);
  out += kMagic;
  for (const Field& f : kFields) {
    if (f.present != nullptr && !f.present(s)) continue;
    out += ':';
    out += f.key;
    out += '=';
    f.write(out, s);
  }
  return out;
}

std::optional<Scenario> parse_spec(std::string_view spec) {
  // Convenience: a bare integer replays generate_scenario(seed).
  if (!spec.empty() &&
      spec.find_first_not_of("0123456789") == std::string_view::npos) {
    const auto seed = util::parse_u64(spec);
    if (!seed) return std::nullopt;
    return generate_scenario(*seed);
  }

  const auto pop_token = [&spec] {
    const std::size_t colon = spec.find(':');
    const std::string_view token = spec.substr(0, colon);
    spec = colon == std::string_view::npos ? std::string_view{}
                                           : spec.substr(colon + 1);
    return token;
  };
  if (pop_token() != kMagic) return std::nullopt;

  Scenario s;
  std::uint32_t seen = 0;
  // The key search starts after the last match, so a line in format_spec's
  // order finds every key on the first comparison.
  std::size_t next = 0;
  while (!spec.empty()) {
    const std::string_view token = pop_token();
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = token.substr(0, eq);
    std::size_t i = next;
    while (kFields[i].key != key) {
      i = i + 1 == kFields.size() ? 0 : i + 1;
      if (i == next) return std::nullopt;  // unknown key
    }
    if ((seen >> i & 1u) != 0) return std::nullopt;  // repeated key
    if (!kFields[i].read(token.substr(eq + 1), s)) return std::nullopt;
    seen |= 1u << i;
    next = i + 1 == kFields.size() ? 0 : i + 1;
  }
  if ((seen & kRequired) != kRequired) return std::nullopt;
  return s;
}

// ---- materialization ----------------------------------------------------

BuiltScenario build_scenario(const Scenario& s) {
  BuiltScenario b;
  b.graph = build_graph(s);
  const std::size_t count = b.graph.node_count();

  {
    util::Rng in_rng(sub_seed(s.seed, kInputSalt));
    switch (s.inputs) {
      case InputPattern::kAllZero:
        b.inputs = harness::inputs_all(count, 0);
        break;
      case InputPattern::kAllOne:
        b.inputs = harness::inputs_all(count, 1);
        break;
      case InputPattern::kAlternating:
        b.inputs = harness::inputs_alternating(count);
        break;
      case InputPattern::kSplit:
        b.inputs = harness::inputs_split(count);
        break;
      case InputPattern::kRandom:
        b.inputs = harness::inputs_random(count, in_rng);
        break;
      case InputPattern::kMultivalued:
        b.inputs = harness::inputs_multivalued(count, 6, in_rng);
        break;
    }
  }
  {
    util::Rng id_rng(sub_seed(s.seed, kIdSalt));
    b.ids = s.ids == IdAssignment::kPermuted
                ? harness::permuted_ids(count, id_rng)
                : harness::identity_ids(count);
  }

  const std::uint64_t sched_seed = sub_seed(s.seed, kSchedSalt);
  switch (s.scheduler) {
    case SchedulerKind::kSynchronous:
    case SchedulerKind::kMaxDelay:
      b.scheduler = std::make_unique<mac::SynchronousScheduler>(s.fack);
      break;
    case SchedulerKind::kUniformRandom:
      b.scheduler =
          std::make_unique<mac::UniformRandomScheduler>(s.fack, sched_seed);
      break;
    case SchedulerKind::kSkewed:
      b.scheduler = std::make_unique<mac::SkewedScheduler>(s.fack, sched_seed);
      break;
    case SchedulerKind::kContention: {
      // `fack` is the base delay; the declared bound covers the worst
      // queue a receiver's in-degree can build up, with generous slack
      // (the contract check aborts on a real overrun).
      std::size_t max_deg = 0;
      for (NodeId u = 0; u < count; ++u) {
        max_deg = std::max(max_deg, b.graph.degree(u));
      }
      const mac::Time bound =
          s.fack * static_cast<mac::Time>(max_deg + 2) + 32;
      b.scheduler =
          std::make_unique<mac::ContentionScheduler>(s.fack, bound, sched_seed);
      break;
    }
    case SchedulerKind::kHoldback: {
      auto base =
          std::make_unique<mac::UniformRandomScheduler>(s.fack, sched_seed);
      // Late-hold scenarios must construct the scheduler with a small
      // default release: the engine sizes its calendar wheel from fack()
      // at Network construction, so only a pre-hold bound that does NOT
      // already cover the releases forces the held deliveries onto the
      // overflow-heap path this mode exists to exercise.
      mac::Time release = 1;
      if (!s.late_holds) {
        for (const auto& h : s.holds) release = std::max(release, h.release);
      }
      auto hold =
          std::make_unique<mac::HoldbackScheduler>(std::move(base), release);
      b.holdback = hold.get();
      b.scheduler = std::move(hold);
      if (!s.late_holds) apply_holds(s, b);
      break;
    }
    case SchedulerKind::kScripted:
      // Hand-edited slots are canonicalized by the scheduler itself.
      b.scheduler = std::make_unique<mac::ScriptedScheduler>(s.script, count);
      break;
  }

  harness::AlgorithmParams params;
  params.inputs = b.inputs;
  params.ids = b.ids;
  params.benor_f = s.benor_f;
  params.seed = s.seed;
  if (envelope(s.algorithm).knows_diameter) {
    // Only the D-knowledge algorithms pay for this, and Graph::diameter is
    // double-sweep + iFUB (not all-pairs BFS), so a 4096-node build stays
    // sub-second — pinned by the wall-clock regression in test_net_graph.
    params.diameter = b.graph.diameter();
  }
  // The Lemma 4.2 monitor needs response tracking; it does not change the
  // algorithm's messages, so both engines of a differential pair see
  // identical traffic either way.
  params.wpaxos.track_responses = s.algorithm == harness::Algorithm::kWPaxos;
  b.factory = harness::algorithm_factory(s.algorithm, std::move(params));

  for (const auto& c : s.crashes) {
    if (c.node < count) b.crashes.push_back(mac::CrashPlan{c.node, c.when});
  }
  if (s.drop_rate_bp != 0 || s.dup_rate_bp != 0 || !s.faults.empty()) {
    // The plan's hash seed derives from the master seed (own salt), so a
    // reseed redraws the fault pattern with the rest of the run while the
    // spec line stays rate/window-only.
    b.faults.seed = sub_seed(s.seed, kFaultSalt);
    b.faults.drop_rate_bp = s.drop_rate_bp;
    b.faults.dup_rate_bp = s.dup_rate_bp;
    for (const auto& w : s.faults) {
      if (w.from < count && w.to < count) {
        b.faults.windows.push_back(
            mac::DropWindow{w.from, w.to, w.from_tick, w.until_tick});
      }
    }
  }
  return b;
}

void apply_holds(const Scenario& s, BuiltScenario& b) {
  if (b.holdback == nullptr) return;
  const std::size_t count = b.graph.node_count();
  for (const auto& h : s.holds) {
    if (h.sender < count) b.holdback->hold_sender_until(h.sender, h.release);
  }
}

}  // namespace amac::fuzz
