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
  // Bounded-loss envelope: rate faults drop copies permanently and a
  // kForever window severs a link for good, so no algorithm owes
  // termination under either (agreement/validity stay unconditional).
  // Finite windows merely defer deliveries — the engine stretches the ack
  // past every deferred arrival — so they never cost liveness by
  // themselves. Duplicate rates are conservatively excluded too: the
  // oracle only promises termination on fault-free (or deferral-only)
  // runs.
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
  std::erase_if(s.script,
                [&](const ScriptSlot& t) { return t.sender >= count; });
  // Fault windows on out-of-range or self links are inert; so are finite
  // windows that close at or before they open. Dropping them keeps the
  // shrinker's "remove a window" steps canonical.
  std::erase_if(s.faults, [&](const FaultSpec& w) {
    return w.from >= count || w.to >= count || w.from == w.to ||
           (w.until_tick != mac::kForever && w.until_tick <= w.from_tick);
  });
  if (s.scheduler == SchedulerKind::kScripted) {
    // Slot well-formedness mirrors ScriptedScheduler's contracts; the
    // scenario's fack mirrors the scheduler's effective bound (max scripted
    // ack, with the synchronous length-1 fallback), so decide-round
    // bucketing and spec lines stay meaningful. Per-receiver slots are
    // canonicalized: out-of-range receivers dropped, later-wins dedupe,
    // receiver-sorted, delays clamped into [1, ack], and `recv` mirrors the
    // largest listed delay (ScriptedScheduler gives unlisted receivers
    // delay 1).
    mac::Time max_ack = 1;
    for (auto& t : s.script) {
      if (t.ack < 1) t.ack = 1;
      if (!t.delays.empty()) {
        std::vector<std::pair<NodeId, mac::Time>> kept;
        for (const auto& [receiver, delay] : t.delays) {
          if (receiver >= count) continue;
          const mac::Time d = std::clamp<mac::Time>(delay, 1, t.ack);
          bool replaced = false;
          for (auto& k : kept) {
            if (k.first == receiver) {
              k.second = d;  // later-wins, like ScriptedScheduler's scan
              replaced = true;
            }
          }
          if (!replaced) kept.emplace_back(receiver, d);
        }
        std::sort(kept.begin(), kept.end());
        t.delays = std::move(kept);
      }
      if (t.delays.empty()) {
        if (t.recv < 1) t.recv = 1;
        if (t.recv > t.ack) t.recv = t.ack;
      } else {
        t.recv = 1;
        for (const auto& [receiver, delay] : t.delays) {
          t.recv = std::max(t.recv, delay);
        }
      }
      max_ack = std::max(max_ack, t.ack);
    }
    s.fack = max_ack;
  }
  if (envelope(s.algorithm).crashes == CrashEnvelope::kUpToF) {
    const std::size_t max_f = (count - 1) / 2;
    s.benor_f = std::min(s.benor_f, max_f);
    if (s.crashes.size() > s.benor_f) s.crashes.resize(s.benor_f);
  }
}

// ---- mutation -----------------------------------------------------------

namespace {

// Mutation value bounds. Wider than the generator's draw ranges on purpose
// (that is where the new coverage lives) but small enough that a mutant
// still runs in fuzz-soak time: releases stay inside the wheel's resizable
// horizon and crash times inside every horizon the clamp can pick.
constexpr mac::Time kMaxMutatedFack = 64;
constexpr mac::Time kMaxMutatedRelease = 4000;
constexpr mac::Time kMaxMutatedCrashTime = 5000;
constexpr std::size_t kMaxMutatedHolds = 6;
constexpr std::size_t kMaxMutatedCrashes = 4;
constexpr std::uint32_t kMaxMutatedNodes = 24;
// Scripted-timeline bounds: slots stay few (unscripted broadcasts fall back
// to lock-step, so a handful of slots already builds the paper's
// counterexample shapes), indices reachable in soak time, acks inside the
// wheel's initial span so scripted runs stress the batch path, not the heap.
constexpr std::size_t kMaxScriptSlots = 6;
constexpr std::uint32_t kMaxScriptIndex = 12;
constexpr mac::Time kMaxScriptAck = 32;
// Link-fault bounds: a handful of windows inside the wheel's resizable
// horizon already builds partition-and-heal shapes, and rates cap at 20%
// so faulted soak runs still make protocol progress worth covering.
constexpr std::size_t kMaxFaultWindows = 4;
constexpr mac::Time kMaxFaultTick = 4000;
constexpr std::uint32_t kMaxFaultRateBp = 2000;
// Log-service bounds: every slot is a full consensus instance, so ops stay
// soak-sized; batch/window stay small enough that pipelining and stalls
// interleave, and leases stay short so renewals — and re-elections after a
// leader crash — happen several times per run.
constexpr std::uint32_t kMinMutatedLogOps = 8;
constexpr std::uint32_t kMaxMutatedLogOps = 256;
constexpr std::uint32_t kMaxMutatedLogBatch = 16;
constexpr std::uint32_t kMaxMutatedLogWindow = 8;
constexpr std::uint32_t kMaxMutatedLogLease = 32;

[[nodiscard]] mac::Time clamp_time(mac::Time t, mac::Time lo, mac::Time hi) {
  return t < lo ? lo : (t > hi ? hi : t);
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

/// How many crashes a mutant may carry: none for crash-intolerant rows,
/// the mutation cap for safety-only ones, and Ben-Or's declared f.
[[nodiscard]] std::size_t crash_cap(const Scenario& s) {
  switch (envelope(s.algorithm).crashes) {
    case CrashEnvelope::kNone: return 0;
    case CrashEnvelope::kSafetyOnly: return kMaxMutatedCrashes;
    case CrashEnvelope::kUpToF: return s.benor_f;
  }
  AMAC_ASSERT(false);
  return 0;
}

// Link faults only go where SAFETY survives them (termination_expected
// separately withdraws the liveness demand on lossy plans), so a faulted
// mutant violation is a real bug. Synchronous-only rows get no faults at
// all; the others take deferral faults always, and permanent loss and
// duplicates as their kEnvelopes row says.
[[nodiscard]] bool faults_allowed(const Scenario& s) {
  // The log family is fault-free by choice: ReplicatedLog::network() would
  // take a LinkFaultPlan before drive(), but the family's runs never install
  // one (clamp scrubs faults; the gate here just keeps fault ops from
  // producing no-op mutants).
  return !envelope(s.algorithm).synchronous_only && s.log_ops == 0;
}

[[nodiscard]] bool permanent_loss_allowed(const Scenario& s) {
  return faults_allowed(s) && envelope(s.algorithm).permanent_loss_safe;
}

[[nodiscard]] bool duplicates_allowed(const Scenario& s) {
  return faults_allowed(s) && envelope(s.algorithm).duplicates_safe;
}

/// Applies `op` to `s` in place. Returns false when the op does not apply
/// to this scenario's shape (no holds to drop, wrong scheduler, ...).
bool apply_mutation(Scenario& s, MutationOp op, const Scenario* splice,
                    util::Rng& rng) {
  switch (op) {
    case MutationOp::kPerturbFack:
      // Scripted scenarios derive fack from their slots (normalize); perturb
      // the slots instead.
      if (s.scheduler == SchedulerKind::kScripted) return false;
      s.fack = clamp_time(perturb_time(s.fack, rng), 1, kMaxMutatedFack);
      return true;
    case MutationOp::kPerturbHoldRelease: {
      if (s.holds.empty()) return false;
      auto& h = s.holds[rng.uniform(0, s.holds.size() - 1)];
      h.release =
          clamp_time(perturb_time(h.release, rng), 2, kMaxMutatedRelease);
      return true;
    }
    case MutationOp::kPerturbCrashTime: {
      if (s.crashes.empty()) return false;
      auto& c = s.crashes[rng.uniform(0, s.crashes.size() - 1)];
      c.when = clamp_time(perturb_time(c.when, rng), 1, kMaxMutatedCrashTime);
      return true;
    }
    case MutationOp::kRetimeHold: {
      if (s.holds.empty()) return false;
      auto& h = s.holds[rng.uniform(0, s.holds.size() - 1)];
      h.release = clamp_time(rng.uniform(2, 40 * s.fack + 200), 2,
                             kMaxMutatedRelease);
      return true;
    }
    case MutationOp::kAddHold: {
      if (s.scheduler != SchedulerKind::kHoldback ||
          s.holds.size() >= kMaxMutatedHolds) {
        return false;
      }
      HoldSpec h;
      h.sender = static_cast<NodeId>(rng.uniform(0, s.n - 1));
      h.release = clamp_time(rng.uniform(s.fack + 1, 20 * s.fack + 40), 2,
                             kMaxMutatedRelease);
      s.holds.push_back(h);
      return true;
    }
    case MutationOp::kRemoveHold:
      if (s.holds.empty()) return false;
      s.holds.erase(s.holds.begin() + static_cast<std::ptrdiff_t>(
                                          rng.uniform(0, s.holds.size() - 1)));
      return true;
    case MutationOp::kAddCrash: {
      if (s.crashes.size() >= crash_cap(s)) return false;
      CrashSpec c;
      c.node = static_cast<NodeId>(rng.uniform(0, s.n - 1));
      c.when = clamp_time(rng.uniform(1, 6 * s.fack + 2 * s.n), 1,
                          kMaxMutatedCrashTime);
      s.crashes.push_back(c);
      return true;
    }
    case MutationOp::kRemoveCrash:
      if (s.crashes.empty()) return false;
      s.crashes.erase(s.crashes.begin() +
                      static_cast<std::ptrdiff_t>(
                          rng.uniform(0, s.crashes.size() - 1)));
      return true;
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
      s.scheduler = SchedulerKind::kScripted;
      s.holds.clear();
      s.late_holds = false;
      s.script.clear();
      const std::size_t slots = rng.uniform(1, 4);
      for (std::size_t i = 0; i < slots; ++i) {
        ScriptSlot t;
        t.sender = static_cast<NodeId>(rng.uniform(0, s.n - 1));
        t.index = static_cast<std::uint32_t>(rng.uniform(0, 5));
        t.ack = rng.uniform(1, kMaxScriptAck);
        t.recv = rng.uniform(1, t.ack);
        s.script.push_back(t);
      }
      return true;
    }
    case MutationOp::kRetimeScriptSlot: {
      if (s.script.empty()) return false;
      auto& t = s.script[rng.uniform(0, s.script.size() - 1)];
      t.ack = rng.uniform(1, kMaxScriptAck);
      t.recv = rng.uniform(1, t.ack);
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
      if (s.script.size() <= 1) return false;
      s.script.erase(s.script.begin() +
                     static_cast<std::ptrdiff_t>(
                         rng.uniform(0, s.script.size() - 1)));
      return true;
    case MutationOp::kAddDropWindow: {
      if (!faults_allowed(s) || s.faults.size() >= kMaxFaultWindows ||
          s.n < 2) {
        return false;
      }
      FaultSpec w;
      w.from = static_cast<NodeId>(rng.uniform(0, s.n - 1));
      w.to = static_cast<NodeId>(rng.uniform(0, s.n - 2));
      if (w.to >= w.from) ++w.to;  // distinct endpoints
      w.from_tick = rng.uniform(0, kMaxFaultTick - 1);
      if (permanent_loss_allowed(s) && rng.chance(0.2)) {
        w.until_tick = mac::kForever;  // sever the link for good
      } else {
        w.until_tick = w.from_tick + rng.uniform(1, 64);
      }
      s.faults.push_back(w);
      return true;
    }
    case MutationOp::kRemoveDropWindow:
      if (s.faults.empty()) return false;
      s.faults.erase(s.faults.begin() +
                     static_cast<std::ptrdiff_t>(
                         rng.uniform(0, s.faults.size() - 1)));
      return true;
    case MutationOp::kWidenDropWindow: {
      if (s.faults.empty()) return false;
      auto& w = s.faults[rng.uniform(0, s.faults.size() - 1)];
      const bool can_earlier = w.from_tick > 0;
      const bool can_later = w.until_tick != mac::kForever;
      if (!can_earlier && !can_later) return false;
      if (can_earlier && (!can_later || rng.chance(0.5))) {
        w.from_tick -= rng.uniform(1, std::min<mac::Time>(w.from_tick, 32));
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
      const mac::Time span = w.until_tick - w.from_tick;
      if (span <= 1) return false;
      const mac::Time cut = rng.uniform(1, span - 1);
      if (rng.chance(0.5)) {
        w.from_tick += cut;
      } else {
        w.until_tick -= cut;
      }
      return true;
    }
    case MutationOp::kPerturbFaultRates: {
      const bool drop_ok = permanent_loss_allowed(s);
      const bool dup_ok = duplicates_allowed(s);
      if (!drop_ok && !dup_ok) return false;
      const bool pick_drop = drop_ok && (!dup_ok || rng.chance(0.5));
      std::uint32_t& rate = pick_drop ? s.drop_rate_bp : s.dup_rate_bp;
      switch (rng.uniform(0, 2)) {
        case 0:  // fresh light rate (turns faults on)
          rate = static_cast<std::uint32_t>(rng.uniform(1, 500));
          break;
        case 1:  // intensify
          rate = std::min<std::uint32_t>(
              kMaxFaultRateBp,
              rate + static_cast<std::uint32_t>(rng.uniform(1, 250)));
          break;
        default:  // back toward the fault-free envelope
          rate /= 2;
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
      const mac::Time delay = rng.uniform(1, std::max<mac::Time>(1, t.ack));
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
      // Window-granular crossover (contrast kSpliceTransport, which copies
      // the partner's whole plan along with its transport): slot i of the
      // child takes parent A's or parent B's window i by a fair coin,
      // falling back to whichever parent still has a window there. The
      // global rates recombine the same way, and clamp_to_envelope +
      // normalize keep the child inside the algorithm's bounded-loss
      // envelope (out-of-range links are dropped, not remapped).
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
          rng.uniform(kMinMutatedLogOps, kMaxMutatedLogOps / 2));
      s.log_batch = static_cast<std::uint32_t>(rng.uniform(1, 8));
      s.log_window = static_cast<std::uint32_t>(rng.uniform(1, 4));
      s.log_lease = static_cast<std::uint32_t>(rng.uniform(1, 16));
      return true;
    }
    case MutationOp::kPerturbLogKnobs: {
      if (s.log_ops == 0) return false;
      const auto nudge = [&](std::uint32_t v, std::uint32_t lo,
                             std::uint32_t hi) {
        return static_cast<std::uint32_t>(
            clamp_time(perturb_time(v, rng), lo, hi));
      };
      switch (rng.uniform(0, 3)) {
        case 0:
          s.log_ops = nudge(s.log_ops, kMinMutatedLogOps, kMaxMutatedLogOps);
          break;
        case 1:
          s.log_batch = nudge(s.log_batch, 1, kMaxMutatedLogBatch);
          break;
        case 2:
          s.log_window = nudge(s.log_window, 1, kMaxMutatedLogWindow);
          break;
        default:
          s.log_lease = nudge(s.log_lease, 1, kMaxMutatedLogLease);
          break;
      }
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
  // sequence, so they are scrubbed; link faults are scrubbed by choice (the
  // family runs fault-free, though ReplicatedLog::network() could take a
  // LinkFaultPlan before drive()). Crashes stay — a crash that takes
  // the lease holder is exactly the re-election/recovery coverage this
  // family exists for (the wPAXOS cap below still applies).
  if (s.log_ops > 0) {
    s.algorithm = Algorithm::kWPaxos;
    if (s.scheduler == SchedulerKind::kScripted) {
      s.scheduler = SchedulerKind::kUniformRandom;
      s.script.clear();
    }
    // The contention scheduler's declared fack bound covers ONE instance's
    // broadcast density; a pipelined slot sequence sustains arrivals above
    // the 1-frame-per-tick decode rate, so the receiver backlog — and with
    // it the worst delay — grows with the slot count and would trip the
    // scheduler's bound contract by design. No static bound fits a
    // service-length run; the family runs without that scheduler.
    if (s.scheduler == SchedulerKind::kContention) {
      s.scheduler = SchedulerKind::kUniformRandom;
    }
    s.drop_rate_bp = 0;
    s.dup_rate_bp = 0;
    s.faults.clear();
    s.log_ops = std::clamp<std::uint32_t>(s.log_ops, kMinMutatedLogOps,
                                          kMaxMutatedLogOps);
    s.log_batch = std::clamp<std::uint32_t>(s.log_batch, 1, kMaxMutatedLogBatch);
    s.log_window =
        std::clamp<std::uint32_t>(s.log_window, 1, kMaxMutatedLogWindow);
    s.log_lease = std::clamp<std::uint32_t>(s.log_lease, 1, kMaxMutatedLogLease);
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
  s.fack = clamp_time(s.fack, 1, kMaxMutatedFack);
  if (s.n > kMaxMutatedNodes) s.n = kMaxMutatedNodes;
  for (auto& h : s.holds) h.release = clamp_time(h.release, 1, kMaxMutatedRelease);
  for (auto& c : s.crashes) c.when = clamp_time(c.when, 1, kMaxMutatedCrashTime);
  if (s.script.size() > kMaxScriptSlots) s.script.resize(kMaxScriptSlots);
  for (auto& t : s.script) {
    if (t.index > kMaxScriptIndex) t.index = kMaxScriptIndex;
    t.ack = clamp_time(t.ack, 1, kMaxScriptAck);
    t.recv = clamp_time(t.recv, 1, t.ack);
    for (auto& [receiver, delay] : t.delays) {
      delay = clamp_time(delay, 1, t.ack);
    }
  }
  // Link faults stay inside the row's bounded-loss envelope (see
  // faults_allowed and friends above), and rates/windows inside mutation
  // bounds.
  if (!faults_allowed(s)) {
    s.drop_rate_bp = 0;
    s.dup_rate_bp = 0;
    s.faults.clear();
  }
  if (!permanent_loss_allowed(s)) {
    s.drop_rate_bp = 0;
    for (auto& w : s.faults) {
      if (w.until_tick == mac::kForever) {
        w.until_tick = std::min<mac::Time>(w.from_tick + 64, kMaxFaultTick);
      }
    }
  }
  if (!duplicates_allowed(s)) s.dup_rate_bp = 0;
  s.drop_rate_bp = std::min(s.drop_rate_bp, kMaxFaultRateBp);
  s.dup_rate_bp = std::min(s.dup_rate_bp, kMaxFaultRateBp);
  if (s.faults.size() > kMaxFaultWindows) s.faults.resize(kMaxFaultWindows);
  for (auto& w : s.faults) {
    if (w.from_tick > kMaxFaultTick - 1) w.from_tick = kMaxFaultTick - 1;
    if (w.until_tick != mac::kForever) {
      w.until_tick =
          std::clamp<mac::Time>(w.until_tick, w.from_tick + 1, kMaxFaultTick);
    }
  }
  normalize_scenario(s);
  // Same horizon policy as the generator: liveness runs get room, safety-
  // only runs stop once the interesting prefix has played out.
  s.horizon = termination_expected(s) ? 1'000'000 : 30'000;
}

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
  // Every scenario admits a reseed, so a mutant never degenerates into a
  // verbatim copy of its parent.
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
         read_uint(f[1], c.when);
}

void put_item(std::string& out, const HoldSpec& h) {
  put_uint(out, h.sender);
  out += '@';
  put_uint(out, h.release);
}

[[nodiscard]] bool parse_item(std::string_view v, HoldSpec& h) {
  std::array<std::string_view, 2> f;
  return split(v, '@', f) && read_uint(f[0], h.sender) &&
         read_uint(f[1], h.release);
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
      !read_uint(f[1], t.index) || !read_uint(f[2], t.ack)) {
    return false;
  }
  if (f[3].find('-') == std::string_view::npos) return read_uint(f[3], t.recv);
  t.recv = 1;
  return read_items(f[3], '+', [&t](std::string_view pair) {
    std::array<std::string_view, 2> rd;
    auto& [receiver, delay] = t.delays.emplace_back();
    if (!split(pair, '-', rd) || !read_uint(rd[0], receiver) ||
        !read_uint(rd[1], delay)) {
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
      !read_uint(f[1], w.to) || !read_uint(f[2], w.from_tick)) {
    return false;
  }
  if (f[3] == "inf") {
    w.until_tick = mac::kForever;
    return true;
  }
  return read_uint(f[3], w.until_tick);
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
    number<&Scenario::fack, 1>("fack"),
    number<&Scenario::late_holds, 0, 1>("late"),
    token<&Scenario::inputs, kInputPatternNames>("in"),
    token<&Scenario::ids, kIdAssignmentNames>("ids"),
    number<&Scenario::benor_f>("f"),
    number<&Scenario::horizon, 1>("hz"),
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
    case SchedulerKind::kScripted: {
      auto sched = std::make_unique<mac::ScriptedScheduler>();
      for (const auto& t : s.script) {
        // Out-of-range or malformed slots (hand-edited specs) are dropped
        // or clamped, mirroring normalize_scenario; duplicate
        // (sender, index) slots resolve later-wins, deterministically.
        if (t.sender >= count) continue;
        const mac::Time ack = std::max<mac::Time>(1, t.ack);
        if (t.delays.empty()) {
          const mac::Time recv = std::clamp<mac::Time>(t.recv, 1, ack);
          sched->script_uniform(t.sender, t.index, ack, recv);
        } else {
          std::vector<std::pair<NodeId, mac::Time>> delays;
          delays.reserve(t.delays.size());
          for (const auto& [receiver, delay] : t.delays) {
            if (receiver >= count) continue;
            delays.emplace_back(receiver,
                                std::clamp<mac::Time>(delay, 1, ack));
          }
          sched->script(t.sender, t.index, ack, std::move(delays));
        }
      }
      b.scheduler = std::move(sched);
      break;
    }
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
