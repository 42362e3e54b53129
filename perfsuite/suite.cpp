// Whole-stack benchmark suite: one workload per process, end-to-end
// metrics untraced, per-layer metrics under --trace 1. README.md documents
// the workloads, metrics and bounds; run.py builds and invokes this binary.
//
//   amac_perfsuite --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//                  [--json FILE]
//
// Every workload is a closed loop driven from one thread. A run derives a
// fixed set of inputs from --seed, runs one untimed warm-up rep, then makes
// passes over the inputs until --seconds have passed (see run_reps). Tick
// and count metrics come from the first pass and repeat exactly for a
// given seed. Every rep's outputs are checked; a failed check makes the
// run incorrect and the exit code nonzero.
//
// Output: one `workload metric value unit` line per metric, then as the
// last line one JSON object {correct, attempted, failed, metrics} holding
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fuzz/corpus_io.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/scenario.hpp"
#include "harness/experiment.hpp"
#include "log/kv_state_machine.hpp"
#include "log/replicated_log.hpp"
#include "log/workload.hpp"
#include "mac/schedulers.hpp"
#include "net/topologies.hpp"
#include "trace.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "verify/checker.hpp"

// ---- heap allocation counter ------------------------------------------------
//
// Replaces the global operator new for this binary. Counting is on only
// inside an AllocScope (traced reps), so untraced runs pay one relaxed load
// per allocation. Every workload allocates from one thread, so the count is
// a plain load and store: no locked instruction on the traced hot path.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.store(g_allocs.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace amac;
using Clock = std::chrono::steady_clock;

constexpr mac::Time kHorizon = mac::Time{1} << 40;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Counts heap allocations made while it is alive.
class AllocScope {
 public:
  AllocScope() : start_(g_allocs.load(std::memory_order_relaxed)) {
    g_count_allocs.store(true, std::memory_order_relaxed);
  }
  ~AllocScope() { g_count_allocs.store(false, std::memory_order_relaxed); }
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;
  [[nodiscard]] std::uint64_t count() const {
    return g_allocs.load(std::memory_order_relaxed) - start_;
  }

 private:
  std::uint64_t start_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile, p in (0, 1].
template <class T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Heap bytes currently allocated (arena chunks plus mmap'd blocks).
std::size_t heap_in_use_bytes() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

// ---- metric registry --------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run (BENCHMARK.json end_to_end). An op is a
/// client op, a fuzz scenario or a consensus instance.
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},
    {"decide_ticks_p50", "tick"},
    {"decide_ticks_p99", "tick"},
};

/// Reported by every traced run (BENCHMARK.json per_layer). A metric of a
/// layer the workload does not time reads 0 there.
constexpr MetricDef kPerLayer[] = {
    {"mac.sched.ns_per_call", "ns"},
    {"mac.engine.ns_per_event", "ns"},
    {"mac.events_per_op", "count"},
    {"mac.deliveries_per_op", "count"},
    {"mac.broadcasts_per_op", "count"},
    {"mac.bytes_per_op", "bytes"},
    {"mac.overflow_share", "ratio"},
    {"mac.peak_events", "count"},
    {"core.wpaxos.ns_per_callback", "ns"},
    {"core.wpaxos.share", "share"},
    {"core.allocs_per_instance", "count"},
    {"log.allocs_per_op", "count"},
    {"log.slots_per_op", "count"},
    {"log.full_paxos_share", "ratio"},
    {"log.slots_recovered", "count"},
    {"log.re_elections", "count"},
    {"log.relaunches", "count"},
    {"log.kv.ns_per_apply", "ns"},
    {"log.kv.ns_per_get", "ns"},
    {"log.drive.ns_per_op_ex_sched", "ns"},
    {"log.heap_kb_per_kslot", "KB"},
    {"verify.slot_oracle_ns_per_slot", "ns"},
    {"verify.prefix_ns_per_slot", "ns"},
    {"verify.consensus_ns_per_instance", "ns"},
    {"fuzz.gen.ns_per_scenario", "ns"},
    {"fuzz.mutate.ns_per_scenario", "ns"},
    {"fuzz.spec_roundtrip.ns_per_scenario", "ns"},
    {"fuzz.build.ns_per_scenario", "ns"},
    {"fuzz.run.ns_per_scenario", "ns"},
    {"fuzz.diff.ns_per_scenario", "ns"},
    {"fuzz.coverage.ns_per_scenario", "ns"},
    {"fuzz.allocs_per_scenario", "count"},
    {"fuzz.instance.ms_mean", "ms"},
    {"fuzz.log.ms_mean", "ms"},
    {"fuzz.diff_share", "share"},
    {"net.graph_build_s", "s"},
    {"decide_ticks_max", "tick"},
    {"read_ticks_p99", "tick"},
    {"scenario_ms_p50", "ms"},
    {"scenario_ms_p99", "ms"},
    {"trace.overhead_share", "share"},
};

const char* unit_of(const std::string& name) {
  for (const MetricDef& d : kEndToEnd) {
    if (name == d.name) return d.unit;
  }
  for (const MetricDef& d : kPerLayer) {
    if (name == d.name) return d.unit;
  }
  return "?";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string json_path;
};

/// One run's outcome: metric values plus the correctness verdict.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void set(const std::string& name, double value) { values_[name] = value; }

  /// Records a failed output check: the run is incorrect.
  void fail(const std::string& why) {
    if (problems_.size() < 20) problems_.push_back(why);
    correct_ = false;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const { return correct_ && attempted > 0; }

  /// Fails the run if a metric is not a finite number (JSON has no NaN).
  void check_finite() {
    for (const auto& [name, value] : values_) {
      if (!std::isfinite(value)) fail("metric " + name + " is not finite");
    }
  }

  /// Prints the check failures (stderr), every metric line, and the final
  /// JSON line; writes the full record to opt.json_path when given.
  void emit(const Options& opt) const {
    for (const std::string& p : problems_) {
      std::fprintf(stderr, "CHECK FAILED %s: %s\n", workload_.c_str(),
                   p.c_str());
    }
    for (const auto& [name, value] : values_) {
      std::printf("%s %s %.9g %s\n", workload_.c_str(), name.c_str(), value,
                  unit_of(name));
    }
    std::string selected;
    const auto json_metric = [](std::string& out, const char* name,
                                double value, const char* unit) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    out.empty() ? "" : ", ", name,
                    std::isfinite(value) ? value : 0.0, unit);
      out += buf;
    };
    const auto value_of = [&](const char* name) {
      const auto it = values_.find(name);
      return it == values_.end() ? 0.0 : it->second;
    };
    if (opt.trace) {
      for (const MetricDef& d : kPerLayer) {
        json_metric(selected, d.name, value_of(d.name), d.unit);
      }
    } else {
      for (const MetricDef& d : kEndToEnd) {
        json_metric(selected, d.name, value_of(d.name), d.unit);
      }
    }
    const std::string head =
        "\"correct\": " + std::string(correct() ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed);
    if (!opt.json_path.empty()) {
      std::string all;
      for (const auto& [name, value] : values_) {
        json_metric(all, name.c_str(), value, unit_of(name));
      }
      std::ofstream out(opt.json_path);
      out << "{\"workload\": \"" << workload_ << "\", \"seed\": " << opt.seed
          << ", \"trace\": " << (opt.trace ? 1 : 0) << ", " << head
          << ", \"metrics\": {" << all << "}}\n";
      if (!out) std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
    }
    std::printf("{%s, \"metrics\": {%s}}\n", head.c_str(), selected.c_str());
    std::fflush(stdout);
  }

 private:
  std::string workload_;
  std::map<std::string, double> values_;
  std::vector<std::string> problems_;
  bool correct_ = true;
};

// ---- the rep loop -------------------------------------------------------------

/// Why a rep runs. Only kTimed reps feed the reported metrics, apart from
/// set-up time. kSetup reps stop after their set-up, which they time.
/// kBaseline reps are untraced runs of inputs 0 and 1, timed to measure the
/// tracing overhead.
enum class Phase { kWarmup, kSetup, kBaseline, kTimed };

struct Rep {
  Phase phase = Phase::kTimed;
  bool traced = false;
  /// Which inputs the rep runs, in [0, inputs): input i of a run is always
  /// the same (derived from --seed and i) and distinct inputs differ. The
  /// warm-up runs input 0, the baselines inputs 0 and 1.
  std::size_t index = 0;
  /// Which pass over the inputs this is. Tick and count metrics come from
  /// pass 0 only, so they repeat exactly.
  std::size_t pass = 0;
};

struct RepTime {
  double setup_s = 0;
  double work_s = 0;  ///< 0 for a kSetup rep
  std::uint64_t ops = 0;     ///< ops attempted
  std::uint64_t failed = 0;  ///< ops that did not complete correctly
};

using RepFn = std::function<RepTime(const Rep&)>;

/// Set-ups per run that setup_s is the median of.
constexpr std::size_t kSetups = 64;

/// Runs one untimed warm-up rep (first-touch costs stay out), kSetups
/// set-up-only reps cycling through the inputs, under --trace two untraced
/// baseline reps each of inputs 0 and 1, then passes over inputs
/// 0..inputs-1, at least two, and no more than fit in `seconds` (judged by
/// the longest pass so far), and reports the end-to-end metrics.
///
/// Throughput takes each input's fastest pass: on a shared machine other
/// tenants only ever slow a rep down, often by several percent for seconds
/// at a time. Set-up time is the median of the set-up-only reps, a fixed
/// number back to back: a set-up right after a rep's work is several times
/// slower and varies far more from run to run, and the number of timed
/// reps depends on the machine's speed. attempted, failed and ok_ratio
/// count pass 0 only, so they repeat exactly for a seed however many
/// passes fit.
void run_reps(const Options& opt, std::size_t inputs, const RepFn& rep,
              Report& report) {
  static_cast<void>(rep({Phase::kWarmup, false, 0, 0}));
  std::vector<double> setups;
  for (std::size_t k = 0; k < kSetups; ++k) {
    setups.push_back(rep({Phase::kSetup, false, k % inputs, 0}).setup_s);
  }
  double baseline_s = 0;  // best untraced time of inputs 0 and 1
  if (opt.trace) {
    for (std::size_t i = 0; i < 2; ++i) {
      baseline_s += std::min(rep({Phase::kBaseline, false, i, 0}).work_s,
                             rep({Phase::kBaseline, false, i, 0}).work_s);
    }
  }
  std::vector<double> best(inputs, 0);
  double pass_s = 0;  // the longest pass so far
  const auto start = Clock::now();
  for (std::size_t pass = 0;
       pass < 2 || seconds_since(start) + pass_s <= opt.seconds; ++pass) {
    const auto pass_start = Clock::now();
    for (std::size_t i = 0; i < inputs; ++i) {
      const RepTime r = rep({Phase::kTimed, opt.trace, i, pass});
      best[i] = pass == 0 ? r.work_s : std::min(best[i], r.work_s);
      if (pass == 0) {
        report.attempted += r.ops;
        report.failed += r.failed;
      }
    }
    pass_s = std::max(pass_s, seconds_since(pass_start));
  }
  double best_s = 0;
  for (const double b : best) best_s += b;
  const auto completed = static_cast<double>(report.attempted - report.failed);
  report.set("ops_per_s", completed / best_s);
  report.set("setup_s", median(setups));
  report.set("ok_ratio", completed / static_cast<double>(report.attempted));
  if (opt.trace) {
    report.set("trace.overhead_share",
               ratio(best[0] + best[1] - baseline_s, baseline_s));
  }
}

void set_engine_metrics(const mac::EngineStats& s, double ops,
                        Report& report) {
  const double events = static_cast<double>(s.wheel_pushes + s.overflow_pushes);
  report.set("mac.events_per_op", events / ops);
  report.set("mac.deliveries_per_op", static_cast<double>(s.deliveries) / ops);
  report.set("mac.broadcasts_per_op", static_cast<double>(s.broadcasts) / ops);
  report.set("mac.bytes_per_op", static_cast<double>(s.payload_bytes) / ops);
  report.set("mac.overflow_share",
             ratio(static_cast<double>(s.overflow_pushes), events));
  report.set("mac.peak_events", static_cast<double>(s.peak_events));
}

void add_engine_stats(const mac::EngineStats& from, mac::EngineStats& into) {
  into.wheel_pushes += from.wheel_pushes;
  into.overflow_pushes += from.overflow_pushes;
  into.deliveries += from.deliveries;
  into.broadcasts += from.broadcasts;
  into.payload_bytes += from.payload_bytes;
  into.peak_events = std::max(into.peak_events, from.peak_events);
}

// ---- log-service workloads ------------------------------------------------------

struct LogSpec {
  bool grid = false;           ///< 4x4 grid, else 16-clique
  bool random_delays = false;  ///< UniformRandomScheduler(4), else sync(1)
  std::size_t batch = 8;
  std::size_t lease = 64;
  std::size_t read_every = 0;
  std::vector<mac::CrashPlan> crashes;
  std::size_t ops = 0;      ///< client ops per rep
  std::size_t inputs = 0;   ///< distinct client streams per pass
};

/// The applied-state oracle: a standalone KvStateMachine fed ops 0..N-1
/// straight from the workload, with no ReplicatedLog in between, plus every
/// key's write history for judging leader reads.
struct KvOracle {
  std::uint64_t digest = 0;
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::size_t, std::uint32_t>>>
      writes;

  explicit KvOracle(const log::Workload& w) {
    log::KvStateMachine kv;
    for (std::size_t i = 0; i < w.size(); ++i) {
      const log::ClientOp op = w.op(i);
      kv.apply(i, op);
      writes[op.key].emplace_back(i, op.value);
    }
    digest = kv.digest();
  }

  /// A read bound to the first `cutoff` ops may return the last value
  /// written before the cutoff, or any value written after it.
  [[nodiscard]] bool read_allowed(const log::ReadRecord& r,
                                  std::size_t cutoff) const {
    const auto it = writes.find(r.key);
    if (it == writes.end()) return r.value == 0;
    const auto& hist = it->second;
    const auto first_after = std::lower_bound(
        hist.begin(), hist.end(), std::make_pair(cutoff, std::uint32_t{0}));
    const std::uint32_t before =
        first_after == hist.begin() ? 0 : std::prev(first_after)->second;
    if (r.value == before) return true;
    return std::any_of(first_after, hist.end(),
                       [&](const auto& w) { return w.second == r.value; });
  }
};

/// Output checks on one finished service run.
void check_log_run(const LogSpec& spec, const KvOracle& oracle,
                   const log::ReplicatedLog& service,
                   const log::LogServiceStats& stats,
                   const std::vector<mac::InstanceId>& slots,
                   const verify::LogPrefixVerdict& prefix, Report& report) {
  if (!stats.complete || stats.ops_applied != spec.ops) {
    report.fail("incomplete: applied " + std::to_string(stats.ops_applied) +
                " of " + std::to_string(spec.ops) + " ops");
  }
  if (stats.oracle_failures != 0) {
    report.fail(std::to_string(stats.oracle_failures) +
                " per-slot oracle failures");
  }
  if (service.state_machine().digest() != oracle.digest) {
    report.fail("KV digest differs from the standalone state machine");
  }
  if (!prefix.consistent || prefix.common_prefix != slots.size()) {
    report.fail("log prefix check failed: " + prefix.detail);
  }
  if (spec.read_every != 0 && stats.reads_issued == 0) {
    report.fail("no leader reads issued");
  }
  if (stats.reads_served != stats.reads_issued) {
    report.fail(std::to_string(stats.reads_issued - stats.reads_served) +
                " leader reads never served");
  }
  for (const log::ReadRecord& r : service.reads()) {
    const std::size_t cutoff = std::min(r.bound * spec.batch, spec.ops);
    if (!r.served || !oracle.read_allowed(r, cutoff)) {
      report.fail("stale leader read of key " + std::to_string(r.key));
      break;
    }
  }
}

void run_log_workload(const LogSpec& spec, const Options& opt,
                      Report& report) {
  // Totals over pass 0: virtual-time and count metrics.
  mac::EngineStats engine;
  std::vector<mac::Time> decide_ticks;
  std::vector<mac::Time> read_ticks;
  std::size_t slots = 0;
  std::size_t full_paxos = 0;
  std::size_t recovered = 0;
  std::size_t re_elections = 0;
  std::size_t relaunches = 0;
  std::uint64_t allocs = 0;
  // Wall-time totals over every traced rep.
  std::uint64_t traced_ops = 0;
  std::uint64_t slots_checked = 0;
  perfsuite::BoundaryTotals sched;
  double drive_ex_sched_ns = 0;
  double oracle_ns = 0;
  double prefix_ns = 0;
  double kv_apply_ns = 0;
  double kv_get_ns = 0;
  std::vector<double> graph_s;
  std::vector<double> heap_kb_per_kslot;

  const RepFn rep = [&](const Rep& r) -> RepTime {
    const log::Workload workload(util::hash_combine(opt.seed, r.index),
                                 spec.ops);
    std::optional<KvOracle> oracle;
    if (r.phase != Phase::kSetup) oracle.emplace(workload);
    RepTime t;
    const std::size_t heap0 = heap_in_use_bytes();
    const auto t0 = Clock::now();
    const net::Graph graph =
        spec.grid ? net::make_grid(4, 4) : net::make_clique(16);
    const double graph_build_s = seconds_since(t0);
    std::unique_ptr<mac::Scheduler> base;
    if (spec.random_delays) {
      base = std::make_unique<mac::UniformRandomScheduler>(
          4, util::hash_combine(workload.seed(), 0x5c4ed));
    } else {
      base = std::make_unique<mac::SynchronousScheduler>(1);
    }
    perfsuite::TracedScheduler traced_sched(*base);
    log::LogConfig config;
    config.batch_size = spec.batch;
    config.window = 4;
    config.lease_slots = spec.lease;
    config.read_every = spec.read_every;
    config.crashes = spec.crashes;
    log::ReplicatedLog service(graph, r.traced ? traced_sched : *base,
                               workload, config);
    t.setup_s = seconds_since(t0);
    if (r.phase == Phase::kSetup) return t;

    perfsuite::Tracer& tr = perfsuite::Tracer::global();
    tr.reset();
    std::optional<AllocScope> alloc_scope;
    if (r.traced) alloc_scope.emplace();
    const auto t1 = Clock::now();
    const log::LogServiceStats* stats = nullptr;
    {
      std::optional<perfsuite::Span> span;
      if (r.traced) span.emplace(perfsuite::kDrive);
      stats = &service.drive(kHorizon);
    }
    t.work_s = seconds_since(t1);
    const std::uint64_t rep_allocs = r.traced ? alloc_scope->count() : 0;
    alloc_scope.reset();
    const std::size_t heap1 = heap_in_use_bytes();
    t.ops = spec.ops;
    t.failed = spec.ops - std::min(spec.ops, stats->ops_applied);

    std::vector<mac::InstanceId> instances(stats->slots_total);
    for (std::size_t s = 0; s < instances.size(); ++s) {
      instances[s] = service.slot_instance(s);
    }
    const auto tp = Clock::now();
    const verify::LogPrefixVerdict prefix =
        verify::check_log_prefix(service.network(), instances);
    const double rep_prefix_ns = seconds_since(tp) * 1e9;
    check_log_run(spec, *oracle, service, *stats, instances, prefix, report);
    if (r.phase != Phase::kTimed) return t;

    graph_s.push_back(graph_build_s);
    // What the finished service holds: retired slot instances stay
    // readable until it is destroyed.
    heap_kb_per_kslot.push_back(
        static_cast<double>(heap1 > heap0 ? heap1 - heap0 : 0) / 1024.0 /
        (static_cast<double>(stats->slots_total) / 1000.0));
    if (r.pass == 0) {
      add_engine_stats(service.network().stats(), engine);
      decide_ticks.insert(decide_ticks.end(), stats->decide_latency.begin(),
                          stats->decide_latency.end());
      read_ticks.insert(read_ticks.end(), stats->read_latency.begin(),
                        stats->read_latency.end());
      slots += stats->slots_total;
      full_paxos += stats->slots_full_paxos;
      recovered += stats->slots_recovered;
      re_elections += stats->re_elections;
      relaunches += stats->relaunches;
      allocs += rep_allocs;
    }
    if (!r.traced) return t;

    traced_ops += spec.ops;
    sched.count += tr[perfsuite::kSched].count;
    sched.self_ns += tr[perfsuite::kSched].self_ns;
    drive_ex_sched_ns += static_cast<double>(tr[perfsuite::kDrive].total_ns -
                                             tr[perfsuite::kSched].self_ns);
    prefix_ns += rep_prefix_ns;
    // Re-judge every slot with the per-instance oracle ReplicatedLog runs.
    auto tw = Clock::now();
    std::vector<mac::Value> inputs(graph.node_count());
    for (std::size_t s = 0; s < instances.size(); ++s) {
      for (std::size_t u = 0; u < inputs.size(); ++u) {
        inputs[u] = s % spec.lease == 0
                        ? log::ReplicatedLog::encode_renewal(
                              s, static_cast<NodeId>(u))
                        : static_cast<mac::Value>(s);
      }
      if (!verify::check_consensus(service.network(), instances[s], inputs)
               .ok()) {
        report.fail("slot " + std::to_string(s) + " fails the oracle re-check");
      }
    }
    oracle_ns += seconds_since(tw) * 1e9;
    slots_checked += instances.size();
    // The state machine alone: the rep's ops into a fresh replica, then
    // every op's key read back.
    log::KvStateMachine kv;
    tw = Clock::now();
    for (std::size_t i = 0; i < spec.ops; ++i) kv.apply(i, workload.op(i));
    kv_apply_ns += seconds_since(tw) * 1e9;
    std::uint64_t sink = 0;
    tw = Clock::now();
    for (std::size_t i = 0; i < spec.ops; ++i) sink += kv.get(workload.op(i).key);
    kv_get_ns += seconds_since(tw) * 1e9;
    if (kv.digest() != oracle->digest || sink == 0) {
      report.fail("KV replay differs from the oracle");
    }
    return t;
  };

  run_reps(opt, spec.inputs, rep, report);
  const double counted_ops = static_cast<double>(spec.ops * spec.inputs);
  const double counted = static_cast<double>(spec.inputs);
  set_engine_metrics(engine, counted_ops, report);
  report.set("log.slots_per_op", static_cast<double>(slots) / counted_ops);
  report.set("log.full_paxos_share", static_cast<double>(full_paxos) /
                                         static_cast<double>(slots));
  report.set("log.slots_recovered", static_cast<double>(recovered) / counted);
  report.set("log.re_elections", static_cast<double>(re_elections) / counted);
  report.set("log.relaunches", static_cast<double>(relaunches) / counted);
  report.set("decide_ticks_p50", percentile(decide_ticks, 0.50));
  report.set("decide_ticks_p99", percentile(decide_ticks, 0.99));
  report.set("decide_ticks_max", percentile(decide_ticks, 1.0));
  if (spec.read_every != 0) {
    report.set("read_ticks_p99", percentile(read_ticks, 0.99));
  }
  report.set("net.graph_build_s", median(graph_s));
  report.set("log.heap_kb_per_kslot", median(heap_kb_per_kslot));
  if (!opt.trace) return;

  const double ops = static_cast<double>(traced_ops);
  const double checked = static_cast<double>(slots_checked);
  report.set("log.allocs_per_op", static_cast<double>(allocs) / counted_ops);
  report.set("mac.sched.ns_per_call",
             ratio(static_cast<double>(sched.self_ns),
                   static_cast<double>(sched.count)));
  report.set("log.drive.ns_per_op_ex_sched", drive_ex_sched_ns / ops);
  report.set("log.kv.ns_per_apply", kv_apply_ns / ops);
  report.set("log.kv.ns_per_get", kv_get_ns / ops);
  report.set("verify.slot_oracle_ns_per_slot", oracle_ns / checked);
  report.set("verify.prefix_ns_per_slot", prefix_ns / checked);
}

// ---- fuzz soak ------------------------------------------------------------------

/// A violation is the fuzzer's correct output when its one-line spec
/// replays to the same failure: the check a developer makes with --replay.
bool violation_reproduces(const fuzz::SoakFailure& f) {
  const std::optional<fuzz::Scenario> s =
      fuzz::parse_spec(fuzz::format_spec(f.scenario));
  if (!s.has_value()) return false;
  fuzz::RunOptions options;
  options.differential = f.report.differential_ran;
  return fuzz::run_scenario(*s, options).failure == f.report.failure;
}

/// Replays one soak's scenarios through each fuzzer stage on its own.
void time_fuzz_stages(std::uint64_t seed_base, std::size_t count,
                      const std::vector<fuzz::Scenario>& ran,
                      const std::vector<fuzz::RunReport>& reports,
                      std::uint64_t seed, Report& report) {
  const auto stage = [&](const char* name, std::size_t n,
                         const std::function<void()>& body) {
    const auto t0 = Clock::now();
    body();
    report.set(name, ratio(seconds_since(t0) * 1e9, static_cast<double>(n)));
  };
  std::uint64_t sink = 0;
  stage("fuzz.gen.ns_per_scenario", count, [&] {
    for (std::size_t i = 0; i < count; ++i) {
      sink += fuzz::generate_scenario(seed_base + i).n;
    }
  });
  util::Rng rng(util::hash_combine(seed, 0x6d7574));
  stage("fuzz.mutate.ns_per_scenario", ran.size(), [&] {
    for (std::size_t i = 0; i < ran.size(); ++i) {
      const fuzz::Scenario& partner = ran[(i * 7 + 3) % ran.size()];
      sink += fuzz::mutate_scenario(ran[i], &partner, rng).n;
    }
  });
  std::size_t roundtrip_bad = 0;
  stage("fuzz.spec_roundtrip.ns_per_scenario", ran.size(), [&] {
    for (const fuzz::Scenario& s : ran) {
      const std::string spec = fuzz::format_spec(s);
      const std::optional<fuzz::Scenario> back = fuzz::parse_spec(spec);
      if (!back.has_value() || fuzz::format_spec(*back) != spec) {
        ++roundtrip_bad;
      }
    }
  });
  if (roundtrip_bad != 0) {
    report.fail(std::to_string(roundtrip_bad) + " specs fail to round-trip");
  }
  stage("fuzz.build.ns_per_scenario", ran.size(), [&] {
    for (const fuzz::Scenario& s : ran) {
      sink += fuzz::build_scenario(s).graph.node_count();
    }
  });
  std::size_t replay_mismatches = 0;
  stage("fuzz.run.ns_per_scenario", ran.size(), [&] {
    for (std::size_t i = 0; i < ran.size(); ++i) {
      const fuzz::RunReport r = fuzz::run_scenario(ran[i]);
      replay_mismatches += r.fingerprint != reports[i].fingerprint ? 1 : 0;
    }
  });
  if (replay_mismatches != 0) {
    report.fail(std::to_string(replay_mismatches) +
                " scenarios replay to a different fingerprint");
  }
  std::vector<std::size_t> diffed;
  for (std::size_t i = 0; i < ran.size(); ++i) {
    if (reports[i].differential_ran) diffed.push_back(i);
  }
  std::size_t diff_failures = 0;
  stage("fuzz.diff.ns_per_scenario", diffed.size(), [&] {
    fuzz::RunOptions with_diff;
    with_diff.differential = true;
    for (const std::size_t i : diffed) {
      diff_failures += fuzz::run_scenario(ran[i], with_diff).failure ==
                               fuzz::FailureKind::kDifferential
                           ? 1
                           : 0;
    }
  });
  if (diff_failures != 0) {
    report.fail(std::to_string(diff_failures) + " differential mismatches");
  }
  stage("fuzz.coverage.ns_per_scenario", ran.size(), [&] {
    fuzz::CoverageCorpus corpus;
    for (std::size_t i = 0; i < ran.size(); ++i) {
      sink += corpus.observe(fuzz::coverage_signature(ran[i], reports[i]));
    }
  });
  if (sink == 0) report.fail("fuzz stage replays did no work");
}

/// A resumed mutating soak, as the nightly lane runs it: each rep loads a
/// persisted coverage frontier (spec lines) as its mutation corpus, then
/// soaks its own seed range. The frontier is one fixed corpus for every
/// --seed: mutants crowd around its entries, so a seed-dependent frontier
/// would make the whole run's cost hinge on a single draw.
void run_fuzz_soak(const Options& opt, Report& report) {
  constexpr std::size_t kScenarios = 1500;  // per rep
  // Mutants cluster around costly corpus entries, so the cost of a seed
  // range varies ~6% between ranges of 12k scenarios; 24k per pass keeps
  // the run's throughput within a few percent across seeds, and two
  // passes within a 10-second run.
  constexpr std::size_t kInputs = 16;
  fuzz::SoakOptions soak;
  soak.jobs = 1;
  soak.count = kScenarios;
  soak.differential_every = 7;
  soak.shrink_failures = false;
  soak.mutate_ratio = 0.5;
  soak.fault_rate = 0.05;
  soak.log_every = 16;
  const std::uint64_t seed_base = (opt.seed + 1) * 10'000'000;

  // The frontier: the corpus a soak of seeds 1..1000 leaves behind.
  std::string frontier;
  {
    fuzz::SoakOptions earlier = soak;
    earlier.seed_base = 1;
    earlier.count = 1000;
    for (const fuzz::Scenario& s : fuzz::run_soak(earlier).corpus) {
      frontier += fuzz::format_spec(s) + "\n";
    }
  }

  struct Sample {
    double ms = 0;
    mac::Time end = 0;  ///< the scenario's end tick
    bool log = false;
    bool diff = false;
  };
  std::vector<Sample> samples;  // pass 0
  std::vector<fuzz::SoakFailure> violations;
  mac::EngineStats engine;
  std::uint64_t allocs = 0;
  std::vector<fuzz::Scenario> ran;      // traced rep 0
  std::vector<fuzz::RunReport> reports;
  std::optional<std::uint64_t> rep0_digest;

  const RepFn rep = [&](const Rep& r) -> RepTime {
    RepTime t;
    const auto t0 = Clock::now();
    fuzz::SoakOptions options = soak;
    options.seed_base = seed_base + r.index * kScenarios;
    std::istringstream frontier_in(frontier);
    fuzz::CorpusLoadResult loaded =
        fuzz::load_corpus_stream(frontier_in, "frontier", true, nullptr);
    options.initial_corpus = std::move(loaded.scenarios);
    const bool keep = r.traced && r.index == 0 && r.pass == 0;
    std::vector<Sample> rep_samples;
    rep_samples.reserve(kScenarios);
    if (keep) {  // reserved before counting starts
      ran.reserve(kScenarios);
      reports.reserve(kScenarios);
    }
    mac::EngineStats sums;
    Clock::time_point prev;
    options.on_scenario = [&](std::size_t, const fuzz::Scenario& s,
                              const fuzz::RunReport& run) {
      const auto now = Clock::now();
      rep_samples.push_back(
          {std::chrono::duration<double, std::milli>(now - prev).count(),
           run.end_time, s.log_ops > 0, run.differential_ran});
      prev = now;
      add_engine_stats(run.stats, sums);
      if (keep) {
        ran.push_back(s);
        reports.push_back(run);
      }
    };
    t.setup_s = seconds_since(t0);
    if (!loaded.ok || options.initial_corpus.empty()) {
      report.fail("frontier corpus failed to load: " + loaded.error);
    }
    if (r.phase == Phase::kSetup) return t;

    std::optional<AllocScope> alloc_scope;
    if (r.traced) alloc_scope.emplace();
    prev = Clock::now();
    const auto t1 = prev;
    const fuzz::SoakResult result = fuzz::run_soak(options);
    t.work_s = seconds_since(t1);
    const std::uint64_t rep_allocs = r.traced ? alloc_scope->count() : 0;
    alloc_scope.reset();

    t.ops = kScenarios;
    if (result.runs != kScenarios) {
      report.fail("soak ran " + std::to_string(result.runs) + " of " +
                  std::to_string(kScenarios) + " scenarios");
    }
    if (r.index == 0) {  // every rep of input 0 must give one digest
      if (rep0_digest.has_value() && *rep0_digest != result.corpus_digest) {
        report.fail("the same soak twice gives two corpus digests");
      }
      rep0_digest = result.corpus_digest;
    }
    for (const fuzz::SoakFailure& f : result.failures) {
      if (!violation_reproduces(f)) ++t.failed;
    }
    if (r.phase != Phase::kTimed || r.pass != 0) return t;
    samples.insert(samples.end(), rep_samples.begin(), rep_samples.end());
    violations.insert(violations.end(), result.failures.begin(),
                      result.failures.end());
    add_engine_stats(sums, engine);
    allocs += rep_allocs;
    return t;
  };

  run_reps(opt, kInputs, rep, report);
  for (const fuzz::SoakFailure& f : violations) {
    std::printf("VIOLATION kind=%s replay: %s\n",
                fuzz::failure_name(f.report.failure),
                fuzz::format_spec(f.scenario).c_str());
  }
  const double counted = static_cast<double>(kScenarios * kInputs);
  set_engine_metrics(engine, counted, report);
  report.set("ok_ratio",
             1.0 - static_cast<double>(violations.size()) / counted);
  std::vector<double> all_ms;
  std::vector<mac::Time> end_ticks;
  double log_ms = 0;
  double instance_ms = 0;
  double diff_ms = 0;
  std::size_t log_count = 0;
  for (const Sample& s : samples) {
    all_ms.push_back(s.ms);
    // A log= scenario's end tick is when a whole client stream drained,
    // not one decision.
    if (!s.log) end_ticks.push_back(s.end);
    (s.log ? log_ms : instance_ms) += s.ms;
    log_count += s.log ? 1 : 0;
    diff_ms += s.diff ? s.ms : 0;
  }
  report.set("decide_ticks_p50", percentile(end_ticks, 0.50));
  report.set("decide_ticks_p99", percentile(end_ticks, 0.99));
  report.set("scenario_ms_p50", percentile(all_ms, 0.50));
  report.set("scenario_ms_p99", percentile(all_ms, 0.99));
  report.set("fuzz.log.ms_mean", ratio(log_ms, static_cast<double>(log_count)));
  report.set("fuzz.instance.ms_mean",
             ratio(instance_ms, static_cast<double>(samples.size() - log_count)));
  report.set("fuzz.diff_share", ratio(diff_ms, log_ms + instance_ms));
  if (!opt.trace) return;

  report.set("fuzz.allocs_per_scenario", static_cast<double>(allocs) / counted);
  time_fuzz_stages(seed_base, kScenarios, ran, reports, opt.seed,
                   report);
}

// ---- one-shot wPAXOS on a grid ------------------------------------------------------

void run_wpaxos_grid(const Options& opt, Report& report) {
  constexpr std::size_t kSide = 16;
  constexpr std::size_t kInputs = 64;
  constexpr mac::Time kMaxTime = mac::Time{1} << 32;

  std::vector<double> decide_ticks;  // pass 0, every node of every instance
  std::vector<double> graph_s;
  mac::EngineStats engine;
  std::uint64_t allocs = 0;
  std::uint64_t traced_events = 0;
  std::uint64_t traced_instances = 0;
  double verify_ns = 0;
  double engine_ns = 0;
  double run_ns = 0;
  perfsuite::BoundaryTotals sched;
  perfsuite::BoundaryTotals callback;

  // Rep i runs instance i: its own random inputs, permuted ids (the
  // eventual leader lands anywhere on the grid) and scheduler seed.
  const RepFn rep = [&](const Rep& r) -> RepTime {
    RepTime t;
    const auto t0 = Clock::now();
    const net::Graph graph = net::make_grid(kSide, kSide);
    const double graph_build_s = seconds_since(t0);
    util::Rng rng(util::hash_combine(opt.seed, r.index));
    const std::vector<mac::Value> inputs =
        harness::inputs_random(kSide * kSide, rng);
    std::vector<std::uint64_t> ids = harness::permuted_ids(kSide * kSide, rng);
    mac::UniformRandomScheduler base(4, rng());
    const mac::ProcessFactory factory =
        harness::wpaxos_factory(inputs, std::move(ids));
    t.setup_s = seconds_since(t0);
    if (r.phase == Phase::kSetup) return t;

    // harness::run_consensus, spelled out so that a traced rep can wrap the
    // scheduler and the processes and time the run and the oracle apart.
    perfsuite::Tracer& tr = perfsuite::Tracer::global();
    tr.reset();
    perfsuite::TracedScheduler traced_sched(base);
    const mac::ProcessFactory traced_procs = perfsuite::traced_factory(factory);
    std::uint64_t events = 0;
    std::optional<AllocScope> alloc_scope;
    if (r.traced) alloc_scope.emplace();
    const auto t1 = Clock::now();
    mac::Network net(graph, r.traced ? traced_procs : factory,
                     r.traced ? static_cast<mac::Scheduler&>(traced_sched)
                              : static_cast<mac::Scheduler&>(base));
    if (r.traced) net.set_post_event_hook([&](mac::Network&) { ++events; });
    {
      std::optional<perfsuite::Span> span;
      if (r.traced) span.emplace(perfsuite::kRun);
      static_cast<void>(net.run(mac::StopWhen::kAllDecided, kMaxTime));
    }
    const auto tv = Clock::now();
    const verify::ConsensusVerdict verdict = verify::check_consensus(net, inputs);
    const double rep_verify_ns = seconds_since(tv) * 1e9;
    t.work_s = seconds_since(t1);
    const std::uint64_t rep_allocs = r.traced ? alloc_scope->count() : 0;
    alloc_scope.reset();
    t.ops = 1;
    if (!verdict.ok()) {
      report.fail("instance " + std::to_string(r.index) + ": " +
                  verdict.summary());
      t.failed = 1;
    }
    if (r.phase != Phase::kTimed) return t;
    graph_s.push_back(graph_build_s);
    if (r.pass == 0) {
      for (NodeId u = 0; u < graph.node_count(); ++u) {
        decide_ticks.push_back(static_cast<double>(net.decision(u).time));
      }
      add_engine_stats(net.stats(), engine);
      allocs += rep_allocs;
    }
    if (r.traced) {
      traced_events += events;
      verify_ns += rep_verify_ns;
      ++traced_instances;
      sched.count += tr[perfsuite::kSched].count;
      sched.self_ns += tr[perfsuite::kSched].self_ns;
      callback.count += tr[perfsuite::kCallback].count;
      callback.self_ns += tr[perfsuite::kCallback].self_ns;
      engine_ns += static_cast<double>(tr[perfsuite::kRun].self_ns +
                                       tr[perfsuite::kFanout].self_ns);
      run_ns += static_cast<double>(tr[perfsuite::kRun].total_ns);
    }
    return t;
  };

  run_reps(opt, kInputs, rep, report);
  report.set("net.graph_build_s", median(graph_s));
  set_engine_metrics(engine, static_cast<double>(kInputs), report);
  report.set("decide_ticks_p50", percentile(decide_ticks, 0.50));
  report.set("decide_ticks_p99", percentile(decide_ticks, 0.99));
  if (!opt.trace) return;

  const double instances = static_cast<double>(traced_instances);
  report.set("mac.sched.ns_per_call",
             ratio(static_cast<double>(sched.self_ns),
                   static_cast<double>(sched.count)));
  report.set("mac.engine.ns_per_event",
             ratio(engine_ns, static_cast<double>(traced_events)));
  report.set("core.wpaxos.ns_per_callback",
             ratio(static_cast<double>(callback.self_ns),
                   static_cast<double>(callback.count)));
  report.set("core.wpaxos.share",
             ratio(static_cast<double>(callback.self_ns), run_ns));
  report.set("core.allocs_per_instance",
             static_cast<double>(allocs) / static_cast<double>(kInputs));
  report.set("verify.consensus_ns_per_instance", verify_ns / instances);
}

// ---- main -------------------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  std::function<void(const Options&, Report&)> run;
};

std::vector<WorkloadDef> workloads() {
  LogSpec lease_rw;  // 16-clique, sync, batch 8, lease 64
  lease_rw.read_every = 2;
  lease_rw.ops = 200000;
  lease_rw.inputs = 3;

  LogSpec paxos;  // every slot is a full wPAXOS instance on a multihop grid
  paxos.grid = true;
  paxos.batch = 1;
  paxos.lease = 1;
  paxos.ops = 1000;
  paxos.inputs = 3;

  LogSpec failover;  // node 15 holds the first lease
  failover.grid = true;
  failover.random_delays = true;
  failover.crashes = {{15, 2000}, {14, 6000}};
  failover.ops = 200000;
  failover.inputs = 8;

  const auto log_run = [](const LogSpec& spec) {
    return [spec](const Options& o, Report& r) { run_log_workload(spec, o, r); };
  };
  return {
      {"log_lease_rw", log_run(lease_rw)},
      {"log_paxos", log_run(paxos)},
      {"log_failover", log_run(failover)},
      {"fuzz_soak", run_fuzz_soak},
      {"wpaxos_grid", run_wpaxos_grid},
  };
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: amac_perfsuite --workload NAME [--seed S] "
               "[--seconds T] [--trace 0|1] [--json FILE]\nworkloads:",
               why);
  for (const WorkloadDef& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing flag value");
    const std::string_view value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      const auto v = util::parse_u64(value);
      if (!v.has_value() || *v > (std::uint64_t{1} << 32)) usage("bad --seed");
      opt.seed = *v;
    } else if (arg == "--seconds") {
      const auto v = util::parse_double(value);
      if (!v.has_value() || !(*v > 0) || *v > 600) usage("bad --seconds");
      opt.seconds = *v;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      opt.trace = value == "1";
    } else if (arg == "--json") {
      opt.json_path = value;
    } else {
      usage("unknown flag");
    }
  }
  for (const WorkloadDef& w : workloads()) {
    if (opt.workload != w.name) continue;
    Report report(w.name);
    w.run(opt, report);
    report.set("peak_rss_mb", peak_rss_mb());
    report.check_finite();
    report.emit(opt);
    return report.correct() ? 0 : 1;
  }
  usage("unknown workload");
}
