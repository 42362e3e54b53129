// E9: substrate micro-benchmarks (google-benchmark): engine event
// throughput (calendar-queue engine vs the frozen reference-heap engine,
// same binary, same workloads), serde round-trips, graph algorithms,
// wPAXOS end-to-end.
//
// Besides the console table, the binary writes BENCH_engine.json
// (machine-readable: ns/op, rate counters, peak queued events per
// benchmark) so successive PRs have a perf trajectory to regress against.
#include <benchmark/benchmark.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/wpaxos/wpaxos.hpp"
#include "harness/experiment.hpp"
#include "mac/reference_engine.hpp"
#include "net/topologies.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace {

using namespace amac;

/// Minimal traffic generator: broadcasts `rounds` one-byte messages from a
/// reused buffer (the engine's recycled flight slots make the steady-state
/// cycle allocation-free; the process should not spoil that).
class Pinger final : public mac::Process {
 public:
  explicit Pinger(std::size_t rounds) : rounds_(rounds) {}

  void on_start(mac::Context& ctx) override { send(ctx); }
  void on_receive(const mac::Packet&, mac::Context&) override {}
  void on_ack(mac::Context& ctx) override {
    if (sent_ < rounds_) send(ctx);
  }
  std::unique_ptr<mac::Process> clone() const override {
    return std::make_unique<Pinger>(*this);
  }
  void digest(util::Hasher& h) const override { h.mix_u64(sent_); }

 private:
  void send(mac::Context& ctx) {
    ++sent_;
    ctx.broadcast(payload_);
  }
  std::size_t rounds_;
  std::size_t sent_ = 0;
  util::Buffer payload_{1};
};

/// Shared engine workload driver: Net is mac::Network (calendar queue) or
/// mac::ReferenceNetwork (legacy heap baseline).
template <typename Net, typename MakeScheduler>
void run_engine_benchmark_on(benchmark::State& state, const net::Graph& g,
                             const MakeScheduler& make_scheduler,
                             mac::Time max_time, std::size_t rounds = 50) {
  const mac::ProcessFactory factory = [rounds](NodeId) {
    return std::make_unique<Pinger>(rounds);
  };
  std::uint64_t deliveries = 0;
  std::size_t peak_events = 0;
  for (auto _ : state) {
    auto sched = make_scheduler();
    Net net(g, factory, sched);
    net.run(mac::StopWhen::kQuiescent, max_time);
    deliveries = net.stats().deliveries;
    peak_events = net.stats().peak_events;
    benchmark::DoNotOptimize(deliveries);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(deliveries));
  state.counters["peak_events"] =
      benchmark::Counter(static_cast<double>(peak_events));
  state.SetLabel("deliveries/iter=" + std::to_string(deliveries));
}

template <typename Net, typename MakeScheduler>
void run_engine_benchmark(benchmark::State& state,
                          const MakeScheduler& make_scheduler,
                          mac::Time max_time) {
  const auto n = static_cast<std::size_t>(state.range(0));
  run_engine_benchmark_on<Net>(state, net::make_ring(n), make_scheduler,
                               max_time);
}

// Large-n args: the calendar engine runs 1024 AND 4096; the reference
// engine stops at 1024 — its per-delivery pending scan makes a 4096 run
// take minutes, and the /1024 pair already gives CI the machine-independent
// engine-vs-reference speedup gate (tools/check_bench_regression.py
// --min-speedup). 4096 is therefore calendar-only trajectory data.
void BM_EngineSyncRounds(benchmark::State& state) {
  run_engine_benchmark<mac::Network>(
      state, [] { return mac::SynchronousScheduler(1); }, 1000);
}
BENCHMARK(BM_EngineSyncRounds)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RefEngineSyncRounds(benchmark::State& state) {
  run_engine_benchmark<mac::ReferenceNetwork>(
      state, [] { return mac::SynchronousScheduler(1); }, 1000);
}
BENCHMARK(BM_RefEngineSyncRounds)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_EngineRandomScheduler(benchmark::State& state) {
  run_engine_benchmark<mac::Network>(
      state, [] { return mac::UniformRandomScheduler(8, 42); }, 100000);
}
BENCHMARK(BM_EngineRandomScheduler)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RefEngineRandomScheduler(benchmark::State& state) {
  run_engine_benchmark<mac::ReferenceNetwork>(
      state, [] { return mac::UniformRandomScheduler(8, 42); }, 100000);
}
BENCHMARK(BM_RefEngineRandomScheduler)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

/// Receiver-side contention on a dense clique: the scheduler's per-receiver
/// next-free-tick table is hit (max in-degree) times per broadcast, so this
/// isolates the ContentionScheduler state-lookup cost (std::map vs flat
/// vector, see ROADMAP perf trajectory).
void BM_EngineContention(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  run_engine_benchmark_on<mac::Network>(
      state, net::make_clique(n),
      [n] {
        return mac::ContentionScheduler(3, 4 * static_cast<mac::Time>(n) + 16,
                                        1234);
      },
      200000);
}
BENCHMARK(BM_EngineContention)->Arg(16)->Arg(64);

void BM_RefEngineContention(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  run_engine_benchmark_on<mac::ReferenceNetwork>(
      state, net::make_clique(n),
      [n] {
        return mac::ContentionScheduler(3, 4 * static_cast<mac::Time>(n) + 16,
                                        1234);
      },
      200000);
}
BENCHMARK(BM_RefEngineContention)->Arg(16)->Arg(64);

/// Broadcast fan-out on a dense clique under lock-step delays: every
/// broadcast takes the SoA dense fast path (uniform schedule -> bulk
/// receiver copy -> one CalendarQueue::push_run entry), so this
/// isolates the struct-of-arrays delivery fan-out against the reference
/// engine's per-pair walk.
/// Rounds per node for the clique fan-out benches: one clique round is
/// Theta(n^2) deliveries (a 4096-clique sync round is ~16.7M deliveries;
/// its n^2 pending slots take ~65 MB), so the large args trim the per-node
/// round count to keep one iteration in benchmark time. The per-delivery
/// cost is what is measured; items/sec normalizes across the args. The
/// small args keep the historical 50 so their baseline rows stay
/// comparable.
std::size_t fanout_rounds(std::size_t n) {
  return n >= 2048 ? 2 : n >= 1024 ? 8 : 50;
}

void BM_EngineFanout(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  run_engine_benchmark_on<mac::Network>(
      state, net::make_clique(n), [] { return mac::SynchronousScheduler(1); },
      1000, fanout_rounds(n));
}
BENCHMARK(BM_EngineFanout)->Arg(16)->Arg(64)->Arg(1024)->Arg(4096);

void BM_RefEngineFanout(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  run_engine_benchmark_on<mac::ReferenceNetwork>(
      state, net::make_clique(n), [] { return mac::SynchronousScheduler(1); },
      1000, fanout_rounds(n));
}
BENCHMARK(BM_RefEngineFanout)->Arg(16)->Arg(64)->Arg(1024);

/// Late-hold workload (the overflow-heap regime): holds registered AFTER
/// Network construction — the wheel was sized from the tiny pre-hold
/// fack() — and re-armed as they release, so every broadcast of the run
/// lands ~1200 ticks out (the recurring staggered-wake-up adversary).
/// Every such event takes the overflow heap and the rebase migration:
/// this row measures what the adversarial schedules of paper §3.2-3.3 pay
/// for reaching past the ack bound the wheel is sized from.
void BM_EngineLateHolds(benchmark::State& state) {
  const std::size_t n = 32;
  const auto g = net::make_clique(n);
  const mac::ProcessFactory factory = [](NodeId) {
    return std::make_unique<Pinger>(40);
  };
  std::uint64_t deliveries = 0;
  std::uint64_t overflow = 0;
  for (auto _ : state) {
    mac::HoldbackScheduler hold(std::make_unique<mac::SynchronousScheduler>(1),
                                /*release=*/4);
    mac::Network net(g, factory, hold);
    // Rolling holds: whenever a sender's hold has released, re-arm it
    // another ~1200 ticks out (staggered per sender).
    std::vector<mac::Time> release(n, 0);
    for (NodeId u = 0; u < n; ++u) {
      release[u] = 1200 + 8 * static_cast<mac::Time>(u);
      hold.hold_sender_until(u, release[u]);
    }
    net.set_post_event_hook([&](mac::Network& running) {
      const mac::Time t = running.now();
      for (NodeId u = 0; u < n; ++u) {
        if (t >= release[u]) {
          release[u] = t + 1200 + 8 * static_cast<mac::Time>(u);
          hold.hold_sender_until(u, release[u]);
        }
      }
    });
    net.run(mac::StopWhen::kQuiescent, 200000);
    deliveries = net.stats().deliveries;
    overflow = net.stats().overflow_pushes;
    benchmark::DoNotOptimize(deliveries);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(deliveries));
  state.counters["overflow_pushes"] =
      benchmark::Counter(static_cast<double>(overflow));
}
BENCHMARK(BM_EngineLateHolds);

/// Raw calendar-queue push/pop stream where a third of pushes land far
/// beyond the wheel window (held deliveries): every far push pays the
/// overflow heap plus rebase migration.
void BM_WheelLateHolds(benchmark::State& state) {
  for (auto _ : state) {
    mac::CalendarQueue q(4);
    util::Rng rng(1234);
    std::uint64_t seq = 0;
    mac::Time now = 0;
    std::uint64_t popped = 0;
    for (int i = 0; i < 100000; ++i) {
      mac::Event e;
      e.t = now + (rng.chance(1.0 / 3) ? 2000 + rng.uniform(0, 255)
                                       : rng.uniform(1, 8));
      e.kind = mac::EventKind::kDeliver;
      e.seq = seq++;
      q.push(e);
      if ((i & 1) != 0) {
        now = q.next_time();
        q.pop();
        ++popped;
      }
    }
    while (!q.empty()) {
      q.pop();
      ++popped;
    }
    benchmark::DoNotOptimize(popped);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          200000);
}
BENCHMARK(BM_WheelLateHolds);

/// Scheduler-only: one schedule() call per iteration against a dense
/// neighborhood, isolating the per-receiver next-free-tick lookups from
/// engine event traffic.
void BM_ContentionSchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<NodeId> neighbors(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    neighbors[i] = static_cast<NodeId>(i + 1);
  }
  mac::ContentionScheduler sched(3, 4 * static_cast<mac::Time>(n) + 16, 99);
  mac::BroadcastSchedule out;
  mac::Time now = 0;
  for (auto _ : state) {
    sched.schedule(0, now, neighbors, out);
    now += out.ack_delay;  // keep delays within the declared bound
    benchmark::DoNotOptimize(out.receivers.data());
    benchmark::DoNotOptimize(out.delays.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(neighbors.size()));
}
BENCHMARK(BM_ContentionSchedule)->Arg(64)->Arg(256);

void BM_SerdeVarintRoundTrip(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<std::uint64_t> values(1024);
  for (auto& v : values) v = rng();
  for (auto _ : state) {
    util::Writer w;
    for (const auto v : values) w.put_uvarint(v);
    util::Reader r(w.buffer());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < values.size(); ++i) sum += r.get_uvarint();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_SerdeVarintRoundTrip);

void BM_WPaxosEnvelopeRoundTrip(benchmark::State& state) {
  using namespace core::wpaxos;
  Envelope e;
  e.leader = LeaderMsg{123456};
  e.change = ChangeMsg{98765, 123};
  e.search = SearchMsg{777, 12};
  e.proposer = ProposerMsg{ProposerMsg::Kind::kPropose, {42, 999}, 1};
  AcceptorResponse r;
  r.pn = {42, 999};
  r.count = 500;
  r.prev = Proposal{{41, 998}, 0};
  r.dest = 55;
  e.response = r;
  for (auto _ : state) {
    const auto buf = e.encode();
    const auto back = Envelope::decode(buf);
    benchmark::DoNotOptimize(back.response->count);
  }
}
BENCHMARK(BM_WPaxosEnvelopeRoundTrip);

void BM_GraphDiameter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  const auto g = net::make_random_geometric(n, 0.15, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.diameter());
  }
}
BENCHMARK(BM_GraphDiameter)->Arg(64)->Arg(256);

void BM_WPaxosGridEndToEnd(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = net::make_grid(side, side);
  const std::size_t n = g.node_count();
  const auto inputs = harness::inputs_alternating(n);
  const auto ids = harness::identity_ids(n);
  for (auto _ : state) {
    mac::UniformRandomScheduler sched(4, 7);
    const auto outcome = harness::run_consensus(
        g, harness::wpaxos_factory(inputs, ids), sched, inputs, 1000000);
    AMAC_ASSERT(outcome.verdict.ok());
    benchmark::DoNotOptimize(outcome.verdict.last_decision);
  }
}
BENCHMARK(BM_WPaxosGridEndToEnd)->Arg(4)->Arg(8)->Arg(16);

/// Console reporter that also collects every finished run so main() can
/// write the machine-readable BENCH_engine.json next to the console table.
class JsonTeeReporter final : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double ns_per_op = 0;
    std::int64_t iterations = 0;
    std::map<std::string, double> counters;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      row.ns_per_op = run.GetAdjustedRealTime();  // default time unit: ns
      row.iterations = run.iterations;
      for (const auto& [name, counter] : run.counters) {
        row.counters[name] = counter.value;
      }
      rows.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<Row> rows;
};

void write_bench_json(const std::vector<JsonTeeReporter::Row>& rows,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) return;
  out << "{\n  \"schema\": \"amac-bench-v1\",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    out << "    {\"name\": \"" << row.name << "\", \"ns_per_op\": "
        << row.ns_per_op << ", \"iterations\": " << row.iterations;
    for (const auto& [name, value] : row.counters) {
      out << ", \"" << name << "\": " << value;
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  write_bench_json(reporter.rows, "BENCH_engine.json");
  benchmark::Shutdown();
  return 0;
}
