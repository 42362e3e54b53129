// Log-service benchmark: the tentpole A/B for consensus-as-a-service.
//
// Two rows, SAME code path (log::ReplicatedLog), different LogConfig:
//   * LogServiceNaive   — batch_size = 1, lease_slots = 1: every client op
//     is its own slot and every slot runs full wPAXOS. This is the "PR 1-8
//     one-shot in a loop" cost model.
//   * LogServiceBatched — batch_size = 8, lease_slots = 64: one decided
//     value commits 8 ops, and 63 of every 64 slots ride the leader lease
//     on the CommitFlood fast path (one dissemination wave instead of a
//     proposer/acceptor exchange — the Lemma 4.2-style amortization).
//
// Both rows apply prefixes of the SAME seed-deterministic client stream,
// so the KvStateMachine digests are directly comparable in --smoke mode
// (equal op count => equal digest, regardless of slotting). Each row also
// runs the per-slot agreement/validity oracle on every decided slot; any
// oracle failure fails the binary.
//
// Output: a console table plus BENCH_log.json (schema amac-bench-v1) whose
// ns_per_op is wall nanoseconds per APPLIED CLIENT OP — the service-level
// unit both rows share — with ops_per_sec, decide-latency p50/p99 (virtual
// ticks), and bytes-per-decided-op as extra keys. CI gates
// LogServiceBatched relative to LogServiceNaive with --min-speedup: the
// lease+batch path must beat one-op-per-slot by a machine-independent
// margin.
//
// A third row, LogServiceLeaderReads, re-runs the batched config with a
// leader read every 2nd decided slot (read-index freshness: each read
// binds to the latest decided slot and serves once the applied prefix
// passes it). Its JSON row carries reads_per_sec and read p50/p99 ticks;
// CI gates it with the same machine-independent --min-speedup floor
// relative to the naive row (and skip-if-absent from the baseline, so the
// new row doesn't force a same-commit baseline refresh).
//
// --smoke runs the configs on a small op count and prints the pinned
// decided-log digest line ctest/CI grep:
//   decided log digest: 0x...
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "log/replicated_log.hpp"
#include "mac/schedulers.hpp"
#include "net/topologies.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace amac;

struct RowResult {
  std::string name;
  std::size_t ops = 0;
  double ns_per_op = 0;
  double ops_per_sec = 0;
  mac::Time p50 = 0;
  mac::Time p99 = 0;
  double bytes_per_op = 0;
  std::uint64_t digest = 0;
  // Leader-read path (rows with LogConfig::read_every > 0 only).
  std::size_t reads = 0;
  double reads_per_sec = 0;
  mac::Time read_p50 = 0;
  mac::Time read_p99 = 0;
  log::LogServiceStats stats;  // latency vectors cleared after folding
};

RowResult run_service(const std::string& name, std::size_t n,
                      std::size_t total_ops, const log::LogConfig& config) {
  const net::Graph graph = net::make_clique(n);
  mac::SynchronousScheduler scheduler(1);
  const log::Workload workload(/*seed=*/0xA11C0DE5, total_ops);
  log::ReplicatedLog service(graph, scheduler, workload, config);

  const auto t0 = std::chrono::steady_clock::now();
  const log::LogServiceStats& stats =
      service.drive(/*horizon=*/mac::Time{1} << 40);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());

  RowResult row;
  row.name = name;
  row.ops = stats.ops_applied;
  row.stats = stats;
  if (stats.ops_applied > 0) {
    row.ns_per_op = wall_ns / static_cast<double>(stats.ops_applied);
    row.ops_per_sec = 1e9 * static_cast<double>(stats.ops_applied) / wall_ns;
  }
  if (!stats.decide_latency.empty()) {
    row.p50 = util::nearest_rank(stats.decide_latency, 0.50);
    row.p99 = util::nearest_rank(stats.decide_latency, 0.99);
  }
  if (stats.ops_applied > 0) {
    row.bytes_per_op = static_cast<double>(stats.payload_bytes) /
                       static_cast<double>(stats.ops_applied);
  }
  row.digest = service.state_machine().digest();
  row.reads = stats.reads_served;
  if (stats.reads_served > 0) {
    row.reads_per_sec = 1e9 * static_cast<double>(stats.reads_served) / wall_ns;
    row.read_p50 = util::nearest_rank(stats.read_latency, 0.50);
    row.read_p99 = util::nearest_rank(stats.read_latency, 0.99);
  }
  row.stats.decide_latency.clear();
  row.stats.read_latency.clear();
  return row;
}

void write_bench_json(const std::vector<RowResult>& rows, const char* path) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"amac-bench-v1\",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowResult& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"ns_per_op\": "
        << r.ns_per_op << ", \"iterations\": " << r.ops
        << ", \"ops_per_sec\": " << r.ops_per_sec
        << ", \"decide_p50_ticks\": " << r.p50
        << ", \"decide_p99_ticks\": " << r.p99
        << ", \"bytes_per_decided_op\": " << r.bytes_per_op;
    if (r.reads > 0) {
      out << ", \"reads\": " << r.reads
          << ", \"reads_per_sec\": " << r.reads_per_sec
          << ", \"read_p50_ticks\": " << r.read_p50
          << ", \"read_p99_ticks\": " << r.read_p99;
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

/// Healthy-run invariants shared by bench and smoke rows. Returns false
/// (after printing why) instead of asserting so the binary exits 1 with a
/// readable line in CI logs.
bool check_row(const RowResult& row, std::size_t expect_ops) {
  if (!row.stats.complete || row.ops != expect_ops) {
    std::printf("FAIL %s: incomplete (applied %zu of %zu, %zu/%zu slots)\n",
                row.name.c_str(), row.ops, expect_ops,
                row.stats.slots_decided, row.stats.slots_total);
    return false;
  }
  if (row.stats.oracle_failures != 0) {
    std::printf("FAIL %s: %zu per-slot oracle failures\n", row.name.c_str(),
                row.stats.oracle_failures);
    return false;
  }
  return true;
}

log::LogConfig batched_config() {
  log::LogConfig config;
  config.batch_size = 8;
  config.window = 4;
  config.lease_slots = 64;
  return config;
}

log::LogConfig naive_config() {
  log::LogConfig config;
  config.batch_size = 1;
  config.window = 4;  // same pipelining depth: the delta is lease + batch
  config.lease_slots = 1;
  return config;
}

log::LogConfig reads_config() {
  // The batched service with a leader read every 2nd decided slot: each
  // read binds to the freshest decided slot (read-index) and serves once
  // the applied prefix passes it.
  log::LogConfig config = batched_config();
  config.read_every = 2;
  return config;
}

/// Read-path invariants for rows with read_every on: every issued read
/// must have been served (a complete run leaves no read behind its bound).
bool check_reads(const RowResult& row) {
  if (row.stats.reads_issued == 0 ||
      row.stats.reads_served != row.stats.reads_issued) {
    std::printf("FAIL %s: %zu of %zu leader reads served\n", row.name.c_str(),
                row.stats.reads_served, row.stats.reads_issued);
    return false;
  }
  return true;
}

int run_smoke(std::size_t n, std::size_t ops) {
  const RowResult batched =
      run_service("LogServiceBatched", n, ops, batched_config());
  const RowResult naive = run_service("LogServiceNaive", n, ops, naive_config());
  const RowResult reads =
      run_service("LogServiceLeaderReads", n, ops, reads_config());
  bool ok = check_row(batched, ops) && check_row(naive, ops) &&
            check_row(reads, ops) && check_reads(reads);
  // Reads are pure observers: the read-enabled service decides the same
  // log as the read-free one.
  if (ok && reads.digest != batched.digest) {
    std::printf("FAIL smoke: reads digest 0x%016llx != batched 0x%016llx\n",
                static_cast<unsigned long long>(reads.digest),
                static_cast<unsigned long long>(batched.digest));
    ok = false;
  }
  // Same client stream, same op count => the decided logs must linearize
  // identically no matter how they were slotted. This is THE service-level
  // correctness statement, so smoke pins it.
  if (ok && batched.digest != naive.digest) {
    std::printf("FAIL smoke: batched digest 0x%016llx != naive 0x%016llx\n",
                static_cast<unsigned long long>(batched.digest),
                static_cast<unsigned long long>(naive.digest));
    ok = false;
  }
  std::printf("log-service smoke: n=%zu ops=%zu slots=%zu+%zu ok=%d\n", n,
              ops, batched.stats.slots_total, naive.stats.slots_total,
              ok ? 1 : 0);
  std::printf("decided log digest: 0x%016llx\n",
              static_cast<unsigned long long>(batched.digest));
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amac;

  std::size_t ops = 100000;
  std::size_t naive_ops = 8192;
  std::size_t n = 16;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> std::optional<std::uint64_t> {
      if (i + 1 >= argc) return std::nullopt;
      return util::parse_u64(argv[++i]);
    };
    std::optional<std::uint64_t> value;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--ops" && (value = next())&& *value > 0) {
      ops = static_cast<std::size_t>(*value);
    } else if (arg == "--naive-ops" && (value = next()) && *value > 0) {
      naive_ops = static_cast<std::size_t>(*value);
    } else if (arg == "--nodes" && (value = next()) && *value >= 2) {
      n = static_cast<std::size_t>(*value);
    } else {
      std::fprintf(stderr,
                   "usage: bench_log_service [--smoke] [--ops N] "
                   "[--naive-ops N] [--nodes N>=2]\n");
      return 2;
    }
  }

  if (smoke) return run_smoke(n, /*ops=*/1024);

  std::printf(
      "Log service A/B: batched+leased (batch=8, lease=64) vs naive\n"
      "one-op-per-slot (batch=1, lease=1), n=%zu clique, synchronous\n"
      "scheduler, window=4, identical client stream.\n\n",
      n);

  // One untimed run of the first row's config: without it the first timed
  // row also pays for cold caches, page faults and heap growth, which made
  // it the noisiest row from one run to the next.
  static_cast<void>(run_service("warm-up", n, ops, batched_config()));

  // The naive row runs a full wPAXOS instance per client op; it gets a
  // smaller op count (ns_per_op normalizes the comparison). The batched
  // row must sustain the full stream.
  std::vector<RowResult> rows;
  rows.push_back(run_service("LogServiceBatched", n, ops, batched_config()));
  rows.push_back(run_service("LogServiceNaive", n, naive_ops, naive_config()));
  rows.push_back(
      run_service("LogServiceLeaderReads", n, ops, reads_config()));

  util::Table table({"service", "client ops", "slots", "full/leased",
                     "ticks", "ns/op", "ops/sec", "p50", "p99", "bytes/op",
                     "reads", "r/sec", "r_p99"});
  for (const RowResult& r : rows) {
    table.row()
        .cell(r.name)
        .cell(static_cast<std::uint64_t>(r.ops))
        .cell(static_cast<std::uint64_t>(r.stats.slots_total))
        .cell(std::to_string(r.stats.slots_full_paxos) + "/" +
              std::to_string(r.stats.slots_leased))
        .cell(static_cast<std::uint64_t>(r.stats.end_time))
        .cell(r.ns_per_op, 1)
        .cell(r.ops_per_sec, 0)
        .cell(static_cast<std::uint64_t>(r.p50))
        .cell(static_cast<std::uint64_t>(r.p99))
        .cell(r.bytes_per_op, 2)
        .cell(static_cast<std::uint64_t>(r.reads))
        .cell(r.reads_per_sec, 0)
        .cell(static_cast<std::uint64_t>(r.read_p99));
  }
  table.print();

  bool ok = check_row(rows[0], ops) && check_row(rows[1], naive_ops) &&
            check_row(rows[2], ops) && check_reads(rows[2]);
  if (ok && rows[0].ns_per_op >= rows[1].ns_per_op) {
    std::printf(
        "\nFAIL: batched service (%0.1f ns/op) did not beat naive "
        "(%0.1f ns/op)\n",
        rows[0].ns_per_op, rows[1].ns_per_op);
    ok = false;
  }

  write_bench_json(rows, "BENCH_log.json");
  std::printf("\n%s. speedup=%.2fx, wrote BENCH_log.json\n",
              ok ? "OK" : "FAILED",
              rows[0].ns_per_op > 0 ? rows[1].ns_per_op / rows[0].ns_per_op
                                    : 0.0);
  return ok ? 0 : 1;
}
