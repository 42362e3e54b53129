// Fuzz soak entry point: the CI fuzz lane and the command-line replay tool.
//
//   ./bench_fuzz_soak --count 1000                 # soak seeds [1, 1000]
//   ./bench_fuzz_soak --count 40000 --jobs 4       # sharded parallel soak
//                         (merged digest bit-identical to --jobs 1 when
//                          mutation is off; see fuzzer.hpp "Sharded")
//   ./bench_fuzz_soak --seed-base 5000 --count 200 # a different corpus
//   ./bench_fuzz_soak --count 20000 --mutate 0.35  # coverage-steered soak
//   ./bench_fuzz_soak --count 2000 --fault-rate 0.05 --dup-rate 0.02
//                                                  # unreliable-link floor
//   ./bench_fuzz_soak --count 2000 --large-every 250 --large-n 4096
//                                                  # large-topology family
//   ./bench_fuzz_soak --count 2000 --log-every 40  # replicated-log family
//   ./bench_fuzz_soak --count 100000 --max-seconds 300 --no-shrink
//                                                  # wall-clock-budgeted
//   ./bench_fuzz_soak --replay <spec-or-seed>      # one scenario, verbose
//   ./bench_fuzz_soak ... --corpus-out corpus.txt  # dump mutation corpus
//   ./bench_fuzz_soak ... --corpus-in corpus.txt   # pre-seed it
//
// Exit status: 0 when every scenario upholds its properties; 1 otherwise;
// 2 on a bad command line. Every numeric flag is parsed strictly: "--count abc" is a
// usage error, never a silent zero-scenario soak. On any violation a
// minimal self-contained repro line is printed; paste it back via --replay
// to reproduce the identical run. See fuzz/fuzzer.hpp for the full fuzzing
// HOWTO.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "fuzz/corpus_io.hpp"
#include "fuzz/fuzzer.hpp"
#include "util/parse.hpp"

namespace {

using namespace amac;

struct CliOptions {
  fuzz::SoakOptions soak;
  std::string replay;
  std::string corpus_out;
  std::string corpus_in;
  bool corpus_strict = false;
  std::size_t progress_every = 0;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--count N] [--seed-base S] [--jobs J]\n"
      "          [--differential-every K]\n"
      "          [--mutate RATIO] [--fault-rate RATIO] [--dup-rate RATIO]\n"
      "          [--large-every K] [--large-n N] [--log-every K]\n"
      "          [--differential-max-n N]\n"
      "          [--max-seconds S]\n"
      "          [--corpus-out FILE] [--corpus-in FILE] [--corpus-strict]\n"
      "          [--no-shrink] [--progress-every P]\n"
      "          [--replay SPEC] [--sig-version]\n",
      argv0);
  return 2;
}

void print_report(const fuzz::Scenario& s, const fuzz::RunReport& r) {
  std::printf("scenario  %s\n", fuzz::format_spec(s).c_str());
  std::printf("verdict   %s\n", r.verdict.summary().c_str());
  std::printf("result    failure=%s end_time=%llu broadcasts=%llu "
              "deliveries=%llu acks=%llu mid_flight_crashes=%zu "
              "drops=%llu duplicates=%llu\n",
              fuzz::failure_name(r.failure),
              static_cast<unsigned long long>(r.end_time),
              static_cast<unsigned long long>(r.stats.broadcasts),
              static_cast<unsigned long long>(r.stats.deliveries),
              static_cast<unsigned long long>(r.stats.acks),
              r.mid_flight_crashes,
              static_cast<unsigned long long>(r.stats.drops),
              static_cast<unsigned long long>(r.stats.duplicates));
  std::printf("calendar  wheel=%llu overflow=%llu resizes=%llu batch=%llu "
              "span=%zu\n",
              static_cast<unsigned long long>(r.stats.wheel_pushes),
              static_cast<unsigned long long>(r.stats.overflow_pushes),
              static_cast<unsigned long long>(r.stats.wheel_resizes),
              static_cast<unsigned long long>(r.stats.batch_pushes),
              r.stats.wheel_span);
  std::printf("protocol  rounds=%llu coins=%llu proposals=%llu changes=%llu "
              "learned=%llu quiet_resets=%llu\n",
              static_cast<unsigned long long>(r.protocol.max_round),
              static_cast<unsigned long long>(r.protocol.coin_flips),
              static_cast<unsigned long long>(r.protocol.proposals),
              static_cast<unsigned long long>(r.protocol.change_events),
              static_cast<unsigned long long>(r.protocol.max_learned),
              static_cast<unsigned long long>(r.protocol.quiet_resets));
  if (r.log_service) {
    std::printf("log       recovered=%zu re_elections=%zu lease_broken=%d "
                "kv=0x%016llx\n",
                r.log_slots_recovered, r.log_re_elections,
                r.log_lease_broken ? 1 : 0,
                static_cast<unsigned long long>(r.log_kv_digest));
  }
  const fuzz::CoverageSignature sig = fuzz::coverage_signature(s, r);
  std::printf("coverage  signature=0x%016llx (engine=0x%013llx "
              "protocol=0x%04llx, space v%u)\n",
              static_cast<unsigned long long>(sig.key()),
              static_cast<unsigned long long>(sig.engine_key()),
              static_cast<unsigned long long>(sig.protocol_key()),
              fuzz::kSignatureSpaceVersion);
  std::printf("digest    fingerprint=0x%016llx trace=0x%016llx\n",
              static_cast<unsigned long long>(r.fingerprint),
              static_cast<unsigned long long>(r.trace_digest));
  if (r.differential_ran) {
    std::printf("reference fingerprint=0x%016llx (%s)\n",
                static_cast<unsigned long long>(r.reference_fingerprint),
                r.failure == fuzz::FailureKind::kDifferential ? "MISMATCH"
                                                              : "match");
  }
  if (!r.detail.empty()) std::printf("detail    %s\n", r.detail.c_str());
}

int run_replay(const CliOptions& cli) {
  const auto scenario = fuzz::parse_spec(cli.replay);
  if (!scenario) {
    std::fprintf(stderr, "error: malformed --replay spec: %s\n",
                 cli.replay.c_str());
    return 2;
  }
  fuzz::RunOptions options;
  options.differential = true;  // replays are rare: always cross-check
  const auto report = fuzz::run_scenario(*scenario, options);
  print_report(*scenario, report);

  if (report.failure == fuzz::FailureKind::kNone) return 0;
  const auto shrunk = fuzz::shrink_scenario(*scenario, report.failure);
  std::printf("minimal   %s\n", fuzz::format_spec(shrunk.scenario).c_str());
  return 1;
}

/// Loads a --corpus-in file (fuzz::load_corpus_file): tolerant by default —
/// malformed lines are skipped with a per-line warning and a summary, and
/// only an unreadable file or one whose EVERY spec line is malformed fails
/// the soak (a stale actions/cache frontier restored across a grammar
/// change must not kill the whole nightly). --corpus-strict restores the
/// old all-or-nothing contract.
bool load_corpus(const std::string& path, bool strict,
                 std::vector<fuzz::Scenario>& out) {
  fuzz::CorpusLoadResult res =
      fuzz::load_corpus_file(path, strict, &std::cerr);
  if (!res.ok) {
    std::fprintf(stderr, "error: --corpus-in: %s\n", res.error.c_str());
    return false;
  }
  if (res.skipped > 0) {
    std::fprintf(stderr,
                 "warning: --corpus-in %s: loaded %zu specs, skipped %zu "
                 "malformed line(s)\n",
                 path.c_str(), res.loaded, res.skipped);
  }
  for (auto& s : res.scenarios) out.push_back(std::move(s));
  return true;
}

/// Writes --corpus-out via temp-file + atomic rename (fuzz::
/// write_corpus_file): an interrupted run can never truncate a previously
/// persisted frontier.
bool write_corpus(const std::string& path,
                  const std::vector<fuzz::Scenario>& corpus) {
  std::string error;
  if (!fuzz::write_corpus_file(path, corpus, &error)) {
    std::fprintf(stderr, "error: --corpus-out: %s\n", error.c_str());
    return false;
  }
  return true;
}

void print_coverage_table(const fuzz::SoakResult& result) {
  const auto& cov = result.coverage;
  // The "distinct coverage signatures:", "distinct engine-only
  // signatures:" and "distinct protocol signatures:" lines are
  // machine-parsed by the CI coverage assertions; keep their shapes stable.
  // Each distinct signature was novel in exactly one run.
  std::printf("  distinct coverage signatures: %zu (novel in %zu of %zu "
              "runs, %zu mutated; signature space v%u)\n",
              cov.distinct, cov.distinct, result.runs,
              result.mutated_runs, fuzz::kSignatureSpaceVersion);
  std::printf("  distinct engine-only signatures: %zu\n", cov.engine_distinct);
  std::printf("  distinct protocol signatures: %zu\n", cov.protocol_distinct);
  // Machine-parsed by the CI coverage set-difference assertion (the
  // mutating soak must reach protocol corners pure generation missed);
  // keys are sorted, so the line is deterministic.
  std::printf("  protocol signature keys:");
  for (const std::uint64_t key : result.protocol_keys) {
    std::printf(" %llx", static_cast<unsigned long long>(key));
  }
  std::printf("\n");
  std::printf("  coverage by scheduler:");
  for (std::size_t i = 0; i < fuzz::kSchedulerKindCount; ++i) {
    std::printf(" %s=%zu",
                fuzz::scheduler_name(static_cast<fuzz::SchedulerKind>(i)),
                cov.per_scheduler[i]);
  }
  std::printf("\n");
  std::printf("  coverage by path: overflow=%zu resize=%zu batch=%zu "
              "crashes=%zu holds=%zu protocol=%zu (of %zu signatures)\n",
              cov.overflow_sigs, cov.resize_sigs, cov.batch_sigs,
              cov.crash_sigs, cov.hold_sigs, cov.protocol_sigs,
              cov.distinct);
  // "distinct fault signatures:", "distinct large-topology signatures:"
  // and "distinct log-service signatures:" are machine-parsed by CI
  // coverage assertions; keep their shapes stable.
  std::printf("  distinct fault signatures: %zu\n", cov.fault_sigs);
  std::printf("  distinct large-topology signatures: %zu\n", cov.large_sigs);
  std::printf("  distinct log-service signatures: %zu\n", cov.log_sigs);
  // Machine-parsed by the CI log-family set-difference assertion (the
  // log-promoting soak must reach engine-space keys an instance-only soak
  // cannot); keys are sorted, so the line is deterministic.
  std::printf("  engine signature keys:");
  for (const std::uint64_t key : result.engine_keys) {
    std::printf(" %llx", static_cast<unsigned long long>(key));
  }
  std::printf("\n");
}

int run_soak_cli(const CliOptions& cli) {
  fuzz::SoakOptions options = cli.soak;
  if (!cli.corpus_in.empty() &&
      !load_corpus(cli.corpus_in, cli.corpus_strict,
                   options.initial_corpus)) {
    return 2;
  }
  if (cli.progress_every != 0) {
    options.on_scenario = [&](std::size_t index, const fuzz::Scenario& s,
                              const fuzz::RunReport& r) {
      if ((index + 1) % cli.progress_every == 0) {
        std::printf("  [%zu/%zu] last=%s failure=%s wheel=%llu overflow=%llu "
                    "resizes=%llu\n",
                    index + 1, cli.soak.count,
                    harness::algorithm_name(s.algorithm),
                    fuzz::failure_name(r.failure),
                    static_cast<unsigned long long>(r.stats.wheel_pushes),
                    static_cast<unsigned long long>(r.stats.overflow_pushes),
                    static_cast<unsigned long long>(r.stats.wheel_resizes));
        std::fflush(stdout);
      }
    };
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = fuzz::run_soak(options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // options.count >= 1 is enforced at parse time (--count 0 is a usage
  // error), so the inclusive seed range below cannot underflow.
  std::printf("fuzz soak: %zu scenarios (seeds %llu..%llu), %zu differential "
              "replays, mutate ratio %.2f\n",
              result.runs,
              static_cast<unsigned long long>(options.seed_base),
              static_cast<unsigned long long>(options.seed_base +
                                              options.count - 1),
              result.differential_runs, options.mutate_ratio);
  // Machine-parsed by the CI speedup log ("wall-clock:"); keep the shape.
  std::printf("  wall-clock: %.3fs across %zu job(s)\n", elapsed,
              options.jobs);
  if (options.fault_rate > 0.0 || options.dup_rate > 0.0 ||
      result.faulted_scenarios > 0) {
    std::printf("  link-fault floor: drop %.4f dup %.4f -> %zu faulted "
                "scenarios, %llu dropped / %llu duplicated frames\n",
                options.fault_rate, options.dup_rate,
                result.faulted_scenarios,
                static_cast<unsigned long long>(result.dropped_frames),
                static_cast<unsigned long long>(result.duplicated_frames));
  }
  if (options.large_every != 0) {
    std::printf("  large topologies: %zu scenario(s) promoted to n=%zu "
                "(every %zu)\n",
                result.large_scenarios, options.large_n, options.large_every);
  }
  if (options.log_every != 0 || result.log_scenarios > 0) {
    // log_scenarios counts family MEMBERSHIP (promoted + mutated-in +
    // corpus pre-seeds), so it can be nonzero with --log-every 0.
    std::printf("  log-service scenarios: %zu (every %zu)\n",
                result.log_scenarios, options.log_every);
  }
  if (result.differential_skipped > 0) {
    std::printf("  differential replays skipped (n > %zu): %zu\n",
                options.differential_max_n, result.differential_skipped);
  }
  if (options.max_seconds > 0.0) {
    // Budgeted soaks are wall-clock-bounded, not digest-reproducible; the
    // skip count makes the truncation visible in the log.
    std::printf("  time budget: %.1fs -> %zu run(s) never started\n",
                options.max_seconds, result.budget_skipped);
  }
  for (std::size_t i = 0; i < harness::kAlgorithmCount; ++i) {
    std::printf("  %-10s %zu\n",
                harness::algorithm_name(static_cast<harness::Algorithm>(i)),
                result.per_algorithm[i]);
  }
  std::printf("  crash scenarios: %zu (mid-flight cancellations in %zu)\n",
              result.crash_scenarios, result.mid_flight_crash_scenarios);
  std::printf("  calendar events: %llu wheel / %llu overflow heap "
              "(overflow path in %zu scenarios, wheel resized in %zu)\n",
              static_cast<unsigned long long>(result.wheel_events),
              static_cast<unsigned long long>(result.overflow_events),
              result.overflow_scenarios, result.resized_scenarios);
  print_coverage_table(result);
  std::printf("  corpus digest: 0x%016llx\n",
              static_cast<unsigned long long>(result.corpus_digest));

  // Persist the corpus BEFORE the failure-exit path: violation soaks are
  // exactly the nights whose widened frontier is worth resuming from. A
  // write failure is reported but never masks the violations themselves.
  const bool corpus_written =
      cli.corpus_out.empty() || write_corpus(cli.corpus_out, result.corpus);

  if (!result.ok()) {
    for (const auto& f : result.failures) {
      std::printf("VIOLATION kind=%s\n  spec    %s\n  minimal %s\n  %s\n",
                  fuzz::failure_name(f.report.failure),
                  fuzz::format_spec(f.scenario).c_str(),
                  fuzz::format_spec(f.minimal).c_str(),
                  f.report.detail.c_str());
      std::printf("  replay: ./bench_fuzz_soak --replay '%s'\n",
                  fuzz::format_spec(f.minimal).c_str());
    }
    std::printf("FAIL: %zu violation(s)\n", result.failures.size());
    return 1;
  }
  if (!corpus_written) return 2;
  std::printf("OK: zero property violations\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  bool parse_error = false;
  const auto fail_flag = [&](const std::string& flag, const char* value) {
    std::fprintf(stderr, "error: invalid value for %s: '%s'\n", flag.c_str(),
                 value == nullptr ? "(missing)" : value);
    parse_error = true;
  };
  for (int i = 1; i < argc && !parse_error; ++i) {
    const auto arg = std::string(argv[i]);
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Strict numeric parsing: a flag whose value does not parse IN FULL
    // (or is missing) is a usage error — std::strtoull's silent
    // garbage-to-0 once let "--count abc" soak zero scenarios and exit
    // green.
    const auto take_u64 = [&](std::uint64_t& out) {
      const char* v = next();
      const auto parsed =
          v ? util::parse_u64(v) : std::optional<std::uint64_t>{};
      if (!parsed) {
        fail_flag(arg, v);
        return;
      }
      out = *parsed;
    };
    const auto take_size = [&](std::size_t& out) {
      std::uint64_t v = 0;
      take_u64(v);
      if (!parse_error) out = static_cast<std::size_t>(v);
    };
    if (arg == "--count") {
      take_size(cli.soak.count);
      // A zero-scenario soak is always a command-line mistake (and used to
      // underflow the "seeds S..S+count-1" summary line): exit 2, same as
      // the strict-parse contract for garbage values.
      if (!parse_error && cli.soak.count == 0) fail_flag(arg, "0");
    } else if (arg == "--seed-base") {
      take_u64(cli.soak.seed_base);
    } else if (arg == "--jobs") {
      // Worker threads for the sharded soak. 0 is rejected rather than
      // treated as "auto": an unparsed garbage value must never silently
      // change the parallelism (and with it the mutant streams).
      take_size(cli.soak.jobs);
      if (!parse_error && cli.soak.jobs == 0) fail_flag(arg, "0");
    } else if (arg == "--differential-every") {
      take_size(cli.soak.differential_every);
    } else if (arg == "--differential-max-n") {
      // Size cap for reference replays (0 = unlimited): scenarios larger
      // than this still run and are property-checked on the calendar
      // engine; only the O(n^2)-per-delivery reference A/B is skipped.
      take_size(cli.soak.differential_max_n);
    } else if (arg == "--large-every") {
      // 0 (the default) disables large-topology promotion entirely.
      take_size(cli.soak.large_every);
    } else if (arg == "--large-n") {
      take_size(cli.soak.large_n);
      if (!parse_error && cli.soak.large_n == 0) fail_flag(arg, "0");
    } else if (arg == "--log-every") {
      // 0 (the default) disables log-service promotion entirely; the
      // family can still enter via mutation or a pre-seeded corpus.
      take_size(cli.soak.log_every);
    } else if (arg == "--max-seconds") {
      // Wall-clock budget. Strict like every rate flag, and 0 is rejected:
      // a zero-second budget would skip the whole soak and exit green,
      // which is only ever a typo (omit the flag for an unbounded soak).
      const char* v = next();
      const auto parsed = v ? util::parse_double(v) : std::optional<double>{};
      if (!parsed || *parsed <= 0.0) {
        fail_flag(arg, v);
      } else {
        cli.soak.max_seconds = *parsed;
      }
    } else if (arg == "--no-shrink") {
      cli.soak.shrink_failures = false;
    } else if (arg == "--sig-version") {
      // Machine-readable signature-space version: the nightly lane keys
      // its persisted-corpus cache on this, so a signature-space bump
      // starts a fresh frontier.
      std::printf("%u\n", fuzz::kSignatureSpaceVersion);
      return 0;
    } else if (arg == "--progress-every") {
      take_size(cli.progress_every);
    } else if (arg == "--mutate") {
      const char* v = next();
      const auto parsed = v ? util::parse_double(v) : std::optional<double>{};
      if (!parsed || *parsed < 0.0 || *parsed > 1.0) {
        fail_flag(arg, v);
      } else {
        cli.soak.mutate_ratio = *parsed;
      }
    } else if (arg == "--fault-rate" || arg == "--dup-rate") {
      // Link-fault floors share --mutate's strict contract: a ratio in
      // [0, 1], parsed in full, or exit 2 (a typo'd rate must never soak a
      // silently-reliable network and exit green).
      const char* v = next();
      const auto parsed = v ? util::parse_double(v) : std::optional<double>{};
      if (!parsed || *parsed < 0.0 || *parsed > 1.0) {
        fail_flag(arg, v);
      } else if (arg == "--fault-rate") {
        cli.soak.fault_rate = *parsed;
      } else {
        cli.soak.dup_rate = *parsed;
      }
    } else if (arg == "--corpus-out") {
      const char* v = next();
      if (!v) {
        fail_flag(arg, v);
      } else {
        cli.corpus_out = v;
      }
    } else if (arg == "--corpus-in") {
      const char* v = next();
      if (!v) {
        fail_flag(arg, v);
      } else {
        cli.corpus_in = v;
      }
    } else if (arg == "--corpus-strict") {
      // All-or-nothing --corpus-in parsing (the pre-tolerance behavior):
      // any malformed line fails the load. For hand-maintained corpora
      // where a bad line means the file itself is wrong.
      cli.corpus_strict = true;
    } else if (arg == "--replay") {
      const char* v = next();
      if (!v) {
        fail_flag(arg, v);
      } else {
        cli.replay = v;
      }
    } else {
      std::fprintf(stderr, "error: unknown flag: %s\n", arg.c_str());
      parse_error = true;
    }
  }
  if (parse_error) return usage(argv[0]);
  if (!cli.replay.empty()) return run_replay(cli);
  return run_soak_cli(cli);
}
