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
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <type_traits>

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
  std::printf("calendar  wheel=%llu overflow=%llu batch=%llu\n",
              static_cast<unsigned long long>(r.stats.wheel_pushes),
              static_cast<unsigned long long>(r.stats.overflow_pushes),
              static_cast<unsigned long long>(r.stats.batch_pushes));
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
  std::printf("  coverage by path: overflow=%zu batch=%zu "
              "crashes=%zu holds=%zu protocol=%zu (of %zu signatures)\n",
              cov.overflow_sigs, cov.batch_sigs,
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
        std::printf("  [%zu/%zu] last=%s failure=%s wheel=%llu overflow=%llu\n",
                    index + 1, cli.soak.count,
                    harness::algorithm_name(s.algorithm),
                    fuzz::failure_name(r.failure),
                    static_cast<unsigned long long>(r.stats.wheel_pushes),
                    static_cast<unsigned long long>(r.stats.overflow_pushes));
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
    // corpus pre-seeds), so it can be nonzero with --log-every 0. The
    // family never replays on the reference engine, and those runs are not
    // counted as differential skips.
    std::printf("  log-service scenarios: %zu (every %zu; never replayed "
                "differentially)\n",
                result.log_scenarios, options.log_every);
  }
  if (result.differential_skipped > 0) {
    std::printf("  differential replays skipped (n > %zu): %zu\n",
                fuzz::kDifferentialMaxN, result.differential_skipped);
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
              "(overflow path in %zu scenarios)\n",
              static_cast<unsigned long long>(result.wheel_events),
              static_cast<unsigned long long>(result.overflow_events),
              result.overflow_scenarios);
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

// ---- command line -------------------------------------------------------

/// The option a CliOptions or SoakOptions member pointer names.
template <typename T>
T& field(CliOptions& c, T CliOptions::*m) { return c.*m; }
template <typename T>
T& field(CliOptions& c, T fuzz::SoakOptions::*m) { return c.soak.*m; }

// Strict numeric parsing: a value that does not parse IN FULL is a usage
// error — std::strtoull's silent garbage-to-0 once let "--count abc" soak
// zero scenarios and exit green.
template <auto Field, std::uint64_t kMin = 0>
bool set_count(CliOptions& c, const char* v) {
  const auto parsed = util::parse_u64(v);
  if (!parsed || *parsed < kMin) return false;
  auto& out = field(c, Field);
  out = static_cast<std::remove_reference_t<decltype(out)>>(*parsed);
  return true;
}

// A ratio in [0, 1]: a typo'd rate must never soak a silently-reliable
// network and exit green.
template <auto Field>
bool set_ratio(CliOptions& c, const char* v) {
  const auto parsed = util::parse_double(v);
  if (!parsed || *parsed < 0.0 || *parsed > 1.0) return false;
  field(c, Field) = *parsed;
  return true;
}

template <auto Field>
bool set_text(CliOptions& c, const char* v) {
  field(c, Field) = v;
  return true;
}

template <auto Field, bool kValue>
bool set_switch(CliOptions& c, const char*) {
  field(c, Field) = kValue;
  return true;
}

/// One command-line flag. A flag with a metavar takes the next argument
/// as its value; a switch (null metavar) is applied to "". `apply` stores
/// the value and returns false when it is invalid.
struct Flag {
  const char* name;
  const char* metavar;
  bool (*apply)(CliOptions&, const char*);
};

using Soak = fuzz::SoakOptions;

// Table order is usage order. --count 0 (a zero-scenario soak) and
// --large-n 0 (promote to nothing) are always mistakes; --jobs 0 is
// rejected rather than read as "auto", so garbage never silently changes
// the parallelism and with it the mutant streams.
constexpr Flag kFlags[] = {
    {"--count", "N", set_count<&Soak::count, 1>},
    {"--seed-base", "S", set_count<&Soak::seed_base>},
    {"--jobs", "J", set_count<&Soak::jobs, 1>},
    {"--differential-every", "K", set_count<&Soak::differential_every>},
    {"--mutate", "RATIO", set_ratio<&Soak::mutate_ratio>},
    {"--fault-rate", "RATIO", set_ratio<&Soak::fault_rate>},
    {"--dup-rate", "RATIO", set_ratio<&Soak::dup_rate>},
    {"--large-every", "K", set_count<&Soak::large_every>},
    {"--large-n", "N", set_count<&Soak::large_n, 1>},
    {"--log-every", "K", set_count<&Soak::log_every>},
    // A zero-second budget would skip the whole soak and exit green.
    {"--max-seconds", "S",
     [](CliOptions& c, const char* v) {
       const auto parsed = util::parse_double(v);
       if (!parsed || *parsed <= 0.0) return false;
       c.soak.max_seconds = *parsed;
       return true;
     }},
    {"--corpus-out", "FILE", set_text<&CliOptions::corpus_out>},
    {"--corpus-in", "FILE", set_text<&CliOptions::corpus_in>},
    {"--corpus-strict", nullptr, set_switch<&CliOptions::corpus_strict, true>},
    {"--no-shrink", nullptr, set_switch<&Soak::shrink_failures, false>},
    {"--progress-every", "P", set_count<&CliOptions::progress_every>},
    {"--replay", "SPEC", set_text<&CliOptions::replay>},
    // The nightly lane keys its persisted-corpus cache on this, so a
    // signature-space bump starts a fresh frontier.
    {"--sig-version", nullptr,
     [](CliOptions&, const char*) {
       std::printf("%u\n", fuzz::kSignatureSpaceVersion);
       std::exit(0);
       return true;
     }},
};

int usage(const char* argv0) {
  std::string text = std::string("usage: ") + argv0;
  std::size_t line_start = 0;
  for (const Flag& f : kFlags) {
    const std::string item = std::string(" [") + f.name +
                             (f.metavar ? std::string(" ") + f.metavar : "") +
                             "]";
    if (text.size() - line_start + item.size() > 72) {
      line_start = text.size() + 1;
      text += "\n         ";
    }
    text += item;
  }
  std::fprintf(stderr, "%s\n", text.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const Flag* flag = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [&](const Flag& f) { return std::strcmp(f.name, argv[i]) == 0; });
    if (flag == std::end(kFlags)) {
      std::fprintf(stderr, "error: unknown flag: %s\n", argv[i]);
      return usage(argv[0]);
    }
    const char* value =
        flag->metavar == nullptr ? "" : (i + 1 < argc ? argv[++i] : nullptr);
    if (value == nullptr || !flag->apply(cli, value)) {
      std::fprintf(stderr, "error: invalid value for %s: '%s'\n", flag->name,
                   value == nullptr ? "(missing)" : value);
      return usage(argv[0]);
    }
  }
  if (!cli.replay.empty()) return run_replay(cli);
  return run_soak_cli(cli);
}
