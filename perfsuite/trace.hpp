// Per-layer tracing for the benchmark suite: spans around the calls the
// suite makes into each layer, aggregated per boundary.
//
// Spans are recorded only from benchmark code, never inside the library:
//   * TracedScheduler forwards mac::Scheduler and times every schedule call
//     (the `mac.sched` boundary);
//   * TracedProcess forwards mac::Process and times every callback (`core`),
//     handing the protocol a TracedContext whose broadcast() is timed as
//     engine fan-out (`mac.fanout`) — the fan-out runs inside the callback,
//     so without it the engine's work would be billed to the protocol;
//   * the workloads open `mac.run` and `log.drive` spans around whole
//     calls (the oracles and fuzzer stages they time directly).
// A span's self time is its duration minus the time its child spans cover,
// so the self times of one run's boundaries sum to its outermost span.
// Totals live in memory and are read when the workload ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "mac/process.hpp"
#include "mac/scheduler.hpp"

namespace perfsuite {

enum Boundary : int {
  kSched = 0,     ///< Scheduler::schedule
  kFanout,        ///< Context::broadcast (engine fan-out incl. scheduler)
  kCallback,      ///< Process::on_start / on_receive / on_ack
  kRun,           ///< Network::run
  kDrive,         ///< ReplicatedLog::drive
  kBoundaryCount,
};

struct BoundaryTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// Process-wide span stack and per-boundary totals. Single-threaded: the
/// suite runs every workload on one thread.
class Tracer {
 public:
  static Tracer& global() {
    static Tracer tracer;
    return tracer;
  }

  void reset() {
    totals_ = {};
    stack_.clear();
  }

  void open(Boundary b) { stack_.push_back({b, now_ns(), 0}); }

  void close() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t d = now_ns() - f.start_ns;
    BoundaryTotals& t = totals_[f.boundary];
    ++t.count;
    t.total_ns += d;
    t.self_ns += d - f.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += d;
  }

  [[nodiscard]] const BoundaryTotals& operator[](Boundary b) const {
    return totals_[b];
  }

 private:
  struct Frame {
    Boundary boundary;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

#if defined(__x86_64__)
  // The time-stamp counter costs a few ns per read where the steady clock
  // costs tens; callbacks are a few hundred ns, so the clock choice decides
  // the tracing overhead. Ticks are scaled to ns by a one-time calibration
  // against the steady clock.
  std::int64_t now_ns() const {
    return static_cast<std::int64_t>(static_cast<double>(__rdtsc()) *
                                     ns_per_tick_);
  }

  static double calibrate() {
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    const std::uint64_t c0 = __rdtsc();
    while (Clock::now() - t0 < std::chrono::milliseconds(20)) {
    }
    const std::uint64_t c1 = __rdtsc();
    const auto ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    return ns / static_cast<double>(c1 - c0);
  }
#else
  static double calibrate() { return 1.0; }
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
#endif

  const double ns_per_tick_ = calibrate();
  std::array<BoundaryTotals, kBoundaryCount> totals_{};
  std::vector<Frame> stack_;
};

class Span {
 public:
  explicit Span(Boundary b) { Tracer::global().open(b); }
  ~Span() { Tracer::global().close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

class TracedScheduler final : public amac::mac::Scheduler {
 public:
  explicit TracedScheduler(amac::mac::Scheduler& inner) : inner_(inner) {}

  void schedule(amac::NodeId sender, amac::mac::Time now,
                const std::vector<amac::NodeId>& neighbors,
                amac::mac::BroadcastSchedule& out) override {
    Span span(kSched);
    inner_.schedule(sender, now, neighbors, out);
  }

  void schedule_unreliable(
      amac::NodeId sender, amac::mac::Time now,
      const std::vector<amac::NodeId>& overlay_neighbors,
      amac::mac::Time ack_delay,
      std::vector<std::pair<amac::NodeId, amac::mac::Time>>& out) override {
    Span span(kSched);
    inner_.schedule_unreliable(sender, now, overlay_neighbors, ack_delay, out);
  }

  [[nodiscard]] amac::mac::Time fack() const override {
    return inner_.fack();
  }

 private:
  amac::mac::Scheduler& inner_;
};

class TracedContext final : public amac::mac::Context {
 public:
  explicit TracedContext(amac::mac::Context& inner) : inner_(inner) {}

  void broadcast(const amac::util::Buffer& payload) override {
    Span span(kFanout);
    inner_.broadcast(payload);
  }
  void decide(amac::mac::Value v) override { inner_.decide(v); }
  [[nodiscard]] bool busy() const override { return inner_.busy(); }
  [[nodiscard]] amac::mac::Time now() const override { return inner_.now(); }

 private:
  amac::mac::Context& inner_;
};

class TracedProcess final : public amac::mac::Process {
 public:
  explicit TracedProcess(std::unique_ptr<amac::mac::Process> inner)
      : inner_(std::move(inner)) {}

  void on_start(amac::mac::Context& ctx) override {
    Span span(kCallback);
    TracedContext traced(ctx);
    inner_->on_start(traced);
  }
  void on_receive(const amac::mac::Packet& packet,
                  amac::mac::Context& ctx) override {
    Span span(kCallback);
    TracedContext traced(ctx);
    inner_->on_receive(packet, traced);
  }
  void on_ack(amac::mac::Context& ctx) override {
    Span span(kCallback);
    TracedContext traced(ctx);
    inner_->on_ack(traced);
  }
  [[nodiscard]] std::unique_ptr<amac::mac::Process> clone() const override {
    return std::make_unique<TracedProcess>(inner_->clone());
  }
  void digest(amac::util::Hasher& h) const override { inner_->digest(h); }
  void protocol_stats(amac::mac::ProtocolStats& out) const override {
    inner_->protocol_stats(out);
  }

 private:
  std::unique_ptr<amac::mac::Process> inner_;
};

inline amac::mac::ProcessFactory traced_factory(
    amac::mac::ProcessFactory inner) {
  return [inner = std::move(inner)](amac::NodeId u)
             -> std::unique_ptr<amac::mac::Process> {
    return std::make_unique<TracedProcess>(inner(u));
  };
}

}  // namespace perfsuite
