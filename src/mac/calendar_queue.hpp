// Calendar-queue (time-wheel) event queue for the MAC engine hot path.
//
// The abstract MAC layer bounds every receive and ack delay by the
// scheduler's F_ack, so at any instant the live event horizon is short and
// dense: almost every event lands within [now, now + F_ack]. A wheel of
// per-tick buckets turns push and pop into O(1) array traffic for that
// regime, while a spill-over binary heap absorbs the rare far-future events
// (pre-planned crashes, holdback releases beyond the wheel window).
//
// Structure
//   * `buckets_` is a power-of-two ring covering absolute ticks
//     [base_, base_ + W). Bucket index is `t & (W-1)`; each bucket holds
//     events of exactly one tick at a time (`tick_` tags which).
//   * Within a bucket, events are segregated into one lane per EventKind.
//     Global push order has monotonically increasing `seq`, so plain
//     appends keep each lane seq-sorted; popping lane 0 (deliveries), then
//     lane 1 (acks), then lane 2 (crashes) realizes the (t, kind, seq)
//     ordering contract exactly (a run entry covers a seq range no other
//     entry overlaps, so lanes stay sorted by first seq). Lane vectors are
//     reused, never freed: when a bucket drains, its warmed lanes move to
//     a spare pool and the next bucket to become occupied adopts them, so
//     steady-state operation allocates nothing and a ring only ever warms
//     as many lanes as it has simultaneously occupied buckets.
//   * `push_run` is the fan-out fast path: when a broadcast schedule is
//     uniform, all of its kept deliver copies share one tick and take
//     consecutive seqs, so the engine hands the queue the first copy and
//     a count and the queue stores ONE run-length lane entry (Event::run)
//     for all of them. `pop` hands a run out one copy per call by
//     advancing the head entry's seq and run in place, so the pop stream
//     is exactly that of per-copy pushes; `discard_run` drops the rest of
//     a just-popped run in one step (the engine's retired-instance fast
//     path). Every counter — size, peak, wheel pushes, bucket counts —
//     stays in copy units. A tick beyond the wheel window spills the
//     copies to the overflow heap one push at a time, so the wheel-or-heap
//     choice lives only here and overflow entries are always single
//     copies; `batch_reservations` counts the in-wheel runs alone.
//   * `occupancy_` is a bitmap over buckets; finding the next non-empty
//     tick is a word-wise circular scan from the cursor.
//   * Events with t >= base_ + W go to `overflow_`, a (t, kind, seq)
//     min-heap. When the overflow's minimum becomes the global minimum the
//     queue rebases: the cursor jumps to that tick and every overflow event
//     inside the new window migrates into the wheel. Migrated events may
//     interleave with already-bucketed ones, so migration inserts by `seq`
//     (the only non-append path, and only on the rare rebase).
//
// One path for far events. The wheel is sized once, from the constructor's
// horizon hint (the scheduler's F_ack at engine construction), and never
// changes size. Every push beyond it — crash plans, holdback releases,
// HoldbackScheduler holds registered after construction — takes the
// overflow heap and later the rebase migration, so the heap's log factor is
// paid only by the adversarial schedules of paper §3.2-3.3 that reach past
// the ack bound.
//
// The pop order is bit-identical to a binary heap ordered by
// (t, kind, seq) — proved by the calendar-vs-reference differential test
// and the property suite in tests/test_calendar_queue.cpp.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <queue>
#include <vector>

#include "mac/event.hpp"
#include "util/assert.hpp"

namespace amac::mac {

class CalendarQueue {
 public:
  /// `horizon_hint` is the scheduler's F_ack: the wheel is sized to cover a
  /// couple of ack windows. Oversized hints (e.g. a HoldbackScheduler's
  /// release-inflated bound) are clamped; events past the wheel take the
  /// overflow heap.
  explicit CalendarQueue(Time horizon_hint) {
    std::size_t want = 16;
    const Time target = horizon_hint >= kMaxWheel / 2
                            ? static_cast<Time>(kMaxWheel)
                            : 2 * horizon_hint + 4;
    while (want < target && want < kMaxWheel) want <<= 1;
    buckets_.resize(want);
    mask_ = want - 1;
    occupancy_.assign((want + 63) / 64, 0);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t peak_size() const { return peak_; }

  /// Accounting for engine stats, benches, and the fuzzer's coverage
  /// summary: which path (wheel vs overflow heap) events took and how often
  /// the batch fan-out reservation engaged.
  [[nodiscard]] std::uint64_t wheel_pushes() const { return wheel_pushes_; }
  [[nodiscard]] std::uint64_t overflow_pushes() const {
    return overflow_pushes_;
  }
  [[nodiscard]] std::uint64_t batch_reservations() const {
    return batch_reservations_;
  }
  /// Wheel size in buckets (ticks); fixed at construction.
  [[nodiscard]] Time span() const {
    return static_cast<Time>(buckets_.size());
  }
  /// Warmed lane vectors currently parked in the recycling pool (tests).
  [[nodiscard]] std::size_t spare_lane_count() const {
    return spare_lanes_.size();
  }

  /// Pushes one copy (`e.run` must be 1; runs go through push_run).
  void push(const Event& e) {
    AMAC_EXPECTS(e.t >= base_);
    AMAC_EXPECTS(e.run == 1);
    ++size_;
    if (size_ > peak_) peak_ = size_;
    // Wrap-free window test (e.t >= base_ holds): base_ + span() could
    // overflow for sentinel times near kForever.
    if (e.t - base_ < span()) {
      wheel_insert(e);
      ++wheel_pushes_;
    } else {
      overflow_.push(e);
      ++overflow_pushes_;
    }
  }

  /// Fan-out fast path: queues `count` copies of `first` at seqs
  /// first.seq .. first.seq+count-1 (globally newer than every event
  /// already pushed; the engine's push counter guarantees this). In the
  /// wheel window the copies are ONE run-length lane entry — one bucket
  /// lookup and one 48-byte write for the whole fan-out — while every
  /// counter (size, peak, wheel pushes) still moves by `count`; beyond it
  /// each copy goes through push(), so the overflow heap sees exactly the
  /// per-copy stream. `first.run` is ignored. A zero count is a no-op.
  void push_run(const Event& first, std::size_t count) {
    if (count == 0) return;
    AMAC_EXPECTS(first.t >= base_);
    if (first.t - base_ >= span()) {
      Event copy = first;
      copy.run = 1;
      for (std::size_t i = 0; i < count; ++i, ++copy.seq) push(copy);
      return;
    }
    Event entry = first;
    entry.run = static_cast<std::uint32_t>(count);
    AMAC_EXPECTS(entry.run == count);
    wheel_insert(entry);
    size_ += count;
    if (size_ > peak_) peak_ = size_;
    wheel_pushes_ += count;
    ++batch_reservations_;
  }

  /// Time of the next event to pop. Requires !empty(). Advances the cursor
  /// (and migrates due overflow events) but pops nothing.
  [[nodiscard]] Time next_time() {
    AMAC_EXPECTS(size_ > 0);
    position_cursor();
    return base_;
  }

  /// Pops the (t, kind, seq)-minimal copy. Requires !empty(). A run entry
  /// hands out one copy per call, advancing its seq and run in place; the
  /// returned event's `run` is the count its entry held, itself included.
  Event pop() {
    AMAC_EXPECTS(size_ > 0);
    position_cursor();
    return take(1);
  }

  /// Drops the `n` copies that directly follow the one just popped — the
  /// rest of its run, or a prefix of it — without handing them out.
  /// Requires the previous call to have been pop() and its event's
  /// `run` > n.
  void discard_run(std::size_t n) {
    if (n != 0) static_cast<void>(take(n));
  }

 private:
  static constexpr std::size_t kLanes = 3;
  static constexpr std::size_t kMaxWheel = 4096;  ///< wheel size cap
  /// Smallest capacity a lane vector is ever born with (see warm_lane).
  static constexpr std::size_t kMinLaneCapacity = 16;

  struct Bucket {
    std::array<std::vector<Event>, kLanes> lane;
    std::array<std::size_t, kLanes> head = {0, 0, 0};
    Time tick = 0;
    std::size_t count = 0;
  };

  static bool lane_capacity_less(const std::vector<Event>& a,
                                 const std::vector<Event>& b) {
    return a.capacity() < b.capacity();
  }

  /// Gives a capacity-less lane storage: the largest parked spare when the
  /// pool has one (adoption takes the biggest so a dense tick finds the
  /// high-water vector instead of growing a small one), otherwise a fresh
  /// reservation at the capacity floor so no tiny vector is ever born into
  /// the circulating pool — either way lane capacities converge to the
  /// demand profile after a handful of ticks instead of oscillating
  /// through incremental doublings.
  void warm_lane(std::vector<Event>& lane) {
    if (!spare_lanes_.empty()) {
      std::pop_heap(spare_lanes_.begin(), spare_lanes_.end(),
                    lane_capacity_less);
      lane = std::move(spare_lanes_.back());
      spare_lanes_.pop_back();
    } else {
      lane.reserve(kMinLaneCapacity);
    }
  }

  /// Parks a cleared lane vector. The pool is a max-heap on capacity, so
  /// parking and largest-first adoption are O(log pool) — a bulk drain of
  /// many occupied buckets stays linearithmic
  /// instead of shifting a sorted vector per lane.
  void park_spare(std::vector<Event>&& lane) {
    spare_lanes_.push_back(std::move(lane));
    std::push_heap(spare_lanes_.begin(), spare_lanes_.end(),
                   lane_capacity_less);
  }

  void set_occupied(std::size_t idx) {
    occupancy_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  }
  void clear_occupied(std::size_t idx) {
    occupancy_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  }

  /// Takes the first `n` copies of the cursor bucket's head entry (the
  /// minimal one) and returns the entry as it stood. When the bucket
  /// drains, its warmed lane storage circulates through the spare pool
  /// instead of staying pinned to it: the next bucket to become occupied
  /// (often a different ring slot entirely)
  /// adopts it, so a revolution of the ring needs only as many warmed
  /// lanes as there are simultaneously occupied buckets.
  Event take(std::size_t n) {
    Bucket& b = buckets_[base_ & mask_];
    AMAC_ENSURES(b.count >= n && b.tick == base_);
    std::size_t k = 0;
    while (b.head[k] == b.lane[k].size()) {
      ++k;
      AMAC_ENSURES(k < kLanes);
    }
    Event& head = b.lane[k][b.head[k]];
    const Event taken = head;
    AMAC_EXPECTS(head.run >= n);
    head.seq += n;
    head.run -= static_cast<std::uint32_t>(n);
    if (head.run == 0) ++b.head[k];
    b.count -= n;
    wheel_count_ -= n;
    size_ -= n;
    if (b.count == 0) {
      for (k = 0; k < kLanes; ++k) {
        auto& lane = b.lane[k];
        if (lane.capacity() != 0) {
          lane.clear();
          park_spare(std::move(lane));
          lane = std::vector<Event>();
        }
        b.head[k] = 0;
      }
      clear_occupied(base_ & mask_);
    }
    return taken;
  }

  /// Places `e` (a single copy or a run entry) in its bucket lane; the
  /// bucket and wheel counts grow by its copy count.
  void wheel_insert(const Event& e) {
    Bucket& b = buckets_[e.t & mask_];
    if (b.count == 0) {
      b.tick = e.t;
      set_occupied(e.t & mask_);
    } else {
      // One tick per bucket: the window [base_, base_+W) maps injectively
      // onto bucket indices.
      AMAC_ENSURES(b.tick == e.t);
    }
    auto& lane = b.lane[static_cast<std::size_t>(e.kind)];
    if (lane.capacity() == 0) warm_lane(lane);
    // Run entries cover disjoint seq ranges (a run's seqs are taken in one
    // fan-out), so comparing first seqs orders whole entries.
    if (lane.empty() || lane.back().seq < e.seq) {
      AMAC_CHECK_ENSURES(lane.empty() ||
                         lane.back().seq + lane.back().run <= e.seq);
      lane.push_back(e);  // the hot path: pushes arrive in seq order
    } else {
      // Overflow migration may slot an older-seq event behind newer ones.
      auto it = lane.begin() + static_cast<std::ptrdiff_t>(
                                   b.head[static_cast<std::size_t>(e.kind)]);
      while (it != lane.end() && it->seq < e.seq) ++it;
      lane.insert(it, e);
    }
    b.count += e.run;
    wheel_count_ += e.run;
  }

  /// Sets base_ to the tick of the queue minimum, migrating overflow events
  /// into the wheel when the minimum lives there.
  void position_cursor() {
    // Fast path: the cursor bucket still holds events, so base_ is already
    // the minimum — every queued event has t >= base_ (push contract), and
    // once the cursor is positioned the overflow only holds t >= base_ + W.
    // This makes peek+pop pairs and multi-event ticks O(1), no bitmap scan.
    {
      const Bucket& b = buckets_[base_ & mask_];
      if (b.count > 0 && b.tick == base_) return;
    }
    if (wheel_count_ > 0) {
      const Time wheel_min = scan_next_tick();
      if (overflow_.empty() || overflow_.top().t > wheel_min) {
        base_ = wheel_min;
        return;
      }
    }
    // The minimum is in the overflow: rebase the window onto it and pull in
    // everything now within reach.
    AMAC_ENSURES(!overflow_.empty());
    base_ = overflow_.top().t;
    while (!overflow_.empty() && overflow_.top().t - base_ < span()) {
      wheel_insert(overflow_.top());
      overflow_.pop();
    }
  }

  /// First occupied tick at or after base_ (circular bitmap scan). Requires
  /// wheel_count_ > 0.
  [[nodiscard]] Time scan_next_tick() const {
    const std::size_t start = base_ & mask_;
    const std::size_t words = occupancy_.size();
    std::size_t word = start >> 6;
    std::uint64_t bits = occupancy_[word] & (~std::uint64_t{0} << (start & 63));
    for (std::size_t step = 0;; ++step) {
      AMAC_ENSURES(step <= words);
      if (bits != 0) {
        const std::size_t idx =
            (word << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
        return buckets_[idx].tick;
      }
      word = word + 1 == words ? 0 : word + 1;
      bits = occupancy_[word];
    }
  }

  std::vector<Bucket> buckets_;
  std::vector<std::uint64_t> occupancy_;
  std::uint64_t mask_ = 0;
  Time base_ = 0;              ///< cursor: minimum possible next tick
  std::size_t wheel_count_ = 0;
  std::size_t size_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t wheel_pushes_ = 0;
  std::uint64_t overflow_pushes_ = 0;
  std::uint64_t batch_reservations_ = 0;
  /// Cleared lane vectors whose capacity is waiting to be adopted by the
  /// next bucket that becomes occupied. Lane storage is conserved, not
  /// duplicated: vectors move bucket -> pool on bucket drain and pool ->
  /// bucket on first insert, so the pool is bounded by the ring's lane
  /// count.
  std::vector<std::vector<Event>> spare_lanes_;
  std::priority_queue<Event, std::vector<Event>, EventAfter> overflow_;
};

}  // namespace amac::mac
