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
//     Global push order has monotonically increasing `seq` and every event
//     stays where it was pushed, so plain appends keep each lane
//     seq-sorted; popping lane 0 (deliveries), then lane 1 (acks), then
//     lane 2 (crashes) realizes the (t, kind, seq) ordering contract
//     exactly (a run entry covers a seq range no other entry overlaps, so
//     lanes stay sorted by first seq). Lane vectors are reused, never
//     freed: a drained bucket clears its lanes and keeps their capacity,
//     so once every bucket has seen its densest tick, steady-state
//     operation allocates nothing.
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
//   * Events with t >= base_ + W at push time go to `overflow_`, a
//     (t, kind, seq) min-heap, and are popped from it in place. The cursor
//     is the smaller of the wheel's next occupied tick and the heap top's
//     tick. Once the cursor has moved on, the heap may hold events inside
//     the window, even at the cursor tick beside a bucket: `pop` then
//     compares the heap top with the bucket's head entry in
//     (t, kind, seq) order and takes whichever comes first.
//
// One path for far events. The wheel is sized once, from the constructor's
// horizon hint (the scheduler's F_ack at engine construction), and never
// changes size. Every push beyond it — crash plans, holdback releases,
// HoldbackScheduler holds registered after construction — takes the
// overflow heap and pops from it, so the heap's log factor is paid only by
// the adversarial schedules of paper §3.2-3.3 that reach past the ack
// bound.
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
  /// but pops nothing.
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
    if (overflow_first()) {
      const Event e = overflow_.top();
      overflow_.pop();
      --size_;
      return e;
    }
    return take(1);
  }

  /// Drops the `n` copies that directly follow the one just popped — the
  /// rest of its run, or a prefix of it — without handing them out.
  /// Requires the previous call to have been pop() and its event's
  /// `run` > n (so it came from a wheel run entry: heap entries are single
  /// copies).
  void discard_run(std::size_t n) {
    if (n != 0) static_cast<void>(take(n));
  }

 private:
  static constexpr std::size_t kLanes = 3;
  static constexpr std::size_t kMaxWheel = 4096;  ///< wheel size cap
  /// Capacity a lane vector reserves on its first use, so a lane never
  /// grows through the smallest doublings.
  static constexpr std::size_t kMinLaneCapacity = 16;

  struct Bucket {
    std::array<std::vector<Event>, kLanes> lane;
    std::array<std::size_t, kLanes> head = {0, 0, 0};
    Time tick = 0;
    std::size_t count = 0;
  };

  void set_occupied(std::size_t idx) {
    occupancy_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  }
  void clear_occupied(std::size_t idx) {
    occupancy_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  }

  /// Index of the first lane of `b` with an unpopped entry: that entry is
  /// the bucket's (kind, seq)-minimal one. Requires b.count > 0.
  static std::size_t head_lane(const Bucket& b) {
    std::size_t k = 0;
    while (b.head[k] == b.lane[k].size()) {
      ++k;
      AMAC_ENSURES(k < kLanes);
    }
    return k;
  }

  /// True when the queue minimum is the overflow heap's top: it sits at the
  /// cursor tick and the cursor bucket is empty or its head entry comes
  /// after it. Requires a positioned cursor.
  [[nodiscard]] bool overflow_first() const {
    if (overflow_.empty() || overflow_.top().t != base_) return false;
    const Bucket& b = buckets_[base_ & mask_];
    if (b.count == 0) return true;
    const std::size_t k = head_lane(b);
    return event_after(b.lane[k][b.head[k]], overflow_.top());
  }

  /// Takes the first `n` copies of the cursor bucket's head entry and
  /// returns the entry as it stood. A drained bucket clears its lanes and
  /// keeps their capacity for the ticks that map onto it later.
  Event take(std::size_t n) {
    Bucket& b = buckets_[base_ & mask_];
    AMAC_ENSURES(b.count >= n && b.tick == base_);
    const std::size_t k = head_lane(b);
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
      for (std::size_t i = 0; i < kLanes; ++i) {
        b.lane[i].clear();
        b.head[i] = 0;
      }
      clear_occupied(base_ & mask_);
    }
    return taken;
  }

  /// Appends `e` (a single copy or a run entry) to its bucket lane; the
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
    if (lane.capacity() == 0) lane.reserve(kMinLaneCapacity);
    // Pushes arrive in seq order and run entries cover disjoint seq
    // ranges (a run's seqs are taken in one fan-out), so appending keeps
    // the lane sorted.
    AMAC_CHECK_ENSURES(lane.empty() ||
                       lane.back().seq + lane.back().run <= e.seq);
    lane.push_back(e);
    b.count += e.run;
    wheel_count_ += e.run;
  }

  /// Sets base_ to the tick of the queue minimum: the smaller of the
  /// wheel's next occupied tick and the overflow heap's top tick.
  void position_cursor() {
    // Fast path: the cursor bucket or the heap top still holds an event at
    // base_, so base_ is already the minimum tick — every queued event has
    // t >= base_ (push contract). This makes peek+pop pairs and
    // multi-event ticks O(1), no bitmap scan.
    {
      const Bucket& b = buckets_[base_ & mask_];
      if (b.count > 0 && b.tick == base_) return;
      if (!overflow_.empty() && overflow_.top().t == base_) return;
    }
    if (wheel_count_ == 0) {
      AMAC_ENSURES(!overflow_.empty());
      base_ = overflow_.top().t;
      return;
    }
    const Time wheel_min = scan_next_tick();
    base_ = overflow_.empty() ? wheel_min
                              : std::min(wheel_min, overflow_.top().t);
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
  std::priority_queue<Event, std::vector<Event>, EventAfter> overflow_;
};

}  // namespace amac::mac
