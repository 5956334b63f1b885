#ifndef NATTO_SIM_CALENDAR_QUEUE_H_
#define NATTO_SIM_CALENDAR_QUEUE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "sim/event_fn.h"

namespace natto::sim {

/// One pending event. Nodes are pool-owned (CalendarQueue's free list) and
/// threaded through `next`; steady-state scheduling therefore allocates
/// nothing — a fired node's storage is immediately reusable.
struct EventNode {
  SimTime time = 0;
  uint64_t seq = 0;      // tie-break: FIFO among equal-time events
  /// seq of the event whose callback scheduled this one, or ~0 when it was
  /// scheduled outside any callback. Consumed by the determinism sanitizer
  /// (sim/dsan.h) as a process-independent scheduling-site tag; the store
  /// is unconditional because it is cheaper than a branch.
  uint64_t parent_seq = 0;
  /// The id Cancel() knows this event by, which is what tombstones key on.
  /// Equals `seq` except for an event a site-parallel worker deferred to
  /// the window barrier: the merge pushes it with its canonical seq but
  /// keeps the provisional id the scheduler was handed (parallel_kernel.cc).
  uint64_t handle = 0;
  EventNode* next = nullptr;
  EventFn fn;
};

/// Calendar (bucketed-timeline) priority queue for the event kernel,
/// replacing the seed's std::priority_queue<Event>. The total order it
/// serves is exactly the old comparator's: ascending (time, seq).
///
/// Shape (DESIGN.md §4.8 discusses the parameter choice):
///   - The timeline is quantized into 64 µs buckets (kBucketShift); a ring
///     of 8192 buckets (kNumBuckets) covers a ~524 ms horizon. Each bucket
///     is an append-only FIFO list, O(1) per insert; a 128-word bitmap
///     finds the next nonempty bucket in a couple of instructions.
///   - Draining a bucket distributes its nodes once into 64 per-microsecond
///     sub-slot FIFOs (a bucket spans 64 distinct SimTime values), so pops
///     are O(1) and equal-time FIFO order is positional, never compared.
///   - Events beyond the horizon go to an overflow binary heap ordered by
///     (time, seq) and migrate into the ring as the window reaches them.
///     Migration is ordered so that an overflow event always enters a
///     bucket before any younger same-bucket event can be appended, which
///     keeps every bucket list seq-ordered per timestamp (the invariant the
///     sub-slot distribution relies on).
///
/// Determinism: identical Push sequences produce identical Pop sequences —
/// there is no hashing, no pointer-order dependence, and no rebalancing
/// heuristic; the property test in sim_kernel_test.cc locksteps this
/// structure against the seed kernel's binary heap.
class CalendarQueue {
 public:
  static constexpr int kBucketShift = 6;            // 64 us buckets
  static constexpr int64_t kNumBuckets = 8192;      // ~524 ms horizon
  static constexpr int64_t kBucketMask = kNumBuckets - 1;
  static constexpr int64_t kSubSlots = 1 << kBucketShift;

  CalendarQueue() {
    buckets_.resize(static_cast<size_t>(kNumBuckets));
    bitmap_.resize(static_cast<size_t>(kNumBuckets / 64), 0);
  }

  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  ~CalendarQueue() {
    // Pending closures may own resources; run their destructors before the
    // pool chunks go away. Pool chunks then free the node storage itself.
    EventNode* n;
    while ((n = PopIfAtMost(kSimTimeMax)) != nullptr) n->fn.Reset();
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Inserts an event. `t` must be >= the time of the last popped event
  /// (the simulator clamps to Now() first) and `seq` strictly larger than
  /// every previously pushed seq. The event's Cancel handle is its seq.
  void Push(SimTime t, uint64_t seq, EventFn fn,
            uint64_t parent_seq = ~uint64_t{0}) {
    Push(t, seq, seq, std::move(fn), parent_seq);
  }

  /// Push with a Cancel handle other than `seq` (see EventNode::handle).
  void Push(SimTime t, uint64_t seq, uint64_t handle, EventFn&& fn,
            uint64_t parent_seq) {
    EventNode* n = AllocNode();
    n->time = t;
    n->seq = seq;
    n->parent_seq = parent_seq;
    n->handle = handle;
    n->next = nullptr;
    n->fn = std::move(fn);
    ++size_;
    int64_t b = t >> kBucketShift;
    if (b >= cursor_bucket_ + kNumBuckets) {
      OverflowPush(n);
      return;
    }
    // Older (smaller-seq) events for this or an earlier bucket may still
    // sit in the overflow heap; move them in first so bucket lists stay
    // seq-ordered per timestamp.
    //
    // Cancellation audit: a cancelled event may cross the horizon here (or
    // in the pop-side pull-in above) after its tombstone was laid. That is
    // safe because tombstones live in the *simulator* keyed by handle, not
    // in this structure: migration moves the node with its handle intact,
    // and the discard happens wherever the node eventually pops.
    // sim_kernel_test.cc (CancelSurvivesOverflowMigration) pins this.
    while (!overflow_.empty() && (overflow_[0]->time >> kBucketShift) <= b) {
      RingAppend(OverflowPop());
    }
    RingAppend(n);
  }

  /// Pops the earliest event if its time is <= `limit`; nullptr otherwise
  /// (or when empty). The caller runs/recycles the node and must then
  /// advance the cursor via AdvanceTo with a time >= the node's.
  EventNode* PopIfAtMost(SimTime limit) {
    if (size_ == 0) return nullptr;
    // Pull every overflow event whose bucket entered the ring window.
    while (!overflow_.empty() &&
           (overflow_[0]->time >> kBucketShift) < cursor_bucket_ + kNumBuckets) {
      RingAppend(OverflowPop());
    }
    for (;;) {
      int64_t b = FindFirstBucket();
      if (b < 0) {
        // Ring empty: everything left lives beyond the horizon. Pop the
        // overflow minimum directly — the cursor must not jump ahead of
        // the clock (an earlier-bucket insert could still arrive before
        // the event fires), so migration waits until AdvanceTo moves the
        // window there.
        if (overflow_.empty() || overflow_[0]->time > limit) return nullptr;
        --size_;
        return OverflowPop();
      }
      if (b != active_bucket_) {
        if (active_bucket_ >= 0) ReabsorbActive();
        // (Reabsorbing can only make an earlier bucket the first one if b
        // was the active bucket itself, which the branch excludes.)
        Distribute(b);
      }
      // Earliest pending event = lowest occupied sub-slot's head.
      while (sub_mask_ != 0) {
        int s = CountTrailingZeros(sub_mask_);
        EventNode* head = sub_heads_[s];
        if (head->time > limit) {
          // Boundary: leave the event queued. If nothing was popped from
          // this bucket yet the clock may still be behind it, and an
          // earlier-bucket insert could arrive before the next pop — fold
          // the distribution back so the bucket list stays authoritative.
          ReabsorbActive();
          return nullptr;
        }
        sub_heads_[s] = head->next;
        if (sub_heads_[s] == nullptr) {
          sub_tails_[s] = nullptr;
          sub_mask_ &= ~(uint64_t{1} << s);
        }
        --size_;
        if (sub_mask_ == 0) ClearBucketBit(b);  // drained mid-pop
        return head;
      }
      // Active bucket fully drained.
      active_bucket_ = -1;
      ClearBucketBit(b);
    }
  }

  /// Returns the earliest pending event without removing it, or nullptr
  /// when empty. Performs the same lazy migration/distribution work a pop
  /// would (overflow pull-in, bucket distribution), so a following
  /// PopIfAtMost finds the head already staged; the observable pop sequence
  /// is unchanged. The parallel kernel peeks every partition's head to pick
  /// the next window or serialized step.
  EventNode* PeekEarliest() {
    if (size_ == 0) return nullptr;
    while (!overflow_.empty() &&
           (overflow_[0]->time >> kBucketShift) < cursor_bucket_ + kNumBuckets) {
      RingAppend(OverflowPop());
    }
    for (;;) {
      int64_t b = FindFirstBucket();
      if (b < 0) {
        // Ring empty: the minimum lives in the overflow heap (it stays
        // there — see PopIfAtMost on why migration waits for the cursor).
        return overflow_.empty() ? nullptr : overflow_[0];
      }
      if (b != active_bucket_) {
        if (active_bucket_ >= 0) ReabsorbActive();
        Distribute(b);
      }
      if (sub_mask_ != 0) {
        return sub_heads_[CountTrailingZeros(sub_mask_)];
      }
      // The tracked bucket was drained by earlier pops; clear and rescan.
      active_bucket_ = -1;
      ClearBucketBit(b);
    }
  }

  /// Advances the scan cursor after the simulator's clock moved to `t`
  /// (event fired or RunUntil boundary). Requires every remaining event to
  /// be at time >= t.
  void AdvanceTo(SimTime t) {
    int64_t b = t >> kBucketShift;
    if (b > cursor_bucket_) cursor_bucket_ = b;
  }

  /// Destroys the node's closure and returns the node to the free list. The
  /// kernels call this after the closure ran in place.
  void Recycle(EventNode* n) {
    n->fn.Reset();
    n->next = free_list_;
    free_list_ = n;
  }

  /// Allocation count of pool chunks (observability for the perf bench:
  /// steady state must not grow this).
  size_t allocated_chunks() const { return chunks_.size(); }

 private:
  static constexpr int kChunkNodes = 256;

  struct Bucket {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  static int CountTrailingZeros(uint64_t x) {
    return __builtin_ctzll(x);
  }

  EventNode* AllocNode() {
    if (free_list_ == nullptr) {
      chunks_.push_back(std::make_unique<EventNode[]>(kChunkNodes));
      EventNode* chunk = chunks_.back().get();
      for (int i = kChunkNodes - 1; i >= 0; --i) {
        chunk[i].next = free_list_;
        free_list_ = &chunk[i];
      }
    }
    EventNode* n = free_list_;
    free_list_ = n->next;
    return n;
  }

  // ---- ring helpers ----

  void SetBucketBit(int64_t b) {
    int64_t s = b & kBucketMask;
    bitmap_[static_cast<size_t>(s >> 6)] |= uint64_t{1} << (s & 63);
  }

  void ClearBucketBit(int64_t b) {
    int64_t s = b & kBucketMask;
    bitmap_[static_cast<size_t>(s >> 6)] &= ~(uint64_t{1} << (s & 63));
  }

  /// First nonempty bucket index (absolute) in [cursor_bucket_,
  /// cursor_bucket_ + kNumBuckets), or -1. Bitmap scan over the circular
  /// slot space, starting at the cursor's slot.
  int64_t FindFirstBucket() const {
    int64_t start_slot = cursor_bucket_ & kBucketMask;
    int64_t word = start_slot >> 6;
    int bit = static_cast<int>(start_slot & 63);
    const int64_t words = kNumBuckets / 64;
    uint64_t w = bitmap_[static_cast<size_t>(word)] &
                 (~uint64_t{0} << bit);
    for (int64_t i = 0; i <= words; ++i) {
      if (w != 0) {
        int64_t slot = (word << 6) + CountTrailingZeros(w);
        // Map the circular slot back to an absolute bucket index at or
        // after the cursor.
        int64_t delta = (slot - start_slot + kNumBuckets) & kBucketMask;
        return cursor_bucket_ + delta;
      }
      word = (word + 1) % words;
      w = bitmap_[static_cast<size_t>(word)];
      if (i == words - 1) {
        // Last word wraps to the cursor's own word: mask to bits before
        // the start bit so each slot is inspected exactly once.
        w &= bit != 0 ? ((uint64_t{1} << bit) - 1) : 0;
      }
    }
    return -1;
  }

  /// Appends to the node's home bucket (or the active bucket's sub-slots).
  /// Every append preserves the per-timestamp seq order: callers only hand
  /// in nodes in seq order per (bucket, timestamp) — see Push/migration.
  void RingAppend(EventNode* n) {
    int64_t b = n->time >> kBucketShift;
    if (b == active_bucket_) {
      SubSlotAppend(n);
      return;
    }
    Bucket& bucket = buckets_[static_cast<size_t>(b & kBucketMask)];
    n->next = nullptr;
    if (bucket.tail == nullptr) {
      bucket.head = bucket.tail = n;
      SetBucketBit(b);
    } else {
      bucket.tail->next = n;
      bucket.tail = n;
    }
  }

  // ---- active bucket (sub-slot) helpers ----

  void SubSlotAppend(EventNode* n) {
    int s = static_cast<int>(n->time & (kSubSlots - 1));
    n->next = nullptr;
    if (sub_tails_[s] == nullptr) {
      sub_heads_[s] = sub_tails_[s] = n;
      sub_mask_ |= uint64_t{1} << s;
      // The bucket may have been drained (bit cleared) before a callback
      // scheduled this event back into it; the scan needs the bit live.
      SetBucketBit(active_bucket_);
    } else {
      sub_tails_[s]->next = n;
      sub_tails_[s] = n;
    }
  }

  /// Moves bucket `b`'s list into the sub-slot FIFOs. The list is
  /// seq-ordered per timestamp, so per-slot append order is FIFO order.
  void Distribute(int64_t b) {
    Bucket& bucket = buckets_[static_cast<size_t>(b & kBucketMask)];
    EventNode* n = bucket.head;
    bucket.head = bucket.tail = nullptr;
    active_bucket_ = b;
    while (n != nullptr) {
      EventNode* next = n->next;
      SubSlotAppend(n);
      n = next;
    }
  }

  /// Folds the active bucket's sub-slots back into its bucket list (in
  /// (timestamp, seq) order, which a later Distribute preserves).
  void ReabsorbActive() {
    if (active_bucket_ < 0) return;
    Bucket& bucket =
        buckets_[static_cast<size_t>(active_bucket_ & kBucketMask)];
    while (sub_mask_ != 0) {
      int s = CountTrailingZeros(sub_mask_);
      sub_mask_ &= ~(uint64_t{1} << s);
      if (bucket.tail == nullptr) {
        bucket.head = sub_heads_[s];
      } else {
        bucket.tail->next = sub_heads_[s];
      }
      bucket.tail = sub_tails_[s];
      sub_heads_[s] = sub_tails_[s] = nullptr;
    }
    if (bucket.head != nullptr) SetBucketBit(active_bucket_);
    active_bucket_ = -1;
  }

  // ---- overflow heap (far-future events), ordered by (time, seq) ----

  static bool HeapLater(const EventNode* a, const EventNode* b) {
    if (a->time != b->time) return a->time > b->time;
    return a->seq > b->seq;
  }

  void OverflowPush(EventNode* n) {
    overflow_.push_back(n);
    size_t i = overflow_.size() - 1;
    while (i > 0) {
      size_t parent = (i - 1) / 2;
      if (!HeapLater(overflow_[parent], overflow_[i])) break;
      std::swap(overflow_[parent], overflow_[i]);
      i = parent;
    }
  }

  EventNode* OverflowPop() {
    EventNode* top = overflow_[0];
    overflow_[0] = overflow_.back();
    overflow_.pop_back();
    size_t i = 0;
    const size_t n = overflow_.size();
    for (;;) {
      size_t l = 2 * i + 1, r = 2 * i + 2, min = i;
      if (l < n && HeapLater(overflow_[min], overflow_[l])) min = l;
      if (r < n && HeapLater(overflow_[min], overflow_[r])) min = r;
      if (min == i) break;
      std::swap(overflow_[i], overflow_[min]);
      i = min;
    }
    return top;
  }

  size_t size_ = 0;
  int64_t cursor_bucket_ = 0;  // bucket of the clock; ring window floor
  int64_t active_bucket_ = -1;

  std::vector<Bucket> buckets_;
  std::vector<uint64_t> bitmap_;
  EventNode* sub_heads_[kSubSlots] = {};
  EventNode* sub_tails_[kSubSlots] = {};
  uint64_t sub_mask_ = 0;

  std::vector<EventNode*> overflow_;

  EventNode* free_list_ = nullptr;
  std::vector<std::unique_ptr<EventNode[]>> chunks_;
};

}  // namespace natto::sim

#endif  // NATTO_SIM_CALENDAR_QUEUE_H_
