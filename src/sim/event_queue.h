// The simulator's pending-event set.
//
// A binary heap ordered by (time, sequence number). The sequence number makes
// the order of same-timestamp events deterministic (FIFO in scheduling
// order), which keeps whole-simulation runs byte-for-byte reproducible.
//
// Hot-path design (this queue is popped once per dispatched event, and TCP
// timers cancel far more events than ever fire):
//  * Each pending event owns a slot in a flat array; its EventId packs the
//    slot index with the slot's generation. A slot's generation advances
//    every time the slot is released (the event ran or was cancelled), so a
//    stale handle can never match a reused slot. Cancel is an index plus a
//    generation compare: no hashing, no allocation.
//  * Heap items carry (time, seq, id) inline, so sift comparisons never
//    chase a pointer. A cancelled event's slot (and its captured state) is
//    released at once; its heap item goes stale and is skipped lazily when
//    it surfaces, and when stale items outnumber live ones the heap is
//    compacted in place. Slots are recycled through a free stack, so the
//    footprint tracks the peak *live* event count, not cancellation churn.
//  * Callbacks are stored inline in the slot (InlineCallback below): steady-
//    state schedule/pop/cancel performs no heap allocation at all.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace tcplat {

// Token identifying a scheduled event so it can be cancelled.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// A move-only, type-erased `void()` callable stored entirely inline. The
// buffer fits the largest event capture in the simulator (a 53-byte cell
// image plus its destination and arrival time); a larger capture is a
// compile error, not a silent heap fallback.
class InlineCallback {
 public:
  static constexpr size_t kCapacity = 72;
  static constexpr size_t kAlignment = alignof(void*);

  InlineCallback() = default;

  template <typename F, typename Fn = std::decay_t<F>>
    requires(!std::is_same_v<Fn, InlineCallback> && std::is_invocable_r_v<void, Fn&>)
  InlineCallback(F&& fn) {  // NOLINT(google-explicit-constructor): lambdas convert
    static_assert(sizeof(Fn) <= kCapacity,
                  "event capture exceeds InlineCallback::kCapacity; capture less (e.g. a "
                  "pointer to the state) instead of growing the buffer");
    static_assert(alignof(Fn) <= kAlignment, "over-aligned event capture");
    static_assert(std::is_nothrow_move_constructible_v<Fn>);
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
    ops_ = &kOps<Fn>;
  }

  InlineCallback(InlineCallback&& other) noexcept { MoveFrom(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

  // Destroys the stored callable (and its captured state) now.
  void Reset() {
    if (ops_ != nullptr && ops_->destroy != nullptr) {
      ops_->destroy(buf_);
    }
    ops_ = nullptr;
  }

 private:
  // Null `relocate`/`destroy` mean the callable is trivially copyable /
  // destructible: a plain byte copy moves it and nothing destroys it.
  struct Ops {
    void (*invoke)(void* self);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void* self);
  };

  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* self) { (*static_cast<Fn*>(self))(); },
      std::is_trivially_copyable_v<Fn> ? nullptr
                                       : +[](void* dst, void* src) {
                                           ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
                                           static_cast<Fn*>(src)->~Fn();
                                         },
      std::is_trivially_destructible_v<Fn> ? nullptr
                                           : +[](void* self) { static_cast<Fn*>(self)->~Fn(); },
  };

  void MoveFrom(InlineCallback& other) {
    ops_ = other.ops_;
    if (ops_ == nullptr) {
      return;
    }
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kCapacity);
    }
    other.ops_ = nullptr;
  }

  alignas(kAlignment) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run at absolute time `when`. `when` may equal the
  // current dispatch time (the event runs after all earlier-scheduled events
  // at that time) but must never be in the past.
  EventId ScheduleAt(SimTime when, Callback fn);

  // Cancels a pending event in O(1). Returns true if the event was still
  // pending. Cancelling an already-run or already-cancelled event, a handle
  // whose slot has since been reused, or kInvalidEventId returns false.
  bool Cancel(EventId id);

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  // Time of the earliest pending event. Requires !empty().
  SimTime NextTime();

  // Removes and returns the earliest pending event. Requires !empty().
  struct Dispatched {
    SimTime time;
    Callback fn;
  };
  Dispatched PopNext();

  // --- introspection (tests and the perf self-check) ---

  // Event slots owned by the queue, pending or free. Bounded-memory
  // regression tests assert this tracks the peak live count.
  size_t allocated_entries() const { return slots_.size(); }
  // Heap items, live plus cancelled-but-not-yet-compacted.
  size_t heap_entries() const { return heap_.size(); }

 private:
  // EventId layout: generation in the high bits, slot index in the low
  // kSlotBits. Generations start at 1, so no valid id is 0.
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static constexpr uint64_t kMaxGeneration = (uint64_t{1} << (64 - kSlotBits)) - 1;

  // A slot is pending exactly while some handle carries its current
  // generation: release bumps it, so every earlier handle goes stale, and
  // generations start at 1, so kInvalidEventId (generation 0) never matches.
  struct Slot {
    Callback fn;
    uint64_t generation = 1;  // of the current (or next) occupant
  };
  struct HeapItem {
    SimTime time;
    uint64_t seq;
    EventId id;
  };
  struct ItemGreater {
    // (time, seq) is unique per item, so this is a strict total order and
    // the pop sequence is independent of the heap's internal layout.
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  static uint32_t SlotOf(EventId id) { return static_cast<uint32_t>(id & kSlotMask); }
  static uint64_t GenerationOf(EventId id) { return id >> kSlotBits; }

  // True while the event `id` names is still pending.
  bool IsLive(EventId id) const {
    const uint32_t slot = SlotOf(id);
    return slot < slots_.size() && slots_[slot].generation == GenerationOf(id);
  }
  // Ends the slot's current occupancy and returns it to the free stack.
  void ReleaseSlot(uint32_t slot);
  // Pops cancelled items off the heap top.
  void DropDeadHead();
  // Removes all cancelled items from the heap and restores the heap
  // property. Called when dead items outnumber live ones.
  void CompactIfWorthIt();

  std::vector<HeapItem> heap_;  // binary min-heap via std::push_heap/pop_heap
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;  // LIFO: the most recently freed slot is warm
  size_t live_ = 0;
  size_t dead_in_heap_ = 0;
  uint64_t next_seq_ = 1;
};

}  // namespace tcplat

#endif  // SRC_SIM_EVENT_QUEUE_H_
