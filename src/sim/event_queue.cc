#include "src/sim/event_queue.h"

#include <algorithm>

#include "src/base/check.h"

namespace tcplat {

namespace {
// Compaction triggers only past this many dead items, so small queues
// never pay for it; above it, compaction runs when dead items outnumber
// live ones, which keeps the heap within 2x the peak live count while
// amortizing the O(n) sweep over at least n/2 cancellations.
constexpr size_t kCompactMinDead = 64;
}  // namespace

EventId EventQueue::ScheduleAt(SimTime when, Callback fn) {
  TCPLAT_CHECK(static_cast<bool>(fn));
  uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    TCPLAT_CHECK_LT(slots_.size(), kSlotMask) << "more pending events than EventId can index";
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  const EventId id = (s.generation << kSlotBits) | slot;
  heap_.push_back(HeapItem{when, next_seq_++, id});
  std::push_heap(heap_.begin(), heap_.end(), ItemGreater{});
  ++live_;
  return id;
}

void EventQueue::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.Reset();  // release captured state eagerly
  // A wrapped generation could make a stale handle match a new occupant.
  // At one release per event this takes 2^40 events on a single slot.
  TCPLAT_CHECK_LT(s.generation, kMaxGeneration) << "event slot generation exhausted";
  ++s.generation;
  free_slots_.push_back(slot);
  --live_;
}

bool EventQueue::Cancel(EventId id) {
  if (!IsLive(id)) {
    return false;
  }
  ReleaseSlot(SlotOf(id));  // the captured state dies now, not at pop time
  ++dead_in_heap_;
  CompactIfWorthIt();
  return true;
}

void EventQueue::DropDeadHead() {
  while (!heap_.empty() && !IsLive(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), ItemGreater{});
    heap_.pop_back();
    --dead_in_heap_;
  }
}

void EventQueue::CompactIfWorthIt() {
  if (dead_in_heap_ < kCompactMinDead || dead_in_heap_ * 2 < heap_.size()) {
    return;
  }
  std::erase_if(heap_, [this](const HeapItem& item) { return !IsLive(item.id); });
  std::make_heap(heap_.begin(), heap_.end(), ItemGreater{});
  dead_in_heap_ = 0;
}

SimTime EventQueue::NextTime() {
  DropDeadHead();
  TCPLAT_CHECK(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Dispatched EventQueue::PopNext() {
  DropDeadHead();
  TCPLAT_CHECK(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), ItemGreater{});
  const HeapItem item = heap_.back();
  heap_.pop_back();
  const uint32_t slot = SlotOf(item.id);
  Dispatched out{item.time, std::move(slots_[slot].fn)};
  ReleaseSlot(slot);
  return out;
}

}  // namespace tcplat
