#include "src/simcore/event_queue.h"

#include <algorithm>
#include <utility>

namespace fst {

namespace {

constexpr uint64_t kSlotMask = 0xffffffffull;

}  // namespace

EventQueue::EventQueue() = default;

uint32_t EventQueue::AllocSlot() {
  if (free_head_ != kNoFreeSlot) {
    const uint32_t index = free_head_;
    free_head_ = slots_[index].pos;
    return index;
  }
  slots_.emplace_back();
  cbs_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::FreeSlot(uint32_t index) {
  Slot& s = slots_[index];
  cbs_[index] = Callback();
  s.live = false;
  // Generation 0 is reserved so a forged EventId{small} can never validate.
  if (++s.gen == 0) {
    s.gen = 1;
  }
  s.pos = free_head_;
  free_head_ = index;
}

EventId EventQueue::Push(SimTime when, Callback cb) {
  const uint32_t index = AllocSlot();
  cbs_[index] = std::move(cb);
  Slot& s = slots_[index];
  s.live = true;
  s.pos = static_cast<uint32_t>(heap_.size());
  heap_.push_back(Ref{when, next_seq_++, index});
  HeapSiftUp(heap_.size() - 1);
  return EventId{(uint64_t{s.gen} << 32) | (index + 1)};
}

void EventQueue::HeapSiftUp(size_t i) {
  Ref moving = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) >> 2;
    if (!Before(moving, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    slots_[heap_[i].slot].pos = static_cast<uint32_t>(i);
    i = parent;
  }
  heap_[i] = moving;
  slots_[moving.slot].pos = static_cast<uint32_t>(i);
}

void EventQueue::HeapSiftDown(size_t i) {
  const size_t n = heap_.size();
  Ref moving = heap_[i];
  while (true) {
    const size_t first_child = (i << 2) + 1;
    if (first_child >= n) {
      break;
    }
    const size_t last_child = std::min(first_child + 4, n);
    size_t best = first_child;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], moving)) {
      break;
    }
    heap_[i] = heap_[best];
    slots_[heap_[i].slot].pos = static_cast<uint32_t>(i);
    i = best;
  }
  heap_[i] = moving;
  slots_[moving.slot].pos = static_cast<uint32_t>(i);
}

void EventQueue::HeapRemoveAt(size_t i) {
  const size_t last = heap_.size() - 1;
  if (i != last) {
    heap_[i] = heap_[last];
    heap_.pop_back();
    slots_[heap_[i].slot].pos = static_cast<uint32_t>(i);
    if (i > 0 && Before(heap_[i], heap_[(i - 1) >> 2])) {
      HeapSiftUp(i);
    } else {
      HeapSiftDown(i);
    }
  } else {
    heap_.pop_back();
  }
}

bool EventQueue::Cancel(EventId id) {
  const uint64_t raw_index = (id.value & kSlotMask);
  if (raw_index == 0 || raw_index > slots_.size()) {
    return false;
  }
  const uint32_t index = static_cast<uint32_t>(raw_index - 1);
  Slot& s = slots_[index];
  if (!s.live || s.gen != static_cast<uint32_t>(id.value >> 32)) {
    return false;
  }
  HeapRemoveAt(s.pos);
  FreeSlot(index);
  return true;
}

std::optional<EventQueue::Fired> EventQueue::Pop() {
  return PopDue(SimTime::Max());
}

std::optional<EventQueue::Fired> EventQueue::PopDue(SimTime deadline) {
  if (heap_.empty() || heap_.front().when > deadline) {
    return std::nullopt;
  }
  const Ref root = heap_.front();
  // Start the callback's line toward the core, then re-heapify while it
  // is in flight; purely speculative.
  __builtin_prefetch(&cbs_[root.slot]);
  HeapRemoveAt(0);
  Fired fired{root.when, root.seq, std::move(cbs_[root.slot])};
  FreeSlot(root.slot);
  return fired;
}

}  // namespace fst
