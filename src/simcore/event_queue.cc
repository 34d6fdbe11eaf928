#include "src/simcore/event_queue.h"

#include <algorithm>

namespace fst {

namespace {

constexpr uint64_t kSlotMask = 0xffffffffull;

}  // namespace

EventQueue::EventQueue() = default;

void EventQueue::AddChunk() {
  const uint32_t base = static_cast<uint32_t>(slots_.size());
  chunks_.push_back(std::make_unique<Callback[]>(kChunkSlots));
  slots_.resize(slots_.size() + kChunkSlots);
  for (uint32_t i = kChunkSlots; i-- > 0;) {
    slots_[base + i].pos = free_head_;
    free_head_ = base + i;
  }
}

void EventQueue::Kill(Slot& s) {
  s.state = State::kDead;
  // Generation 0 is reserved so a forged EventId{small} can never validate.
  if (++s.gen == 0) {
    s.gen = 1;
  }
}

EventId EventQueue::Enqueue(uint32_t slot, SimTime when, int64_t delay) {
  Ref ref{when, next_seq_++, slot, kNoLane};
  ++live_;
  Slot& s = slots_[slot];
  const EventId id{(uint64_t{s.gen} << 32) | (slot + 1)};
  if (delay >= 0) {
    const uint32_t index = static_cast<uint32_t>(
        (static_cast<uint64_t>(delay) * 0x9e3779b97f4a7c15ull) >>
        (64 - kLaneBits));
    Lane& lane = lanes_[index];
    if (lane.head != kNoSlot && lane.delay == delay) {
      if (when >= lane.tail) {
        // The previous event of this delay is still pending: wait behind
        // it. (seq only grows, so (when, seq) orders after the tail.)
        lane.tail = when;
        ref.lane = index;
        lane.body.push_back(std::move(ref));
        s.state = State::kLane;
        return id;
      }
      // Orders before the lane's tail: a plain heap entry.
    } else if (lane.head == kNoSlot || lane.body.empty()) {
      // Claim the lane, taking it from a lone head of another delay if
      // need be (that head stays in the heap as a plain entry).
      if (lane.head != kNoSlot) {
        heap_[slots_[lane.head].pos].lane = kNoLane;
      }
      lane.delay = delay;
      lane.tail = when;
      lane.head = slot;
      ref.lane = index;
    }
  }
  s.state = State::kHeap;
  s.pos = static_cast<uint32_t>(heap_.size());
  heap_.push_back(ref);
  HeapSiftUp(heap_.size() - 1);
  return id;
}

void EventQueue::RemoveAt(size_t pos) {
  const uint32_t index = heap_[pos].lane;
  if (index != kNoLane) {
    // A lane head is leaving: its first live successor takes its place.
    Lane& lane = lanes_[index];
    while (!lane.body.empty()) {
      const Ref next = lane.body.front();
      lane.body.pop_front();
      Slot& s = slots_[next.slot];
      if (s.state != State::kLane) {
        FreeSlot(next.slot);  // a tombstone; its callback is already gone
        continue;
      }
      s.state = State::kHeap;
      lane.head = next.slot;
      // `next` orders after the entry it replaces, so it can only sink.
      heap_[pos] = next;
      HeapSiftDown(pos);
      return;
    }
    lane.head = kNoSlot;
  }
  HeapRemoveAt(pos);
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
  const State state = s.state;
  if ((state != State::kHeap && state != State::kLane) ||
      s.gen != static_cast<uint32_t>(id.value >> 32)) {
    return false;
  }
  Kill(s);
  --live_;
  if (state == State::kLane) {
    // A tombstone in its lane until it reaches the front.
    CallbackAt(index).Reset();
    return true;
  }
  RemoveAt(s.pos);
  FreeSlot(index);
  return true;
}

std::optional<EventQueue::Popped> EventQueue::PopDue(SimTime deadline) {
  if (heap_.empty() || heap_.front().when > deadline) {
    return std::nullopt;
  }
  const Ref root = heap_.front();
  // Start the callback's line toward the core, then re-heapify while it
  // is in flight; purely speculative.
  __builtin_prefetch(&CallbackAt(root.slot));
  Kill(slots_[root.slot]);
  --live_;
  RemoveAt(0);
  return Popped{root.when, root.seq, root.slot};
}

}  // namespace fst
