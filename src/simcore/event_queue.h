// Pending-event set for the discrete-event simulator.
//
// The queue serves every Simulator::Schedule/Cancel/Pop in the tree, so it
// is the global hot path of every experiment. Three structures cooperate:
//
//   * a slot slab: each event owns a slot holding its callback and its
//     state. EventId packs (slot index, generation); the generation is
//     bumped when the event fires or is cancelled, so a handle from a dead
//     event can never alias a later event reusing the slot. Callbacks live
//     in fixed-size chunks that never relocate: Push builds each callback
//     in its slot and Fire runs it there, so no callback is ever moved,
//     even when it schedules more events while it runs;
//
//   * fixed-delay lanes: most events of a serving run fire at one of a few
//     constant delays from their scheduling instant (a switch receive, a
//     compute), and events of one delay are scheduled in time order. A
//     push whose delay matches a still-pending event waits in that delay's
//     FIFO lane behind it, off the heap; only a lane's head sits in the
//     heap, and its successor takes its place when it leaves. Lanes form
//     lazily: a lone event is a plain heap entry tagged as its lane's
//     head, and the lane table is a small direct-mapped array keyed by
//     delay;
//
//   * a 4-ary min-heap on the order key (time, scheduling instant, seq),
//     index-tracked through the slab. A push names its event's scheduling
//     instant: the simulator's clock, or (Simulator::ScheduleAs) the
//     instant a step-by-step model would have scheduled it at, so a device
//     that computes a completion ahead of time keeps that model's place
//     among same-time events. The sequence number breaks the remaining
//     ties in push order, which keeps runs reproducible.
//
// A push joins a lane only if its time is not before the lane's tail's;
// entries of one lane share their delay, so the push's scheduling instant
// is not before the tail's either and its key orders after it. Every lane
// is sorted and its head is its minimum: the heap's root is the global
// minimum, and events fire in exact key order whether or not they waited
// in a lane (DESIGN.md, "Event core & performance methodology").
#ifndef SRC_SIMCORE_EVENT_QUEUE_H_
#define SRC_SIMCORE_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/simcore/inline_callback.h"
#include "src/simcore/ring_fifo.h"
#include "src/simcore/time.h"

namespace fst {

// Opaque handle for cancelling a scheduled event. Packs (generation << 32 |
// slot + 1); value 0 is never issued. Stale handles — fired, cancelled, or
// from a reused slot — fail validation on the generation stamp.
struct EventId {
  uint64_t value = 0;
  bool IsValid() const { return value != 0; }
  bool operator==(const EventId&) const = default;
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Inserts an event for `when`, scheduled at instant `sched` (<= when):
  // it orders among same-time events by `sched`, and the delay
  // when - sched picks its lane. The callback is built from `f` in its
  // slot. Returns a handle usable with Cancel().
  template <typename F>
  EventId Push(SimTime sched, SimTime when, F&& f) {
    return Enqueue(EmplaceCallback(std::forward<F>(f)), when, sched,
                   (when - sched).nanos());
  }

  // Inserts an event for `when` straight into the heap, never into a lane,
  // ordered as if scheduled at time zero (for callers without a clock).
  template <typename F>
  EventId Push(SimTime when, F&& f) {
    return Enqueue(EmplaceCallback(std::forward<F>(f)), when, SimTime::Zero(),
                   kNoDelay);
  }

  // Cancels a pending event. Returns false if the event already fired (or
  // is firing), was already cancelled, or the id is invalid.
  bool Cancel(EventId id);

  // An event taken off the queue whose callback has not run yet: the
  // callback stays in its slot until Fire() runs it there.
  struct Popped {
    SimTime when;
    SimTime sched;
    uint64_t seq = 0;
    uint32_t slot = 0;
  };

  // Removes the earliest live event, or returns nullopt if none. Its handle
  // is dead from here on. Every popped event must go to Fire() exactly once.
  std::optional<Popped> Pop() { return PopDue(SimTime::Max()); }

  // Like Pop(), but only if the earliest event's time is <= deadline.
  std::optional<Popped> PopDue(SimTime deadline);

  // Runs a popped event's callback where it lies, then destroys it and
  // recycles its slot, also when the callback throws. The callback may
  // push and cancel events.
  void Fire(const Popped& event) {
    struct Recycle {
      EventQueue* queue;
      uint32_t slot;
      ~Recycle() { queue->FreeSlot(slot); }
    } recycle{this, event.slot};
    CallbackAt(event.slot)();
  }

  // Timestamp of the earliest live event without removing it.
  std::optional<SimTime> PeekTime() const {
    if (heap_.empty()) {
      return std::nullopt;
    }
    return heap_.front().when;
  }

  // Every live event is in the heap or waits in a lane behind one that is.
  bool Empty() const { return heap_.empty(); }

  // Exact number of live (scheduled, not yet fired or cancelled) events.
  size_t live_size() const { return live_; }

 private:
  static constexpr uint32_t kNoSlot = 0xffffffffu;
  static constexpr uint32_t kNoLane = 0xffffffffu;
  static constexpr int64_t kNoDelay = -1;
  // 64 callbacks (6 KB) per chunk: small enough that a simulator with a
  // handful of live events stays small.
  static constexpr uint32_t kChunkBits = 6;
  static constexpr uint32_t kChunkSlots = 1u << kChunkBits;
  static constexpr uint32_t kLaneBits = 4;

  // A heap or lane entry. `lane` is set only on a lane's head and on the
  // entries waiting behind it.
  struct Ref {
    SimTime when;
    SimTime sched;  // scheduling instant: the key's second field
    uint64_t seq = 0;
    uint32_t slot = 0;
    uint32_t lane = kNoLane;
  };

  // kDead: popped (its callback may be running) or cancelled; a cancelled
  // lane entry stays in its lane as a tombstone until it reaches the front.
  enum class State : uint8_t { kFree, kHeap, kLane, kDead };

  // Slot metadata is kept apart from the callbacks: heap sifts and
  // cancellation touch only this 12-byte record, while the 96-byte
  // callback line is touched when it is built and when it fires.
  struct Slot {
    uint32_t gen = 1;
    uint32_t pos = 0;  // heap index when kHeap; free-list link when kFree
    State state = State::kFree;
  };

  struct Lane {
    int64_t delay = 0;
    SimTime tail;                // time of the lane's last entry
    uint32_t head = kNoSlot;     // slot of its heap entry; kNoSlot when idle
    FifoRing<Ref> body;          // entries behind the head, off the heap
  };

  static bool Before(const Ref& a, const Ref& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    if (a.sched != b.sched) {
      return a.sched < b.sched;
    }
    return a.seq < b.seq;
  }

  Callback& CallbackAt(uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSlots - 1)];
  }

  // Builds the callback in the free-list head and only then unlinks it, so
  // a throwing capture leaves the slot free.
  template <typename F>
  uint32_t EmplaceCallback(F&& f) {
    if (free_head_ == kNoSlot) {
      AddChunk();
    }
    const uint32_t slot = free_head_;
    CallbackAt(slot).Emplace(std::forward<F>(f));
    free_head_ = slots_[slot].pos;
    return slot;
  }

  // Destroys the slot's callback (running no queue code meanwhile, so a
  // capture's destructor may use the queue), then links the slot free.
  void FreeSlot(uint32_t slot) {
    CallbackAt(slot).Reset();
    Slot& s = slots_[slot];
    s.state = State::kFree;
    s.pos = free_head_;
    free_head_ = slot;
  }

  void AddChunk();
  EventId Enqueue(uint32_t slot, SimTime when, SimTime sched, int64_t delay);
  void RemoveAt(size_t pos);
  static void Kill(Slot& s);

  void HeapSiftUp(size_t i);
  void HeapSiftDown(size_t i);
  void HeapRemoveAt(size_t i);

  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<Callback[]>> chunks_;  // parallel to slots_
  uint32_t free_head_ = kNoSlot;
  std::vector<Ref> heap_;
  std::array<Lane, size_t{1} << kLaneBits> lanes_;
  size_t live_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace fst

#endif  // SRC_SIMCORE_EVENT_QUEUE_H_
