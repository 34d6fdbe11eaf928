// Pending-event set for the discrete-event simulator.
//
// The queue serves every Simulator::Schedule/Cancel/Pop in the tree, so it
// is the global hot path of every experiment. Two structures cooperate:
//
//   * a slot slab: each live event owns a slot holding its callback and its
//     heap position. EventId packs (slot index, generation); the
//     generation is bumped on every free, so a handle from a fired or
//     cancelled event can never alias a later event reusing the slot.
//     Cancellation resolves the slot in O(1) and removes the entry from
//     the heap directly in O(log n), instead of the old O(n) scan + lazy
//     skip-on-pop;
//
//   * a 4-ary min-heap on (time, seq), index-tracked through the slab. The
//     sequence number makes same-timestamp ordering deterministic (FIFO in
//     scheduling order), which is essential for reproducible runs.
//
// The heap alone is enough: the workloads keep few events live at each
// pop (under 8 on the RAID sweep, 8-31 on the resilience grid, 32-127 on
// the 1M-client cell), where a pop costs a handful of comparisons, and
// its cost grows only logarithmically with a burst of same-window events
// (DESIGN.md, "Event core & performance methodology").
#ifndef SRC_SIMCORE_EVENT_QUEUE_H_
#define SRC_SIMCORE_EVENT_QUEUE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/simcore/inline_callback.h"
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

  // Inserts an event; returns a handle usable with Cancel().
  EventId Push(SimTime when, Callback cb);

  // Cancels a pending event, removing it directly from the heap.
  // Returns false if the event already fired, was already cancelled, or
  // the id is invalid.
  bool Cancel(EventId id);

  // Removes and returns the earliest live event, or nullopt if none.
  struct Fired {
    SimTime when;
    uint64_t seq = 0;
    Callback cb;
  };
  std::optional<Fired> Pop();

  // Like Pop(), but only if the earliest event's time is <= deadline.
  // This is the one-call form of PeekTime()+Pop() the simulator loop uses.
  std::optional<Fired> PopDue(SimTime deadline);

  // Timestamp of the earliest live event without removing it.
  std::optional<SimTime> PeekTime() const {
    if (heap_.empty()) {
      return std::nullopt;
    }
    return heap_.front().when;
  }

  bool Empty() const { return heap_.empty(); }

  // Exact number of live (scheduled, not yet fired or cancelled) events.
  size_t live_size() const { return heap_.size(); }

 private:
  static constexpr uint32_t kNoFreeSlot = 0xffffffffu;

  // A heap entry. The callback stays put in the slab, so moving refs
  // during sifts is a 24-byte copy.
  struct Ref {
    SimTime when;
    uint64_t seq = 0;
    uint32_t slot = 0;
  };

  // Slot metadata and callbacks live in parallel slabs: heap sifts and
  // cancellation touch only this 12-byte record (5 per cache line), while
  // the 96-byte callback line is pulled exactly twice per event — once to
  // store it, once to fire it.
  struct Slot {
    uint32_t gen = 1;
    uint32_t pos = 0;  // index into heap_ when live; free-list link when free
    bool live = false;
  };

  static bool Before(const Ref& a, const Ref& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  uint32_t AllocSlot();
  void FreeSlot(uint32_t index);

  void HeapSiftUp(size_t i);
  void HeapSiftDown(size_t i);
  void HeapRemoveAt(size_t i);

  std::vector<Slot> slots_;
  std::vector<Callback> cbs_;  // parallel to slots_
  uint32_t free_head_ = kNoFreeSlot;
  std::vector<Ref> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace fst

#endif  // SRC_SIMCORE_EVENT_QUEUE_H_
