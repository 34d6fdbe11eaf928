// Slab-backed, structure-of-arrays table of in-flight logical ops.
//
// The serving layer's per-op state used to live in one shared_ptr<OpState>
// per request — a heap allocation and a cache-missing pointer chase on
// every arrival, which is exactly the overhead a million-client open-loop
// fleet cannot afford. The OpTable replaces that with dense parallel
// columns addressed by slot index: allocation is a free-list pop, the hot
// fields of concurrently in-flight ops sit adjacent in memory, and the
// table's capacity plateaus at the peak in-flight count (no steady-state
// allocation at all).
//
// Ids are generation-stamped: Id = slot | (gen << 32), where the slot's
// generation bumps on every Free. A completion that outlives its op (a
// late write mirror, a discarded hedge duplicate, a stale retry timer)
// resolves to SlotOf(id) < 0 and is skipped instead of corrupting whatever
// op reused the slot — the same protection the shared_ptr gave, without
// the refcount traffic. Generations start at 1 so no valid id is ever 0.
//
// A hedged read keeps its attempt's state here too: its candidate replicas
// in a fixed-width row of `cands` and its pending launch in `timer`, so
// the hedge needs no allocation of its own.
#ifndef SRC_CLUSTER_FLEET_OP_TABLE_H_
#define SRC_CLUSTER_FLEET_OP_TABLE_H_

#include <cstdint>
#include <vector>

#include "src/simcore/event_queue.h"
#include "src/simcore/time.h"

namespace fst {

class OpTable {
 public:
  using Id = uint64_t;
  static constexpr Id kInvalidId = 0;

  // Per-op flag bits (flags column).
  static constexpr uint8_t kIsRead = 1 << 0;
  static constexpr uint8_t kAdmittedAny = 1 << 1;  // some replica admitted it

  // Each op gets `cand_width` candidate entries (0: no op stores any).
  explicit OpTable(int cand_width = 0)
      : cand_width_(static_cast<size_t>(cand_width)) {}

  // O(1): pops the free list or appends one row to every column. Per-op
  // fields come back zeroed, except the hedge columns (`timer`, `cands`),
  // which only a hedged attempt reads, after writing them; the caller
  // fills what it needs.
  Id Allocate() {
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      key[slot] = 0;
      version[slot] = 0;
      t0[slot] = SimTime::Zero();
      trace_id[slot] = 0;
      tag[slot] = 0;
      attempts[slot] = 0;
      flags[slot] = 0;
      fanout[slot] = Fanout{};
    } else {
      slot = static_cast<uint32_t>(gen_.size());
      gen_.push_back(1);
      key.push_back(0);
      version.push_back(0);
      t0.push_back(SimTime::Zero());
      trace_id.push_back(0);
      tag.push_back(0);
      attempts.push_back(0);
      flags.push_back(0);
      fanout.push_back(Fanout{});
      timer.push_back(EventId{});
      cands.resize(cands.size() + cand_width_);
    }
    ++live_;
    return MakeId(slot, gen_[slot]);
  }

  // Returns the slot to the free list and invalidates every outstanding id
  // for it.
  void Free(Id id) {
    const uint32_t slot = RawSlot(id);
    ++gen_[slot];
    free_.push_back(slot);
    --live_;
  }

  // Slot for a live id, or -1 when the id's op has already been freed
  // (possibly reused): the skip-if-stale test for late completions.
  int64_t SlotOf(Id id) const {
    const uint32_t slot = RawSlot(id);
    if (slot >= gen_.size() || gen_[slot] != static_cast<uint32_t>(id >> 32)) {
      return -1;
    }
    return static_cast<int64_t>(slot);
  }

  // The slot of an id the caller knows is live (freshly allocated, or the
  // op's sole continuation). Unchecked by design — hot path.
  static uint32_t RawSlot(Id id) { return static_cast<uint32_t>(id); }

  size_t capacity() const { return gen_.size(); }
  size_t live() const { return live_; }

  size_t cand_width() const { return cand_width_; }
  // The op's candidate row: cand_width() entries.
  int32_t* cands_of(uint32_t slot) {
    return cands.data() + slot * cand_width_;
  }

  // Columns, addressed by slot. Never hold a column reference across a
  // call that may Allocate (vector growth moves the storage).
  std::vector<uint64_t> key;
  std::vector<uint64_t> version;   // writes: the version this op installs
  std::vector<SimTime> t0;
  std::vector<uint64_t> trace_id;
  std::vector<uint64_t> tag;       // caller context (client id)
  std::vector<int32_t> attempts;
  std::vector<uint8_t> flags;
  // The current attempt's fan-out, for every op kind (reset per attempt).
  struct Fanout {
    int16_t launched = 0;
    int16_t answered = 0;  // a launch that could not be admitted counts
                           // as a failed answer
    int16_t ok = 0;        // successful answers
    int16_t quorum = 0;    // successful answers that complete the op
    int16_t limit = 0;     // launches the attempt may make in all
  };
  std::vector<Fanout> fanout;
  // A hedged attempt's pending launch, valid exactly while launched <
  // limit, and its ranked candidates, cand_width entries per slot.
  std::vector<EventId> timer;
  std::vector<int32_t> cands;

 private:
  static Id MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(gen) << 32) | slot;
  }

  size_t cand_width_;
  std::vector<uint32_t> gen_;
  std::vector<uint32_t> free_;
  size_t live_ = 0;
};

}  // namespace fst

#endif  // SRC_CLUSTER_FLEET_OP_TABLE_H_
