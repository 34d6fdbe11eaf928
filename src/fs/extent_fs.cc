#include "src/fs/extent_fs.h"

#include <algorithm>
#include <memory>

namespace fst {

ExtentFileSystem::ExtentFileSystem(Simulator& sim, Disk& disk, FsParams params)
    : sim_(sim), disk_(disk), params_(params) {
  free_.emplace(0, params_.total_blocks);
  free_blocks_ = params_.total_blocks;
}

std::vector<Extent> ExtentFileSystem::Allocate(int64_t nblocks) {
  std::vector<Extent> extents;
  if (nblocks > free_blocks_) {
    return extents;  // empty: insufficient space
  }
  int64_t remaining = nblocks;
  // First-fit: walk the free list in address order, carving pieces.
  auto it = free_.begin();
  while (remaining > 0 && it != free_.end()) {
    const int64_t start = it->first;
    const int64_t len = it->second;
    const int64_t take = std::min({remaining, len, params_.max_extent_blocks});
    extents.push_back(Extent{start, take});
    it = free_.erase(it);
    if (take < len) {
      it = free_.emplace_hint(it, start + take, len - take);
      // Re-carve from the same (shrunken) segment if the extent cap was
      // the limiter.
    }
    remaining -= take;
    free_blocks_ -= take;
  }
  if (remaining > 0) {
    // Should not happen (checked up front), but restore on failure.
    Free(extents);
    extents.clear();
  }
  return extents;
}

void ExtentFileSystem::Free(const std::vector<Extent>& extents) {
  for (const Extent& e : extents) {
    auto [it, inserted] = free_.emplace(e.start, e.length);
    free_blocks_ += e.length;
    if (!inserted) {
      continue;
    }
    // Coalesce with successor.
    auto next = std::next(it);
    if (next != free_.end() && it->first + it->second == next->first) {
      it->second += next->second;
      free_.erase(next);
    }
    // Coalesce with predecessor.
    if (it != free_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second == it->first) {
        prev->second += it->second;
        free_.erase(it);
      }
    }
  }
}

FileId ExtentFileSystem::CreateFile(int64_t nblocks) {
  std::vector<Extent> extents = Allocate(nblocks);
  if (extents.empty() && nblocks > 0) {
    return -1;
  }
  const FileId id = next_id_++;
  files_.emplace(id, std::move(extents));
  return id;
}

bool ExtentFileSystem::DeleteFile(FileId id) {
  auto it = files_.find(id);
  if (it == files_.end()) {
    return false;
  }
  Free(it->second);
  files_.erase(it);
  return true;
}

int ExtentFileSystem::ExtentCountOf(FileId id) const {
  auto it = files_.find(id);
  if (it == files_.end()) {
    return 0;
  }
  return static_cast<int>(it->second.size());
}

void ExtentFileSystem::ReadFile(FileId id, std::function<void(double, bool)> done) {
  auto it = files_.find(id);
  if (it == files_.end() || it->second.empty()) {
    done(0.0, false);
    return;
  }
  struct State {
    std::vector<Extent> extents;
    size_t next = 0;
    int64_t total_blocks = 0;
    SimTime started;
    std::function<void(double, bool)> done;
  };
  auto st = std::make_shared<State>();
  st->extents = it->second;
  st->started = sim_.Now();
  st->done = std::move(done);
  for (const Extent& e : st->extents) {
    st->total_blocks += e.length;
  }
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, st, step]() {
    if (st->next >= st->extents.size()) {
      const double secs = (sim_.Now() - st->started).ToSeconds();
      const double bytes = static_cast<double>(st->total_blocks) *
                           static_cast<double>(disk_.params().block_bytes);
      st->done(secs > 0.0 ? bytes / 1e6 / secs : 0.0, true);
      return;
    }
    const Extent e = st->extents[st->next++];
    DiskRequest req;
    req.kind = IoKind::kRead;
    req.offset_blocks = e.start;
    req.nblocks = e.length;
    req.done = [st, step](const IoResult& r) {
      if (!r.ok) {
        st->done(0.0, false);
        return;
      }
      (*step)();
    };
    disk_.Submit(std::move(req));
  };
  (*step)();
}

void ExtentFileSystem::Age(int cycles, Rng& rng) {
  for (int c = 0; c < cycles; ++c) {
    // Create a batch of small-to-medium files...
    for (int i = 0; i < 16; ++i) {
      const int64_t nblocks = rng.UniformInt(4, 64);
      const FileId id = CreateFile(nblocks);
      if (id >= 0) {
        churn_files_.push_back(id);
      }
    }
    // ...then delete a random half of all live churn files, leaving holes.
    rng.Shuffle(churn_files_);
    const size_t keep = churn_files_.size() / 2;
    while (churn_files_.size() > keep) {
      DeleteFile(churn_files_.back());
      churn_files_.pop_back();
    }
  }
}

}  // namespace fst
