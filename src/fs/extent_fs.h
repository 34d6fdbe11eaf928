// A minimal extent-allocating file system on a simulated disk — the
// substrate behind the Section 2.2.1 file-layout anecdote:
//
//   "file system layout can lead to non-identical performance across
//    otherwise identical disks and file systems. Sequential file read
//    performance across aged file systems varies by up to a factor of
//    two, even when the file systems are otherwise empty. However, when
//    the file systems are recreated afresh, sequential file read
//    performance is identical across all drives."
//
// Files are allocated first-fit from a coalescing free list. A fresh file
// system hands out one contiguous extent per file; an *aged* one (after
// create/delete churn) has a fragmented free list, so files splinter into
// many extents and a "sequential" read pays a positioning cost per
// fragment. Aging here is metadata-only churn (no simulated I/O), so it
// is cheap to apply in tests and benches; the performance effect appears
// when files are subsequently read through the disk.
#ifndef SRC_FS_EXTENT_FS_H_
#define SRC_FS_EXTENT_FS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/devices/disk.h"
#include "src/simcore/rng.h"
#include "src/simcore/simulator.h"

namespace fst {

using FileId = int64_t;

struct Extent {
  int64_t start = 0;
  int64_t length = 0;
};

struct FsParams {
  int64_t total_blocks = 1 << 20;
  // Largest extent handed out per allocation even when space is
  // contiguous; real allocators bound extent size (e.g. block groups).
  int64_t max_extent_blocks = 4096;
};

class ExtentFileSystem {
 public:
  ExtentFileSystem(Simulator& sim, Disk& disk, FsParams params);

  // Allocates a file of `nblocks`; returns -1 if space is exhausted.
  FileId CreateFile(int64_t nblocks);
  bool DeleteFile(FileId id);

  // Sequential whole-file read through the disk; done(mbps, ok).
  void ReadFile(FileId id, std::function<void(double, bool)> done);

  // Create/delete churn that fragments the free list: each cycle creates
  // a batch of random-size files and deletes a random half of ALL live
  // churn files. Deterministic for a given Rng state.
  void Age(int cycles, Rng& rng);

  // Fragments the file is stored in (1 = perfectly contiguous).
  int ExtentCountOf(FileId id) const;

  int64_t free_blocks() const { return free_blocks_; }
  size_t file_count() const { return files_.size(); }
  size_t free_segments() const { return free_.size(); }

 private:
  std::vector<Extent> Allocate(int64_t nblocks);
  void Free(const std::vector<Extent>& extents);

  Simulator& sim_;
  Disk& disk_;
  FsParams params_;
  // Free list keyed by start block; coalesced on free.
  std::map<int64_t, int64_t> free_;
  std::map<FileId, std::vector<Extent>> files_;
  std::vector<FileId> churn_files_;
  FileId next_id_ = 1;
  int64_t free_blocks_ = 0;
};

}  // namespace fst

#endif  // SRC_FS_EXTENT_FS_H_
