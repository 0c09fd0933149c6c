#include "src/dev/ram_disk.h"

#include <cassert>

namespace ikdp {

RamDisk::RamDisk(CpuSystem* cpu, int64_t capacity_bytes)
    : BlockDevice(capacity_bytes / kBlockSize), cpu_(cpu) {
  assert(CapacityBlocks() > 0);
}

SimDuration RamDisk::Strategy(Buf& b) {
  assert(b.blkno >= 0 && b.blkno < CapacityBlocks());
  SimDuration copy = 0;
  const bool is_read = b.Has(kBufRead);
  if (is_read) {
    ++stats_.reads;
  } else {
    ++stats_.writes;
    copy = cpu_->costs().BcopyTime(b.bcount);
    stats_.copy_time += copy;
  }
  // Zero-copy read: the buffer maps the block's core directly, so only a
  // write is charged.  (The simulation materializes the bytes host-side
  // either way; no simulated time.)
  MoveContent(b, is_read);
  // Synchronous completion: the data is already in place by the time the
  // bcopy (if any) finishes in the caller's context.
  Biodone(b);
  return copy;
}

}  // namespace ikdp
