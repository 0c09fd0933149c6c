// SCSI disk block-device driver.
//
// Sits between the buffer cache and a DiskModel (src/hw/disk.h).  The
// strategy routine inserts requests into a cyclical elevator queue
// (4.2BSD disksort()) and feeds the hardware one request at a time; each
// hardware completion raises a device interrupt that is charged to the CPU
// (interrupt stealing) and then delivers Biodone() on the buffer.
//
// The device's *contents* live in its BlockStore (src/buf/block_store.h),
// so files written through the simulator can be read back and verified
// byte-for-byte.  Content moves at completion time; timing comes from the
// DiskModel.

#ifndef SRC_DEV_DISK_DRIVER_H_
#define SRC_DEV_DISK_DRIVER_H_

#include <cstdint>
#include <deque>

#include "src/buf/buf.h"
#include "src/hw/disk.h"
#include "src/kern/cpu.h"
#include "src/kern/lock.h"

#if IKDP_TSA_ENABLED
// Clang thread-safety bridge: map the klock lock name "diskq" onto the
// SpinLock member that backs it (see src/kern/ctx.h, "TSA BRIDGE").
#define diskq_ikdp_tsa_cap , lock_
#endif

namespace ikdp {

class DiskDriver : public BlockDevice {
 public:
  DiskDriver(CpuSystem* cpu, Simulator* sim, DiskParams params);

  // BlockDevice:
  IKDP_CTX_ANY SimDuration Strategy(Buf& b) override;
  const char* Name() const override { return disk_.params().name.c_str(); }

  DiskModel& disk() { return disk_; }

  struct Stats {
    uint64_t requests = 0;
    uint64_t interrupts = 0;
    uint64_t sort_passes = 0;    // requests that were reordered by disksort
    size_t max_queue_depth = 0;  // high-water mark incl. in-flight request
  };
  const Stats& stats() const { return stats_; }

  // Queue depth including the request at the hardware.
  size_t QueueDepth() const {
    SpinGuard g(lock_);
    return QueueDepthLocked();
  }

 private:
  // Lock-held variant for internal stats sites.  IKDP_REQUIRES seeds the
  // kcheck entry-held fixpoint and becomes requires_capability under TSA.
  IKDP_REQUIRES(diskq) size_t QueueDepthLocked() const {
    return queue_.size() + (hw_busy_ ? 1 : 0);
  }

  // Inserts into the elevator queue: ascending block order in the current
  // sweep, overflow requests sorted into the next sweep.
  IKDP_CTX_ANY IKDP_REQUIRES(diskq) void Disksort(Buf* b);
  IKDP_CTX_ANY IKDP_REQUIRES(diskq) void StartHw();
  // Hardware completion: raises the device interrupt itself (RunInterrupt),
  // so it is callable from any context but its body runs at interrupt level.
  IKDP_CTX_ANY void Complete(Buf* b, bool ok, int error);

  CpuSystem* cpu_;
  DiskModel disk_;
  // The elevator-queue lock (docs/klock.md).  Held across Disksort/StartHw
  // including disk_.Submit (the model completes via scheduled events, never
  // synchronously) but NEVER across Biodone: completion handlers re-enter
  // Strategy through the cache, and the cache lock ranks outside this one.
  mutable SpinLock lock_ IKDP_LOCK_RANK(diskq, 50) = SpinLock("diskq", 50);
  // Elevator queue, front is next to issue.  Fed by Strategy() from process,
  // interrupt, and softclock context; drained by StartHw() from Strategy and
  // from the completion interrupt.  The `diskq` krace channel still carries
  // the submit -> issue happens-before edge.
  std::deque<Buf*> queue_ IKDP_GUARDED_BY(lock:diskq);
  bool hw_busy_ IKDP_GUARDED_BY(lock:diskq) = false;
  int64_t last_issued_blkno_ IKDP_GUARDED_BY(lock:diskq) = 0;
  Stats stats_;
};

}  // namespace ikdp

#endif  // SRC_DEV_DISK_DRIVER_H_
