#include "src/dev/disk_driver.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/kern/kernel_context.h"

namespace ikdp {

// Elevator-queue krace probes are COMMUTE: disksort places each request by
// block number regardless of arrival order, the single-issue handshake is
// enforced by hw_busy_ itself, and the one order-sensitive residue — which
// of two same-timestamp submitters lands first when their blocks tie — is
// tie-break freedom validated by the schedule-perturbation mode
// (docs/krace.md).  The `diskq` channel carries the submit -> issue edge
// for the declared IKDP_ORDERED_BY(diskq) queue.

DiskDriver::DiskDriver(CpuSystem* cpu, Simulator* sim, DiskParams params)
    : BlockDevice(params.capacity_bytes / kBlockSize), cpu_(cpu), disk_(sim, std::move(params)) {}

SimDuration DiskDriver::Strategy(Buf& b) {
  assert(b.blkno >= 0 && b.blkno < CapacityBlocks());
  ++stats_.requests;
  // The DiskModel lives below the kernel layers and cannot see the CPU's
  // trace; refresh its pointer here so a log attached mid-run (or detached)
  // takes effect from the next request on.
  disk_.set_trace(cpu_->trace());
  if (TraceLog* t = cpu_->trace()) {
    t->Record(cpu_->sim()->Now(), TraceKind::kDiskEnqueue, b.blkno * kBlockSize, b.bcount,
              b.Has(kBufRead) ? "read" : "write");
  }
  lock_.Acquire();
  Disksort(&b);
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, QueueDepthLocked());
  if (!hw_busy_) {
    StartHw();
  }
  lock_.Release();
  // DMA hardware: the caller pays nothing beyond the generic driver-start
  // cost the buffer cache already charges.
  return 0;
}

void DiskDriver::Disksort(Buf* b) {
  // 4.2BSD disksort: one-way elevator.  Requests at or beyond the last
  // issued block sort ascending in the current sweep; requests behind it go
  // into a second ascending run serviced on the next sweep.
  const int64_t pivot = last_issued_blkno_;
  auto run_of = [pivot](const Buf* x) { return x->blkno >= pivot ? 0 : 1; };
  const int my_run = run_of(b);
  auto pos = queue_.begin();
  while (pos != queue_.end()) {
    const int r = run_of(*pos);
    if (r > my_run || (r == my_run && (*pos)->blkno > b->blkno)) {
      break;
    }
    ++pos;
  }
  if (pos != queue_.end() || (!queue_.empty() && my_run == 0)) {
    ++stats_.sort_passes;
  }
  IKDP_KRACE_COMMUTE(this, "DiskDriver::queue_");
  queue_.insert(pos, b);
  if (KraceEnabled()) Krace().ChannelRelease(&queue_);
}

void DiskDriver::StartHw() {
  if (KraceEnabled()) Krace().ChannelAcquire(&queue_);
  IKDP_KRACE_COMMUTE(this, "DiskDriver::hw_busy_");
  if (queue_.empty()) {
    hw_busy_ = false;
    return;
  }
  hw_busy_ = true;
  IKDP_KRACE_COMMUTE(this, "DiskDriver::queue_");
  Buf* b = queue_.front();
  queue_.pop_front();
  last_issued_blkno_ = b->blkno;
  DiskRequest req;
  req.offset = b->blkno * kBlockSize;
  req.nbytes = b->bcount;
  req.is_read = b->Has(kBufRead);
  req.span = b->span;  // rides the hardware queue for dispatch/complete tagging
  req.done = [this, b](bool ok) { Complete(b, ok, ok ? 0 : disk_.last_error()); };
  disk_.Submit(std::move(req));
}

void DiskDriver::Complete(Buf* b, bool ok, int error) {
  ++stats_.interrupts;
  // The completion interrupt belongs to the request whose buffer this is:
  // the scope covers the RunInterrupt call, so the interrupt overhead (and,
  // via the captured tag, the body's charges) attribute to b->span.
  KspanScope scope("disk", b->span);
  cpu_->RunInterrupt(cpu_->costs().interrupt_overhead, [this, b, ok, error] {
    if (!ok) {
      // Unrecoverable media error: no content moves; the error flag and
      // errno ride the buffer up through biodone to whoever waits on it.
      b->error = error != 0 ? error : kErrIo;
      b->Set(kBufError);
      // Biodone with the queue lock dropped: completion handlers re-enter
      // Strategy (splice refill through the cache) and take cache-side locks
      // that rank outside diskq.
      Biodone(*b);
      lock_.Acquire();
      StartHw();
      lock_.Release();
      return;
    }
    MoveContent(*b, b->Has(kBufRead));
    Biodone(*b);
    lock_.Acquire();
    StartHw();
    lock_.Release();
  });
}

}  // namespace ikdp
