// The splice engine: the paper's in-kernel data path (Sections 5.2-5.5).
//
// One SpliceDescriptor per active splice keeps "all necessary information
// ... so I/O [can] proceed without requiring the calling process context to
// be available" (Section 5.2.1).  The mechanism:
//
//  * Read side (5.2.2): asynchronous reads are issued through the source
//    endpoint (for files, the modified no-biowait bread()).  A completed
//    read's handler runs in interrupt context and schedules the write
//    handler "at the head of the system callout list".
//
//  * Write side (5.2.3): the write handler runs at softclock, acquires a
//    sink-side buffer that SHARES the read buffer's data area (no copy),
//    and issues an asynchronous write.  The write-completion handler
//    releases both buffers and restarts the cycle.
//
//  * Flow control (5.2.4): rate-based, driven by write completions.  "If
//    the number of pending reads and the number of pending writes drop
//    below pre-specified watermarks (currently 3 and 5, respectively), the
//    write handler will issue up to five additional reads."
//
// The callout indirection decouples the I/O access periods of the two
// devices (no lock-step), and chunks may complete out of order — each
// carries its logical index, as the paper's extended buffer headers do.
//
// SpliceOptions exposes the watermarks and a zero_copy switch so the
// ablation benches can measure each design choice in isolation.

#ifndef SRC_SPLICE_SPLICE_ENGINE_H_
#define SRC_SPLICE_SPLICE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/kern/cpu.h"
#include "src/kern/ctx.h"
#include "src/kern/lock.h"
#include "src/kop/kop.h"
#include "src/sim/callout.h"
#include "src/sim/kspan.h"
#include "src/sim/trace.h"
#include "src/splice/endpoint.h"

#if IKDP_TSA_ENABLED
// Clang thread-safety bridge: map the klock lock name "splice" onto the
// SpinLock member that backs it (see src/kern/ctx.h, "TSA BRIDGE").
#define splice_ikdp_tsa_cap , lock_
#endif

namespace ikdp {

struct SpliceOptions {
  // Flow-control watermarks (paper defaults: 3 pending reads, 5 pending
  // writes, refill batches of up to 5 reads).
  int read_low_watermark = 3;
  int write_high_watermark = 5;
  int refill_batch = 5;

  // Upper bound on chunks a descriptor may hold between read completion and
  // write completion.  Keeps synchronous devices (RAM disk, cache hits) from
  // cascading the whole file through one call chain; async disks never reach
  // it (their depth is bounded by the watermarks).
  int max_inflight_chunks = 8;

  // Write-side chunks started per softclock tick.  Kernels bound the work
  // done at software-interrupt level per tick; this is what paces a splice
  // between fast (synchronous) devices and leaves CPU for user processes —
  // the RAM-disk rows of the paper's Tables 1 and 2 reflect exactly this
  // pacing.
  int max_chunks_per_tick = 2;

  // When false, the write side copies the data between buffers instead of
  // aliasing the read buffer's data area (ablation of the paper's zero-copy
  // design; the copy is charged as kernel bcopy time).
  bool zero_copy = true;

  // When false, the write handler runs directly from the read-completion
  // handler instead of via the callout list (ablation of the decoupling).
  bool callout_deferral = true;

  // When true, destination-file premapping uses the stock bmap, which
  // schedules zero-fill delayed writes for every fresh block (the behaviour
  // the paper's special bmap avoids, Section 5.2.1).  Consumed by the
  // syscall layer, not the engine.
  bool stock_destination_bmap = false;

  // Verified in-kernel operator program (src/kop) to run over every chunk on
  // the write side, in the context that starts the write (interrupt with
  // callout_deferral off, softclock otherwise).  Null — the default — takes
  // the exact pre-kop code path: no extra branches charged, no RNG, no
  // simulated-time change, which is what keeps Tables 1/2 byte-identical.
  // The engine aborts on an unverified program (reject-unverified-program);
  // bind sites turn that into kErrInval before it gets here.
  std::shared_ptr<const KopProgram> kop_program;
};

// Completion report delivered by Start: enough to build a completion-queue
// entry (result, error class, per-op latency) without the caller keeping
// shadow state.  `cancelled` means a user cancel, not an error-driven abort
// (io_error covers that).
struct SpliceCompletion {
  uint64_t serial = 0;
  int64_t bytes_moved = 0;
  bool io_error = false;
  bool cancelled = false;
  // Errno of the first failure when io_error is set (kErrIo, kErrNoSpc, ...);
  // 0 otherwise.  Rides into the ring's CQE res field and onto the
  // descriptor for sync/FASYNC callers.
  int error = 0;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  // Operator results (src/kop), meaningful when kop_active: the final
  // checksum accumulator and how many chunks the program consumed in-kernel.
  bool kop_active = false;
  uint64_t kop_checksum = 0;
  int64_t kop_dropped = 0;
};

// A splice the syscall layer has validated and built endpoints for: the
// arguments of SpliceEngine::Start, plus the hook that updates sink-side
// file state (seek offset, inode size) once the byte count is known.
struct ResolvedSplice {
  std::unique_ptr<SpliceSource> source;
  std::vector<std::unique_ptr<SpliceSink>> sinks;
  std::function<void(int64_t)> on_moved;  // set only for a regular-file sink
  SpliceOptions opts;
};

class SpliceDescriptor {
 public:
  uint64_t serial() const { return serial_; }
  int64_t bytes_moved() const {
    SpinGuard g(lock_);
    return bytes_moved_;
  }
  int64_t chunks_done() const {
    SpinGuard g(lock_);
    return chunks_done_;
  }
  bool finished() const {
    SpinGuard g(lock_);
    return finished_;
  }
  // Errno of the first I/O failure on this splice (0 while healthy).
  int error() const {
    SpinGuard g(lock_);
    return error_;
  }
  // The stream's kspan: a fresh child of the requester's span when a
  // collector is attached, the requester's span itself otherwise.  Every
  // handler pushes it, so interrupt/softclock charges and trace records for
  // this stream attribute to the request that started it.
  SpanId span() const { return span_; }

  struct Stats {
    uint64_t read_retries = 0;   // StartRead refusals
    uint64_t write_retries = 0;  // StartWrite refusals
    uint64_t refills = 0;        // flow-control read batches issued
    int max_pending_reads = 0;
    int max_pending_writes = 0;
  };
  const Stats& stats() const { return stats_; }
  // Operator run state (chunks in/dropped/rejected, checksum accumulator).
  const KopRunState& kop() const { return kop_; }

 private:
  friend class SpliceEngine;

  uint64_t serial_ = 0;
  std::unique_ptr<SpliceSource> source_;
  // Sinks this splice fans out to; sinks_[0] is the primary (and only)
  // destination unless a route-stage operator is attached, in which case the
  // operator picks the sink per chunk (fan-out fixed at Start).
  std::vector<std::unique_ptr<SpliceSink>> sinks_;
  SpliceOptions opts_;
  // Per-descriptor operator state.  Touched by whichever context runs the
  // write side for this descriptor (same sharing as the counters below).
  KopRunState kop_ IKDP_GUARDED_BY(any);

  // The descriptor's flow-control lock (docs/klock.md).  Fine-grained: it
  // covers counter clusters only and is NEVER held across an endpoint call
  // (StartRead/StartWrite/Release/CancelRead — a pipe sink can complete the
  // peer descriptor's read synchronously, nesting two same-rank `splice`
  // locks) nor across the completion callback (the ring's lock ranks
  // OUTSIDE this one).  It IS held across ScheduleHead in ArmDrain /
  // ArmReadRetry — a deliberate splice -> callout nesting, legal by rank.
  // `mutable` lets the const accessors above lock.
  mutable SpinLock lock_ IKDP_LOCK_RANK(splice, 30) = SpinLock("splice", 30);

  // Flow-control state (paper Section 5.2.4).  Touched by the process that
  // starts the splice, the interrupt-level read handler, and the softclock
  // write handler — the whole point of the descriptor is that no single
  // context owns the transfer, hence the lock plus krace WRITE probes at
  // every mutation site in splice_engine.cc.
  int64_t chunks_total_ IKDP_GUARDED_BY(lock:splice) = -1;  // -1 until EOF bounds a stream
  int64_t next_read_ IKDP_GUARDED_BY(lock:splice) = 0;      // next chunk index to issue
  int64_t reads_issued_ IKDP_GUARDED_BY(lock:splice) = 0;   // StartRead successes
  int64_t chunks_done_ IKDP_GUARDED_BY(lock:splice) = 0;    // write completions
  int pending_reads_ IKDP_GUARDED_BY(lock:splice) = 0;      // issued, not yet completed reads
  int pending_writes_ IKDP_GUARDED_BY(lock:splice) = 0;     // issued, not yet completed writes
  int64_t bytes_moved_ IKDP_GUARDED_BY(lock:splice) = 0;
  bool eof_ IKDP_GUARDED_BY(lock:splice) = false;
  bool cancelled_ IKDP_GUARDED_BY(lock:splice) = false;
  bool io_error_ IKDP_GUARDED_BY(lock:splice) = false;  // unrecoverable read/write error
  int error_ IKDP_GUARDED_BY(lock:splice) IKDP_STICKY_ERRNO = 0;  // errno of the FIRST failure
  bool finished_ IKDP_GUARDED_BY(lock:splice) = false;
  bool read_retry_armed_ IKDP_GUARDED_BY(lock:splice) = false;
  bool drain_armed_ IKDP_GUARDED_BY(lock:splice) = false;
  // Written once at Start, read by every handler context afterwards —
  // immutable for the descriptor's life, so any context may read it.
  SpanId span_ IKDP_GUARDED_BY(any) = kNoSpan;
  bool span_owned_ IKDP_GUARDED_BY(any) = false;  // minted (must End) vs inherited
  SimTime started_at_ = 0;
  CalloutId retry_callout_ = kInvalidCalloutId;
  // Chunks whose reads completed, awaiting the softclock write handler.
  // Produced by ReadDone (interrupt), consumed by DrainWrites (softclock);
  // the handoff is serialized by the callout list, not by a context rule.
  std::deque<SpliceChunk> ready_ IKDP_ORDERED_BY(callout);
  std::function<void(const SpliceCompletion&)> on_complete_;
  Stats stats_;

  // Lock-held: every caller (the IssueReads admission condition) holds lock_.
  // IKDP_REQUIRES seeds the kcheck entry-held fixpoint and becomes
  // requires_capability under TSA.
  IKDP_REQUIRES(splice) int InFlight() const {
    return static_cast<int>(reads_issued_ - chunks_done_);
  }
};

class SpliceEngine {
 public:
  SpliceEngine(CpuSystem* cpu, CalloutTable* callouts);

  SpliceEngine(const SpliceEngine&) = delete;
  SpliceEngine& operator=(const SpliceEngine&) = delete;

  // Starts a splice from `source` into `sinks`.  The source bounds the
  // transfer (TotalBytes, or EOF chunks for streams).  Without an operator
  // program there is exactly one sink; with one, exactly its SinkCount(),
  // and a route stage picks each chunk's sink — bind sites validate with
  // kErrInval, the engine aborts.  `on_complete` fires in kernel context
  // once every chunk has drained, with the full report (bytes, error/cancel
  // flags, start and finish timestamps).  The descriptor stays valid until
  // then.
  IKDP_CTX_ANY SpliceDescriptor* Start(std::unique_ptr<SpliceSource> source,
                                       std::vector<std::unique_ptr<SpliceSink>> sinks,
                                       SpliceOptions opts,
                                       std::function<void(const SpliceCompletion&)> on_complete);

  // Stops issuing reads; the splice completes (invoking on_complete) once
  // in-flight chunks drain.
  IKDP_CTX_ANY void Cancel(SpliceDescriptor* d);

  int active() const { return static_cast<int>(descriptors_.size()); }

  struct Stats {
    uint64_t splices_started = 0;
    uint64_t splices_completed = 0;
    int64_t total_bytes = 0;
    // Operator execution totals across all descriptors (descriptors are
    // destroyed at completion, so per-chunk results accumulate here).
    uint64_t kop_chunks_in = 0;
    uint64_t kop_chunks_dropped = 0;
    uint64_t kop_chunks_rejected = 0;
    int64_t kop_bytes_in = 0;
    int64_t kop_bytes_out = 0;
    SimDuration kop_exec_time = 0;
  };
  const Stats& stats() const { return stats_; }

  // Drains handler CPU cost accumulated while running in process context
  // (handlers invoked synchronously from a Start call rather than from an
  // interrupt).  The syscall layer charges this to the calling process;
  // mirrors BufferCache::TakeSyncCharge.
  SimDuration TakeSyncCharge() { return std::exchange(pending_sync_charge_, 0); }

  // Same, for operator execution cost: charged to the calling process via
  // CpuSystem::UseKop so it lands in the kKopProcess attribution bucket.
  SimDuration TakeSyncKopCharge() { return std::exchange(pending_sync_kop_charge_, 0); }

 private:
  // Issues reads up to the refill batch (paper Section 5.2.4).
  IKDP_CTX_ANY void IssueReads(SpliceDescriptor* d);

  // Read-completion handler.  Usually runs at interrupt level (device
  // biodone), but synchronous devices invoke it from the submitting context,
  // so it must tolerate any context.
  IKDP_CTX_ANY void ReadDone(SpliceDescriptor* d, SpliceChunk chunk);

  // Arms the next-tick write-side drain (softclock context).
  IKDP_CTX_ANY void ArmDrain(SpliceDescriptor* d);

  // Softclock write handler: starts up to max_chunks_per_tick ready chunks.
  // (With callout_deferral off it runs straight from ReadDone instead.)
  IKDP_CTX_SOFTCLOCK void DrainWrites(SpliceDescriptor* d);

  // Starts the write of one chunk.  Returns false if the sink refused it
  // (caller re-queues).
  IKDP_CTX_ANY bool StartChunkWrite(SpliceDescriptor* d, SpliceChunk chunk);

  // Write-completion handler.
  IKDP_CTX_ANY void WriteDone(SpliceDescriptor* d, SpliceChunk chunk, bool ok);

  // Rate-based flow control (Section 5.2.4): pulls more reads when both
  // pending counts are below their watermarks.  Runs on every chunk
  // retirement — write completions AND operator drops, which consume chunks
  // without ever reaching a sink and would otherwise stall a heavily
  // filtered stream once the initial read batch drained.
  IKDP_CTX_ANY void MaybeRefill(SpliceDescriptor* d);

  // Runs the attached operator program over `chunk` in the current context.
  // Charges the execution cost to the kop attribution buckets, traces the
  // outcome, and updates the descriptor + engine counters.
  IKDP_CTX_ANY KopOutcome ExecKop(SpliceDescriptor* d, SpliceChunk& chunk);

  // Drops an outstanding stream read whose completion will never arrive
  // (source blocked on a peer) once the splice is being torn down, so a
  // cancelled or errored splice converges instead of hanging on
  // pending_reads_.  No-op for sources whose reads always complete.
  IKDP_CTX_ANY void AbortPendingRead(SpliceDescriptor* d);

  // Arms a next-tick retry for refused reads.
  IKDP_CTX_ANY void ArmReadRetry(SpliceDescriptor* d);

  // Completes the splice if nothing is left in flight.
  IKDP_CTX_ANY void MaybeFinish(SpliceDescriptor* d);

  // Runs `fn` at the next softclock tick, charged as softclock work
  // attributed to `span`.  Returns the callout, for Untimeout.
  IKDP_CTX_ANY CalloutId Softclock(SpanId span, std::function<void()> fn);

  // A body queued for `d` can run after `d` finished and was erased, its
  // address perhaps reused by a newer splice: such a body touches `d` only
  // while this holds.
  bool Registered(SpliceDescriptor* d, uint64_t serial) const;

  // Charges handler work to the executing interrupt, or accumulates it for
  // TakeSyncCharge when running in process context (e.g. a read handler
  // invoked synchronously by a RAM-disk Strategy during splice setup).
  IKDP_CTX_ANY void Charge(SimDuration d);

  // Charge() for operator execution: ChargeKop at interrupt level (kop
  // interrupt/softclock buckets), parked for TakeSyncKopCharge otherwise.
  IKDP_CTX_ANY void ChargeKopCost(SimDuration d);

  CpuSystem* cpu_;
  CalloutTable* callouts_;
  std::unordered_map<SpliceDescriptor*, std::unique_ptr<SpliceDescriptor>> descriptors_;
  SimDuration pending_sync_charge_ = 0;
  SimDuration pending_sync_kop_charge_ = 0;
  Stats stats_;
};

}  // namespace ikdp

#endif  // SRC_SPLICE_SPLICE_ENGINE_H_
