// The asynchronous splice submission/completion ring.
//
// FASYNC+SIGIO (paper Section 3) asynchronizes ONE splice per process: one
// signal with no per-operation status, and every submission still pays a
// full syscall trap.  The ring generalizes the paper's mechanism to N
// concurrent streams by amortizing kernel entries over batches — the
// syscall-aggregation idea of AnyCall and "BPF for storage" (PAPERS.md):
//
//  * a process PREPARES splice descriptors (SQEs) in its submission queue
//    with no kernel involvement at all;
//  * one RingEnter trap admits a whole batch, builds the endpoints in
//    process context, and starts as many operations as the in-flight cap
//    allows (the rest queue FIFO);
//  * completions are retired into the completion queue by a softclock
//    reaper riding the existing callout machinery; harvesting posted CQEs
//    never traps.
//
// Backpressure: a ring admits at most `sq_entries` unfinished operations.
// When the queue is full, RingEnter either returns EAGAIN or blocks until
// the reaper frees slots (`block_on_full`) — both policies are modeled.
// A full CQ never loses completions: they stage in an overflow list and
// drain into the CQ as entries are harvested.
//
// LINKED groups: an SQE carrying kSqeLinked chains with its successor into
// a pipeline group (disk -> pipe -> net).  Unlike io_uring's sequential
// links, a group's stages start CONCURRENTLY and atomically — stage k+1
// must consume stage k's output as it streams (a pipe's capacity is far
// smaller than a transfer), so sequential links would deadlock.  Admission,
// start, and cancellation treat a group as one unit, and a member's failure
// cancels its siblings.
//
// This layer knows nothing about file descriptors: the syscall layer
// (src/os/kernel.cc) resolves SQEs into endpoints and feeds them in as
// PreparedOps.

#ifndef SRC_AIO_SPLICE_RING_H_
#define SRC_AIO_SPLICE_RING_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/kern/cpu.h"
#include "src/kern/ctx.h"
#include "src/kern/kernel_context.h"
#include "src/kern/lock.h"
#include "src/sim/callout.h"
#include "src/splice/splice_engine.h"

#if IKDP_TSA_ENABLED
// Clang thread-safety bridge: map the klock lock name "ring" onto the
// SpinLock member that backs it (see src/kern/ctx.h, "TSA BRIDGE").
#define ring_ikdp_tsa_cap , lock_
#endif

namespace ikdp {

// Errno values used by the ring surface (positive; syscalls return -errno).
inline constexpr int kAioENoent = 2;     // unknown cookie
inline constexpr int kAioEIo = 5;        // unrecoverable device error
inline constexpr int kAioEBadf = 9;      // bad ring id / file descriptor
inline constexpr int kAioEAgain = 11;    // submission queue full
inline constexpr int kAioEBusy = 16;     // op already started; cannot cancel
inline constexpr int kAioEInval = 22;    // malformed SQE / endpoint refusal
inline constexpr int kAioENoSpc = 28;    // destination device out of space
inline constexpr int kAioECanceled = 125;

// SQE flag: this entry and its successor form one pipeline group (see the
// header comment — stages start concurrently, not sequentially).  The flag
// on the last prepared entry is ignored.
inline constexpr uint32_t kSqeLinked = 1u << 0;

// A submission-queue entry: one splice, described the way splice(2) takes
// its arguments, plus a user cookie echoed in the completion.
struct SpliceSqe {
  int src_fd = -1;
  int dst_fd = -1;
  int64_t nbytes = 0;   // kSpliceEof for until-end-of-stream
  uint32_t flags = 0;   // kSqeLinked
  uint64_t cookie = 0;  // echoed in the CQE; keep unique among in-flight ops
  // Operator program to run on every chunk of this splice (a kop_load(2)
  // id; 0 = none).  The syscall layer resolves the id and refuses programs
  // that cannot ride a single-sink op (route stages) or would drop bytes
  // into a seekable sink (filters writing a regular file).
  int kop_id = 0;
};

// A completion-queue entry.
struct SpliceCqe {
  uint64_t cookie = 0;
  int64_t result = 0;       // bytes moved (partial counts on cancel)
  // 0 on success; otherwise the errno of the failure.  Device errors keep
  // their identity (kAioEIo vs kAioENoSpc per the engine's completion
  // report); kAioECanceled / kAioEInval / kAioEBadf come from the ring and
  // syscall layers.
  int error = 0;
  SimDuration latency = 0;  // admission -> completion
  // Operator results (meaningful only when the SQE carried a kop_id):
  // running checksum over the stream and chunks filtered in-kernel.
  bool kop_active = false;
  uint64_t kop_checksum = 0;
  int64_t kop_dropped = 0;
};

struct RingConfig {
  int sq_entries = 32;   // cap on unfinished (admitted, unposted) ops
  int cq_entries = 64;   // CQ capacity; beyond it completions stage in overflow
  int max_inflight = 8;  // ops running in the splice engine at once
  bool block_on_full = false;  // RingEnter blocks for SQ space instead of EAGAIN
};

class SpliceRing {
 public:
  SpliceRing(int id, CpuSystem* cpu, CalloutTable* callouts, SpliceEngine* engine,
             RingConfig config);

  SpliceRing(const SpliceRing&) = delete;
  SpliceRing& operator=(const SpliceRing&) = delete;

  int id() const { return id_; }
  const RingConfig& config() const { return config_; }

  // --- user-side SQ (no trap, no kernel state) ---

  void Prepare(const SpliceSqe& sqe) {
    IKDP_KRACE_WRITE(this, "SpliceRing::prepared_");
    prepared_.push_back(sqe);
  }
  int PreparedCount() const { return static_cast<int>(prepared_.size()); }

  // --- kernel-side admission (called by Kernel::RingEnter) ---

  // Length of the linked run at the head of the prepared queue (0 if empty).
  int NextGroupSize() const;

  // True when `group_size` more ops fit under the sq_entries cap.
  bool CanAdmit(int group_size) const {
    SpinGuard g(lock_);
    return UnfinishedLocked() + group_size <= config_.sq_entries;
  }

  SpliceSqe PopPrepared();

  // An SQE the syscall layer resolved into engine endpoints.
  struct PreparedOp {
    SpliceSqe sqe;
    ResolvedSplice splice;
  };

  // Admits one resolved group: records submission, queues the ops, and
  // starts whatever the in-flight cap allows (in the caller's context —
  // synchronous-device setup costs land in the engine's sync-charge ledger
  // for the syscall layer to drain).
  IKDP_CTX_PROCESS void AdmitGroup(std::vector<PreparedOp> group);

  // Posts an immediate-failure completion for an SQE that failed validation
  // (bad fd, unspliceable endpoint).  Routed through the reaper like any
  // other completion.
  IKDP_CTX_PROCESS void FailSqe(const SpliceSqe& sqe, int error);

  // Records the batch-level trace events (kRingSubmit, kRingSqDepth) after
  // an admission loop; `admitted` counts SQEs, including failed ones.
  IKDP_CTX_PROCESS void NoteSubmitBatch(int admitted);

  // --- completions ---

  // Copies up to `max` posted CQEs into `out`, refilling the CQ from the
  // overflow stage as entries drain.  Never blocks, never traps.
  IKDP_CTX_PROCESS int Harvest(SpliceCqe* out, int max);

  // Posted, unharvested completions (CQ + overflow stage).
  int CqAvailable() const {
    SpinGuard g(lock_);
    return static_cast<int>(cq_.size() + overflow_.size());
  }

  // Cancels a QUEUED op by cookie: it retires with kAioECanceled (its queued
  // group siblings with it, since a partial pipeline cannot run).  Returns 0,
  // -kAioEBusy if the op already started, or -kAioENoent for an unknown
  // cookie.
  IKDP_CTX_PROCESS int Cancel(uint64_t cookie);

  // Admitted ops whose completion has not been posted yet.
  int unfinished() const {
    SpinGuard g(lock_);
    return UnfinishedLocked();
  }

  // Sleep channels for the two backpressure waits.
  const void* SqSpaceChan() const { return &sq_space_chan_; }
  const void* CqChan() const { return &cq_chan_; }

  struct Stats {
    uint64_t submitted = 0;   // SQEs admitted (including immediate failures)
    uint64_t completed = 0;   // CQEs posted
    uint64_t harvested = 0;   // CQEs handed to the process
    uint64_t cancelled = 0;   // ops retired via Cancel (incl. group siblings)
    uint64_t eagain_returns = 0;  // RingEnter calls bounced with EAGAIN
    uint64_t overflows = 0;   // completions that had to stage in overflow
    uint64_t reaps = 0;       // reaper passes
    int sq_depth_max = 0;     // high-water mark of unfinished ops
  };
  const Stats& stats() const { return stats_; }
  void NoteEagain() { ++stats_.eagain_returns; }

 private:
  struct Op {
    SpliceSqe sqe;
    int group = 0;
    enum class St { kQueued, kStarted, kRetired } st = St::kQueued;
    ResolvedSplice splice;  // handed to the engine at start
    SimTime submitted_at = 0;
    bool engine_called = false;        // handed to the splice engine
    SpliceDescriptor* desc = nullptr;  // valid while kStarted
    // The op's kspan ("aio.op"), minted at admission as a child of the
    // submitting process's span; ended exactly once at Retire — including
    // cancelled LINKED siblings, which retire like any other op.
    SpanId span = kNoSpan;
    bool span_owned = false;  // minted (must End) vs inherited
    // Completion payload (filled at retire time).
    int64_t result = 0;
    int error = 0;
    SimTime finished_at = 0;
    // Operator results captured from the engine completion (kop_active is
    // set from the options at retire so validation-failed ops report false).
    bool kop_active = false;
    uint64_t kop_checksum = 0;
    int64_t kop_dropped = 0;
  };

  // Starts queued groups FIFO while the in-flight cap has room for a whole
  // group (groups start atomically; a too-big head group blocks the line).
  IKDP_CTX_ANY void Pump();

  IKDP_CTX_ANY void StartOp(Op* op);

  // Engine completion: fills the op's CQE payload, cancels group siblings
  // on error, and arms the reaper.
  IKDP_CTX_ANY void OnEngineComplete(Op* op, const SpliceCompletion& c);

  // Moves an op from wherever it lives into retired_ with the given payload.
  IKDP_CTX_ANY void Retire(Op* op, int64_t result, int error);

  // Cancels every not-yet-retired member of `group` except `except`:
  // queued members retire immediately, started members are cancelled in
  // the engine (their completion arrives with cancelled=true).
  IKDP_CTX_ANY void CancelGroupSiblings(int group, const Op* except);

  IKDP_CTX_ANY void ArmReaper();

  // Softclock reaper body: posts retired completions into the CQ (or the
  // overflow stage), wakes waiters, and pumps newly-fitting queued ops.
  IKDP_CTX_SOFTCLOCK void Reap();

  // Lock-held variant of unfinished() for internal admission-control sites.
  // IKDP_REQUIRES seeds the kcheck entry-held fixpoint and becomes
  // requires_capability under TSA.
  IKDP_REQUIRES(ring) int UnfinishedLocked() const {
    return static_cast<int>(queued_.size() + started_.size() + retired_.size());
  }

  void Trace(TraceKind kind, int64_t b);

  const int id_;
  CpuSystem* cpu_;
  CalloutTable* callouts_;
  SpliceEngine* engine_;
  const RingConfig config_;

  // The ring lock (docs/klock.md): guards the kernel-side op queues, the
  // CQ/overflow pair, and the reaper latch.  It is fine-grained — never held
  // across engine_->Start / engine_->Cancel (both can complete an op
  // synchronously and re-enter Retire) — but IS held across ScheduleHead in
  // ArmReaper, a deliberate ring -> callout nesting (legal by rank; the
  // callout table never calls back synchronously).  `mutable` lets const
  // accessors (unfinished, CqAvailable) lock.
  mutable SpinLock lock_ IKDP_LOCK_RANK(ring, 20) = SpinLock("ring", 20);
  // The user-side SQ exists purely in process context (Prepare/PopPrepared
  // never leave the submitting process) and stays context-guarded — no lock
  // warranted.  The kernel-side queues are touched by admission (process),
  // engine completions (interrupt), and the reaper (softclock).  retired_
  // is handed from completion to reaper through the `reaper` ordering
  // channel (a handoff, not shared state — also no lock); the CQ/overflow
  // pair is filled at softclock (Reap) and drained in process context
  // (Harvest/Cancel).
  std::deque<SpliceSqe> prepared_ IKDP_GUARDED_BY(process);  // user-side SQ
  std::deque<std::unique_ptr<Op>> queued_ IKDP_GUARDED_BY(lock:ring);
  std::vector<std::unique_ptr<Op>> started_ IKDP_GUARDED_BY(lock:ring);
  std::vector<std::unique_ptr<Op>> retired_ IKDP_ORDERED_BY(reaper);
  std::deque<SpliceCqe> cq_ IKDP_GUARDED_BY(lock:ring);
  std::deque<SpliceCqe> overflow_ IKDP_GUARDED_BY(lock:ring);

  int next_group_ = 1;
  bool reaper_armed_ IKDP_GUARDED_BY(lock:ring) = false;
  char sq_space_chan_ = 0;  // address-only sleep channels
  char cq_chan_ = 0;
  Stats stats_;
};

}  // namespace ikdp

#endif  // SRC_AIO_SPLICE_RING_H_
