#include "src/aio/splice_ring.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/kern/kernel_context.h"

namespace ikdp {

// Ring krace probes are plain WRITEs: the op lists are read-modify-write
// (erase-by-pointer, FIFO group scans) and every legal handoff has a real
// ordering edge — admission and harvest are schedule descendants of the
// process's dispatch, completions run in the serialized interrupt engine,
// and the retired_ -> Reap handoff rides the `reaper` ordering channel.
// An unordered same-timestamp pair here would be a genuine bug.

SpliceRing::SpliceRing(int id, CpuSystem* cpu, CalloutTable* callouts, SpliceEngine* engine,
                       RingConfig config)
    : id_(id), cpu_(cpu), callouts_(callouts), engine_(engine), config_(config) {}

void SpliceRing::Trace(TraceKind kind, int64_t b) {
  if (cpu_->trace() != nullptr) {
    cpu_->trace()->Record(cpu_->sim()->Now(), kind, id_, b);
  }
}

int SpliceRing::NextGroupSize() const {
  if (prepared_.empty()) {
    return 0;
  }
  // A linked run: every member except the last carries kSqeLinked.  The flag
  // on the final prepared entry has no successor and is ignored.
  size_t i = 0;
  while (i + 1 < prepared_.size() && (prepared_[i].flags & kSqeLinked) != 0) {
    ++i;
  }
  return static_cast<int>(i) + 1;
}

SpliceSqe SpliceRing::PopPrepared() {
  assert(!prepared_.empty());
  IKDP_KRACE_WRITE(this, "SpliceRing::prepared_");
  SpliceSqe sqe = prepared_.front();
  prepared_.pop_front();
  return sqe;
}

void SpliceRing::AdmitGroup(std::vector<PreparedOp> group) {
  const int gid = next_group_++;
  for (PreparedOp& prep : group) {
    auto op = std::make_unique<Op>();
    op->sqe = prep.sqe;
    op->group = gid;
    op->splice = std::move(prep.splice);
    op->submitted_at = cpu_->sim()->Now();
    op->span_owned = KspanOwned();
    op->span = KspanBegin(op->submitted_at, "aio.op", static_cast<int64_t>(op->sqe.cookie));
    ++stats_.submitted;
    KspanScope scope("aio", op->span);
    Trace(TraceKind::kRingOpSubmit, static_cast<int64_t>(op->sqe.cookie));
    IKDP_KRACE_WRITE(this, "SpliceRing::queued_");
    lock_.Acquire();
    queued_.push_back(std::move(op));
    lock_.Release();
  }
  lock_.Acquire();
  stats_.sq_depth_max = std::max(stats_.sq_depth_max, UnfinishedLocked());
  lock_.Release();
  Pump();
}

void SpliceRing::FailSqe(const SpliceSqe& sqe, int error) {
  auto op = std::make_unique<Op>();
  op->sqe = sqe;
  op->submitted_at = cpu_->sim()->Now();
  op->span_owned = KspanOwned();
  op->span = KspanBegin(op->submitted_at, "aio.op", static_cast<int64_t>(sqe.cookie));
  ++stats_.submitted;
  KspanScope scope("aio", op->span);
  Trace(TraceKind::kRingOpSubmit, static_cast<int64_t>(sqe.cookie));
  Op* raw = op.get();
  IKDP_KRACE_WRITE(this, "SpliceRing::queued_");
  lock_.Acquire();
  queued_.push_back(std::move(op));
  stats_.sq_depth_max = std::max(stats_.sq_depth_max, UnfinishedLocked());
  lock_.Release();
  Retire(raw, 0, error);  // acquires the lock itself
}

void SpliceRing::NoteSubmitBatch(int admitted) {
  Trace(TraceKind::kRingSubmit, admitted);
  Trace(TraceKind::kRingSqDepth, unfinished());
}

void SpliceRing::Pump() {
  for (;;) {
    // Lock per iteration: the head group is claimed (queued_ -> started_)
    // under the lock, then started with the lock dropped — StartOp can run
    // the whole splice synchronously and re-enter Retire.
    lock_.Acquire();
    if (queued_.empty()) {
      lock_.Release();
      return;
    }
    const int group = queued_.front()->group;
    size_t gsize = 0;
    while (gsize < queued_.size() && queued_[gsize]->group == group) {
      ++gsize;
    }
    // A group's stages start atomically (a pipeline member without its
    // consumer would wedge); a head group that doesn't fit blocks the line —
    // FIFO order is part of the submission contract.
    if (static_cast<int>(started_.size() + gsize) > config_.max_inflight) {
      lock_.Release();
      return;
    }
    std::vector<Op*> batch;
    batch.reserve(gsize);
    for (size_t i = 0; i < gsize; ++i) {
      IKDP_KRACE_WRITE(this, "SpliceRing::queued_");
      std::unique_ptr<Op> owned = std::move(queued_.front());
      queued_.pop_front();
      Op* op = owned.get();
      op->st = Op::St::kStarted;
      batch.push_back(op);
      IKDP_KRACE_WRITE(this, "SpliceRing::started_");
      started_.push_back(std::move(owned));
    }
    lock_.Release();
    for (Op* op : batch) {
      // A synchronously-failing sibling may have cancelled this member
      // while an earlier batch member was starting.
      if (op->st == Op::St::kStarted && !op->engine_called) {
        StartOp(op);
      }
    }
  }
}

void SpliceRing::StartOp(Op* op) {
  op->engine_called = true;
  Op* raw = op;
  // The engine mints its "splice.stream" span as a child of the cursor's —
  // push the op span so the stream nests under this op.
  KspanScope scope("aio", op->span);
  SpliceDescriptor* d =
      engine_->Start(std::move(op->splice.source), std::move(op->splice.sinks), op->splice.opts,
                     [this, raw](const SpliceCompletion& c) { OnEngineComplete(raw, c); });
  // The splice can run to completion inside Start (synchronous devices);
  // only remember the descriptor while the op is still in flight.
  if (raw->st == Op::St::kStarted) {
    raw->desc = d;
  }
}

void SpliceRing::OnEngineComplete(Op* op, const SpliceCompletion& c) {
  KspanScope scope("aio", op->span);
  if (op->splice.on_moved && !c.io_error) {
    // Partial byte counts from a cancel still update sink-side file state:
    // those bytes are on the device.
    op->splice.on_moved(c.bytes_moved);
  }
  // Preserve the device's errno (kErrNoSpc stays distinguishable from a
  // media error); kAioEIo only backstops a report with no errno attached.
  const int error =
      c.io_error ? (c.error != 0 ? c.error : kAioEIo) : (c.cancelled ? kAioECanceled : 0);
  const int group = op->group;
  op->finished_at = c.finished_at;
  op->kop_active = c.kop_active;
  op->kop_checksum = c.kop_checksum;
  op->kop_dropped = c.kop_dropped;
  Retire(op, c.bytes_moved, error);
  // An I/O error tears down the rest of the pipeline group — a downstream
  // stage would otherwise wait forever for bytes that will never arrive.
  // Cancel-driven completions do NOT re-propagate (that would recurse).
  if (c.io_error) {
    CancelGroupSiblings(group, op);
  }
}

void SpliceRing::Retire(Op* op, int64_t result, int error) {
  op->result = result;
  op->error = error;
  if (op->finished_at == 0) {
    op->finished_at = cpu_->sim()->Now();
  }
  op->st = Op::St::kRetired;
  op->desc = nullptr;
  if (error == kAioECanceled) {
    ++stats_.cancelled;
  }
  {
    KspanScope scope("aio", op->span);
    Trace(TraceKind::kRingOpComplete, static_cast<int64_t>(op->sqe.cookie));
  }
  // Retire runs exactly once per op (the list scan below asserts the op is
  // still owned), so the span closes exactly once — cancelled LINKED
  // siblings included.
  if (op->span_owned) {
    KspanEnd(op->finished_at, op->span, result, error != 0);
  }
  std::unique_ptr<Op> owned;
  lock_.Acquire();
  IKDP_KRACE_WRITE(this, "SpliceRing::queued_");
  for (auto it = queued_.begin(); it != queued_.end(); ++it) {
    if (it->get() == op) {
      owned = std::move(*it);
      queued_.erase(it);
      break;
    }
  }
  if (owned == nullptr) {
    IKDP_KRACE_WRITE(this, "SpliceRing::started_");
    for (auto it = started_.begin(); it != started_.end(); ++it) {
      if (it->get() == op) {
        owned = std::move(*it);
        started_.erase(it);
        break;
      }
    }
  }
  lock_.Release();
  assert(owned != nullptr);
  // retired_ is a completion -> reaper handoff riding the `reaper` ordering
  // channel, not lock-guarded shared state (see the member comment).
  IKDP_KRACE_WRITE(this, "SpliceRing::retired_");
  retired_.push_back(std::move(owned));
  if (KraceEnabled()) Krace().ChannelRelease(&retired_);
  ArmReaper();
}

void SpliceRing::CancelGroupSiblings(int group, const Op* except) {
  if (group == 0) {
    return;  // immediate-failure ops carry no group
  }
  // Collect first: Retire() and engine_->Cancel() both mutate the lists
  // (Cancel can complete a drained descriptor synchronously), so the lock
  // covers only the scan, never the per-member actions.
  std::vector<Op*> members;
  lock_.Acquire();
  for (const auto& q : queued_) {
    if (q->group == group && q.get() != except) {
      members.push_back(q.get());
    }
  }
  for (const auto& s : started_) {
    if (s->group == group && s.get() != except) {
      members.push_back(s.get());
    }
  }
  lock_.Release();
  for (Op* op : members) {
    if (op->st == Op::St::kQueued) {
      Retire(op, 0, kAioECanceled);
    } else if (op->st == Op::St::kStarted) {
      if (op->desc != nullptr) {
        // In flight: the engine drains it and the completion arrives with
        // cancelled=true (partial bytes reported).
        engine_->Cancel(op->desc);
      } else {
        Retire(op, 0, kAioECanceled);
      }
    }
  }
}

int SpliceRing::Cancel(uint64_t cookie) {
  // Find under the lock, act after release: Retire and CancelGroupSiblings
  // take the lock themselves.
  Op* target = nullptr;
  int group = 0;
  bool started = false;
  lock_.Acquire();
  for (const auto& q : queued_) {
    if (q->sqe.cookie == cookie) {
      target = q.get();
      group = target->group;
      break;
    }
  }
  if (target == nullptr) {
    for (const auto& s : started_) {
      if (s->sqe.cookie == cookie) {
        started = true;
        break;
      }
    }
  }
  lock_.Release();
  if (target != nullptr) {
    Trace(TraceKind::kRingCancel, static_cast<int64_t>(cookie));
    Retire(target, 0, kAioECanceled);
    // A partial pipeline cannot run: the queued group goes down together.
    // (Groups start atomically, so no sibling can be mid-flight here.)
    CancelGroupSiblings(group, target);
    return 0;
  }
  return started ? -kAioEBusy : -kAioENoent;
}

void SpliceRing::ArmReaper() {
  // The check-and-arm latch is one critical section, held across
  // ScheduleHead: a deliberate ring -> callout nesting (rank 20 -> 90;
  // ScheduleHead never calls back into the ring).
  lock_.Acquire();
  if (reaper_armed_) {
    lock_.Release();
    return;
  }
  reaper_armed_ = true;
  // The reaper rides the existing callout machinery, like the engine's
  // write-side drain: head of the callout list, charged as softclock work.
  callouts_->ScheduleHead([this] {
    cpu_->RunInterrupt(cpu_->costs().softclock_per_callout, [this] {
      lock_.Acquire();
      reaper_armed_ = false;
      lock_.Release();
      Reap();
    });
  });
  lock_.Release();
}

void SpliceRing::Reap() {
  ++stats_.reaps;
  if (KraceEnabled()) Krace().ChannelAcquire(&retired_);
  IKDP_KRACE_WRITE(this, "SpliceRing::retired_");
  std::vector<std::unique_ptr<Op>> batch;
  batch.swap(retired_);
  int posted = 0;
  // The CQ fill is one critical section; the lock drops before the wakeups
  // and the pump (Pump takes it per iteration).
  lock_.Acquire();
  for (const std::unique_ptr<Op>& op : batch) {
    SpliceCqe cqe;
    cqe.cookie = op->sqe.cookie;
    cqe.result = op->result;
    cqe.error = op->error;
    cqe.latency = op->finished_at - op->submitted_at;
    cqe.kop_active = op->kop_active;
    cqe.kop_checksum = op->kop_checksum;
    cqe.kop_dropped = op->kop_dropped;
    if (op->kop_active) {
      // Publishing an operator's results (checksum, drop count) into the CQE
      // is operator work: charge the fixed finalization cost here so it lands
      // in the kop softclock bucket, per op, under the op's span.
      KspanScope scope("kop", op->span);
      cpu_->ChargeKop(cpu_->costs().kop_stage_overhead);
    }
    IKDP_KRACE_WRITE(this, "SpliceRing::cq_");
    if (static_cast<int>(cq_.size()) < config_.cq_entries) {
      cq_.push_back(cqe);
    } else {
      overflow_.push_back(cqe);
      ++stats_.overflows;
      Trace(TraceKind::kRingOverflow, static_cast<int64_t>(overflow_.size()));
    }
    ++stats_.completed;
    ++posted;
  }
  lock_.Release();
  Trace(TraceKind::kRingReap, posted);
  // Posted completions free SQ slots and satisfy RingEnter's wait.
  cpu_->Wakeup(CqChan());
  cpu_->Wakeup(SqSpaceChan());
  Pump();
}

int SpliceRing::Harvest(SpliceCqe* out, int max) {
  SpinGuard g(lock_);
  int n = 0;
  while (n < max && !cq_.empty()) {
    IKDP_KRACE_WRITE(this, "SpliceRing::cq_");
    out[n++] = cq_.front();
    cq_.pop_front();
    ++stats_.harvested;
    if (!overflow_.empty()) {
      cq_.push_back(overflow_.front());
      overflow_.pop_front();
    }
  }
  return n;
}

}  // namespace ikdp
