#include "src/splice/splice_engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/hw/fault.h"
#include "src/kern/kernel_context.h"

namespace ikdp {

// Krace probes: every mutation of a descriptor's flow-control state is a
// plain WRITE on the field group "SpliceDescriptor::counters" — two handler
// invocations for the same descriptor with no happens-before edge would be a
// genuine ordering bug (the counters are read-modify-write).  The ready_
// queue handoff from ReadDone (interrupt) to DrainWrites (softclock) is
// carried by the `callout` ordering channel keyed on &d->ready_.

SpliceEngine::SpliceEngine(CpuSystem* cpu, CalloutTable* callouts)
    : cpu_(cpu), callouts_(callouts) {}

void SpliceEngine::Charge(SimDuration d) {
  if (cpu_->InInterrupt()) {
    cpu_->ChargeInterrupt(d);
  } else {
    // Process context: a handler ran synchronously under a Start call (the
    // RAM disk completes reads inline).  Dropping the cost here would make
    // spliced setup look cheaper than it is; park it for the syscall layer
    // to charge to the calling process via TakeSyncCharge.
    pending_sync_charge_ += d;
  }
}

void SpliceEngine::ChargeKopCost(SimDuration d) {
  if (cpu_->InInterrupt()) {
    cpu_->ChargeKop(d);
  } else {
    pending_sync_kop_charge_ += d;
  }
}

CalloutId SpliceEngine::Softclock(SpanId span, std::function<void()> fn) {
  return callouts_->ScheduleHead([this, span, fn = std::move(fn)] {
    // The scope covers the RunInterrupt call so the raise-time attribution
    // tag (and the softclock classification) carries the stream's span.
    KspanScope scope("splice", span);
    cpu_->RunInterrupt(cpu_->costs().softclock_per_callout, fn);
  });
}

bool SpliceEngine::Registered(SpliceDescriptor* d, uint64_t serial) const {
  auto it = descriptors_.find(d);
  return it != descriptors_.end() && it->second->serial_ == serial;
}

SpliceDescriptor* SpliceEngine::Start(std::unique_ptr<SpliceSource> source,
                                      std::vector<std::unique_ptr<SpliceSink>> sinks,
                                      SpliceOptions opts,
                                      std::function<void(const SpliceCompletion&)> on_complete) {
  // Reject-unverified-program: the engine is the last line of defence; the
  // bind sites (kop_attach, Kernel::ResolveSplice) return kErrInval long
  // before this.
  if (opts.kop_program != nullptr && !opts.kop_program->verified) {
    ContractAbort("splice: unverified kop program attached");
  }
  const int want_sinks = opts.kop_program != nullptr ? opts.kop_program->SinkCount() : 1;
  if (want_sinks != static_cast<int>(sinks.size())) {
    ContractAbort("splice: kop program wants %d sinks, splice has %d", want_sinks,
                  static_cast<int>(sinks.size()));
  }
  auto owned = std::make_unique<SpliceDescriptor>();
  SpliceDescriptor* d = owned.get();
  d->source_ = std::move(source);
  d->sinks_ = std::move(sinks);
  d->opts_ = opts;
  d->on_complete_ = std::move(on_complete);
  const int64_t total = d->source_->TotalBytes();
  int64_t chunks_total = -1;
  if (total >= 0) {
    const int64_t chunk = d->source_->ChunkBytes();
    chunks_total = (total + chunk - 1) / chunk;
  }
  d->lock_.Acquire();
  d->chunks_total_ = chunks_total;
  d->lock_.Release();
  descriptors_[d] = std::move(owned);
  ++stats_.splices_started;
  d->serial_ = stats_.splices_started;
  d->started_at_ = cpu_->sim()->Now();
  // The stream's span: a fresh child of the requester's span (the cursor —
  // the calling process, a ring op, or nothing) when a collector is
  // attached; the requester's span itself otherwise.
  d->span_owned_ = KspanOwned();
  d->span_ = KspanBegin(cpu_->sim()->Now(), "splice.stream",
                        static_cast<int64_t>(d->serial_));
  KspanScope scope("splice", d->span_);
  if (cpu_->trace() != nullptr) {
    cpu_->trace()->Record(cpu_->sim()->Now(), TraceKind::kSpliceStart,
                          static_cast<int64_t>(d->serial_), chunks_total);
  }
  if (chunks_total == 0) {
    // Empty transfer: finish immediately (still asynchronously, so callers
    // always see completion after Start returns).
    Softclock(d->span_, [this, d] { MaybeFinish(d); });
    return d;
  }
  IssueReads(d);
  return d;
}

void SpliceEngine::Cancel(SpliceDescriptor* d) {
  KspanScope scope("splice", d->span_);
  d->lock_.Acquire();
  if (d->finished_) {
    d->lock_.Release();
    return;
  }
  IKDP_KRACE_WRITE(d, "SpliceDescriptor::counters");
  d->cancelled_ = true;
  d->lock_.Release();
  // A stream source blocked on its peer (pipe writer gone quiet, socket
  // with no sender) would hold pending_reads_ up forever; drop that read so
  // cancellation converges.
  AbortPendingRead(d);
  if (!d->ready_.empty()) {
    // Queued chunks still need releasing; the drain consumes them.
    ArmDrain(d);
  }
  MaybeFinish(d);
}

void SpliceEngine::AbortPendingRead(SpliceDescriptor* d) {
  // CancelRead is an endpoint call: probe the count under the lock, drop the
  // lock for the call, and retract the issue under the lock again.
  d->lock_.Acquire();
  const bool outstanding = d->pending_reads_ > 0;
  d->lock_.Release();
  if (outstanding && d->source_->CancelRead()) {
    // The dropped read's completion will never run: retract its issue, and
    // say so in the trace — the span builder closes the orphaned read
    // interval off this record instead of leaking an open chunk span.
    IKDP_KRACE_WRITE(d, "SpliceDescriptor::counters");
    d->lock_.Acquire();
    --d->pending_reads_;
    --d->reads_issued_;
    d->lock_.Release();
    if (cpu_->trace() != nullptr) {
      cpu_->trace()->Record(cpu_->sim()->Now(), TraceKind::kSpliceReadAbort,
                            static_cast<int64_t>(d->serial_));
    }
  }
}

void SpliceEngine::IssueReads(SpliceDescriptor* d) {
  // Reads issued under the stream's span: the buffer cache stamps acquired
  // bufs with the cursor, which is how the span rides into the disk queue
  // and back out through biodone.
  KspanScope scope("splice", d->span_);
  // The eof/cancel re-check on every iteration matters: StartRead may
  // complete synchronously (queued datagram, cache hit) and deliver the
  // end-of-stream marker while this loop is still issuing.  The in-flight
  // bound keeps a synchronous source (whose reads complete inside StartRead,
  // leaving pending_reads at zero) from reading the whole file ahead of the
  // writes.  Lock per iteration: the admission check and the issue counting
  // are one critical section; StartRead runs with the lock dropped (it can
  // re-enter ReadDone synchronously).
  for (;;) {
    d->lock_.Acquire();
    const bool admit = !d->eof_ && !d->cancelled_ &&
                       d->pending_reads_ < d->opts_.refill_batch &&
                       d->InFlight() < d->opts_.max_inflight_chunks &&
                       (d->chunks_total_ < 0 || d->next_read_ < d->chunks_total_);
    if (!admit) {
      d->lock_.Release();
      return;
    }
    const int64_t index = d->next_read_;
    // Count the read as issued BEFORE starting it: synchronous devices (RAM
    // disk, cache hits) complete inside StartRead, and the completion
    // handler must see consistent counters.
    IKDP_KRACE_WRITE(d, "SpliceDescriptor::counters");
    ++d->next_read_;
    ++d->reads_issued_;
    ++d->pending_reads_;
    d->stats_.max_pending_reads = std::max(d->stats_.max_pending_reads, d->pending_reads_);
    d->lock_.Release();
    if (cpu_->trace() != nullptr) {
      cpu_->trace()->Record(cpu_->sim()->Now(), TraceKind::kSpliceRead,
                            static_cast<int64_t>(d->serial_), index);
    }
    const bool ok = d->source_->StartRead(
        index, [this, d](SpliceChunk chunk) { ReadDone(d, std::move(chunk)); });
    if (!ok) {
      d->lock_.Acquire();
      --d->next_read_;
      --d->reads_issued_;
      --d->pending_reads_;
      d->lock_.Release();
      ++d->stats_.read_retries;
      ArmReadRetry(d);
      return;
    }
  }
}

void SpliceEngine::ArmReadRetry(SpliceDescriptor* d) {
  // Check-and-arm is one critical section, held across ScheduleHead — a
  // deliberate splice -> callout nesting (rank 30 -> 90; the callout table
  // never calls back into the descriptor synchronously).
  d->lock_.Acquire();
  if (d->read_retry_armed_) {
    d->lock_.Release();
    return;
  }
  IKDP_KRACE_WRITE(d, "SpliceDescriptor::counters");
  d->read_retry_armed_ = true;
  d->retry_callout_ = Softclock(d->span_, [this, d, serial = d->serial_] {
    if (!Registered(d, serial)) {
      return;  // finished (Untimeout came too late) and erased meanwhile
    }
    d->lock_.Acquire();
    d->read_retry_armed_ = false;
    d->retry_callout_ = kInvalidCalloutId;
    d->lock_.Release();
    IssueReads(d);
  });
  d->lock_.Release();
}

void SpliceEngine::ReadDone(SpliceDescriptor* d, SpliceChunk chunk) {
  KspanScope scope("splice", d->span_);
  Charge(cpu_->costs().splice_read_handler);
  IKDP_KRACE_WRITE(d, "SpliceDescriptor::counters");
  d->lock_.Acquire();
  --d->pending_reads_;
  if (chunk.error != 0) {
    // Unrecoverable read error: stop issuing, drain what is in flight, and
    // report the failure with the errno the device delivered.
    d->io_error_ = true;
    d->cancelled_ = true;
    if (d->error_ == 0) {
      d->error_ = chunk.error;
    }
    ++d->chunks_done_;
    d->lock_.Release();
    d->source_->Release(chunk);
    MaybeFinish(d);
    return;
  }
  if (chunk.nbytes == 0) {
    // End-of-stream marker from an unbounded source; it carries no data, so
    // it drains right here.
    d->eof_ = true;
    ++d->chunks_done_;
    d->lock_.Release();
    if (chunk.src_buf != nullptr) {
      d->source_->Release(chunk);
    }
    MaybeFinish(d);
    return;
  }
  d->lock_.Release();
  // "When a read completes, the read handler is invoked which in turn
  // schedules a write by placing a reference to the write handler at the
  // head of the system callout list."  (Section 5.2.2)
  if (d->opts_.callout_deferral) {
    IKDP_KRACE_WRITE(d, "SpliceDescriptor::ready_");
    d->ready_.push_back(std::move(chunk));
    if (KraceEnabled()) Krace().ChannelRelease(&d->ready_);
    ArmDrain(d);
  } else {
    // Ablation: run the write side directly in the read handler (lock-step
    // coupling of the two devices' access periods).
    if (!StartChunkWrite(d, std::move(chunk))) {
      // Sink refused: fall back to the callout path for the retry.
      ArmDrain(d);
    }
  }
}

void SpliceEngine::ArmDrain(SpliceDescriptor* d) {
  // Same shape as ArmReadRetry: the latch and the ScheduleHead are one
  // critical section (splice -> callout nesting, legal by rank).
  d->lock_.Acquire();
  if (d->drain_armed_) {
    d->lock_.Release();
    return;
  }
  IKDP_KRACE_WRITE(d, "SpliceDescriptor::counters");
  d->drain_armed_ = true;
  Softclock(d->span_, [this, d, serial = d->serial_] {
    if (!Registered(d, serial)) {
      return;  // finished and erased meanwhile
    }
    d->lock_.Acquire();
    d->drain_armed_ = false;
    d->lock_.Release();
    DrainWrites(d);
  });
  d->lock_.Release();
}

void SpliceEngine::DrainWrites(SpliceDescriptor* d) {
  // Bounded softclock work: start at most max_chunks_per_tick writes, leave
  // the rest for the next tick.  This is what paces a splice between two
  // synchronous devices and keeps the CPU available to user processes.
  int budget = d->opts_.max_chunks_per_tick;
  if (KraceEnabled()) Krace().ChannelAcquire(&d->ready_);
  while (budget > 0 && !d->ready_.empty()) {
    IKDP_KRACE_WRITE(d, "SpliceDescriptor::ready_");
    SpliceChunk chunk = std::move(d->ready_.front());
    d->ready_.pop_front();
    if (!StartChunkWrite(d, std::move(chunk))) {
      break;  // sink full; the refused chunk was re-queued at the front
    }
    --budget;
  }
  if (!d->ready_.empty()) {
    ArmDrain(d);
  }
}

bool SpliceEngine::StartChunkWrite(SpliceDescriptor* d, SpliceChunk chunk) {
  KspanScope scope("splice", d->span_);
  Charge(cpu_->costs().splice_write_handler);
  IKDP_KRACE_WRITE(d, "SpliceDescriptor::counters");
  d->lock_.Acquire();
  if (d->cancelled_) {
    // Count it as drained so cancellation converges.
    ++d->chunks_done_;
    d->lock_.Release();
    d->source_->Release(chunk);
    MaybeFinish(d);
    return true;  // consumed
  }
  d->lock_.Release();
  int sink_index = 0;
  if (d->opts_.kop_program != nullptr) {
    const KopOutcome out = ExecKop(d, chunk);
    switch (out.kind) {
      case KopOutcome::Kind::kDrop:
        // The operator consumed the chunk in-kernel: it drains here, never
        // reaching a sink.  A drop retires a chunk just like a write
        // completion, so it must also drive the flow control — a 90% filter
        // would otherwise stall once the initial read batch drained.
        d->source_->Release(chunk);
        d->lock_.Acquire();
        ++d->chunks_done_;
        d->lock_.Release();
        MaybeRefill(d);
        MaybeFinish(d);
        return true;  // consumed
      case KopOutcome::Kind::kReject:
        // Mid-stream operator rejection rides the PR6 fault machinery: the
        // errno is sticky-first on the descriptor, reads stop, in-flight
        // chunks drain, and the completion reports io_error.
        d->lock_.Acquire();
        d->io_error_ = true;
        d->cancelled_ = true;
        if (d->error_ == 0) {
          d->error_ = out.error != 0 ? out.error : kErrKopReject;
        }
        d->lock_.Release();
        AbortPendingRead(d);
        d->source_->Release(chunk);
        d->lock_.Acquire();
        ++d->chunks_done_;
        d->lock_.Release();
        MaybeFinish(d);
        return true;  // consumed
      case KopOutcome::Kind::kPass:
        sink_index = out.route;
        assert(sink_index >= 0 && sink_index < static_cast<int>(d->sinks_.size()));
        break;
    }
  }
  if (!d->opts_.zero_copy) {
    // Ablation: copy between kernel buffers instead of sharing the data
    // area.  The simulation charges the copy and physically duplicates the
    // bytes so content checks stay honest.
    Charge(cpu_->costs().BcopyTime(chunk.nbytes));
    chunk.data = std::make_shared<std::vector<uint8_t>>(*chunk.data);
  }
  // Count the write BEFORE starting it: synchronous sinks (RAM disk)
  // complete inside StartWrite and their completion handler must see
  // consistent counters.  StartWrite itself runs with the lock dropped — a
  // pipe sink can complete the PEER descriptor's read synchronously, and two
  // same-rank `splice` locks must never nest.
  d->lock_.Acquire();
  ++d->pending_writes_;
  d->stats_.max_pending_writes = std::max(d->stats_.max_pending_writes, d->pending_writes_);
  d->lock_.Release();
  SpliceChunk* heap_chunk = new SpliceChunk(std::move(chunk));
  const bool ok = d->sinks_[sink_index]->StartWrite(*heap_chunk, [this, d, heap_chunk](bool write_ok) {
    SpliceChunk done_chunk = std::move(*heap_chunk);
    delete heap_chunk;
    WriteDone(d, std::move(done_chunk), write_ok);
  });
  if (!ok) {
    // Sink full: requeue at the front; the drain retries next tick, pacing
    // the splice at the sink's drain rate.
    d->lock_.Acquire();
    --d->pending_writes_;
    d->lock_.Release();
    ++d->stats_.write_retries;
    IKDP_KRACE_WRITE(d, "SpliceDescriptor::ready_");
    d->ready_.push_front(std::move(*heap_chunk));
    delete heap_chunk;
    return false;
  }
  return true;
}

void SpliceEngine::WriteDone(SpliceDescriptor* d, SpliceChunk chunk, bool ok) {
  KspanScope scope("splice", d->span_);
  Charge(cpu_->costs().splice_wdone_handler);
  IKDP_KRACE_WRITE(d, "SpliceDescriptor::counters");
  d->lock_.Acquire();
  --d->pending_writes_;
  ++d->chunks_done_;
  if (ok) {
    d->bytes_moved_ += chunk.nbytes;
  } else {
    d->io_error_ = true;
    d->cancelled_ = true;  // stop issuing further reads
    if (d->error_ == 0) {
      d->error_ = chunk.error != 0 ? chunk.error : kErrIo;
    }
  }
  d->lock_.Release();
  if (cpu_->trace() != nullptr) {
    cpu_->trace()->Record(cpu_->sim()->Now(), TraceKind::kSpliceChunk,
                          static_cast<int64_t>(d->serial_), chunk.index);
  }
  if (!ok) {
    // A stream read still outstanding against a quiet peer would pin
    // pending_reads_ and the errored splice would never finish.
    AbortPendingRead(d);
  }
  d->source_->Release(chunk);
  MaybeRefill(d);
  MaybeFinish(d);
}

void SpliceEngine::MaybeRefill(SpliceDescriptor* d) {
  // Rate-based flow control (Section 5.2.4): chunk retirements (write
  // completions, operator drops) pull more reads when both pending counts
  // are below their watermarks.  A torn-down splice (error or cancel) must
  // NOT keep burning refill work — IssueReads would refuse anyway, but the
  // accounting and trace churn here are real CPU charges.
  d->lock_.Acquire();
  const bool refill = !d->cancelled_ && d->pending_reads_ < d->opts_.read_low_watermark &&
                      d->pending_writes_ < d->opts_.write_high_watermark;
  const int pending_reads = d->pending_reads_;
  const int64_t issued_before = d->reads_issued_;
  d->lock_.Release();
  if (refill) {
    ++d->stats_.refills;
    if (cpu_->trace() != nullptr) {
      cpu_->trace()->Record(cpu_->sim()->Now(), TraceKind::kSpliceLowWater,
                            static_cast<int64_t>(d->serial_), pending_reads);
    }
    IssueReads(d);
    d->lock_.Acquire();
    const int64_t issued_after = d->reads_issued_;
    d->lock_.Release();
    if (cpu_->trace() != nullptr) {
      cpu_->trace()->Record(cpu_->sim()->Now(), TraceKind::kSpliceRefill,
                            static_cast<int64_t>(d->serial_), issued_after - issued_before);
    }
  }
}

KopOutcome SpliceEngine::ExecKop(SpliceDescriptor* d, SpliceChunk& chunk) {
  const SimTime now = cpu_->sim()->Now();
  // Operator execution is its own kspan mint site: with a collector
  // attached each chunk's execution is a child span of the stream, so the
  // folded stacks show exactly where operator cycles went; detached it
  // inherits the stream's span with zero allocation.
  const bool span_owned = KspanOwned();
  const SpanId span = KspanBegin(now, "kop.exec", chunk.index);
  KopOutcome out;
  {
    KspanScope scope("kop", span);
    out = KopExecChunk(*d->opts_.kop_program, chunk, &d->kop_, cpu_->costs());
    // Charged inside the scope so the kop buckets attribute to this span.
    ChargeKopCost(out.cost);
    if (cpu_->trace() != nullptr) {
      cpu_->trace()->Record(now, TraceKind::kKopExec, static_cast<int64_t>(d->serial_),
                            static_cast<int64_t>(out.cost));
      if (out.kind == KopOutcome::Kind::kDrop) {
        cpu_->trace()->Record(now, TraceKind::kKopDrop, static_cast<int64_t>(d->serial_),
                              chunk.index);
      } else if (out.kind == KopOutcome::Kind::kReject) {
        cpu_->trace()->Record(now, TraceKind::kKopReject, static_cast<int64_t>(d->serial_),
                              out.error);
      }
    }
  }
  if (span_owned) {
    KspanEnd(now, span, static_cast<int64_t>(out.kind), out.kind == KopOutcome::Kind::kReject);
  }
  ++stats_.kop_chunks_in;
  stats_.kop_bytes_in += chunk.nbytes;
  stats_.kop_exec_time += out.cost;
  switch (out.kind) {
    case KopOutcome::Kind::kDrop:
      ++stats_.kop_chunks_dropped;
      break;
    case KopOutcome::Kind::kReject:
      ++stats_.kop_chunks_rejected;
      break;
    case KopOutcome::Kind::kPass:
      stats_.kop_bytes_out += chunk.nbytes;
      break;
  }
  return out;
}

void SpliceEngine::MaybeFinish(SpliceDescriptor* d) {
  KspanScope scope("splice", d->span_);
  // The finished_ latch and the drained test are ONE critical section, and
  // everything below runs on a snapshot taken inside it: the completion
  // callback re-enters the ring, whose lock ranks OUTSIDE `splice`, so it
  // must never run under this lock.
  d->lock_.Acquire();
  if (d->finished_) {
    d->lock_.Release();
    return;
  }
  const bool no_more_input =
      d->cancelled_ || d->eof_ || (d->chunks_total_ >= 0 && d->reads_issued_ == d->chunks_total_);
  const bool drained = d->reads_issued_ == d->chunks_done_ && d->pending_reads_ == 0 &&
                       d->pending_writes_ == 0;
  if (!no_more_input || !drained) {
    d->lock_.Release();
    return;
  }
  IKDP_KRACE_WRITE(d, "SpliceDescriptor::counters");
  d->finished_ = true;
  const int64_t bytes_moved = d->bytes_moved_;
  const bool io_error = d->io_error_;
  const int error = d->error_;
  const bool cancelled = d->cancelled_;
  const CalloutId retry = d->retry_callout_;
  d->retry_callout_ = kInvalidCalloutId;
  d->lock_.Release();
  if (retry != kInvalidCalloutId) {
    callouts_->Untimeout(retry);
  }
  ++stats_.splices_completed;
  stats_.total_bytes += bytes_moved;
  if (cpu_->trace() != nullptr) {
    cpu_->trace()->Record(cpu_->sim()->Now(), TraceKind::kSpliceDone,
                          static_cast<int64_t>(d->serial_), bytes_moved);
  }
  // Exactly-once close of a minted stream span: finished_ latches above, so
  // every teardown path (drain, error, cancel) funnels through here once.
  if (d->span_owned_) {
    KspanEnd(cpu_->sim()->Now(), d->span_, bytes_moved, io_error);
  }
  if (d->on_complete_) {
    auto cb = std::move(d->on_complete_);
    SpliceCompletion c;
    c.serial = d->serial_;
    c.bytes_moved = bytes_moved;
    c.io_error = io_error;
    c.error = io_error ? (error != 0 ? error : kErrIo) : 0;
    // cancelled_ is also set on the error path (to stop issuing reads);
    // report "cancelled" only for genuine user cancels.
    c.cancelled = cancelled && !io_error;
    c.started_at = d->started_at_;
    c.finished_at = cpu_->sim()->Now();
    c.kop_active = d->opts_.kop_program != nullptr;
    c.kop_checksum = d->kop_.checksum;
    c.kop_dropped = d->kop_.chunks_dropped;
    cb(c);
  }
  // Defer destruction: callers (e.g. the write-drain loop) may still hold
  // `d` on their stack when the last chunk completes.
  cpu_->sim()->After(0, [this, d] { descriptors_.erase(d); });
}

}  // namespace ikdp
