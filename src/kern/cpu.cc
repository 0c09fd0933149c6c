#include "src/kern/cpu.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <utility>

#include "src/kern/kernel_context.h"

namespace ikdp {

// Scheduler krace probes: the ledger (stats_) takes only commutative
// additions, and run-queue / interrupt-queue operations from distinct
// same-timestamp events are tie-break freedom — priority order dominates
// FIFO order, and FIFO ties among simultaneous wakers are exactly what the
// schedule-perturbation mode validates (docs/krace.md).  All of these are
// therefore COMMUTE probes; intr_charge_ is a plain WRITE because only the
// single interrupt body executing at a time may touch it.

CpuSystem::CpuSystem(Simulator* sim, CostConfig costs) : sim_(sim), costs_(costs) {}

CpuSystem::~CpuSystem() = default;

bool CpuSystem::ChargeKey::operator<(const ChargeKey& o) const {
  if (bucket != o.bucket) {
    return bucket < o.bucket;
  }
  // Compare subsystem names by content: distinct literals with equal text
  // must land in one entry.
  const int c = std::strcmp(subsystem, o.subsystem);
  if (c != 0) {
    return c < 0;
  }
  return span < o.span;
}

void CpuSystem::Attribute(ChargeBucket bucket, const char* subsystem, SpanId span,
                          SimDuration t) {
  if (t == 0) {
    return;
  }
  attribution_[ChargeKey{bucket, subsystem, span}] += t;
}

void CpuSystem::SetSpan(Process& p, SpanId span) {
  p.span_ = span;
  if (current_ == &p) {
    KspanCursorSetSpan(span);
  }
}

bool CpuSystem::CheckAttributionClosure(std::string* err) const {
  SimDuration sums[kNumChargeBuckets] = {};
  for (const auto& [key, t] : attribution_) {
    sums[static_cast<int>(key.bucket)] += t;
  }
  // Operator buckets are refinements, not new ledger totals: kKopProcess
  // work was granted through Use machinery (process_work), kKopInterrupt /
  // kKopSoftclock through the interrupt engine (interrupt_work).
  const SimDuration process_sum = sums[static_cast<int>(ChargeBucket::kProcess)] +
                                  sums[static_cast<int>(ChargeBucket::kKopProcess)];
  const SimDuration interrupt_sum =
      sums[static_cast<int>(ChargeBucket::kInterrupt)] +
      sums[static_cast<int>(ChargeBucket::kSoftclock)] +
      sums[static_cast<int>(ChargeBucket::kKopInterrupt)] +
      sums[static_cast<int>(ChargeBucket::kKopSoftclock)];
  struct Check {
    const char* what;
    SimDuration attributed;
    SimDuration ledger;
  };
  const Check checks[] = {
      {"process_work", process_sum, stats_.process_work},
      {"context_switch", sums[static_cast<int>(ChargeBucket::kSwitch)], stats_.context_switch},
      {"interrupt_work", interrupt_sum, stats_.interrupt_work},
  };
  for (const Check& c : checks) {
    if (c.attributed != c.ledger) {
      if (err != nullptr) {
        *err = std::string(c.what) + ": attributed " + std::to_string(c.attributed) +
               " ns != ledger " + std::to_string(c.ledger) + " ns";
      }
      return false;
    }
  }
  return true;
}

Process* CpuSystem::Spawn(std::string name, std::function<Task<>(Process&)> factory) {
  auto proc = std::make_unique<Process>(next_pid_++, std::move(name));
  Process* p = proc.get();
  processes_.push_back(std::move(proc));
  p->body_factory_ = std::move(factory);
  p->body_ = p->body_factory_(*p);
  p->state_ = ProcState::kRunnable;
  ++alive_;
  Enqueue(p, /*front=*/false);
  RequestDispatch();
  if (costs_.priority_decay) {
    ArmDecayTimer();
  }
  return p;
}

void CpuSystem::ArmDecayTimer() {
  if (decay_armed_) {
    return;
  }
  decay_armed_ = true;
  sim_->After(costs_.decay_interval, [this] { DecayTick(); });
}

void CpuSystem::DecayTick() {
  decay_armed_ = false;
  for (const auto& owned : processes_) {
    Process* p = owned.get();
    if (p->state_ == ProcState::kDead) {
      continue;
    }
    p->p_cpu_ *= costs_.decay_factor;
    p->decay_penalty_ = std::min<int>(
        costs_.max_decay_penalty,
        static_cast<int>(p->p_cpu_ * costs_.penalty_per_cpu_second));
    // Re-apply to processes sitting at user priority; kernel-boosted
    // sleepers keep their wakeup priority.
    if (p->priority_ >= kPriUser) {
      p->priority_ = kPriUser + p->decay_penalty_;
    }
  }
  // The run queue is priority-ordered; rebuild it under the new priorities.
  std::deque<Process*> old;
  old.swap(run_queue_);
  for (Process* p : old) {
    Enqueue(p, /*front=*/false);
  }
  if (alive_ > 0) {
    ArmDecayTimer();
  }
}

void CpuSystem::AccountUsage(Process* p, SimDuration work) {
  IKDP_KRACE_COMMUTE(this, "CpuSystem::stats_");
  stats_.process_work += work;
  // The coroutine is suspended for the whole burst, so span_ (and the
  // kop_charge_ flag set at Use entry) is frozen at the value the process
  // carried when the burst began.
  if (p->kop_charge_) {
    Attribute(ChargeBucket::kKopProcess, "kop", p->span_, work);
  } else {
    Attribute(ChargeBucket::kProcess, "process", p->span_, work);
  }
  p->stats_.cpu_time += work;
  if (costs_.priority_decay) {
    p->p_cpu_ += ToSeconds(work);
  }
}

void CpuSystem::Enqueue(Process* p, bool front) {
  assert(p->state_ == ProcState::kRunnable);
  if (trace_ != nullptr) {
    trace_->Record(sim_->Now(), TraceKind::kRunnable, p->pid(), 0, p->name().c_str());
  }
  auto pos = run_queue_.begin();
  if (front) {
    while (pos != run_queue_.end() && (*pos)->priority_ < p->priority_) {
      ++pos;
    }
  } else {
    while (pos != run_queue_.end() && (*pos)->priority_ <= p->priority_) {
      ++pos;
    }
  }
  IKDP_KRACE_COMMUTE(this, "CpuSystem::run_queue_");
  run_queue_.insert(pos, p);
}

void CpuSystem::RequestDispatch() {
  if (dispatch_pending_ || current_ != nullptr) {
    return;
  }
  dispatch_pending_ = true;
  sim_->After(0, [this] { DispatchNext(); });
}

void CpuSystem::DispatchNext() {
  dispatch_pending_ = false;
  if (current_ != nullptr || run_queue_.empty()) {
    return;
  }
  IKDP_KRACE_COMMUTE(this, "CpuSystem::run_queue_");
  Process* p = run_queue_.front();
  run_queue_.pop_front();
  current_ = p;
  p->state_ = ProcState::kRunning;
  if (trace_ != nullptr) {
    trace_->Record(sim_->Now(), TraceKind::kDispatch, p->pid(), 0, p->name().c_str());
  }
  // Every dispatch pays the switch cost; if interrupt-level work is still in
  // flight, the process also waits for the CPU to come back.
  const SimDuration residual = std::max<SimDuration>(0, intr_busy_until_ - sim_->Now());
  IKDP_KRACE_COMMUTE(this, "CpuSystem::stats_");
  stats_.context_switch += costs_.context_switch;
  Attribute(ChargeBucket::kSwitch, "sched", p->span_, costs_.context_switch);
  ++stats_.switches;
  slice_remaining_ = costs_.quantum;
  StartBurst(costs_.context_switch + residual, costs_.context_switch);
}

void CpuSystem::StartBurst(SimDuration lead_in, SimDuration switch_part) {
  Process* p = current_;
  assert(p != nullptr && !burst_.active);
  if (slice_remaining_ <= 0) {
    slice_remaining_ = costs_.quantum;
  }
  const SimDuration remaining = p->work_remaining_;
  burst_.active = true;
  burst_.start = sim_->Now();
  burst_.lead_in = lead_in;
  burst_.switch_part = switch_part;
  burst_.stolen = 0;
  burst_.planned = std::min(remaining, slice_remaining_);
  burst_.is_quantum_slice = burst_.planned < remaining;
  burst_.event = sim_->After(lead_in + burst_.planned, [this] { FinishBurst(); });
}

void CpuSystem::FinishBurst() {
  Process* p = current_;
  assert(p != nullptr && burst_.active);
  burst_.active = false;
  AccountUsage(p, burst_.planned);
  p->work_remaining_ -= burst_.planned;
  slice_remaining_ -= burst_.planned;
  if (p->work_remaining_ > 0) {
    // Quantum expired with work left: round-robin among peers of equal (or
    // stronger) priority, otherwise keep the CPU for a fresh quantum.
    if (!run_queue_.empty() && run_queue_.front()->priority_ <= p->priority_) {
      p->state_ = ProcState::kRunnable;
      ++p->stats_.involuntary_switches;
      Enqueue(p, /*front=*/false);
      current_ = nullptr;
      RequestDispatch();
    } else {
      StartBurst(0);
    }
    return;
  }
  Activate(p);
}

void CpuSystem::Activate(Process* p) {
  assert(current_ == p);
  p->state_ = ProcState::kRunning;
  // Everything until the coroutine's next suspension executes as the
  // process: blocking primitives are legal, ChargeInterrupt is not.
  ContextGuard in_process(ExecContext::kProcess);
  // Re-establish the process's request span for this resume window (span
  // scopes cannot live across co_await; see src/sim/kspan.h).
  KspanScope span_scope("process", p->span_);
  if (!p->started_) {
    p->started_ = true;
    p->body_.Start([this, p] {
      // Body ran to completion ("exit").
      p->state_ = ProcState::kDead;
      --alive_;
      assert(current_ == p);
      current_ = nullptr;
      RequestDispatch();
      if (on_exit_) {
        on_exit_(*p);
      }
    });
    return;
  }
  const std::coroutine_handle<> h = p->resume_point_;
  p->resume_point_ = nullptr;
  assert(h && "process has no resume point");
  h.resume();
}

SuspendAndCall CpuSystem::Use(Process& p, SimDuration t) {
  return UseImpl(p, t, /*kop=*/false);
}

SuspendAndCall CpuSystem::UseKop(Process& p, SimDuration t) {
  return UseImpl(p, t, /*kop=*/true);
}

SuspendAndCall CpuSystem::UseImpl(Process& p, SimDuration t, bool kop) {
  AssertCanBlock("CpuSystem::Use");
  assert(t >= 0);
  return SuspendAndCall([this, &p, t, kop](std::coroutine_handle<> h) {
    assert(current_ == &p && "Use() called by a non-running process");
    p.resume_point_ = h;
    p.work_remaining_ = t;
    p.kop_charge_ = kop;
    // A stronger-priority process may have become runnable while this one
    // was executing, or the quantum may have been used up with equal-priority
    // peers waiting; yield at this kernel entry point.
    const bool stronger_waiter =
        !run_queue_.empty() && run_queue_.front()->priority_ < p.priority_;
    const bool quantum_spent = slice_remaining_ <= 0 && !run_queue_.empty() &&
                               run_queue_.front()->priority_ <= p.priority_;
    if (stronger_waiter || quantum_spent) {
      PreemptCurrent(/*front=*/!quantum_spent);
    } else {
      StartBurst(0);
    }
  });
}

SuspendAndCall CpuSystem::Sleep(Process& p, const void* chan, int pri, bool interruptible) {
  AssertCanBlock("CpuSystem::Sleep");
  return SuspendAndCall([this, &p, chan, pri, interruptible](std::coroutine_handle<> h) {
    assert(current_ == &p && "Sleep() called by a non-running process");
    p.resume_point_ = h;
    if (interruptible && p.SignalPending()) {
      // A signal is already pending: do not sleep, resume immediately (after
      // the current event unwinds).
      sim_->After(0, [h, &p] {
        ContextGuard in_process(ExecContext::kProcess);
        KspanScope span_scope("process", p.span());
        h.resume();
      });
      return;
    }
    p.state_ = ProcState::kSleeping;
    p.sleep_channel_ = chan;
    p.sleep_interruptible_ = interruptible;
    p.priority_ = pri;
    if (trace_ != nullptr) {
      trace_->Record(sim_->Now(), TraceKind::kSleep, p.pid(), pri, p.name().c_str());
    }
    ++p.stats_.voluntary_switches;
    current_ = nullptr;
    RequestDispatch();
  });
}

void CpuSystem::PreemptCurrent(bool front) {
  Process* p = current_;
  assert(p != nullptr);
  if (burst_.active) {
    sim_->Cancel(burst_.event);
    const SimDuration progress = (sim_->Now() - burst_.start) - burst_.stolen;
    // The lead-in occupies wall time before any process work: residual
    // interrupt time first (already charged as interrupt work), then the
    // context switch.  A preemption landing inside the lead-in leaves part
    // of the switch charge unconsumed; refund it, or the re-dispatch's full
    // charge double-counts the switch and busy time exceeds elapsed time.
    const SimDuration residual = burst_.lead_in - burst_.switch_part;
    const SimDuration switch_used =
        std::clamp<SimDuration>(progress - residual, 0, burst_.switch_part);
    IKDP_KRACE_COMMUTE(this, "CpuSystem::stats_");
    stats_.context_switch -= burst_.switch_part - switch_used;
    // Mirror the refund under the same key the dispatch charged (span_ is
    // frozen while the coroutine is suspended), keeping closure exact.
    Attribute(ChargeBucket::kSwitch, "sched", p->span_, -(burst_.switch_part - switch_used));
    SimDuration done = progress - burst_.lead_in;
    done = std::clamp<SimDuration>(done, 0, burst_.planned);
    p->work_remaining_ -= done;
    AccountUsage(p, done);
    burst_.active = false;
  }
  p->state_ = ProcState::kRunnable;
  ++p->stats_.involuntary_switches;
  Enqueue(p, front);
  current_ = nullptr;
  RequestDispatch();
}

void CpuSystem::Wakeup(const void* chan) {
  bool woke = false;
  int woken = 0;
  for (const auto& proc : processes_) {
    Process* p = proc.get();
    if (p->state_ == ProcState::kSleeping && p->sleep_channel_ == chan) {
      ++woken;
      p->state_ = ProcState::kRunnable;
      p->sleep_channel_ = nullptr;
      Enqueue(p, /*front=*/false);
      woke = true;
    }
  }
  if (!woke) {
    return;
  }
  if (trace_ != nullptr) {
    trace_->Record(sim_->Now(), TraceKind::kWakeup, woken);
  }
  if (current_ != nullptr && burst_.active &&
      run_queue_.front()->priority_ < current_->priority_) {
    PreemptCurrent(/*front=*/true);
  } else {
    RequestDispatch();
  }
}

void CpuSystem::Post(Process& p, int sig) {
  p.pending_signals_.insert(sig);
  ++p.stats_.signals_taken;
  if (p.state_ == ProcState::kSleeping && p.sleep_interruptible_) {
    p.state_ = ProcState::kRunnable;
    p.sleep_channel_ = nullptr;
    Enqueue(&p, /*front=*/false);
    if (current_ != nullptr && burst_.active &&
        run_queue_.front()->priority_ < current_->priority_) {
      PreemptCurrent(/*front=*/true);
    } else {
      RequestDispatch();
    }
  }
}

void CpuSystem::RunInterrupt(SimDuration overhead, std::function<void()> body) {
  IKDP_KRACE_COMMUTE(this, "CpuSystem::intr_queue_");
  // Capture the attribution tag at raise time: the kspan cursor names the
  // request being worked on, and a raiser at softclock level (a callout
  // body) classifies the work as softclock rather than device interrupt.
  const KspanCursor& cur = CurrentKspan();
  intr_queue_.push_back(PendingInterrupt{overhead, std::move(body), cur.subsystem, cur.span,
                                         CurrentExecContext() == ExecContext::kSoftclock});
  if (!in_interrupt_) {
    DrainInterrupts();
  }
}

void CpuSystem::ChargeInterrupt(SimDuration t) {
  AssertInterruptLevel("CpuSystem::ChargeInterrupt");
  assert(in_interrupt_ && "ChargeInterrupt outside an interrupt body");
  assert(t >= 0);
  IKDP_KRACE_WRITE(this, "CpuSystem::intr_charge_");
  intr_charge_ += t;
  // Handlers refine the cursor as they discover work (the splice read
  // handler pushes the descriptor's span); read it live so each addition
  // lands on the span that caused it.
  const KspanCursor& cur = CurrentKspan();
  Attribute(intr_bucket_, cur.subsystem, cur.span, t);
}

void CpuSystem::ChargeKop(SimDuration t) {
  AssertInterruptLevel("CpuSystem::ChargeKop");
  assert(in_interrupt_ && "ChargeKop outside an interrupt body");
  assert(t >= 0);
  IKDP_KRACE_WRITE(this, "CpuSystem::intr_charge_");
  intr_charge_ += t;
  // Same ledger total as ChargeInterrupt (the time still steals cycles from
  // the running burst and extends intr_busy_until_); only the attribution
  // bucket is finer, matching the context executing the operator.
  const ChargeBucket bucket = intr_bucket_ == ChargeBucket::kSoftclock
                                  ? ChargeBucket::kKopSoftclock
                                  : ChargeBucket::kKopInterrupt;
  const KspanCursor& cur = CurrentKspan();
  Attribute(bucket, "kop", cur.span, t);
}

void CpuSystem::DrainInterrupts() {
  if (intr_queue_.empty()) {
    return;
  }
  const SimTime now = sim_->Now();
  if (now < intr_busy_until_) {
    if (!intr_drain_armed_) {
      intr_drain_armed_ = true;
      sim_->At(intr_busy_until_, [this] {
        intr_drain_armed_ = false;
        DrainInterrupts();
      });
    }
    return;
  }
  IKDP_KRACE_COMMUTE(this, "CpuSystem::intr_queue_");
  PendingInterrupt work = std::move(intr_queue_.front());
  intr_queue_.pop_front();
  in_interrupt_ = true;
  intr_bucket_ = work.softclock ? ChargeBucket::kSoftclock : ChargeBucket::kInterrupt;
  IKDP_KRACE_WRITE(this, "CpuSystem::intr_charge_");
  intr_charge_ = work.overhead;
  Attribute(intr_bucket_, work.subsystem, work.span, work.overhead);
  {
    ContextGuard at_interrupt(ExecContext::kInterrupt);
    // The body runs under the tag captured at raise time; handlers push
    // refining scopes (their ChargeInterrupt additions read the cursor).
    KspanScope tag(work.subsystem, work.span);
    work.body();
  }
  in_interrupt_ = false;
  const SimDuration total = intr_charge_;
  if (trace_ != nullptr) {
    trace_->Record(now, TraceKind::kInterrupt, total);
  }
  IKDP_KRACE_COMMUTE(this, "CpuSystem::stats_");
  stats_.interrupt_work += total;
  ++stats_.interrupts;
  intr_busy_until_ = now + total;
  if (burst_.active) {
    // Steal the interrupt's cycles from the in-progress process burst.
    burst_.stolen += total;
    sim_->Cancel(burst_.event);
    const SimTime end =
        burst_.start + burst_.lead_in + burst_.planned + burst_.stolen;
    burst_.event = sim_->At(end, [this] { FinishBurst(); });
  }
  if (!intr_queue_.empty() && !intr_drain_armed_) {
    intr_drain_armed_ = true;
    sim_->At(intr_busy_until_, [this] {
      intr_drain_armed_ = false;
      DrainInterrupts();
    });
  }
}

}  // namespace ikdp
