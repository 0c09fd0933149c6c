// The kernel context: the simulator's own checker and bookkeeping state,
// one object per host thread.  Each Simulator models one machine; what it
// keeps beside the model lives here, in three parts:
//
//  * settings — kept until changed: the krace mode and perturbation seed,
//    the lockdep mode, and the attached span collector.  The modes start
//    from IKDP_KRACE / IKDP_LOCKDEP, read once per process, on every thread.
//  * run      — per-run state, cleared by every Simulator constructor in one
//    statement (`Kctx().run = {}`): krace records, the lockdep held stack,
//    edges and violations, the lock counters, the datagram serial.
//  * scope    — saved and restored by RAII guards (ContextGuard, KspanScope):
//    the execution context and the span cursor.
//
// It is per host thread, not a Simulator member, because callers set the
// settings before the Simulator exists (RunCopyExperiment and
// RunSpliceServer build theirs internally; a perturbation seed must precede
// the first tie-break key).  Simulations on two threads share nothing.
// None of this is simulated state: it cannot move a simulated nanosecond.

#ifndef SRC_KERN_KERNEL_CONTEXT_H_
#define SRC_KERN_KERNEL_CONTEXT_H_

#include <cstdint>

#include "src/kern/ctx.h"
#include "src/sim/krace.h"
#include "src/sim/kspan.h"
#include "src/sim/lockdep.h"

namespace ikdp {

// Always-on lock counters (exported as lock.* in ikdp.telemetry.v1).
// Plain increments and max-tracking: no simulated time, no allocation.
struct LockStats {
  uint64_t spin_acquisitions = 0;
  uint64_t sleep_acquisitions = 0;
  // Times a SleepLock acquire found the lock held and slept.  Always zero in
  // the shipped benches: every deployed critical section is non-suspending.
  uint64_t sleep_contention = 0;
  int cur_held = 0;       // locks currently held
  int max_held = 0;       // max locks held simultaneously this run
  int max_held_rank = 0;  // highest rank ever held (0 = none yet)
};

struct KernelContext {
  // Out of line, so each Kctx() use inlines only the first-use test, not
  // the construction behind it.
  KernelContext();

  struct Settings {
    CheckerMode krace = KraceModeFromEnv();
    uint64_t perturb_seed = 0;  // 0 = insertion-order tie-break
    CheckerMode lockdep = LockdepModeFromEnv();
    KspanCollector* kspan = nullptr;
  };
  struct Run {
    KraceDetector krace;
    LockdepValidator lockdep;
    LockStats locks;
    // Minted per accepted UdpSocket::SendAsync so kUdpSend/kUdpSent/kUdpRecv
    // records pair across sockets within one trace log.
    uint64_t datagram_serial = 0;
  };
  struct Scope {
    ExecContext exec = ExecContext::kHost;
    KspanCursor kspan;
  };

  Settings settings;
  Run run;
  Scope scope;
};

// This host thread's kernel context.
inline KernelContext& Kctx() {
  // The one mutable global in src/: all other checker and bookkeeping state
  // is a member of it, so a thread's simulations share only this object.
  static thread_local KernelContext ctx;  // kcheck: allow(mutable-global) -- one per thread
  return ctx;
}

// Fast-path mode tests, inlined with no call: a disabled probe or lock hook
// costs two predictable branches on thread-local bytes (the context's
// first-use guard, then the mode).
inline bool KraceEnabled() { return Kctx().settings.krace != CheckerMode::kOff; }
inline bool LockdepEnabled() { return Kctx().settings.lockdep != CheckerMode::kOff; }

// Field-access probes (src/sim/krace.h).  `obj` is the owning object
// (identity), `field` a string literal naming it "Class::member".  Place at
// the mutation/read site; when the detector is off they cost the flag test.
#define IKDP_KRACE_PROBE(obj, field, kind)                                        \
  do {                                                                            \
    if (::ikdp::KraceEnabled())                                                   \
      ::ikdp::Krace().OnAccess((obj), (field), ::ikdp::KraceAccess::kind,         \
                               __FILE__, __LINE__);                               \
  } while (0)
#define IKDP_KRACE_READ(obj, field) IKDP_KRACE_PROBE(obj, field, kRead)
#define IKDP_KRACE_WRITE(obj, field) IKDP_KRACE_PROBE(obj, field, kWrite)
#define IKDP_KRACE_COMMUTE(obj, field) IKDP_KRACE_PROBE(obj, field, kCommute)

}  // namespace ikdp

#endif  // SRC_KERN_KERNEL_CONTEXT_H_
