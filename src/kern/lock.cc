#include "src/kern/lock.h"

#include <algorithm>

namespace ikdp {

namespace {
// Counts an acquisition in this run's lock counters; `kind` is the spin or
// sleep acquisition counter.
void NoteAcquired(uint64_t LockStats::*kind, int rank) {
  LockStats& s = Kctx().run.locks;
  ++(s.*kind);
  ++s.cur_held;
  s.max_held = std::max(s.max_held, s.cur_held);
  s.max_held_rank = std::max(s.max_held_rank, rank);
}
}  // namespace

void SpinLock::Acquire() {
  if (held_) {
    // A contended spin lock on a uniprocessor is a deadlock: the holder can
    // never run while this context spins.  Under lockdep the validator owns
    // the report (collect mode records it and treats the acquire as a
    // re-entrant no-op so the run can continue).
    if (LockdepEnabled()) {
      Lockdep().OnAcquire(this, name_, rank_, /*spin=*/true);
      return;
    }
    ContractAbort("SpinLock %s: re-acquired while held (uniprocessor deadlock)", name_);
  }
  NoteAcquired(&LockStats::spin_acquisitions, rank_);
  if (LockdepEnabled()) {
    Lockdep().OnAcquire(this, name_, rank_, /*spin=*/true);
  }
  held_ = true;
}

void SpinLock::Release() {
  if (!held_) {
    ContractAbort("SpinLock %s: released while not held", name_);
  }
  if (LockdepEnabled()) {
    Lockdep().OnRelease(this, name_);
  }
  held_ = false;
  --Kctx().run.locks.cur_held;
}

void SleepLock::AcquireUncontended() {
  if (held_) {
    ContractAbort(
        "SleepLock %s: AcquireUncontended found the lock held — a critical "
        "section spanned a suspension point",
        name_);
  }
  TakeOwnership();
}

void SleepLock::TakeOwnership() {
  NoteAcquired(&LockStats::sleep_acquisitions, rank_);
  if (LockdepEnabled()) {
    // Taking a sleep lock is a may-block point even when it does not sleep:
    // holding a SpinLock here is the sleep-under-spinlock hazard.
    Lockdep().OnMayBlock(name_);
    Lockdep().OnAcquire(this, name_, rank_, /*spin=*/false);
  }
  held_ = true;
}

void SleepLock::ReleaseOwnership() {
  if (!held_) {
    ContractAbort("SleepLock %s: released while not held", name_);
  }
  if (LockdepEnabled()) {
    Lockdep().OnRelease(this, name_);
  }
  held_ = false;
  --Kctx().run.locks.cur_held;
}

}  // namespace ikdp
