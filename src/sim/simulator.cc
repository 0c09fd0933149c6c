#include "src/sim/simulator.h"

#include <cassert>
#include <utility>

#include "src/kern/lock.h"
#include "src/sim/krace.h"

namespace ikdp {

Simulator::Simulator() {
  // A new simulator is a new run: EventIds restart at 1 in this queue, and
  // the allocator may hand freshly-constructed kernel objects the same
  // addresses a previous run used.  Stale records in the process-wide
  // detector would alias them — a coincidentally equal (id, timestamp,
  // address) triple reads as "same event" (silently skipping real races)
  // and an unequal one fabricates a cross-run race.  The lock counters are
  // process-wide too; without the reset, lock.* telemetry would sum over
  // every run in the process.
  Krace().Reset();
  ResetLockStats();
}

EventId Simulator::After(SimDuration delay, std::function<void()> fn) {
  if (delay < 0) {
    delay = 0;
  }
  return At(now_ + delay, std::move(fn));
}

EventId Simulator::At(SimTime when, std::function<void()> fn) {
  assert(when >= now_ && "scheduling into the past");
  const EventId id = queue_.Schedule(when, std::move(fn));
  if (KraceEnabled()) {
    // Schedule edge: the currently executing event happens-before `id`.
    Krace().OnSchedule(id, when);
  }
  return id;
}

bool Simulator::Cancel(EventId id) {
  const bool live = queue_.Cancel(id);
  if (live && KraceEnabled()) {
    Krace().OnCancel(id);
  }
  return live;
}

SimTime Simulator::Run() {
  while (Step()) {
  }
  return now_;
}

SimTime Simulator::RunUntil(SimTime deadline) {
  while (!queue_.empty() && queue_.NextTime() <= deadline) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return now_;
}

bool Simulator::Step() {
  if (queue_.empty()) {
    return false;
  }
  SimTime when = 0;
  EventId id = kInvalidEventId;
  std::function<void()> fn = queue_.PopNext(&when, &id);
  assert(when >= now_ && "event queue went backwards");
  now_ = when;
  ++events_executed_;
  if (KraceEnabled()) {
    Krace().OnEventBegin(id, when);
    fn();
    Krace().OnEventEnd();
  } else {
    fn();
  }
  return true;
}

}  // namespace ikdp
