// Unit tests for the kernel CPU system: scheduling, priorities, quanta,
// sleep/wakeup, signals, and interrupt-level CPU stealing.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/hw/costs.h"
#include "src/kern/cpu.h"
#include "src/kern/kernel_context.h"
#include "src/kern/process.h"
#include "src/sim/callout.h"
#include "src/sim/simulator.h"

namespace ikdp {
namespace {

// Costs with zeroed overheads make timing arithmetic exact in tests that are
// about scheduling structure rather than cost accounting.
CostConfig ZeroCosts() {
  CostConfig c;
  c.context_switch = 0;
  c.syscall_overhead = 0;
  c.interrupt_overhead = 0;
  c.quantum = Milliseconds(100);
  return c;
}

class CpuTest : public ::testing::Test {
 protected:
  Simulator sim_;
};

TEST_F(CpuTest, SingleProcessRunsToCompletion) {
  CpuSystem cpu(&sim_, ZeroCosts());
  SimTime finished = -1;
  cpu.Spawn("solo", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Milliseconds(7));
    finished = sim_.Now();
  });
  sim_.Run();
  EXPECT_EQ(finished, Milliseconds(7));
  EXPECT_EQ(cpu.alive(), 0);
  EXPECT_EQ(cpu.stats().process_work, Milliseconds(7));
}

TEST_F(CpuTest, ContextSwitchCostDelaysFirstBurst) {
  CostConfig costs = ZeroCosts();
  costs.context_switch = Microseconds(200);
  CpuSystem cpu(&sim_, costs);
  SimTime finished = -1;
  cpu.Spawn("solo", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Milliseconds(1));
    finished = sim_.Now();
  });
  sim_.Run();
  EXPECT_EQ(finished, Microseconds(200) + Milliseconds(1));
  EXPECT_EQ(cpu.stats().context_switch, Microseconds(200));
}

TEST_F(CpuTest, EqualPriorityProcessesRoundRobin) {
  CpuSystem cpu(&sim_, ZeroCosts());
  std::vector<std::pair<int, SimTime>> finishes;
  for (int i = 0; i < 2; ++i) {
    cpu.Spawn("worker", [&, i](Process& p) -> Task<> {
      co_await cpu.Use(p, Milliseconds(250));
      finishes.emplace_back(i, sim_.Now());
    });
  }
  sim_.Run();
  ASSERT_EQ(finishes.size(), 2u);
  // With a 100 ms quantum: A runs [0,100), B [100,200), A [200,300), B
  // [300,400), A [400,450) done at 450, B [450,500) done at 500.
  EXPECT_EQ(finishes[0], (std::pair<int, SimTime>{0, Milliseconds(450)}));
  EXPECT_EQ(finishes[1], (std::pair<int, SimTime>{1, Milliseconds(500)}));
}

TEST_F(CpuTest, LoneProcessKeepsCpuAcrossQuanta) {
  CpuSystem cpu(&sim_, ZeroCosts());
  SimTime finished = -1;
  cpu.Spawn("hog", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Milliseconds(350));
    finished = sim_.Now();
  });
  sim_.Run();
  EXPECT_EQ(finished, Milliseconds(350));
  // No other runnable process: quantum expiry must not charge switches.
  EXPECT_EQ(cpu.stats().switches, 1u);
}

TEST_F(CpuTest, SleepWakeupRoundTrip) {
  CpuSystem cpu(&sim_, ZeroCosts());
  int chan = 0;
  SimTime woke_at = -1;
  cpu.Spawn("sleeper", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Milliseconds(1));
    co_await cpu.Sleep(p, &chan, kPriBio);
    woke_at = sim_.Now();
  });
  sim_.After(Milliseconds(10), [&] { cpu.Wakeup(&chan); });
  sim_.Run();
  EXPECT_EQ(woke_at, Milliseconds(10));
}

TEST_F(CpuTest, WakeupWithNoSleepersIsNoop) {
  CpuSystem cpu(&sim_, ZeroCosts());
  int chan = 0;
  cpu.Wakeup(&chan);
  sim_.Run();
  EXPECT_EQ(cpu.stats().switches, 0u);
}

TEST_F(CpuTest, IoBoundPreemptsCpuHogOnWakeup) {
  CpuSystem cpu(&sim_, ZeroCosts());
  int chan = 0;
  std::vector<SimTime> io_bursts;
  // The I/O-bound process sleeps at kPriBio and does 1 ms of work per wakeup.
  cpu.Spawn("io", [&](Process& p) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      co_await cpu.Sleep(p, &chan, kPriBio);
      co_await cpu.Use(p, Milliseconds(1));
      io_bursts.push_back(sim_.Now());
      p.ResetPriority();
    }
  });
  SimTime hog_done = -1;
  cpu.Spawn("hog", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Milliseconds(50));
    hog_done = sim_.Now();
  });
  // Wake the I/O process mid-hog-burst at 10, 20, 30 ms.
  for (int i = 1; i <= 3; ++i) {
    sim_.After(Milliseconds(10 * i), [&] { cpu.Wakeup(&chan); });
  }
  sim_.Run();
  // Each wakeup preempts the hog immediately and the I/O burst finishes 1 ms
  // later.
  EXPECT_EQ(io_bursts,
            (std::vector<SimTime>{Milliseconds(11), Milliseconds(21), Milliseconds(31)}));
  // The hog's 50 ms of work is delayed by 3 ms of stolen bursts.
  EXPECT_EQ(hog_done, Milliseconds(53));
}

TEST_F(CpuTest, PreemptedProcessResumesAheadOfEqualPeers) {
  CpuSystem cpu(&sim_, ZeroCosts());
  int chan = 0;
  std::vector<std::string> order;
  // io is spawned first so it is dispatched at t=0 and is already sleeping on
  // the channel when the wakeup fires.
  cpu.Spawn("io", [&](Process& p) -> Task<> {
    co_await cpu.Sleep(p, &chan, kPriBio);
    co_await cpu.Use(p, Milliseconds(1));
    order.push_back("io");
  });
  cpu.Spawn("A", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Milliseconds(30));
    order.push_back("A");
  });
  cpu.Spawn("B", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Milliseconds(30));
    order.push_back("B");
  });
  sim_.After(Milliseconds(5), [&] { cpu.Wakeup(&chan); });
  sim_.Run();
  // A is preempted at 5 ms but must resume before B (front-of-class), so
  // completion order is io, A, B.
  EXPECT_EQ(order, (std::vector<std::string>{"io", "A", "B"}));
}

TEST_F(CpuTest, InterruptStealsFromRunningBurst) {
  CpuSystem cpu(&sim_, ZeroCosts());
  SimTime finished = -1;
  cpu.Spawn("worker", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Milliseconds(10));
    finished = sim_.Now();
  });
  bool handler_ran = false;
  sim_.After(Milliseconds(4), [&] {
    cpu.RunInterrupt(Milliseconds(2), [&] { handler_ran = true; });
  });
  sim_.Run();
  EXPECT_TRUE(handler_ran);
  // 10 ms of work stretched by a 2 ms interrupt.
  EXPECT_EQ(finished, Milliseconds(12));
  EXPECT_EQ(cpu.stats().interrupt_work, Milliseconds(2));
}

TEST_F(CpuTest, ChargeInterruptExtendsTheSteal) {
  CpuSystem cpu(&sim_, ZeroCosts());
  SimTime finished = -1;
  cpu.Spawn("worker", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Milliseconds(10));
    finished = sim_.Now();
  });
  sim_.After(Milliseconds(1), [&] {
    cpu.RunInterrupt(Milliseconds(1), [&] { cpu.ChargeInterrupt(Milliseconds(3)); });
  });
  sim_.Run();
  EXPECT_EQ(finished, Milliseconds(14));
  EXPECT_EQ(cpu.stats().interrupt_work, Milliseconds(4));
}

TEST_F(CpuTest, OverlappingInterruptsSerialize) {
  CpuSystem cpu(&sim_, ZeroCosts());
  std::vector<SimTime> starts;
  sim_.After(Milliseconds(1), [&] {
    cpu.RunInterrupt(Milliseconds(5), [&] { starts.push_back(sim_.Now()); });
    cpu.RunInterrupt(Milliseconds(5), [&] { starts.push_back(sim_.Now()); });
  });
  sim_.Run();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0], Milliseconds(1));
  EXPECT_EQ(starts[1], Milliseconds(6));  // begins after the first completes
}

TEST_F(CpuTest, InterruptDuringIdleDelaysNextDispatch) {
  CostConfig costs = ZeroCosts();
  CpuSystem cpu(&sim_, costs);
  int chan = 0;
  SimTime resumed = -1;
  cpu.Spawn("sleeper", [&](Process& p) -> Task<> {
    co_await cpu.Sleep(p, &chan, kPriBio);
    resumed = sim_.Now();
  });
  sim_.After(Milliseconds(5), [&] {
    cpu.RunInterrupt(Milliseconds(3), [&] { cpu.Wakeup(&chan); });
  });
  sim_.Run();
  // The wakeup happens at interrupt entry (t=5) but the CPU is busy with the
  // interrupt until t=8, so the process resumes then.
  EXPECT_EQ(resumed, Milliseconds(8));
}

TEST_F(CpuTest, SignalWakesInterruptibleSleep) {
  CpuSystem cpu(&sim_, ZeroCosts());
  int chan = 0;
  SimTime woke = -1;
  int handled = 0;
  Process* proc = cpu.Spawn("waiter", [&](Process& p) -> Task<> {
    p.Sigaction(kSigIo, [&] { ++handled; });
    co_await cpu.Sleep(p, &chan, kPriWait, /*interruptible=*/true);
    woke = sim_.Now();
    p.TakeSignals();
  });
  sim_.After(Milliseconds(3), [&] { cpu.Post(*proc, kSigIo); });
  sim_.Run();
  EXPECT_EQ(woke, Milliseconds(3));
  EXPECT_EQ(handled, 1);
}

TEST_F(CpuTest, SignalDoesNotWakeUninterruptibleSleep) {
  CpuSystem cpu(&sim_, ZeroCosts());
  int chan = 0;
  SimTime woke = -1;
  Process* proc = cpu.Spawn("disksleep", [&](Process& p) -> Task<> {
    co_await cpu.Sleep(p, &chan, kPriBio, /*interruptible=*/false);
    woke = sim_.Now();
  });
  sim_.After(Milliseconds(3), [&] { cpu.Post(*proc, kSigIo); });
  sim_.After(Milliseconds(9), [&] { cpu.Wakeup(&chan); });
  sim_.Run();
  EXPECT_EQ(woke, Milliseconds(9));
  EXPECT_TRUE(proc->SignalPending());
}

TEST_F(CpuTest, PendingSignalMakesInterruptibleSleepImmediate) {
  CpuSystem cpu(&sim_, ZeroCosts());
  int chan = 0;
  SimTime woke = -1;
  cpu.Spawn("waiter", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Milliseconds(1));
    cpu.Post(p, kSigAlrm);
    co_await cpu.Sleep(p, &chan, kPriWait, /*interruptible=*/true);
    woke = sim_.Now();
  });
  sim_.Run();
  EXPECT_EQ(woke, Milliseconds(1));
}

TEST_F(CpuTest, CpuTimeAccountingPerProcess) {
  CostConfig costs = ZeroCosts();
  costs.context_switch = Microseconds(100);
  CpuSystem cpu(&sim_, costs);
  Process* a = cpu.Spawn("a", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Milliseconds(150));
  });
  Process* b = cpu.Spawn("b", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Milliseconds(70));
  });
  sim_.Run();
  EXPECT_EQ(a->stats().cpu_time, Milliseconds(150));
  EXPECT_EQ(b->stats().cpu_time, Milliseconds(70));
  EXPECT_EQ(cpu.stats().process_work, Milliseconds(220));
  // Total elapsed = work + all switch costs.
  EXPECT_EQ(sim_.Now(), Milliseconds(220) +
                            static_cast<SimDuration>(cpu.stats().switches) * Microseconds(100));
}

TEST_F(CpuTest, ZeroWorkUseCompletesAndChecksPreemption) {
  CpuSystem cpu(&sim_, ZeroCosts());
  int steps = 0;
  cpu.Spawn("nop", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, 0);
    ++steps;
    co_await cpu.Use(p, 0);
    ++steps;
  });
  sim_.Run();
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(sim_.Now(), 0);
}

TEST_F(CpuTest, ManyProcessesFairShare) {
  CpuSystem cpu(&sim_, ZeroCosts());
  constexpr int kProcs = 5;
  std::vector<SimTime> finish(kProcs, -1);
  for (int i = 0; i < kProcs; ++i) {
    cpu.Spawn("p", [&, i](Process& p) -> Task<> {
      co_await cpu.Use(p, Milliseconds(200));
      finish[i] = sim_.Now();
    });
  }
  sim_.Run();
  // All finish within the last kProcs quanta of the 1-second total.
  for (int i = 0; i < kProcs; ++i) {
    EXPECT_GT(finish[i], Milliseconds(1000) - kProcs * Milliseconds(100));
    EXPECT_LE(finish[i], Milliseconds(1000));
  }
  EXPECT_EQ(sim_.Now(), Milliseconds(1000));
}

// The shape of the paper's Table 1 experiment in miniature: a CPU-bound test
// program contends with an I/O-bound process that periodically steals the
// CPU at high priority.  The test program's progress rate must drop by
// roughly the I/O process's CPU share.
TEST_F(CpuTest, CpuAvailabilityShape) {
  CpuSystem cpu(&sim_, ZeroCosts());
  int chan = 0;
  int64_t ops = 0;
  // io first, so it reaches its sleep before the first wakeup tick.
  cpu.Spawn("io", [&](Process& p) -> Task<> {
    for (;;) {
      co_await cpu.Sleep(p, &chan, kPriBio);
      co_await cpu.Use(p, Milliseconds(4));  // 40% of CPU
      p.ResetPriority();
    }
  });
  cpu.Spawn("test", [&](Process& p) -> Task<> {
    for (;;) {
      co_await cpu.Use(p, Milliseconds(1));
      ++ops;
    }
  });
  // Wake the I/O process every 10 ms.
  std::function<void()> tick = [&] {
    cpu.Wakeup(&chan);
    sim_.After(Milliseconds(10), tick);
  };
  sim_.After(Milliseconds(10), tick);
  sim_.RunUntil(Seconds(10));
  // Test program should get ~60% of the CPU: 6000 ops out of 10000.
  EXPECT_NEAR(static_cast<double>(ops), 6000.0, 100.0);
}


// --- 4.3BSD priority decay (opt-in) ---

CostConfig DecayCosts() {
  CostConfig c;
  c.context_switch = 0;
  c.syscall_overhead = 0;
  c.interrupt_overhead = 0;
  c.quantum = Milliseconds(100);
  c.priority_decay = true;
  return c;
}

TEST_F(CpuTest, DecayPenalizesCpuHog) {
  CpuSystem cpu(&sim_, DecayCosts());
  Process* hog = cpu.Spawn("hog", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Seconds(5));
  });
  sim_.RunUntil(Seconds(3));
  EXPECT_GT(hog->cpu_estimate(), 0.5);
  EXPECT_GT(hog->decay_penalty(), 5);
  sim_.Run();
}

TEST_F(CpuTest, FreshProcessOutranksPenalizedHog) {
  CpuSystem cpu(&sim_, DecayCosts());
  cpu.Spawn("hog", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Seconds(20));
  });
  // Let the hog accumulate penalty, then start a sprinter.
  SimTime sprint_done = -1;
  SimTime sprint_start = -1;
  sim_.After(Seconds(3), [&] {
    sprint_start = sim_.Now();
    cpu.Spawn("sprinter", [&](Process& p) -> Task<> {
      co_await cpu.Use(p, Milliseconds(500));
      sprint_done = sim_.Now();
    });
  });
  sim_.Run();
  // With the hog penalized, the sprinter gets (nearly) the whole CPU: well
  // under the 1 s a fair 50/50 share would take.
  EXPECT_GT(sprint_done, 0);
  EXPECT_LT(sprint_done - sprint_start, Milliseconds(800));
}

TEST_F(CpuTest, WithoutDecaySprinterTimeshares) {
  CpuSystem cpu(&sim_, ZeroCosts());  // decay off
  cpu.Spawn("hog", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Seconds(20));
  });
  SimTime sprint_done = -1;
  SimTime sprint_start = -1;
  sim_.After(Seconds(3), [&] {
    sprint_start = sim_.Now();
    cpu.Spawn("sprinter", [&](Process& p) -> Task<> {
      co_await cpu.Use(p, Milliseconds(500));
      sprint_done = sim_.Now();
    });
  });
  sim_.Run();
  // Fair round-robin: the 500 ms of work takes ~1 s of wall time.
  EXPECT_GE(sprint_done - sprint_start, Milliseconds(900));
}

TEST_F(CpuTest, DecayEstimateFadesWhenIdle) {
  CpuSystem cpu(&sim_, DecayCosts());
  int chan = 0;
  Process* proc = cpu.Spawn("burst-then-idle", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Seconds(2));
    co_await cpu.Sleep(p, &chan, kPriWait);
  });
  sim_.RunUntil(Seconds(3));
  const double peak = proc->cpu_estimate();
  EXPECT_GT(peak, 0.2);
  sim_.RunUntil(Seconds(10));
  EXPECT_LT(proc->cpu_estimate(), peak / 4);
  cpu.Wakeup(&chan);
  sim_.Run();
}

TEST_F(CpuTest, KernelSleepPriorityUnaffectedByDecay) {
  CpuSystem cpu(&sim_, DecayCosts());
  int chan = 0;
  // A process that has burned CPU still wakes from a disk sleep at kPriBio.
  Process* proc = cpu.Spawn("mixed", [&](Process& p) -> Task<> {
    co_await cpu.Use(p, Seconds(3));
    co_await cpu.Sleep(p, &chan, kPriBio);
    EXPECT_EQ(p.priority(), kPriBio);
    p.ResetPriority();
    EXPECT_GE(p.priority(), kPriUser);  // penalty applies only at user level
  });
  sim_.After(Seconds(4), [&] { cpu.Wakeup(&chan); });
  sim_.Run();
  EXPECT_TRUE(proc->dead());
}

// --- same-timestamp callout vs. interrupt ordering under krace ---
//
// The callout table's softclock tick and a device interrupt can land on the
// same simulated instant; whether their accesses to one field are a race
// depends entirely on whether a causality edge connects them.  These tests
// pin both directions at the kern layer (the detector's own unit tests live
// in tests/krace_test.cc).

class CpuKraceTest : public CpuTest {
 protected:
  void SetUp() override {
    saved_mode_ = Krace().mode();
    Krace().SetMode(KraceDetector::Mode::kCollect);
  }
  void TearDown() override { Krace().SetMode(saved_mode_); }
  KraceDetector::Mode saved_mode_ = KraceDetector::Mode::kOff;
};

TEST_F(CpuKraceTest, UnrelatedSameTimestampCalloutAndInterruptRace) {
  // Find the instant the first callout tick fires (hz-dependent).
  SimTime fire = -1;
  {
    Simulator probe_sim;
    CalloutTable probe(&probe_sim, /*hz=*/256);
    probe.Timeout([&] { fire = probe_sim.Now(); }, 1);
    probe_sim.Run();
  }
  ASSERT_GT(fire, 0);

  // A softclock write and an interrupt-level write at that same instant
  // with NO edge between them: a legal tie-break permutation swaps them.
  CpuSystem cpu(&sim_, ZeroCosts());
  CalloutTable callouts(&sim_, /*hz=*/256);
  int field = 0;
  callouts.Timeout([&] { IKDP_KRACE_WRITE(&field, "CpuKrace::field"); }, 1);
  sim_.At(fire, [&] {
    cpu.RunInterrupt(Microseconds(10),
                     [&] { IKDP_KRACE_WRITE(&field, "CpuKrace::field"); });
  });
  sim_.Run();
  EXPECT_EQ(Krace().races().size(), 1u);
  if (!Krace().races().empty()) {
    // The report names both contexts, not just both events.
    const std::string desc = Krace().races()[0].Describe();
    EXPECT_NE(desc.find("softclock"), std::string::npos) << desc;
    EXPECT_NE(desc.find("interrupt"), std::string::npos) << desc;
  }
}

TEST_F(CpuKraceTest, InterruptRaisedByCalloutBodyIsOrdered) {
  // The biodone shape: softclock work raises the interrupt itself, so the
  // interrupt body is a causal descendant of the tick — same field, same
  // instant, no race.
  CpuSystem cpu(&sim_, ZeroCosts());
  CalloutTable callouts(&sim_, /*hz=*/256);
  int field = 0;
  bool interrupt_ran = false;
  callouts.Timeout(
      [&] {
        IKDP_KRACE_WRITE(&field, "CpuKrace::field");
        cpu.RunInterrupt(Microseconds(10), [&] {
          IKDP_KRACE_WRITE(&field, "CpuKrace::field");
          interrupt_ran = true;
        });
      },
      1);
  sim_.Run();
  EXPECT_TRUE(interrupt_ran);
  EXPECT_TRUE(Krace().races().empty())
      << Krace().races()[0].Describe();
}

}  // namespace
}  // namespace ikdp
