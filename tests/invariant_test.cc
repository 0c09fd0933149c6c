// Cross-cutting invariant tests:
//  * the CPU accounting identity (process + switch + interrupt <= elapsed)
//    over randomized mixed workloads;
//  * a model-checked EventQueue fuzz (random schedule/cancel/pop against a
//    reference multimap).

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/dev/disk_driver.h"
#include "src/dev/ram_disk.h"
#include "src/hw/disk.h"
#include "src/metrics/experiment.h"
#include "src/os/kernel.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"

namespace ikdp {
namespace {

uint8_t Fill(int64_t i) { return static_cast<uint8_t>(i * 7 + 1); }

// --- EventQueue model fuzz ---

class EventQueueFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EventQueueFuzz, MatchesReferenceModel) {
  Rng rng(GetParam());
  EventQueue q;
  // Reference: firing time -> insertion sequence (fire order within a time).
  struct ModelEvent {
    EventId id;
    int payload;
  };
  std::multimap<SimTime, ModelEvent> model;
  std::vector<int> fired_q;
  std::vector<int> fired_model;
  int next_payload = 0;
  SimTime now = 0;

  for (int step = 0; step < 2000; ++step) {
    const uint64_t op = rng.Below(10);
    if (op < 5) {
      // Schedule at now + random delay.
      const SimTime when = now + static_cast<SimTime>(rng.Below(1000));
      const int payload = next_payload++;
      const EventId id = q.Schedule(when, [payload, &fired_q] { fired_q.push_back(payload); });
      model.emplace(when, ModelEvent{id, payload});
    } else if (op < 7 && !model.empty()) {
      // Cancel a random live event.
      auto it = model.begin();
      std::advance(it, static_cast<int64_t>(rng.Below(model.size())));
      EXPECT_TRUE(q.Cancel(it->second.id));
      EXPECT_FALSE(q.Cancel(it->second.id));  // double cancel refused
      model.erase(it);
    } else if (!q.empty()) {
      // Pop the earliest event; it must match the model's earliest (ties by
      // insertion order = lowest id).
      auto it = model.begin();
      auto best = it;
      for (; it != model.end() && it->first == best->first; ++it) {
        if (it->second.id < best->second.id) {
          best = it;
        }
      }
      SimTime when = 0;
      q.PopNext(&when)();
      EXPECT_EQ(when, best->first);
      EXPECT_GE(when, now);
      now = when;
      fired_model.push_back(best->second.payload);
      model.erase(best);
      ASSERT_EQ(fired_q.back(), fired_model.back()) << "step " << step;
    }
    ASSERT_EQ(q.size(), model.size()) << "step " << step;
  }
  // Drain the remainder.
  while (!q.empty()) {
    SimTime when = 0;
    q.PopNext(&when)();
  }
  EXPECT_EQ(fired_q.size(), fired_model.size() + (fired_q.size() - fired_model.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz, ::testing::Values(11, 22, 33, 44));

// --- CPU accounting identity over mixed workloads ---

class AccountingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AccountingTest, BusyNeverExceedsElapsed) {
  Rng rng(GetParam());
  Simulator sim;
  Kernel kernel(&sim, DecStation5000Costs());
  RamDisk ram(&kernel.cpu(), 16 << 20);
  DiskDriver scsi(&kernel.cpu(), &sim, Rz58Params());
  FileSystem* ram_fs = kernel.MountFs(&ram, "r");
  FileSystem* scsi_fs = kernel.MountFs(&scsi, "s");
  ram_fs->CreateFileInstant("a", 16 * kBlockSize, Fill);
  scsi_fs->CreateFileInstant("b", 16 * kBlockSize, Fill);

  // A CPU spinner, a splicer, and a read/write copier, all at once.
  bool stop = false;
  kernel.Spawn("spin", [&](Process& p) -> Task<> {
    while (!stop) {
      co_await kernel.cpu().Use(p, Microseconds(500 + rng.Below(1000)));
    }
  });
  kernel.Spawn("splicer", [&](Process& p) -> Task<> {
    const int s = co_await kernel.Open(p, "r:a", kOpenRead);
    const int d = co_await kernel.Open(p, "s:acopy", kOpenWrite | kOpenCreate);
    co_await kernel.Splice(p, s, d, kSpliceEof);
  });
  kernel.Spawn("copier", [&](Process& p) -> Task<> {
    const int s = co_await kernel.Open(p, "s:b", kOpenRead);
    const int d = co_await kernel.Open(p, "r:bcopy", kOpenWrite | kOpenCreate);
    std::vector<uint8_t> buf;
    int64_t n = 0;
    while ((n = co_await kernel.Read(p, s, 8192, &buf)) > 0) {
      co_await kernel.Write(p, d, buf.data(), n);
    }
    co_await kernel.FsyncFd(p, d);
    stop = true;
  });
  sim.Run();
  ASSERT_EQ(kernel.cpu().alive(), 0);

  const SimTime elapsed = sim.Now();
  const CpuSystem::Stats& s = kernel.cpu().stats();
  const SimDuration busy = s.process_work + s.context_switch + s.interrupt_work;
  EXPECT_GT(elapsed, 0);
  EXPECT_LE(busy, elapsed) << "CPU accounting exceeded wall time";
  // The spinner kept the machine essentially saturated.
  EXPECT_GE(IdleFraction(kernel, elapsed), 0.0);
  EXPECT_LT(IdleFraction(kernel, elapsed), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccountingTest, ::testing::Values(5, 6, 7));

}  // namespace
}  // namespace ikdp
