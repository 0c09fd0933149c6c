// Unit tests for the krace happens-before race detector (src/sim/krace.h):
// every edge kind that ORDERS two same-timestamp accesses (schedule chains,
// ordering channels, the clock itself, program order) must silence the
// detector, every missing edge must fire it, and the access-kind lattice
// (read / write / commute) must conflict exactly as documented.  The abort
// mode's crash path is pinned with EXPECT_DEATH, mirroring
// tests/kcheck_runtime_test.cc for the context checker.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/buf/buf.h"
#include "src/buf/buffer_cache.h"
#include "src/dev/ram_disk.h"
#include "src/hw/costs.h"
#include "src/kern/cpu.h"
#include "src/kern/kernel_context.h"
#include "src/sim/simulator.h"

namespace ikdp {
namespace {

class KraceTest : public ::testing::Test {
 protected:
  // The mode is a setting of this thread's kernel context; tests force
  // collect mode and restore whatever the environment selected (the CI
  // suite runs under IKDP_KRACE=abort) so neighbouring tests keep their
  // configuration.
  void SetUp() override {
    saved_mode_ = Krace().mode();
    saved_seed_ = Krace().perturb_seed();
    Krace().SetPerturbSeed(0);
    Krace().SetMode(KraceDetector::Mode::kCollect);
  }
  void TearDown() override {
    Krace().SetPerturbSeed(saved_seed_);
    Krace().SetMode(saved_mode_);
  }

  std::string FirstRace() const {
    return Krace().races().empty() ? std::string("(none)")
                                   : Krace().races()[0].Describe();
  }

  KraceDetector::Mode saved_mode_ = KraceDetector::Mode::kOff;
  uint64_t saved_seed_ = 0;
  Simulator sim_;
  int field_ = 0;
};

// --- the positive direction: a genuine race is reported ---

TEST_F(KraceTest, UnorderedSameTimeWritesRace) {
  // Two host-scheduled events at one timestamp have no schedule edge: a
  // legal tie-break permutation reverses them.
  sim_.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  sim_.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  sim_.Run();
  ASSERT_EQ(Krace().races().size(), 1u);
  const KraceDetector::Race& r = Krace().races()[0];
  EXPECT_EQ(r.obj, &field_);
  EXPECT_EQ(r.time, 10);
  EXPECT_NE(r.Describe().find("Fixture::field"), std::string::npos);
}

TEST_F(KraceTest, ReadVsConcurrentWriteRaces) {
  sim_.At(10, [&] { IKDP_KRACE_READ(&field_, "Fixture::field"); });
  sim_.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  sim_.Run();
  EXPECT_EQ(Krace().races().size(), 1u);
}

TEST_F(KraceTest, SiblingsOfOneParentStillRace) {
  // A schedule edge orders parent -> child, not child -> sibling: two
  // children spawned by the same event remain unordered with each other.
  sim_.At(10, [&] {
    sim_.After(0, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
    sim_.After(0, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  });
  sim_.Run();
  EXPECT_EQ(Krace().races().size(), 1u);
}

TEST_F(KraceTest, DistinctFieldsDoNotInteract) {
  int other = 0;
  sim_.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  sim_.At(10, [&] { IKDP_KRACE_WRITE(&other, "Fixture::other"); });
  sim_.Run();
  EXPECT_TRUE(Krace().races().empty()) << FirstRace();
}

// --- edges that order accesses must silence the detector ---

TEST_F(KraceTest, ScheduleEdgeOrdersParentAndChild) {
  sim_.At(10, [&] {
    IKDP_KRACE_WRITE(&field_, "Fixture::field");
    sim_.After(0, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  });
  sim_.Run();
  EXPECT_TRUE(Krace().races().empty()) << FirstRace();
}

TEST_F(KraceTest, ScheduleChainReachesGrandchildren) {
  // The ancestor set is transitive through an intermediary that never
  // touches the field itself.
  sim_.At(10, [&] {
    IKDP_KRACE_WRITE(&field_, "Fixture::field");
    sim_.After(0, [&] {
      sim_.After(0, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
    });
  });
  sim_.Run();
  EXPECT_TRUE(Krace().races().empty()) << FirstRace();
}

TEST_F(KraceTest, CrossTimestampAccessesAreClockOrdered) {
  sim_.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  sim_.At(20, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  sim_.Run();
  EXPECT_TRUE(Krace().races().empty()) << FirstRace();
}

TEST_F(KraceTest, ChannelReleaseAcquireOrders) {
  // The dynamic half of IKDP_ORDERED_BY: release-after-publish in the
  // first event, acquire-before-consume in the second.
  int chan = 0;
  sim_.At(10, [&] {
    IKDP_KRACE_WRITE(&field_, "Fixture::field");
    Krace().ChannelRelease(&chan);
  });
  sim_.At(10, [&] {
    Krace().ChannelAcquire(&chan);
    IKDP_KRACE_WRITE(&field_, "Fixture::field");
  });
  sim_.Run();
  EXPECT_TRUE(Krace().races().empty()) << FirstRace();
}

TEST_F(KraceTest, ChannelEdgeComposesWithScheduleEdges) {
  // X -schedule-> A -channel-> B must make X happen-before B: the release
  // carries the releaser's own same-timestamp ancestors, not just the
  // releasing event.  Queue order at t=10 is X, H, A(child of X),
  // B(child of H), so B really does acquire after A releases.
  int chan = 0;
  sim_.At(10, [&] {
    IKDP_KRACE_WRITE(&field_, "Fixture::field");
    sim_.After(0, [&] { Krace().ChannelRelease(&chan); });
  });
  sim_.At(10, [&] {
    sim_.After(0, [&] {
      Krace().ChannelAcquire(&chan);
      IKDP_KRACE_WRITE(&field_, "Fixture::field");
    });
  });
  sim_.Run();
  EXPECT_TRUE(Krace().races().empty()) << FirstRace();
}

TEST_F(KraceTest, ChannelEdgeNeedsTheAcquire) {
  // Releasing alone proves nothing: a consumer that skips the acquire is
  // exactly the bug the channel annotation exists to catch.
  int chan = 0;
  sim_.At(10, [&] {
    IKDP_KRACE_WRITE(&field_, "Fixture::field");
    Krace().ChannelRelease(&chan);
  });
  sim_.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  sim_.Run();
  EXPECT_EQ(Krace().races().size(), 1u);
}

// --- the access-kind lattice ---

TEST_F(KraceTest, ConcurrentReadsDoNotRace) {
  sim_.At(10, [&] { IKDP_KRACE_READ(&field_, "Fixture::field"); });
  sim_.At(10, [&] { IKDP_KRACE_READ(&field_, "Fixture::field"); });
  sim_.Run();
  EXPECT_TRUE(Krace().races().empty()) << FirstRace();
}

TEST_F(KraceTest, CommutingUpdatesDoNotRaceEachOther) {
  // Two order-insensitive updates (counter bumps) commute by declaration.
  sim_.At(10, [&] { IKDP_KRACE_COMMUTE(&field_, "Fixture::field"); });
  sim_.At(10, [&] { IKDP_KRACE_COMMUTE(&field_, "Fixture::field"); });
  sim_.Run();
  EXPECT_TRUE(Krace().races().empty()) << FirstRace();
}

TEST_F(KraceTest, CommuteStillRacesWithPlainRead) {
  // An unordered reader CAN observe either side of a commuting update; only
  // commute/commute pairs are exempt.
  sim_.At(10, [&] { IKDP_KRACE_COMMUTE(&field_, "Fixture::field"); });
  sim_.At(10, [&] { IKDP_KRACE_READ(&field_, "Fixture::field"); });
  sim_.Run();
  EXPECT_EQ(Krace().races().size(), 1u);
}

TEST_F(KraceTest, CommuteStillRacesWithPlainWrite) {
  sim_.At(10, [&] { IKDP_KRACE_COMMUTE(&field_, "Fixture::field"); });
  sim_.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  sim_.Run();
  EXPECT_EQ(Krace().races().size(), 1u);
}

TEST_F(KraceTest, MixedKindsWithinOneEventAreProgramOrdered) {
  sim_.At(10, [&] {
    IKDP_KRACE_READ(&field_, "Fixture::field");
    IKDP_KRACE_WRITE(&field_, "Fixture::field");
    IKDP_KRACE_COMMUTE(&field_, "Fixture::field");
  });
  sim_.Run();
  EXPECT_TRUE(Krace().races().empty()) << FirstRace();
}

// --- bookkeeping corners ---

TEST_F(KraceTest, HostSideAccessesAreExempt) {
  // Setup/verification code runs between events on the one real thread; it
  // cannot be reordered against anything.
  IKDP_KRACE_WRITE(&field_, "Fixture::field");
  sim_.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  sim_.Run();
  IKDP_KRACE_READ(&field_, "Fixture::field");
  EXPECT_TRUE(Krace().races().empty()) << FirstRace();
}

TEST_F(KraceTest, CancelledChildLeavesNoPendingState) {
  sim_.At(10, [&] {
    IKDP_KRACE_WRITE(&field_, "Fixture::field");
    const EventId child =
        sim_.After(0, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
    EXPECT_TRUE(sim_.Cancel(child));
  });
  sim_.Run();
  EXPECT_TRUE(Krace().races().empty()) << FirstRace();
}

TEST_F(KraceTest, PriorRunStateIsDiscardedOnNewSimulator) {
  // EventIds restart per Simulator, and the detector outlives it:
  // without a per-run reset, run 2's events alias run 1's records at the
  // same (address, field, timestamp).  Here run 2's writer has a different
  // id than run 1's, so stale state would fabricate a cross-run race.
  {
    Simulator first;
    first.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
    first.Run();
  }
  Simulator second;
  second.At(10, [] {});  // occupies the event id run 1's writer had
  second.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  second.Run();
  EXPECT_TRUE(Krace().races().empty()) << FirstRace();
}

TEST_F(KraceTest, EventIdReuseAcrossRunsDoesNotMaskRaces) {
  // The false-negative twin: run 1 records ordered writes under ids 1 and
  // 2; run 2 reuses those ids for a GENUINE racing pair.  Stale records
  // would make run 2's accesses look like duplicates of run 1's ("same
  // event, same kind") and silently swallow the race.
  {
    Simulator first;
    first.At(10, [&] {
      IKDP_KRACE_WRITE(&field_, "Fixture::field");
      first.After(0, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
    });
    first.Run();
    ASSERT_TRUE(Krace().races().empty()) << FirstRace();
  }
  Simulator second;
  second.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  second.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  second.Run();
  EXPECT_EQ(Krace().races().size(), 1u);
}

TEST_F(KraceTest, SetPerturbSeedStartsACleanRun) {
  // A seed sweep reruns the same workload; each seed is a fresh run whose
  // events must not be compared against the previous seed's records.
  sim_.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  sim_.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  sim_.Run();
  ASSERT_EQ(Krace().races().size(), 1u);
  Krace().SetPerturbSeed(1);
  EXPECT_TRUE(Krace().races().empty());
  EXPECT_EQ(Krace().perturb_seed(), 1u);
}

TEST_F(KraceTest, ResetClearsRecordedRaces) {
  sim_.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  sim_.At(10, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
  sim_.Run();
  ASSERT_FALSE(Krace().races().empty());
  Krace().Reset();
  EXPECT_TRUE(Krace().races().empty());
}

// --- abort mode ---

using KraceDeathTest = KraceTest;

TEST_F(KraceDeathTest, AbortModeAbortsOnFirstRace) {
  EXPECT_DEATH(
      {
        Krace().SetMode(KraceDetector::Mode::kAbort);
        sim_.At(5, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
        sim_.At(5, [&] { IKDP_KRACE_WRITE(&field_, "Fixture::field"); });
        sim_.Run();
      },
      "krace:");
}

// --- integration: an instrumented kernel path under the detector ---

TEST_F(KraceTest, BufferCacheAsyncReadPathIsRaceFree) {
  // BreadAsync drives the instrumented Buf::flags, freelist, and hash-chain
  // probes through interrupt-context completion; the handoffs all carry
  // real edges, so collect mode must stay silent.
  CpuSystem cpu(&sim_, DecStation5000Costs());
  BufferCache cache(&cpu, 16);
  RamDisk ram(&cpu, 4 << 20);
  ram.PokeBlock(3, std::vector<uint8_t>(kBlockSize, 0x5a));
  Buf* got = nullptr;
  cache.BreadAsync(&ram, 3, [&](Buf& b) { got = &b; });
  sim_.Run();
  ASSERT_NE(got, nullptr);
  cache.Brelse(got);
  EXPECT_TRUE(Krace().races().empty()) << FirstRace();
}

TEST_F(KraceTest, BufferCacheReadAheadBurstIsRaceFree) {
  // Several overlapping async reads complete through the disk driver's
  // single interrupt engine; distinct buffers must not alias in the
  // detector and the shared freelist/hash structures must stay ordered
  // (or commuting) under the burst.
  CpuSystem cpu(&sim_, DecStation5000Costs());
  BufferCache cache(&cpu, 16);
  RamDisk ram(&cpu, 4 << 20);
  for (int64_t blk = 0; blk < 8; ++blk) {
    ram.PokeBlock(blk, std::vector<uint8_t>(kBlockSize, uint8_t(blk)));
  }
  int done = 0;
  for (int64_t blk = 0; blk < 8; ++blk) {
    cache.IssueReadAhead(&ram, blk);
  }
  cache.BreadAsync(&ram, 2, [&](Buf& b) {
    ++done;
    cache.Brelse(&b);
  });
  sim_.Run();
  EXPECT_EQ(done, 1);
  EXPECT_TRUE(Krace().races().empty()) << FirstRace();
}

}  // namespace
}  // namespace ikdp
