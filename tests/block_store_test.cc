// Tests for the block store behind both block drivers (src/buf/block_store.h):
// unwritten blocks read as zeros without holding memory, untimed and timed
// access see the same bytes, a failed write stores nothing, and instant
// files leave the tail of their last block zero.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/buf/buffer_cache.h"
#include "src/dev/disk_driver.h"
#include "src/dev/ram_disk.h"
#include "src/fs/filesystem.h"
#include "src/hw/costs.h"
#include "src/hw/disk.h"
#include "src/kern/cpu.h"
#include "src/sim/simulator.h"

namespace ikdp {
namespace {

enum class Driver { kRam, kRz56 };

std::vector<uint8_t> Pattern(int seed) {
  std::vector<uint8_t> v(kBlockSize);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint8_t>(i * 7 + static_cast<size_t>(seed) * 13 + 1);
  }
  return v;
}

// Runs one transfer of block `blkno` through `dev`'s Strategy to completion
// and returns the buffer.  A read starts from a buffer full of 0xCC, so
// bytes the driver fails to fill show; a write sends `data`.
Buf Transfer(Simulator& sim, BufferCache& cache, BlockDevice* dev, int64_t blkno, bool read,
             const std::vector<uint8_t>& data = {}) {
  Buf b;
  b.cache = &cache;
  b.dev = dev;
  b.blkno = blkno;
  b.data = MakeBufData();
  if (read) {
    std::fill(b.data->begin(), b.data->end(), 0xCC);
    b.Set(kBufRead);
  } else {
    *b.data = data;
  }
  b.Set(kBufBusy);
  b.Set(kBufCall);
  bool done = false;
  b.iodone = [&done](Buf&) { done = true; };
  dev->Strategy(b);
  sim.Run();
  EXPECT_TRUE(done);
  b.iodone = nullptr;
  return b;
}

class BlockStoreTest : public ::testing::TestWithParam<Driver> {
 protected:
  BlockStoreTest() : cpu_(&sim_, DecStation5000Costs()), cache_(&cpu_, 8) {
    if (GetParam() == Driver::kRam) {
      dev_ = std::make_unique<RamDisk>(&cpu_, 16 << 20);
    } else {
      dev_ = std::make_unique<DiskDriver>(&cpu_, &sim_, Rz56Params());
    }
  }

  std::vector<uint8_t> Read(int64_t blkno) {
    return *Transfer(sim_, cache_, dev_.get(), blkno, /*read=*/true).data;
  }
  void Write(int64_t blkno, const std::vector<uint8_t>& data) {
    Transfer(sim_, cache_, dev_.get(), blkno, /*read=*/false, data);
  }

  Simulator sim_;
  CpuSystem cpu_;
  BufferCache cache_;
  std::unique_ptr<BlockDevice> dev_;
};

TEST_P(BlockStoreTest, UnwrittenBlockReadsAsZeros) {
  const std::vector<uint8_t> zeros(kBlockSize, 0);
  EXPECT_EQ(dev_->PeekBlock(7), zeros);
  EXPECT_EQ(Read(7), zeros);
  EXPECT_EQ(dev_->store().materialized_blocks(), 0);  // reading allocates nothing
}

TEST_P(BlockStoreTest, PeekPokeRoundTrips) {
  dev_->PokeBlock(9, Pattern(9));
  EXPECT_EQ(dev_->PeekBlock(9), Pattern(9));
  EXPECT_EQ(Read(9), Pattern(9));
  // A short poke replaces the whole block, zero-padded.
  const std::vector<uint8_t> head(100, 0xEE);
  dev_->PokeBlock(9, head);
  std::vector<uint8_t> want(kBlockSize, 0);
  std::fill_n(want.begin(), head.size(), 0xEE);
  EXPECT_EQ(dev_->PeekBlock(9), want);
  // A timed write is what a later peek sees.
  Write(11, Pattern(11));
  EXPECT_EQ(dev_->PeekBlock(11), Pattern(11));
}

TEST_P(BlockStoreTest, OneWrittenBlockHoldsOneBlockOfStorage) {
  Write(3, Pattern(3));
  Write(3, Pattern(4));  // rewriting reuses the block
  EXPECT_EQ(dev_->store().materialized_blocks(), 1);
  EXPECT_EQ(dev_->PeekBlock(3), Pattern(4));
}

TEST_P(BlockStoreTest, InstantFileTailIsZeroPadded) {
  // Dirty every block the file could land on first, so a tail left
  // unwritten would show the old bytes.
  for (int64_t blk = 0; blk < 32; ++blk) {
    dev_->PokeBlock(blk, std::vector<uint8_t>(kBlockSize, 0xFF));
  }
  FileSystem fs(&cpu_, &cache_, dev_.get(), "fs");
  constexpr int64_t kBytes = kBlockSize + 100;
  Inode* ip = fs.CreateFileInstant("f", kBytes, [](int64_t i) { return uint8_t(i % 251); });
  ASSERT_NE(ip, nullptr);
  const std::vector<uint8_t> tail = Read(ip->direct[1]);
  for (int64_t i = 0; i < kBlockSize; ++i) {
    ASSERT_EQ(tail[static_cast<size_t>(i)], i < 100 ? uint8_t((kBlockSize + i) % 251) : 0)
        << "byte " << i;
  }
  const std::vector<uint8_t> back = fs.ReadFileInstant(ip);
  ASSERT_EQ(static_cast<int64_t>(back.size()), kBytes);
  EXPECT_TRUE(fs.VerifyFileInstant(ip, [](int64_t i) { return uint8_t(i % 251); }));
}

INSTANTIATE_TEST_SUITE_P(Drivers, BlockStoreTest, ::testing::Values(Driver::kRam, Driver::kRz56),
                         [](const ::testing::TestParamInfo<Driver>& info) {
                           return info.param == Driver::kRam ? "Ram" : "Rz56";
                         });

TEST(BlockStoreFaultTest, FailedDiskWriteLeavesStoredBlockUnchanged) {
  Simulator sim;
  CpuSystem cpu(&sim, DecStation5000Costs());
  BufferCache cache(&cpu, 8);
  DiskDriver drv(&cpu, &sim, Rz56Params());
  drv.PokeBlock(5, Pattern(5));
  drv.disk().SetFaultHook([](int64_t, bool is_read) { return !is_read; });
  const Buf b = Transfer(sim, cache, &drv, 5, /*read=*/false, Pattern(6));
  EXPECT_TRUE(b.Has(kBufError));
  EXPECT_EQ(drv.PeekBlock(5), Pattern(5));
}

}  // namespace
}  // namespace ikdp
