// Tests for the Kernel syscall layer: open/close/read/write/lseek/fcntl/
// fsync semantics and error paths, pause/itimer/SIGIO, socket descriptors,
// and multi-process behaviour.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/dev/frame_source.h"
#include "src/dev/null_device.h"
#include "src/dev/paced_sink.h"
#include "src/dev/ram_disk.h"
#include "src/os/kernel.h"

namespace ikdp {
namespace {

uint8_t Fill(int64_t i) { return static_cast<uint8_t>((i * 11 + 3) & 0xff); }

class OsTest : public ::testing::Test {
 protected:
  OsTest() : kernel_(&sim_, DecStation5000Costs()), ram_(&kernel_.cpu(), 16 << 20) {
    fs_ = kernel_.MountFs(&ram_, "fs");
  }

  void Run(std::function<Task<>(Process&)> body) {
    kernel_.Spawn("test", std::move(body));
    sim_.Run();
    ASSERT_EQ(kernel_.cpu().alive(), 0) << "process deadlocked";
  }

  Simulator sim_;
  Kernel kernel_;
  RamDisk ram_;
  FileSystem* fs_;
};

TEST_F(OsTest, OpenMissingFileFails) {
  Run([&](Process& p) -> Task<> {
    EXPECT_EQ(co_await kernel_.Open(p, "fs:nope", kOpenRead), -1);
    EXPECT_EQ(co_await kernel_.Open(p, "nofs:x", kOpenRead), -1);
    EXPECT_EQ(co_await kernel_.Open(p, "/dev/nodev", kOpenRead), -1);
    EXPECT_EQ(co_await kernel_.Open(p, "garbage", kOpenRead), -1);
  });
}

TEST_F(OsTest, OpenCreateMakesFile) {
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "fs:new", kOpenWrite | kOpenCreate);
    EXPECT_GE(fd, 3);
    EXPECT_NE(fs_->Lookup("new"), nullptr);
    EXPECT_EQ(co_await kernel_.Close(p, fd), 0);
  });
}

TEST_F(OsTest, OpenTruncEmptiesFile) {
  fs_->CreateFileInstant("t", 3 * kBlockSize, Fill);
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "fs:t", kOpenWrite | kOpenTrunc);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(fs_->Lookup("t")->size, 0);
  });
}

TEST_F(OsTest, OpenTruncFreesBlocksMappedThroughDelayedIndirect) {
  // 20 blocks: 12 direct plus 8 mapped through the single-indirect block,
  // which is still a delayed write in the cache when the file is truncated.
  // Every one of the 21 blocks must come back.
  const int64_t before = fs_->FreeBlocks();
  Run([&](Process& p) -> Task<> {
    const int w = co_await kernel_.Open(p, "fs:t", kOpenWrite | kOpenCreate);
    const std::vector<uint8_t> data(20 * kBlockSize, 0x5A);
    EXPECT_EQ(co_await kernel_.Write(p, w, data), 20 * kBlockSize);
    co_await kernel_.Close(p, w);
    EXPECT_EQ(fs_->FreeBlocks(), before - 21);
    const int t = co_await kernel_.Open(p, "fs:t", kOpenWrite | kOpenTrunc);
    EXPECT_GE(t, 0);
    co_await kernel_.Close(p, t);
  });
  EXPECT_EQ(fs_->FreeBlocks(), before);
}

TEST_F(OsTest, ReadWriteRoundTripThroughFds) {
  Run([&](Process& p) -> Task<> {
    const int w = co_await kernel_.Open(p, "fs:f", kOpenWrite | kOpenCreate);
    std::vector<uint8_t> data(5000);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = Fill(static_cast<int64_t>(i));
    }
    EXPECT_EQ(co_await kernel_.Write(p, w, data), 5000);
    co_await kernel_.Close(p, w);
    const int r = co_await kernel_.Open(p, "fs:f", kOpenRead);
    std::vector<uint8_t> back;
    EXPECT_EQ(co_await kernel_.Read(p, r, 10000, &back), 5000);
    EXPECT_EQ(back, data);
    // Sequential reads advance the offset; at EOF read returns 0.
    EXPECT_EQ(co_await kernel_.Read(p, r, 10, &back), 0);
  });
}

TEST_F(OsTest, LseekRepositions) {
  fs_->CreateFileInstant("s", 2 * kBlockSize, Fill);
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "fs:s", kOpenRead);
    EXPECT_EQ(co_await kernel_.Lseek(p, fd, kBlockSize), kBlockSize);
    std::vector<uint8_t> back;
    co_await kernel_.Read(p, fd, 4, &back);
    EXPECT_EQ(back[0], Fill(kBlockSize));
    // Negative offsets and bad fds fail.
    EXPECT_EQ(co_await kernel_.Lseek(p, fd, -5), -1);
    EXPECT_EQ(co_await kernel_.Lseek(p, 99, 0), -1);
  });
}

TEST_F(OsTest, BadFdOperationsFail) {
  Run([&](Process& p) -> Task<> {
    std::vector<uint8_t> buf;
    EXPECT_EQ(co_await kernel_.Read(p, 42, 10, &buf), -1);
    EXPECT_EQ(co_await kernel_.Write(p, 42, nullptr, 0), -1);
    EXPECT_EQ(co_await kernel_.Close(p, 42), -1);
    EXPECT_EQ(co_await kernel_.Fcntl(p, 42, true), -1);
    EXPECT_EQ(co_await kernel_.FsyncFd(p, 42), -1);
  });
}

TEST_F(OsTest, CloseInvalidatesFd) {
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "fs:c", kOpenWrite | kOpenCreate);
    EXPECT_EQ(co_await kernel_.Close(p, fd), 0);
    std::vector<uint8_t> buf;
    EXPECT_EQ(co_await kernel_.Read(p, fd, 10, &buf), -1);
    EXPECT_EQ(co_await kernel_.Close(p, fd), -1);  // double close
  });
}

TEST_F(OsTest, FsyncPushesDelayedWrites) {
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "fs:d", kOpenWrite | kOpenCreate);
    std::vector<uint8_t> data(kBlockSize, 0x3C);
    co_await kernel_.Write(p, fd, data);
    EXPECT_EQ(ram_.stats().writes, 0u);  // delayed
    EXPECT_EQ(co_await kernel_.FsyncFd(p, fd), 0);
    EXPECT_GT(ram_.stats().writes, 0u);
  });
}

TEST_F(OsTest, FcntlSetsAndClearsFasync) {
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "fs:a", kOpenWrite | kOpenCreate);
    EXPECT_EQ(co_await kernel_.Fcntl(p, fd, true), 0);
    EXPECT_TRUE(kernel_.GetFile(p, fd)->fasync);
    EXPECT_EQ(co_await kernel_.Fcntl(p, fd, false), 0);
    EXPECT_FALSE(kernel_.GetFile(p, fd)->fasync);
  });
}

TEST_F(OsTest, SpliceStatusTracksAsyncSpliceInFlight) {
  // splice_status is the FASYNC completion probe for offset-less endpoints:
  // 1 while an async splice involving the fd is in flight, 0 once it
  // finished (cleared before SIGIO posts, so a handler can trust a 0), -1
  // on a bad fd.
  fs_->CreateFileInstant("src", 8 * kBlockSize, Fill);
  int sigio = 0;
  Run([&](Process& p) -> Task<> {
    kernel_.Sigaction(p, kSigIo, [&] { ++sigio; });
    const int src = co_await kernel_.Open(p, "fs:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "fs:dst", kOpenWrite | kOpenCreate);
    EXPECT_EQ(co_await kernel_.SpliceStatus(p, 99), -1);
    EXPECT_EQ(co_await kernel_.SpliceStatus(p, src), 0);

    EXPECT_EQ(co_await kernel_.Fcntl(p, dst, true), 0);  // FASYNC -> async splice
    EXPECT_EQ(co_await kernel_.Splice(p, src, dst, 8 * kBlockSize), 0);
    // Both endpoints report in-flight while the stream moves.
    EXPECT_EQ(co_await kernel_.SpliceStatus(p, src), 1);
    EXPECT_EQ(co_await kernel_.SpliceStatus(p, dst), 1);

    co_await kernel_.Pause(p);  // SIGIO announces completion
    EXPECT_EQ(sigio, 1);
    EXPECT_EQ(co_await kernel_.SpliceStatus(p, src), 0);
    EXPECT_EQ(co_await kernel_.SpliceStatus(p, dst), 0);
    EXPECT_EQ(co_await kernel_.SpliceError(p, dst), 0);
    EXPECT_EQ(co_await kernel_.Tell(p, dst), 8 * kBlockSize);
  });
}

TEST_F(OsTest, PauseWaitsForSignalAndRunsHandler) {
  Process* proc = nullptr;
  SimTime woke = -1;
  int handled = 0;
  kernel_.Spawn("waiter", [&](Process& p) -> Task<> {
    proc = &p;
    kernel_.Sigaction(p, kSigAlrm, [&] { ++handled; });
    co_await kernel_.Pause(p);
    woke = sim_.Now();
  });
  sim_.After(Milliseconds(25), [&] { kernel_.cpu().Post(*proc, kSigAlrm); });
  sim_.Run();
  EXPECT_GE(woke, Milliseconds(25));
  EXPECT_EQ(handled, 1);
}

TEST_F(OsTest, ItimerFiresPeriodically) {
  std::vector<SimTime> fires;
  Run([&](Process& p) -> Task<> {
    kernel_.Sigaction(p, kSigAlrm, [&] { fires.push_back(sim_.Now()); });
    kernel_.Setitimer(p, Milliseconds(100));
    for (int i = 0; i < 5; ++i) {
      co_await kernel_.Pause(p);
    }
    kernel_.StopItimer(p);
  });
  ASSERT_EQ(fires.size(), 5u);
  for (size_t i = 1; i < fires.size(); ++i) {
    const SimDuration gap = fires[i] - fires[i - 1];
    // Callout-tick quantized ~100 ms intervals.
    EXPECT_GE(gap, Milliseconds(90));
    EXPECT_LE(gap, Milliseconds(110));
  }
}

TEST_F(OsTest, StopItimerHaltsSignals) {
  int fires = 0;
  Run([&](Process& p) -> Task<> {
    kernel_.Sigaction(p, kSigAlrm, [&] { ++fires; });
    kernel_.Setitimer(p, Milliseconds(50));
    co_await kernel_.Pause(p);
    kernel_.StopItimer(p);
    co_await kernel_.SleepFor(p, Milliseconds(500));
  });
  EXPECT_EQ(fires, 1);
}

TEST_F(OsTest, SleepForAdvancesTime) {
  SimTime end = -1;
  Run([&](Process& p) -> Task<> {
    co_await kernel_.SleepFor(p, Milliseconds(123));
    end = sim_.Now();
  });
  EXPECT_GE(end, Milliseconds(123));
  EXPECT_LT(end, Milliseconds(125));
}

TEST_F(OsTest, DeviceFileWriteBlocksAtDevicePace) {
  PacedSink dac(&sim_, "dac", /*rate_bps=*/8192.0, /*fifo_bytes=*/8192);
  kernel_.RegisterCharDev("dac", &dac);
  SimTime end = -1;
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "/dev/dac", kOpenWrite);
    std::vector<uint8_t> data(3 * 8192, 1);
    EXPECT_EQ(co_await kernel_.Write(p, fd, data), 3 * 8192);
    end = sim_.Now();
  });
  // 3 chunks into an 8 KB FIFO draining at 8 KB/s: the last accepted write
  // waits for ~2 chunks to drain.
  EXPECT_GT(end, MillisecondsF(1900.0));
}

TEST_F(OsTest, SocketFdsReadAndWrite) {
  UdpSocket a(&kernel_.cpu());
  UdpSocket b(&kernel_.cpu());
  NetworkLink wire(&sim_, LoopbackParams());
  a.ConnectTo(&b, &wire);
  std::string got;
  kernel_.Spawn("tx", [&](Process& p) -> Task<> {
    const int fd = kernel_.OpenSocket(p, &a);
    const std::vector<uint8_t> msg{'h', 'i', '!'};
    co_await kernel_.Write(p, fd, msg);
  });
  kernel_.Spawn("rx", [&](Process& p) -> Task<> {
    const int fd = kernel_.OpenSocket(p, &b);
    std::vector<uint8_t> buf;
    const int64_t n = co_await kernel_.Read(p, fd, 100, &buf);
    got.assign(buf.begin(), buf.begin() + n);
  });
  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_EQ(got, "hi!");
}

TEST_F(OsTest, FdTablesArePerProcess) {
  int fd_a = -1;
  int fd_b = -1;
  int64_t cross_read = 0;
  kernel_.Spawn("a", [&](Process& p) -> Task<> {
    fd_a = co_await kernel_.Open(p, "fs:pa", kOpenWrite | kOpenCreate);
  });
  kernel_.Spawn("b", [&](Process& p) -> Task<> {
    fd_b = co_await kernel_.Open(p, "fs:pb", kOpenWrite | kOpenCreate);
    // a's descriptor number is not visible here unless b opened it too.
    std::vector<uint8_t> buf;
    cross_read = co_await kernel_.Read(p, fd_b + 1, 10, &buf);
  });
  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_EQ(fd_a, 3);
  EXPECT_EQ(fd_b, 3);  // independent numbering
  EXPECT_EQ(cross_read, -1);
}

TEST_F(OsTest, SyscallsChargeTrapOverhead) {
  Process* proc = nullptr;
  kernel_.Spawn("t", [&](Process& p) -> Task<> {
    proc = &p;
    for (int i = 0; i < 10; ++i) {
      (void)co_await kernel_.Open(p, "fs:nope", kOpenRead);
    }
  });
  sim_.Run();
  EXPECT_GE(proc->stats().cpu_time, 10 * kernel_.cpu().costs().syscall_overhead);
}

TEST_F(OsTest, SpliceOnDeviceSourceBoundedByBytes) {
  NullDevice null(&sim_);
  PacedSink dac(&sim_, "fastdac", 10e6, 1 << 20);
  kernel_.RegisterCharDev("null", &null);
  kernel_.RegisterCharDev("dac", &dac);
  fs_->CreateFileInstant("audio", 4 * kBlockSize, Fill);
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "fs:audio", kOpenRead);
    const int dst = co_await kernel_.Open(p, "/dev/dac", kOpenWrite);
    // Two half-file splices.
    EXPECT_EQ(co_await kernel_.Splice(p, src, dst, 2 * kBlockSize), 2 * kBlockSize);
    EXPECT_EQ(co_await kernel_.Splice(p, src, dst, 2 * kBlockSize), 2 * kBlockSize);
    EXPECT_EQ(co_await kernel_.Splice(p, src, dst, 2 * kBlockSize), 0);  // EOF
  });
  EXPECT_EQ(dac.bytes_accepted(), 4 * kBlockSize);
}

TEST_F(OsTest, ManyProcessesShareTheMachine) {
  constexpr int kProcs = 8;
  int done = 0;
  for (int i = 0; i < kProcs; ++i) {
    kernel_.Spawn("worker", [&, i](Process& p) -> Task<> {
      const std::string name = "fs:w" + std::to_string(i);
      const int fd = co_await kernel_.Open(p, name, kOpenWrite | kOpenCreate);
      std::vector<uint8_t> data(kBlockSize, static_cast<uint8_t>(i));
      co_await kernel_.Write(p, fd, data);
      co_await kernel_.FsyncFd(p, fd);
      co_await kernel_.Close(p, fd);
      ++done;
    });
  }
  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_EQ(done, kProcs);
  for (int i = 0; i < kProcs; ++i) {
    Inode* ip = fs_->Lookup(std::string("w").append(std::to_string(i)));
    ASSERT_NE(ip, nullptr);
    EXPECT_EQ(ip->size, kBlockSize);
  }
}


TEST_F(OsTest, DupSharesOpenFileAndOffset) {
  fs_->CreateFileInstant("dd", 2 * kBlockSize, Fill);
  Run([&](Process& p) -> Task<> {
    const int a = co_await kernel_.Open(p, "fs:dd", kOpenRead);
    const int b = co_await kernel_.Dup(p, a);
    EXPECT_GE(b, 0);
    EXPECT_NE(a, b);
    std::vector<uint8_t> buf;
    co_await kernel_.Read(p, a, 100, &buf);
    // The dup shares the seek offset: reading via b continues at 100.
    co_await kernel_.Read(p, b, 1, &buf);
    EXPECT_EQ(buf[0], Fill(100));
    // Closing one descriptor leaves the other usable.
    co_await kernel_.Close(p, a);
    EXPECT_EQ(co_await kernel_.Read(p, b, 1, &buf), 1);
    EXPECT_EQ(co_await kernel_.Dup(p, 99), -1);
  });
}

TEST_F(OsTest, SpliceOntoSameInodeRejected) {
  fs_->CreateFileInstant("self", 4 * kBlockSize, Fill);
  int64_t rval = 0;
  Run([&](Process& p) -> Task<> {
    const int a = co_await kernel_.Open(p, "fs:self", kOpenRead);
    const int b = co_await kernel_.Open(p, "fs:self", kOpenWrite);
    rval = co_await kernel_.Splice(p, a, b, kSpliceEof);
  });
  EXPECT_EQ(rval, -1);
}


TEST_F(OsTest, DeviceFileReadDeliversFrames) {
  FrameSource fb(&sim_, "fb0", /*frame_bytes=*/1000, /*frame_interval=*/Milliseconds(20));
  kernel_.RegisterCharDev("fb0", &fb);
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "/dev/fb0", kOpenRead);
    std::vector<uint8_t> buf;
    const int64_t n = co_await kernel_.Read(p, fd, 4096, &buf);
    EXPECT_EQ(n, 1000);  // one frame
    EXPECT_GE(sim_.Now(), Milliseconds(20));  // waited for scan-out
    std::vector<uint8_t> expect;
    FrameSource::FillFrame(0, 1000, &expect);
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), buf.begin()));
    // Writing to a pure source fails cleanly (no deadlock).
    EXPECT_EQ(co_await kernel_.Write(p, fd, buf.data(), 10), -1);
  });
}

}  // namespace
}  // namespace ikdp
