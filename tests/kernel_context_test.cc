// Regression tests for the per-thread kernel context
// (src/kern/kernel_context.h): every Simulator starts its run with clean
// checker and bookkeeping state, and two simulations on two host threads
// share none of it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/hw/costs.h"
#include "src/hw/link.h"
#include "src/kern/cpu.h"
#include "src/metrics/experiment.h"
#include "src/metrics/histogram.h"
#include "src/metrics/telemetry.h"
#include "src/net/udp_socket.h"
#include "src/sim/krace.h"
#include "src/sim/kspan.h"
#include "src/sim/lockdep.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"

namespace ikdp {
namespace {

constexpr int64_t kFileBytes = 1 << 20;

// One RAM-disk copy plus everything the kernel's counters say about it
// (lock.* included), sampled while the kernel is alive.
struct CopyRun {
  ExperimentResult result;
  std::map<std::string, int64_t> counters;
  bool collector_attached = false;
};

CopyRun RunCopy(bool use_splice) {
  CopyRun run;
  ExperimentConfig cfg;
  cfg.disk = DiskKind::kRam;
  cfg.file_bytes = kFileBytes;
  cfg.use_splice = use_splice;
  cfg.inspect = [&run](Kernel& kernel) {
    MetricsRegistry registry;
    CaptureKernelCounters(&registry, kernel);
    run.counters = registry.counters();
    run.collector_attached = Kspan() != nullptr;
  };
  run.result = RunCopyExperiment(cfg);
  return run;
}

void ExpectSameRun(const CopyRun& a, const CopyRun& b) {
  const ExperimentResult& x = a.result;
  const ExperimentResult& y = b.result;
  EXPECT_TRUE(x.ok);
  EXPECT_EQ(x.ok, y.ok);
  EXPECT_EQ(x.bytes, y.bytes);
  EXPECT_EQ(x.elapsed_s, y.elapsed_s);
  EXPECT_EQ(x.throughput_kbs, y.throughput_kbs);
  EXPECT_EQ(x.test_ops, y.test_ops);
  EXPECT_EQ(x.slowdown, y.slowdown);
  EXPECT_EQ(x.cpu.process_work, y.cpu.process_work);
  EXPECT_EQ(x.cpu.context_switch, y.cpu.context_switch);
  EXPECT_EQ(x.cpu.interrupt_work, y.cpu.interrupt_work);
  EXPECT_EQ(x.cpu.switches, y.cpu.switches);
  EXPECT_EQ(x.cpu.interrupts, y.cpu.interrupts);
  EXPECT_EQ(x.cache_hits, y.cache_hits);
  EXPECT_EQ(x.cache_misses, y.cache_misses);
  EXPECT_EQ(x.splice_transients, y.splice_transients);
  EXPECT_EQ(x.idle_fraction, y.idle_fraction);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_GT(a.counters.at("lock.spin_acquisitions"), 0);
}

// The checker mode a fresh thread must start from: the documented
// IKDP_KRACE / IKDP_LOCKDEP values, parsed independently of the code under
// test.
template <typename Mode>
Mode EnvMode(const char* var) {
  const char* v = std::getenv(var);
  if (v != nullptr && std::strcmp(v, "collect") == 0) {
    return Mode::kCollect;
  }
  if (v != nullptr && (std::strcmp(v, "abort") == 0 || std::strcmp(v, "1") == 0)) {
    return Mode::kAbort;
  }
  return Mode::kOff;
}

TEST(KernelContextTest, LockdepStateIsPerRun) {
  const LockdepValidator::Mode saved = Lockdep().mode();
  Lockdep().SetMode(LockdepValidator::Mode::kCollect);
  const CopyRun scp = RunCopy(/*use_splice=*/true);
  const CopyRun cp = RunCopy(/*use_splice=*/false);
  Lockdep().SetMode(saved);
  ASSERT_TRUE(scp.result.ok);
  ASSERT_TRUE(cp.result.ok);
  // cp nests no locks; the scp run's edges must not carry over into it.
  EXPECT_EQ(cp.counters.at("lock.order_edges"), 0);
  EXPECT_EQ(cp.counters.at("lock.violations"), 0);
  EXPECT_EQ(scp.counters.at("lock.violations"), 0);
}

// Sends three datagrams on a fresh machine and returns the kUdpSend
// serials its trace log recorded.
std::vector<int64_t> UdpSendSerials() {
  Simulator sim;
  CpuSystem cpu(&sim, DecStation5000Costs());
  TraceLog log;
  cpu.set_trace(&log);
  NetworkLink wire(&sim, EthernetParams());
  UdpSocket a(&cpu);
  UdpSocket b(&cpu);
  a.ConnectTo(&b, &wire);
  for (int i = 0; i < 3; ++i) {
    auto data = MakeBufData();
    data->assign(64, static_cast<uint8_t>(i));
    EXPECT_TRUE(a.SendAsync(data, 64, nullptr));
  }
  sim.Run();
  std::vector<int64_t> serials;
  for (const TraceRecord& rec : log.Snapshot()) {
    if (rec.kind == TraceKind::kUdpSend) {
      serials.push_back(rec.a);
    }
  }
  return serials;
}

TEST(KernelContextTest, DatagramSerialsArePerRun) {
  const std::vector<int64_t> first = UdpSendSerials();
  const std::vector<int64_t> second = UdpSendSerials();
  EXPECT_EQ(first, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(second, first);
}

TEST(KernelContextTest, TwoThreadsRunTwoIndependentSimulations) {
  // Sequential references on this thread, with and without spans.
  const CopyRun ref_plain = RunCopy(/*use_splice=*/true);
  KspanCollector ref_spans;
  AttachKspan(&ref_spans);
  const CopyRun ref_spanned = RunCopy(/*use_splice=*/true);
  AttachKspan(nullptr);
  std::string err;
  EXPECT_TRUE(ref_spans.CheckBalanced(&err)) << err;
  EXPECT_GT(ref_spans.begun(), 0u);

  // The same two runs at once, one per thread; only thread A attaches a
  // collector.
  struct ThreadRun {
    CopyRun run;
    KraceDetector::Mode krace = KraceDetector::Mode::kOff;
    LockdepValidator::Mode lockdep = LockdepValidator::Mode::kOff;
  };
  ThreadRun a;
  ThreadRun b;
  KspanCollector spans;
  std::thread ta([&] {
    a.krace = Krace().mode();
    a.lockdep = Lockdep().mode();
    AttachKspan(&spans);
    a.run = RunCopy(/*use_splice=*/true);
    AttachKspan(nullptr);
  });
  std::thread tb([&] {
    b.krace = Krace().mode();
    b.lockdep = Lockdep().mode();
    b.run = RunCopy(/*use_splice=*/true);
  });
  ta.join();
  tb.join();

  ExpectSameRun(a.run, ref_spanned);
  ExpectSameRun(b.run, ref_plain);
  EXPECT_TRUE(a.run.collector_attached);
  EXPECT_FALSE(b.run.collector_attached);
  EXPECT_TRUE(spans.CheckBalanced(&err)) << err;
  EXPECT_EQ(spans.begun(), ref_spans.begun());
  for (const ThreadRun* t : {&a, &b}) {
    EXPECT_EQ(t->krace, EnvMode<KraceDetector::Mode>("IKDP_KRACE"));
    EXPECT_EQ(t->lockdep, EnvMode<LockdepValidator::Mode>("IKDP_LOCKDEP"));
  }
}

}  // namespace
}  // namespace ikdp
