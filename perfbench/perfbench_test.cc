// Self-tests for the benchmark's own code: exact quantile selection, the
// capacity search, how a workload's two halves combine, and per-run
// scoping of the per-layer counters.
// Build and run with `python3 perfbench/run.py --selftest`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) {
    v.push_back(i);
  }
  return v;
}

TEST(QuantileTest, NearestRankIsAMemberOfTheSample) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(QuantileSorted(v, 0.50), 50);
  EXPECT_EQ(QuantileSorted(v, 0.99), 99);
  EXPECT_EQ(QuantileSorted(v, 1.00), 100);
  EXPECT_EQ(QuantileSorted(v, 0.0), 1);
  EXPECT_EQ(QuantileSorted({7.5}, 0.99), 7.5);
  // 1001 samples: the p99 rank is ceil(990.99) = 991.
  EXPECT_EQ(QuantileSorted(OneTo(1001), 0.99), 991);
}

TEST(QuantileTest, SummarizeSortsAndKeepsExactValues) {
  std::vector<double> v;
  for (int i = 2000; i >= 1; --i) {
    v.push_back(i * 1.001);  // unsorted, and no value is a power of two
  }
  const Distribution d = Summarize(v);
  EXPECT_EQ(d.count, 2000u);
  EXPECT_DOUBLE_EQ(d.p50, 1000 * 1.001);
  EXPECT_DOUBLE_EQ(d.p99, 1980 * 1.001);
  EXPECT_DOUBLE_EQ(d.max, 2000 * 1.001);
  EXPECT_NE(std::log2(d.p99), std::floor(std::log2(d.p99)));
}

TEST(QuantileTest, TopPercentileNeedsTenSamplesBeyondIt) {
  // 1000 samples: p99 leaves 10 beyond it, p99.9 only 1.
  Distribution d = Summarize(OneTo(1000));
  EXPECT_EQ(d.top_pct, 99.0);
  EXPECT_EQ(d.top_value, 990);
  EXPECT_EQ(d.p99, 990);
  // 999 samples: p99 leaves 9 beyond it, so no p99 and p90 is the top.
  d = Summarize(OneTo(999));
  EXPECT_EQ(d.p99, 0);
  EXPECT_EQ(d.top_pct, 90.0);
  // 20000 samples: p99.9 leaves 20, p99.99 only 2.
  d = Summarize(OneTo(20000));
  EXPECT_EQ(d.top_pct, 99.9);
  EXPECT_EQ(d.top_value, 19980);
  // Too few for even the median.
  d = Summarize(OneTo(15));
  EXPECT_EQ(d.top_pct, 0);
  EXPECT_EQ(d.p50, 8);
  EXPECT_EQ(Summarize({}).count, 0u);
}

TEST(QuantileTest, MedianOfOddAndEvenSamples) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(MaxRateSearchTest, FindsTheThresholdOfAMonotonePredicate) {
  constexpr int64_t lo = 64, hi = 320;
  for (int64_t threshold = lo; threshold < hi; ++threshold) {
    std::set<int64_t> probed;
    int probes = 0;
    const int64_t got = MaxPassingRate(
        lo, hi,
        [&](int64_t r) {
          probed.insert(r);
          return r <= threshold;
        },
        &probes);
    EXPECT_EQ(got, threshold);
    // Terminates within 1 + ceil(log2(hi - lo)) probes, never probing
    // outside [lo, hi) or the same rate twice.
    EXPECT_LE(probes, 1 + 8);
    EXPECT_EQ(static_cast<size_t>(probes), probed.size());
    EXPECT_GE(*probed.begin(), lo);
    EXPECT_LT(*probed.rbegin(), hi);
  }
}

TEST(MaxRateSearchTest, FailingFloorReturnsBelowTheRange) {
  int probes = 0;
  EXPECT_EQ(MaxPassingRate(64, 320, [](int64_t) { return false; }, &probes), 63);
  EXPECT_EQ(probes, 1);
  EXPECT_EQ(MaxPassingRate(64, 320, [](int64_t) { return true; }), 319);
  EXPECT_EQ(MaxPassingRate(5, 6, [](int64_t) { return true; }), 5);
}

TEST(MaxRateSearchTest, NonMonotonePredicateStillTerminatesAtAPassingEdge) {
  // For any predicate the answer passes and its successor was seen to fail
  // (or is the excluded ceiling), and the probe bound still holds.
  uint64_t state = 12345;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<bool> table(256);
    for (size_t i = 0; i < table.size(); ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      table[i] = (state >> 33) % 3 != 0;
    }
    table[0] = true;
    std::vector<int> seen(256, -1);
    int probes = 0;
    const int64_t got = MaxPassingRate(
        0, 256,
        [&](int64_t r) {
          seen[static_cast<size_t>(r)] = table[static_cast<size_t>(r)];
          return table[static_cast<size_t>(r)];
        },
        &probes);
    ASSERT_GE(got, 0);
    EXPECT_EQ(seen[static_cast<size_t>(got)], 1);
    if (got + 1 < 256) {
      EXPECT_EQ(seen[static_cast<size_t>(got + 1)], 0);
    }
    EXPECT_LE(probes, 9);
  }
}

// Two traced passes in one process must report the same simulated
// per-layer figures: nothing may accumulate across simulations (the
// process-global lock statistics would, so they are not published).
void ExpectRepeatable(ikdp::DiskKind disk) {
  const Outcome a = TracedCopyLayers(disk, 1 << 20);
  const Outcome b = TracedCopyLayers(disk, 1 << 20);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(b.failed, 0u);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (size_t i = 0; i < a.metrics.size(); ++i) {
    const Metric& x = a.metrics[i];
    const Metric& y = b.metrics[i];
    ASSERT_EQ(x.name, y.name);
    EXPECT_EQ(x.name.rfind("lock.", 0), std::string::npos);
    if (!x.host) {
      EXPECT_EQ(x.value, y.value) << x.name;
    }
  }
  const auto events = std::find_if(a.metrics.begin(), a.metrics.end(),
                                   [](const Metric& m) { return m.name == "sim.events"; });
  ASSERT_NE(events, a.metrics.end());
  EXPECT_GT(events->value, 0);
}

Outcome Half(std::vector<Metric> metrics, uint64_t attempted, uint64_t failed) {
  Outcome o;
  o.metrics = std::move(metrics);
  o.attempted = attempted;
  o.failed = failed;
  return o;
}

TEST(CombineTest, EndToEndAddsSharedSetupTimeAndKeepsTheRest) {
  Outcome copy = Half({{"scp_kbs", 3845, "sim_KB/s"}, {"setup_s", 0.5, "s", true}}, 64, 0);
  copy.Fail("copy broke");
  const Outcome serve =
      Half({{"p99_ms", 113, "sim_ms"}, {"setup_s", 0.25, "s", true}}, 1000, 2);
  const Outcome o = Combine(copy, serve, /*trace=*/false);
  EXPECT_EQ(o.attempted, 1064u);
  EXPECT_EQ(o.failed, 3u);
  ASSERT_EQ(o.violations.size(), 1u);
  ASSERT_EQ(o.metrics.size(), 3u);
  EXPECT_EQ(o.metrics[0].name, "scp_kbs");
  EXPECT_EQ(o.metrics[1].name, "setup_s");
  EXPECT_EQ(o.metrics[1].value, 0.75);
  EXPECT_EQ(o.metrics[2].name, "p99_ms");
}

TEST(CombineTest, PerLayerNamesArePrefixedByHalf) {
  const Outcome o = Combine(Half({{"cpu.switches", 7, "count"}}, 4, 0),
                            Half({{"cpu.switches", 9, "count"}}, 4, 0), /*trace=*/true);
  ASSERT_EQ(o.metrics.size(), 2u);
  EXPECT_EQ(o.metrics[0].name, "copy.cpu.switches");
  EXPECT_EQ(o.metrics[0].value, 7);
  EXPECT_EQ(o.metrics[1].name, "serve.cpu.switches");
  EXPECT_EQ(o.metrics[1].value, 9);
}

TEST(PerLayerTest, TwoRunsInOneProcessReportIdenticalCountersRam) {
  ExpectRepeatable(ikdp::DiskKind::kRam);
}

TEST(PerLayerTest, TwoRunsInOneProcessReportIdenticalCountersRz56) {
  ExpectRepeatable(ikdp::DiskKind::kRz56);
}

}  // namespace
}  // namespace perfbench
