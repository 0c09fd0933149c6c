// Exact sample statistics and the capacity search used by the benchmark.
//
// Every percentile here is a member of the sample (nearest rank on the
// sorted list), never a histogram bucket edge, so a 10% change in the tail
// shows as a 10% change in the number.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

// 1-based nearest rank of the q-quantile in n samples: ceil(q * n), taken
// exactly when q * n is an integer up to rounding (0.999 * 20000 is
// 19980.000000000004 in binary floating point), clamped to [1, n].
inline size_t NearestRank(size_t n, double q) {
  const double x = q * static_cast<double>(n);
  const double r = std::round(x);
  const double rank = std::abs(x - r) < 1e-9 * std::max(1.0, x) ? r : std::ceil(x);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

// Nearest-rank quantile of an ascending-sorted, non-empty sample: the
// smallest value with at least q * n samples at or below it.
inline double QuantileSorted(const std::vector<double>& sorted, double q) {
  return sorted[NearestRank(sorted.size(), q) - 1];
}

// Number of samples strictly beyond the nearest-rank q-quantile.
inline size_t SamplesBeyond(size_t n, double q) { return n - NearestRank(n, q); }

// A latency sample reduced to the figures the benchmark prints.
struct Distribution {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;  // 0 unless at least 10 samples lie beyond it
  // The highest of 50/90/99/99.9/99.99 with at least ten samples beyond it
  // (0 when even the median has fewer), and its value.
  double top_pct = 0;
  double top_value = 0;
  double max = 0;
};

inline Distribution Summarize(std::vector<double> samples) {
  Distribution d;
  d.count = samples.size();
  if (samples.empty()) {
    return d;
  }
  std::sort(samples.begin(), samples.end());
  d.p50 = QuantileSorted(samples, 0.50);
  if (SamplesBeyond(d.count, 0.99) >= 10) {
    d.p99 = QuantileSorted(samples, 0.99);
  }
  for (double pct : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (SamplesBeyond(d.count, pct / 100.0) >= 10) {
      d.top_pct = pct;
      d.top_value = QuantileSorted(samples, pct / 100.0);
    }
  }
  d.max = samples.back();
  return d;
}

// Median of a non-empty sample (mean of the middle pair for even n).
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// "min / median / max (n)" of host timings, for the report.
inline std::string Spread(const std::vector<double>& v) {
  if (v.empty()) {
    return "none";
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.4f / %.4f / %.4f (%zu)",
                *std::min_element(v.begin(), v.end()), Median(v),
                *std::max_element(v.begin(), v.end()), v.size());
  return buf;
}

// Highest integer rate r in [lo, hi) for which ok(r) holds, by bisection,
// assuming ok is monotone (true up to some rate, false beyond).  ok(lo) must
// hold and ok(hi) is taken to fail without being probed; returns lo - 1 when
// ok(lo) fails.  Each probe halves [good, bad), so it calls ok at most
// 1 + ceil(log2(hi - lo)) times.  `probes` (optional) receives the count.
inline int64_t MaxPassingRate(int64_t lo, int64_t hi, const std::function<bool(int64_t)>& ok,
                              int* probes = nullptr) {
  int n = 1;
  if (!ok(lo)) {
    if (probes != nullptr) {
      *probes = n;
    }
    return lo - 1;
  }
  int64_t good = lo;
  int64_t bad = hi;
  while (bad - good > 1) {
    const int64_t mid = good + (bad - good) / 2;
    ++n;
    if (ok(mid)) {
      good = mid;
    } else {
      bad = mid;
    }
  }
  if (probes != nullptr) {
    *probes = n;
  }
  return good;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
