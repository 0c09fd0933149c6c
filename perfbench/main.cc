// ikdp_perfbench: runs one benchmark workload and prints a human-readable
// report followed, as the last line, by the result object:
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
//
// Usage: ikdp_perfbench --workload <ram-ring|rz56-fasync>
//                       --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// A workload runs the copies of one disk row for a third of --seconds,
// then the server in one mode for the rest.
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1 adds a
// traced run and reports the per-layer metrics.  perfbench/run.py builds
// this binary and is the benchmark's entry point.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "perfbench/workloads.h"
#include "src/metrics/trace_export.h"

namespace perfbench {

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ikdp_perfbench --workload <ram-ring|rz56-fasync> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

// Peak resident set of this process so far, in MB.
double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux
}

std::string ResultJson(const Outcome& o) {
  std::ostringstream out;
  out << "{\"correct\": " << (o.failed == 0 && o.violations.empty() ? "true" : "false")
      << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : o.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out << (first ? "" : ", ") << "\"" << ikdp::JsonEscape(m.name) << "\": {\"value\": " << value
        << ", \"unit\": \"" << ikdp::JsonEscape(m.unit) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && opt.seconds > 0 && opt.seconds <= 3600;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace) {
    return perfbench::Usage();
  }

  const perfbench::Workload* chosen = nullptr;
  for (const perfbench::Workload& w : perfbench::kWorkloads) {
    if (workload == w.name) {
      chosen = &w;
    }
  }
  if (chosen == nullptr) {
    return perfbench::Usage();
  }
  const double start = perfbench::HostNow();
  perfbench::RunOptions copy_opt = opt;
  copy_opt.seconds = opt.seconds * perfbench::kCopyShare;
  perfbench::Outcome copy = perfbench::RunCopyWorkload(chosen->disk, copy_opt, std::cout);
  std::cout << "\n";
  perfbench::RunOptions serve_opt = opt;
  serve_opt.seconds = std::max(1.0, opt.seconds - (perfbench::HostNow() - start));
  perfbench::Outcome serve = perfbench::RunServeWorkload(chosen->mode, serve_opt, std::cout);
  perfbench::Outcome outcome = perfbench::Combine(std::move(copy), std::move(serve), opt.trace);
  if (!opt.trace) {
    outcome.Add("peak_rss_mb", perfbench::PeakRssMb(), "MB", true);
  }
  for (const perfbench::Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      outcome.Fail(m.name + " is not a finite number");
    }
  }

  std::cout << "\n" << workload << (opt.trace ? " per-layer" : " end-to-end") << " metrics:\n";
  for (const perfbench::Metric& m : outcome.metrics) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::cout << line;
  }
  std::cout << "correctness gate: " << outcome.attempted << " ops attempted, " << outcome.failed
            << " failed\n";
  for (const std::string& v : outcome.violations) {
    std::cout << "  VIOLATION: " << v << "\n";
  }
  std::cout << perfbench::ResultJson(outcome) << std::endl;
  return outcome.failed == 0 && outcome.violations.empty() ? 0 : 1;
}
