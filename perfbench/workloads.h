// The benchmark's workloads, driven through the library's public entry
// points only (RunCopyExperiment, RunSpliceServer, the trace/kspan/telemetry
// taps).  Each workload runs one copy row (a disk) and one server (a
// completion path), so every run reports every end-to-end metric.  See
// perfbench/README.md for what each metric means and which layer it
// belongs to.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/experiment.h"
#include "src/workload/programs.h"
#include "src/workload/splice_server.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  // Host-time figures differ run to run; simulated ones must repeat exactly.
  bool host = false;
};

// What one invocation measured, plus the correctness gate's verdict.
struct Outcome {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;  // each also counts as a failed op

  void Add(std::string name, double value, std::string unit, bool host = false) {
    metrics.push_back({std::move(name), value, std::move(unit), host});
  }
  void Fail(std::string what) {
    violations.push_back(std::move(what));
    ++failed;
  }
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory for the traced run's Chrome-trace exports ("" = none).
  std::string out_dir;
};

// A workload: the copies of one disk row, then the server in one mode.
struct Workload {
  const char* name;
  ikdp::DiskKind disk;
  ikdp::SubmitMode mode;
};

inline constexpr Workload kWorkloads[] = {
    {"ram-ring", ikdp::DiskKind::kRam, ikdp::SubmitMode::kRing},
    {"rz56-fasync", ikdp::DiskKind::kRz56, ikdp::SubmitMode::kFasyncSigio},
};

// Share of --seconds the copy half measures for; the server half measures
// for the rest (at least its capacity search).
inline constexpr double kCopyShare = 1.0 / 3;

// The copy half: the paper's Table 1/2 row for `disk` — cp and scp, each
// on an idle CPU and beside the test program.
Outcome RunCopyWorkload(ikdp::DiskKind disk, const RunOptions& opt, std::ostream& report);

// The server half: the SpliceServer request stream for opt.seed.
Outcome RunServeWorkload(ikdp::SubmitMode mode, const RunOptions& opt, std::ostream& report);

// The traced copy pass's per-layer metrics for one file size (no export).
// Exposed so the self-test can show two passes in one process agree.
Outcome TracedCopyLayers(ikdp::DiskKind disk, int64_t file_bytes);

// One workload's result from its two halves.  End-to-end metrics that both
// halves report (setup_s) are added; the others are disjoint.
// Per-layer names are prefixed "copy." or "serve.", since both halves
// have, for example, a CPU ledger of their own.
inline Outcome Combine(Outcome copy, Outcome serve, bool trace) {
  Outcome o;
  o.attempted = copy.attempted + serve.attempted;
  o.failed = copy.failed + serve.failed;
  o.violations = std::move(copy.violations);
  o.violations.insert(o.violations.end(), serve.violations.begin(), serve.violations.end());
  std::map<std::string, size_t> index;
  for (const auto& [prefix, half] : {std::pair{"copy.", &copy}, std::pair{"serve.", &serve}}) {
    for (Metric& m : half->metrics) {
      if (trace) {
        m.name = prefix + m.name;
      }
      const auto [it, added] = index.emplace(m.name, o.metrics.size());
      if (added) {
        o.metrics.push_back(std::move(m));
      } else {
        o.metrics[it->second].value += m.value;
      }
    }
  }
  return o;
}

// Equal CPU ledgers: the simulated-time part of the determinism gates.
inline bool SameCpu(const ikdp::CpuSystem::Stats& a, const ikdp::CpuSystem::Stats& b) {
  return a.process_work == b.process_work && a.context_switch == b.context_switch &&
         a.interrupt_work == b.interrupt_work && a.switches == b.switches &&
         a.interrupts == b.interrupts;
}

// Seconds on the host's monotonic clock.
inline double HostNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
