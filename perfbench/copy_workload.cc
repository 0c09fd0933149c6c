// The copy half of a workload: the paper's Table 1 and Table 2 row for
// one disk type.  Four 8 MB copies per pass, each on a fresh machine with
// a cold cache and byte-verified by RunCopyExperiment:
//
//   scp, cp            idle CPU          -> scp_kbs, cp_kbs       (Table 2)
//   scp+test, cp+test  beside the test   -> scp_avail, cp_avail   (Table 1)
//                      program
//
// The copies have no random input, so the seed is recorded and has no
// effect.  Passes repeat until the time budget is spent; every pass must
// reproduce the first pass's simulated results exactly, and the host
// figures are the medians over the passes after the first.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/workloads.h"
#include "src/metrics/histogram.h"
#include "src/metrics/telemetry.h"
#include "src/metrics/trace_export.h"
#include "src/os/kernel.h"
#include "src/sim/kspan.h"
#include "src/sim/trace.h"

namespace perfbench {

namespace {

using ikdp::DiskKind;
using ikdp::ExperimentConfig;
using ikdp::ExperimentResult;
using ikdp::SimDuration;
using ikdp::SimTime;
using ikdp::TraceKind;
using ikdp::TraceLog;
using ikdp::TraceRecord;

constexpr int64_t kFileBytes = 8 << 20;

struct CopyCase {
  const char* label;
  bool splice;
  bool loaded;
};
constexpr CopyCase kCases[] = {
    {"scp", true, false},
    {"cp", false, false},
    {"scp+test", true, true},
    {"cp+test", false, true},
};
constexpr int kNumCases = 4;

ExperimentConfig CaseConfig(DiskKind disk, const CopyCase& c, int64_t file_bytes) {
  ExperimentConfig cfg;
  cfg.disk = disk;
  cfg.file_bytes = file_bytes;
  cfg.use_splice = c.splice;
  cfg.with_test_program = c.loaded;
  return cfg;
}

// Every simulated observable the result carries.
bool SameSim(const ExperimentResult& a, const ExperimentResult& b) {
  return a.ok == b.ok && a.bytes == b.bytes && a.elapsed_s == b.elapsed_s &&
         a.throughput_kbs == b.throughput_kbs && a.test_ops == b.test_ops &&
         a.slowdown == b.slowdown && SameCpu(a.cpu, b.cpu) && a.cache_hits == b.cache_hits &&
         a.cache_misses == b.cache_misses && a.splice_transients == b.splice_transients &&
         a.idle_fraction == b.idle_fraction;
}

// Raw per-sample lists merged across the traced pass's copies.
struct CopySamples {
  std::vector<double> runq_us, read_us, write_us, splice_ms, disk_service_ms, chunk_ms,
      defer_us;
  uint64_t traps = 0;
  uint64_t refills = 0;
  uint64_t getblk_sleeps = 0;
  int max_inflight_chunks = 0;
  double disk_wait_ns = 0;  // integral of requests queued (enqueued, not dispatched) over time
  uint64_t disk_enqueues = 0;
};

// Pairs one copy's trace records into interval samples as they are written
// (the TraceLog ring may evict them later), and stamps host time at the
// first and last record.
class CopyTracer {
 public:
  CopyTracer(CopySamples* out, SimDuration tick) : out_(out), tick_(tick) {}

  void Observe(const TraceRecord& r) {
    const double host = HostNow();
    if (first_host_ < 0) {
      first_host_ = host;
    }
    last_host_ = host;
    const SimTime t = r.time;
    switch (r.kind) {
      case TraceKind::kRunnable:
        runnable_[r.a] = t;
        break;
      case TraceKind::kDispatch:
        if (auto it = runnable_.find(r.a); it != runnable_.end()) {
          out_->runq_us.push_back(static_cast<double>(t - it->second) / 1e3);
          runnable_.erase(it);
        }
        break;
      case TraceKind::kSyscallEnter:
        ++out_->traps;
        syscalls_[r.a] = t;
        break;
      case TraceKind::kSyscallExit:
        if (auto it = syscalls_.find(r.a); it != syscalls_.end()) {
          const double ns = static_cast<double>(t - it->second);
          if (std::strcmp(r.tag, "read") == 0) {
            out_->read_us.push_back(ns / 1e3);
          } else if (std::strcmp(r.tag, "write") == 0) {
            out_->write_us.push_back(ns / 1e3);
          } else if (std::strcmp(r.tag, "splice") == 0) {
            out_->splice_ms.push_back(ns / 1e6);
          }
          syscalls_.erase(it);
        }
        break;
      case TraceKind::kDiskEnqueue:
        DiskQueueAdvance(t);
        ++queued_;
        ++out_->disk_enqueues;
        break;
      case TraceKind::kDiskCoalesce:
        ++merges_[{r.tag, r.a}];
        break;
      case TraceKind::kDiskDispatch: {
        DiskQueueAdvance(t);
        const auto key = std::make_pair(std::string(r.tag), r.a);
        int merged = 0;
        if (auto it = merges_.find(key); it != merges_.end()) {
          merged = it->second;
          merges_.erase(it);
        }
        queued_ -= 1 + merged;
        disk_[key] = t;
        break;
      }
      case TraceKind::kDiskComplete:
        if (auto it = disk_.find({r.tag, r.a}); it != disk_.end()) {
          out_->disk_service_ms.push_back(static_cast<double>(t - it->second) / 1e6);
          disk_.erase(it);
        }
        break;
      case TraceKind::kSpliceRead: {
        reads_[{r.a, r.b}] = t;
        const int n = ++inflight_[r.a];
        out_->max_inflight_chunks = std::max(out_->max_inflight_chunks, n);
        break;
      }
      case TraceKind::kSpliceChunk:
        if (auto it = reads_.find({r.a, r.b}); it != reads_.end()) {
          out_->chunk_ms.push_back(static_cast<double>(t - it->second) / 1e6);
          reads_.erase(it);
          --inflight_[r.a];
        }
        break;
      case TraceKind::kSpliceRefill:
        ++out_->refills;
        break;
      case TraceKind::kGetblkSleep:
        ++out_->getblk_sleeps;
        break;
      case TraceKind::kCalloutArm: {
        // Due tick as CalloutTable computes it: the next tick boundary,
        // plus (ticks - 1) more; ticks == 0 is a head-of-list insert.
        const SimTime due = (t / tick_ + 1) * tick_ + std::max<int64_t>(r.b - 1, 0) * tick_;
        armed_.emplace(due, t);
        break;
      }
      case TraceKind::kSoftclockRun: {
        // Entries due earlier than this run were cancelled (no run fired
        // for an emptied tick); drop them unsampled.
        auto end = armed_.upper_bound(t);
        for (auto it = armed_.begin(); it != end; ++it) {
          if (it->first == t) {
            out_->defer_us.push_back(static_cast<double>(t - it->second) / 1e3);
          }
        }
        armed_.erase(armed_.begin(), end);
        break;
      }
      default:
        break;
    }
  }

  double host_span() const { return first_host_ < 0 ? 0 : last_host_ - first_host_; }
  double last_host() const { return last_host_; }

 private:
  void DiskQueueAdvance(SimTime t) {
    out_->disk_wait_ns += static_cast<double>(queued_) * static_cast<double>(t - queue_since_);
    queue_since_ = t;
  }

  CopySamples* out_;
  SimDuration tick_;
  double first_host_ = -1;
  double last_host_ = 0;
  std::map<int64_t, SimTime> runnable_;  // pid
  std::map<int64_t, SimTime> syscalls_;  // pid (syscalls do not nest)
  std::map<std::pair<std::string, int64_t>, SimTime> disk_;  // (device, serial)
  std::map<std::pair<std::string, int64_t>, int> merges_;    // (device, serial)
  std::map<std::pair<int64_t, int64_t>, SimTime> reads_;     // (descriptor, chunk)
  std::map<int64_t, int> inflight_;                          // descriptor
  std::multimap<SimTime, SimTime> armed_;                    // due tick -> arm time
  int64_t queued_ = 0;
  SimTime queue_since_ = 0;
};

// What `inspect` reads from each traced copy's live kernel.
struct KernelView {
  uint64_t events = 0;
  uint64_t softclock_runs = 0;
  SimDuration softclock_work = 0;
  SimDuration syscall_overhead = 0;
  std::map<std::string, int64_t> counters;  // CaptureKernelCounters, minus lock.*
};

// The per-mount disk counters named "disk.<mount>.<field>".
std::vector<int64_t> DiskCounters(const KernelView& v, const std::string& field) {
  const std::string suffix = "." + field;
  std::vector<int64_t> out;
  for (const auto& [name, value] : v.counters) {
    if (name.rfind("disk.", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      out.push_back(value);
    }
  }
  return out;
}

int64_t DiskSum(const KernelView& v, const std::string& field) {
  int64_t sum = 0;
  for (int64_t x : DiskCounters(v, field)) {
    sum += x;
  }
  return sum;
}

int64_t DiskMax(const KernelView& v, const std::string& field) {
  int64_t best = 0;
  for (int64_t x : DiskCounters(v, field)) {
    best = std::max(best, x);
  }
  return best;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct TracedPass {
  ExperimentResult results[kNumCases];
  Outcome layers;
  std::vector<std::unique_ptr<TraceLog>> logs;
  double wall_s = 0;
};

TracedPass RunTracedPass(DiskKind disk, int64_t file_bytes) {
  TracedPass pass;
  CopySamples samples;
  KernelView views[kNumCases];
  double sim_host_s = 0;
  double verify_s = 0;
  bool spans_ok = true;
  std::string span_err;
  const double t0 = HostNow();
  for (int i = 0; i < kNumCases; ++i) {
    ExperimentConfig cfg = CaseConfig(disk, kCases[i], file_bytes);
    auto log = std::make_unique<TraceLog>(1 << 17);
    CopyTracer tracer(&samples, ikdp::kSecond / cfg.hz);
    log->set_observer([&tracer](const TraceRecord& r) { tracer.Observe(r); });
    KernelView& view = views[i];
    double inspect_host = 0;
    cfg.trace = log.get();
    cfg.inspect = [&](ikdp::Kernel& k) {
      inspect_host = HostNow();
      view.events = k.sim()->events_executed();
      view.softclock_runs = k.callouts().softclock_runs();
      view.syscall_overhead = k.cpu().costs().syscall_overhead;
      for (const auto& [key, ns] : k.cpu().attribution()) {
        if (key.bucket == ikdp::CpuSystem::ChargeBucket::kSoftclock ||
            key.bucket == ikdp::CpuSystem::ChargeBucket::kKopSoftclock) {
          view.softclock_work += ns;
        }
      }
      ikdp::MetricsRegistry registry;
      CaptureKernelCounters(&registry, k);
      // lock.* statistics are process-global and accumulate across the
      // simulations of one process, so they are not this run's figures.
      for (const auto& [name, value] : registry.counters()) {
        if (name.rfind("lock.", 0) != 0) {
          view.counters[name] = value;
        }
      }
    };
    ikdp::KspanCollector spans;
    ikdp::AttachKspan(&spans);
    pass.results[i] = ikdp::RunCopyExperiment(cfg);
    ikdp::AttachKspan(nullptr);
    if (!spans.CheckBalanced(&span_err)) {
      spans_ok = false;
    }
    sim_host_s += tracer.host_span();
    if (inspect_host > 0) {
      verify_s += inspect_host - tracer.last_host();
    }
    pass.logs.push_back(std::move(log));
  }
  pass.wall_s = HostNow() - t0;

  Outcome& o = pass.layers;
  if (!spans_ok) {
    o.Fail("copy spans unbalanced: " + span_err);
  }
  uint64_t events = 0, softclock_runs = 0;
  double process_s = 0, switch_s = 0, interrupt_s = 0, softclock_s = 0;
  uint64_t switches = 0, interrupts = 0;
  double elapsed_s = 0;
  int64_t hits = 0, misses = 0, delwri = 0, transients = 0;
  int64_t seeks = 0, reads = 0, ra_hits = 0, coalesced = 0, max_depth = 0;
  double busy_ns = 0;
  for (int i = 0; i < kNumCases; ++i) {
    const ExperimentResult& r = pass.results[i];
    const KernelView& v = views[i];
    events += v.events;
    softclock_runs += v.softclock_runs;
    process_s += static_cast<double>(r.cpu.process_work) / 1e9;
    switch_s += static_cast<double>(r.cpu.context_switch) / 1e9;
    interrupt_s += static_cast<double>(r.cpu.interrupt_work) / 1e9;
    softclock_s += static_cast<double>(v.softclock_work) / 1e9;
    switches += r.cpu.switches;
    interrupts += r.cpu.interrupts;
    elapsed_s += r.elapsed_s;
    auto counter = [&v](const char* name) {
      auto it = v.counters.find(name);
      return it == v.counters.end() ? int64_t{0} : it->second;
    };
    hits += counter("cache.hits");
    misses += counter("cache.misses");
    delwri += counter("cache.delwri_flushes");
    transients += counter("cache.transient_allocs");
    seeks += DiskSum(v, "seeks");
    reads += DiskSum(v, "reads");
    ra_hits += DiskSum(v, "read_cache_hits");
    coalesced += DiskSum(v, "coalesced");
    max_depth = std::max(max_depth, DiskMax(v, "max_queue_depth"));
    // Mean busy fraction of the run's two disks over the copy interval.
    busy_ns += static_cast<double>(DiskSum(v, "busy_time_ns")) / 2.0;
  }
  const double copies = kNumCases;
  const SimDuration trap_cost = views[0].syscall_overhead;
  const Distribution runq = Summarize(samples.runq_us);
  const Distribution defer = Summarize(samples.defer_us);
  const Distribution rd = Summarize(samples.read_us);
  const Distribution wr = Summarize(samples.write_us);
  const Distribution sp = Summarize(samples.splice_ms);
  const Distribution svc = Summarize(samples.disk_service_ms);
  const Distribution chunk = Summarize(samples.chunk_ms);

  o.Add("sim.events", static_cast<double>(events), "count");
  o.Add("sim.host_ns_per_event", Ratio(sim_host_s * 1e9, static_cast<double>(events)), "ns",
        true);
  o.Add("sim.host_s", sim_host_s, "s", true);
  o.Add("callout.softclock_runs", static_cast<double>(softclock_runs), "count");
  o.Add("callout.defer_p50_us", defer.p50, "sim_us");
  o.Add("callout.defer_p99_us", defer.p99, "sim_us");
  o.Add("cpu.process_s", process_s, "sim_s");
  o.Add("cpu.switch_s", switch_s, "sim_s");
  o.Add("cpu.interrupt_s", interrupt_s, "sim_s");
  o.Add("cpu.softclock_s", softclock_s, "sim_s");
  o.Add("cpu.switches", static_cast<double>(switches), "count");
  o.Add("cpu.interrupts", static_cast<double>(interrupts), "count");
  o.Add("cpu.runq_wait_p99_us", runq.p99, "sim_us");
  o.Add("os.traps_per_op", static_cast<double>(samples.traps) / copies, "count");
  o.Add("os.trap_ms", static_cast<double>(samples.traps) * static_cast<double>(trap_cost) / 1e6 /
                          copies,
        "sim_ms");
  o.Add("os.read_p50_us", rd.p50, "sim_us");
  o.Add("os.write_p50_us", wr.p50, "sim_us");
  o.Add("os.splice_ms", sp.p50, "sim_ms");
  o.Add("buf.hits", static_cast<double>(hits), "count");
  o.Add("buf.misses", static_cast<double>(misses), "count");
  o.Add("buf.hit_ratio", Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
        "ratio");
  o.Add("buf.delwri_flushes", static_cast<double>(delwri), "count");
  o.Add("buf.getblk_sleeps", static_cast<double>(samples.getblk_sleeps), "count");
  o.Add("buf.transient_allocs", static_cast<double>(transients), "count");
  o.Add("disk.util", Ratio(busy_ns, elapsed_s * 1e9), "ratio");
  o.Add("disk.seeks", static_cast<double>(seeks), "count");
  o.Add("disk.ra_hit_ratio", Ratio(static_cast<double>(ra_hits), static_cast<double>(reads)),
        "ratio");
  o.Add("disk.coalesced", static_cast<double>(coalesced), "count");
  o.Add("disk.max_queue_depth", static_cast<double>(max_depth), "count");
  o.Add("disk.queue_wait_mean_ms",
        Ratio(samples.disk_wait_ns / 1e6, static_cast<double>(samples.disk_enqueues)), "sim_ms");
  o.Add("disk.service_p50_ms", svc.p50, "sim_ms");
  o.Add("disk.service_p99_ms", svc.p99, "sim_ms");
  o.Add("splice.refills", static_cast<double>(samples.refills), "count");
  o.Add("splice.max_inflight_chunks", samples.max_inflight_chunks, "count");
  o.Add("splice.chunk_p50_ms", chunk.p50, "sim_ms");
  o.Add("splice.chunk_p99_ms", chunk.p99, "sim_ms");
  o.Add("host.verify_s", verify_s, "s", true);
  return pass;
}

// One untraced copy; returns its host wall time.
double TimedCopy(const ExperimentConfig& cfg, ExperimentResult* out) {
  const double t0 = HostNow();
  *out = ikdp::RunCopyExperiment(cfg);
  return HostNow() - t0;
}

// The same copy with a one-slot trace log whose only job is to timestamp
// the first simulated event: everything before it is machine and file
// construction.  Returns the set-up seconds (< 0 if no event was seen).
double SetupProbe(const ExperimentConfig& base, ExperimentResult* out) {
  TraceLog log(1);
  double first = -1;
  log.set_observer([&first](const TraceRecord&) {
    if (first < 0) {
      first = HostNow();
    }
  });
  ExperimentConfig cfg = base;
  cfg.trace = &log;
  const double t0 = HostNow();
  *out = ikdp::RunCopyExperiment(cfg);
  return first < 0 ? -1 : first - t0;
}

struct PaperRow {
  double scp_kbs, cp_kbs, scp_avail, cp_avail;  // < 0: not in the paper
};

// Section 6.2 (Table 1: the test program keeps 50%/80% of its IDLE rate on
// the RAM disk under cp/scp, 60%/70% on the RZ56) and Section 6.3 (Table 2:
// RAM 3343 vs 1884 KB/s; the RZ56 throughput rows are not legible).
PaperRow PaperValues(DiskKind disk) {
  if (disk == DiskKind::kRam) {
    return {3343, 1884, 0.80, 0.50};
  }
  return {-1, -1, 0.70, 0.60};
}

void PrintVsPaper(std::ostream& report, const char* name, double model, double paper,
                  const char* fmt) {
  char model_s[32];
  std::snprintf(model_s, sizeof(model_s), fmt, model);
  char line[160];
  if (paper < 0) {
    std::snprintf(line, sizeof(line), "  %-10s %10s %10s %9s\n", name, model_s, "n/a", "n/a");
  } else {
    char paper_s[32];
    std::snprintf(paper_s, sizeof(paper_s), fmt, paper);
    std::snprintf(line, sizeof(line), "  %-10s %10s %10s %+8.1f%%\n", name, model_s, paper_s,
                  (model / paper - 1.0) * 100.0);
  }
  report << line;
}

}  // namespace

Outcome TracedCopyLayers(DiskKind disk, int64_t file_bytes) {
  return RunTracedPass(disk, file_bytes).layers;
}

Outcome RunCopyWorkload(DiskKind disk, const RunOptions& opt, std::ostream& report) {
  Outcome o;
  const double start = HostNow();
  ExperimentConfig cfgs[kNumCases];
  for (int i = 0; i < kNumCases; ++i) {
    cfgs[i] = CaseConfig(disk, kCases[i], kFileBytes);
  }

  ExperimentResult first[kNumCases];
  std::vector<double> host_s, setup_s;
  int passes = 0;
  do {
    double host = 0, setup = 0;
    for (int i = 0; i < kNumCases; ++i) {
      ExperimentResult r;
      host += TimedCopy(cfgs[i], &r);
      ExperimentResult probed;
      const double s = SetupProbe(cfgs[i], &probed);
      setup += s;
      o.attempted += 2;
      if (!r.ok) {
        o.Fail(std::string(kCases[i].label) + ": copy not verified");
      }
      if (!probed.ok || s < 0) {
        o.Fail(std::string(kCases[i].label) + ": set-up probe copy not verified");
      }
      if (passes == 0) {
        first[i] = r;
      } else if (!SameSim(r, first[i])) {
        o.Fail(std::string(kCases[i].label) + ": simulated result differs between passes");
      }
      if (!SameSim(probed, r)) {
        o.Fail(std::string(kCases[i].label) + ": traced set-up probe differs from untraced copy");
      }
    }
    // The first pass warms the process (allocator, page faults); only
    // later passes are timed.
    if (passes > 0) {
      host_s.push_back(host);
      setup_s.push_back(setup);
    }
    ++passes;
  } while (passes < 2 || HostNow() - start < opt.seconds);

  const ExperimentResult& scp = first[0];
  const ExperimentResult& cp = first[1];
  const double scp_avail = first[2].slowdown > 0 ? 1.0 / first[2].slowdown : 0;
  const double cp_avail = first[3].slowdown > 0 ? 1.0 / first[3].slowdown : 0;

  const PaperRow paper = PaperValues(disk);
  report << ikdp::DiskKindName(disk) << " -> " << ikdp::DiskKindName(disk) << ", "
         << (kFileBytes >> 20) << " MB, cold cache; seed " << opt.seed
         << " recorded (copies have no random input); " << passes << " passes\n";
  report << "  host s per pass: " << Spread(host_s) << "; set-up s per pass: " << Spread(setup_s)
         << "\n";
  report << "  metric          model      paper     error\n";
  PrintVsPaper(report, "scp_kbs", scp.throughput_kbs, paper.scp_kbs, "%.1f");
  PrintVsPaper(report, "cp_kbs", cp.throughput_kbs, paper.cp_kbs, "%.1f");
  PrintVsPaper(report, "scp_avail", scp_avail, paper.scp_avail, "%.3f");
  PrintVsPaper(report, "cp_avail", cp_avail, paper.cp_avail, "%.3f");

  if (!opt.trace) {
    o.Add("scp_kbs", scp.throughput_kbs, "sim_KB/s");
    o.Add("cp_kbs", cp.throughput_kbs, "sim_KB/s");
    o.Add("scp_avail", scp_avail, "ratio");
    o.Add("cp_avail", cp_avail, "ratio");
    o.Add("setup_s", Median(setup_s), "s", true);
    return o;
  }

  TracedPass traced = RunTracedPass(disk, kFileBytes);
  o.attempted += kNumCases;
  for (int i = 0; i < kNumCases; ++i) {
    if (!traced.results[i].ok) {
      o.Fail(std::string(kCases[i].label) + ": traced copy not verified");
    } else if (!SameSim(traced.results[i], first[i])) {
      o.Fail(std::string(kCases[i].label) + ": traced copy differs from untraced copy");
    }
  }
  o.metrics = std::move(traced.layers.metrics);
  o.failed += traced.layers.failed;
  for (std::string& v : traced.layers.violations) {
    o.violations.push_back(std::move(v));
  }
  o.Add("host_s", Median(host_s), "s", true);
  o.Add("trace.overhead_s", traced.wall_s - Median(host_s), "s", true);

  if (!opt.out_dir.empty()) {
    for (int i = 0; i < kNumCases; ++i) {
      std::string label = kCases[i].label;
      for (char& c : label) {
        if (c == '+') {
          c = '_';
        }
      }
      const std::string path = opt.out_dir + "/copy-" + ikdp::DiskKindName(disk) + "-" + label +
                               ".trace.json";
      std::ofstream out(path);
      ikdp::ExportChromeTrace(*traced.logs[static_cast<size_t>(i)], out);
    }
  }
  return o;
}

}  // namespace perfbench
