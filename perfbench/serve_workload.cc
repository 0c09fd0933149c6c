// The server half of a workload: SpliceServer with 1000 clients, open-loop
// Poisson arrivals and Zipf-1.0 popularity over 64 objects of 64 KB on the
// server's RAM disk, served file -> UDP by one server process.  The seed is
// SpliceServerConfig::seed, so both modes serve the identical request
// stream for a given seed.
//
// The run measures the operating point (110 req/s, where both modes keep
// p99 well under the limit) and bisects for the highest offered rate that
// still meets the latency limit without a growing backlog.  Latency is
// timed from each request's scheduled arrival (on_start), which is when it
// was due: the arrival events are simulated, so the generator is never
// late.

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/workloads.h"
#include "src/hw/costs.h"
#include "src/metrics/span_trace.h"
#include "src/sim/kspan.h"
#include "src/workload/splice_server.h"

namespace perfbench {

namespace {

using ikdp::SimTime;
using ikdp::SpliceServerConfig;
using ikdp::SpliceServerResult;

constexpr double kOperatingRps = 110;
constexpr int kOperatingRequests = 20000;
constexpr int kProbeRequests = 20000;
// Bisection range for max_rps: well below the ~137 req/s knee, and above it
// by enough that a 2x faster server still shows.  Probes above the knee are
// the expensive ones (the backlog grows), so the ceiling is not higher.
constexpr int64_t kSearchLo = 64;
constexpr int64_t kSearchHi = 320;
constexpr double kLatencyLimitMs = 200;

SpliceServerConfig Config(ikdp::SubmitMode mode, uint64_t seed, double rps, int requests) {
  SpliceServerConfig cfg;
  cfg.mode = mode;
  cfg.seed = seed;
  cfg.offered_rps = rps;
  cfg.total_requests = requests;
  cfg.tick = 0;
  return cfg;
}

struct ServeRun {
  SpliceServerResult result;
  std::vector<double> latency_ms;     // arrival -> last byte, completed requests
  std::vector<double> first_byte_ms;  // arrival -> first datagram
  uint64_t incomplete = 0;            // not delivered in full exactly once
  SimTime last_arrival = 0;
  double wall_s = 0;
  double setup_s = 0;  // call -> first arrival
  double sim_host_s = 0;  // first arrival -> last request end
};

ServeRun Serve(const SpliceServerConfig& cfg) {
  struct Req {
    SimTime arrival = -1;
    SimTime first_byte = -1;
    SimTime end = -1;
    int64_t progress = 0;
    int64_t end_bytes = 0;
    int ends = 0;
    bool error = false;
  };
  ServeRun run;
  std::vector<Req> reqs(static_cast<size_t>(cfg.total_requests));
  uint64_t bad_ids = 0;
  double first_host = -1;
  double last_host = 0;
  auto req = [&](uint64_t id) -> Req* {
    if (id >= reqs.size()) {
      ++bad_ids;
      return nullptr;
    }
    return &reqs[id];
  };
  ikdp::SpliceServerHooks hooks;
  hooks.on_start = [&](uint64_t id, SimTime t) {
    if (first_host < 0) {
      first_host = HostNow();
    }
    run.last_arrival = t;
    if (Req* r = req(id)) {
      r->arrival = t;
    }
  };
  hooks.on_progress = [&](uint64_t id, SimTime t, int64_t n) {
    if (Req* r = req(id)) {
      if (r->first_byte < 0) {
        r->first_byte = t;
      }
      r->progress += n;
    }
  };
  hooks.on_end = [&](uint64_t id, SimTime t, int64_t bytes, bool error) {
    last_host = HostNow();
    if (Req* r = req(id)) {
      ++r->ends;
      r->end = t;
      r->end_bytes = bytes;
      r->error = r->error || error;
    }
  };
  const double t0 = HostNow();
  run.result = ikdp::RunSpliceServer(cfg, hooks);
  run.wall_s = HostNow() - t0;
  run.setup_s = first_host - t0;
  run.sim_host_s = last_host - first_host;

  run.latency_ms.reserve(reqs.size());
  for (const Req& r : reqs) {
    if (r.arrival < 0 || r.ends != 1 || r.error || r.progress != cfg.object_bytes ||
        r.end_bytes != cfg.object_bytes) {
      ++run.incomplete;
      continue;
    }
    run.latency_ms.push_back(static_cast<double>(r.end - r.arrival) / 1e6);
    run.first_byte_ms.push_back(static_cast<double>(r.first_byte - r.arrival) / 1e6);
  }
  run.incomplete += bad_ids;
  return run;
}

bool SameSim(const ServeRun& a, const ServeRun& b) {
  const SpliceServerResult& x = a.result;
  const SpliceServerResult& y = b.result;
  return x.completed == y.completed && x.errored == y.errored && x.bytes == y.bytes &&
         x.end_time == y.end_time && x.server_traps == y.server_traps &&
         x.sigio_handled == y.sigio_handled && SameCpu(x.server_cpu, y.server_cpu) &&
         SameCpu(x.client_cpu, y.client_cpu) && a.latency_ms == b.latency_ms &&
         a.first_byte_ms == b.first_byte_ms;
}

double BusyFraction(const SpliceServerResult& r) {
  const double busy = static_cast<double>(r.server_cpu.process_work + r.server_cpu.context_switch +
                                          r.server_cpu.interrupt_work);
  return r.end_time > 0 ? busy / static_cast<double>(r.end_time) : 1.0;
}

void Gate(const ServeRun& run, const char* what, Outcome* o) {
  o->attempted += run.result.requests;
  o->failed += run.incomplete;
  if (run.incomplete > 0) {
    o->violations.push_back(std::string(what) + ": " + std::to_string(run.incomplete) +
                            " requests not delivered in full");
  }
  if (!run.result.ok || !run.result.closure_ok) {
    o->Fail(std::string(what) + ": server run not ok " + run.result.closure_err);
  }
}

bool MeetsSlo(const ServeRun& run) {
  if (run.incomplete > 0 || run.latency_ms.empty()) {
    return false;
  }
  const Distribution d = Summarize(run.latency_ms);
  // A growing backlog leaves a queue behind the last arrival; a stable one
  // drains within the latency limit.
  const double drain_ms = static_cast<double>(run.result.end_time - run.last_arrival) / 1e6;
  return d.p99 > 0 && d.p99 <= kLatencyLimitMs && drain_ms <= kLatencyLimitMs;
}

// The capacity search: every probe is gated like a measured run.
struct Search {
  int64_t max_rps = 0;
  std::vector<std::pair<int64_t, ServeRun>> probes;
};

// `between` runs before each probe (the timed operating-point repeats, so
// their samples spread over the whole run rather than its tail).
Search FindMaxRps(ikdp::SubmitMode mode, uint64_t seed, Outcome* o,
                  const std::function<void()>& between) {
  Search search;
  search.max_rps = MaxPassingRate(kSearchLo, kSearchHi, [&](int64_t rps) {
    between();
    ServeRun run = Serve(Config(mode, seed, static_cast<double>(rps), kProbeRequests));
    Gate(run, "capacity probe", o);
    const bool ok = MeetsSlo(run);
    search.probes.emplace_back(rps, std::move(run));
    return ok;
  });
  return search;
}

const char* ModeName(ikdp::SubmitMode mode) {
  return mode == ikdp::SubmitMode::kRing ? "ring" : "fasync";
}

// Per-layer figures of the traced operating-point run.
void AddLayers(const ServeRun& run, const ikdp::KspanCollector& spans, Outcome* o) {
  const SpliceServerResult& r = run.result;
  const double reqs = static_cast<double>(r.requests);
  std::vector<double> admit_ms, stream_ms, aio_ms;
  for (const ikdp::SpanRecord& s : spans.spans()) {
    if (s.open()) {
      continue;
    }
    const double dur_ms = static_cast<double>(s.end - s.start) / 1e6;
    if (std::string(s.name) == "splice.stream") {
      stream_ms.push_back(dur_ms);
      if (const ikdp::SpanRecord* root = spans.Find(spans.RootOf(s.id))) {
        admit_ms.push_back(static_cast<double>(s.start - root->start) / 1e6);
      }
    } else if (std::string(s.name) == "aio.op") {
      aio_ms.push_back(dur_ms);
    }
  }
  double softclock_ns = 0, softclock_splice_ns = 0, net_intr_ns = 0;
  for (const auto& [key, ns] : r.attribution) {
    const std::string subsystem = key.subsystem;
    if (key.bucket == ikdp::CpuSystem::ChargeBucket::kSoftclock ||
        key.bucket == ikdp::CpuSystem::ChargeBucket::kKopSoftclock) {
      softclock_ns += static_cast<double>(ns);
      if (subsystem == "splice") {
        softclock_splice_ns += static_cast<double>(ns);
      }
    }
    if (key.bucket == ikdp::CpuSystem::ChargeBucket::kInterrupt && subsystem == "net") {
      net_intr_ns += static_cast<double>(ns);
    }
  }
  const double trap_ns = static_cast<double>(ikdp::DecStation5000Costs().syscall_overhead);
  o->Add("sim.host_s", run.sim_host_s, "s", true);
  o->Add("cpu.process_s", static_cast<double>(r.server_cpu.process_work) / 1e9, "sim_s");
  o->Add("cpu.switch_s", static_cast<double>(r.server_cpu.context_switch) / 1e9, "sim_s");
  o->Add("cpu.interrupt_s", static_cast<double>(r.server_cpu.interrupt_work) / 1e9, "sim_s");
  o->Add("cpu.softclock_s", softclock_ns / 1e9, "sim_s");
  o->Add("cpu.switches", static_cast<double>(r.server_cpu.switches), "count");
  o->Add("cpu.interrupts", static_cast<double>(r.server_cpu.interrupts), "count");
  o->Add("cpu.softclock_splice_ms_per_req", softclock_splice_ns / 1e6 / reqs, "sim_ms");
  o->Add("cpu.net_intr_ms_per_req", net_intr_ns / 1e6 / reqs, "sim_ms");
  o->Add("os.traps_per_op", static_cast<double>(r.server_traps) / reqs, "count");
  o->Add("os.trap_ms", static_cast<double>(r.server_traps) * trap_ns / 1e6 / reqs, "sim_ms");
  o->Add("os.sigio_per_req", static_cast<double>(r.sigio_handled) / reqs, "count");
  o->Add("splice.admit_wait_p99_ms", Summarize(admit_ms).p99, "sim_ms");
  o->Add("splice.stream_p99_ms", Summarize(stream_ms).p99, "sim_ms");
  // 0 in FASYNC mode, which submits no aio ops.
  o->Add("aio.op_p99_ms", Summarize(aio_ms).p99, "sim_ms");
  o->Add("net.first_byte_p99_ms", Summarize(run.first_byte_ms).p99, "sim_ms");
}

}  // namespace

Outcome RunServeWorkload(ikdp::SubmitMode mode, const RunOptions& opt, std::ostream& report) {
  Outcome o;
  const double start = HostNow();
  const SpliceServerConfig cfg = Config(mode, opt.seed, kOperatingRps, kOperatingRequests);
  // The operating point repeats until the time budget is spent, for the
  // host-time medians; its simulated result must repeat exactly.  The first
  // run (and the search) warm the process, so it is not timed.
  const ServeRun op = Serve(cfg);
  Gate(op, "operating point", &o);
  std::vector<double> host_s, setup_s;
  auto timed_repeat = [&] {
    const ServeRun again = Serve(cfg);
    Gate(again, "operating point", &o);
    if (!SameSim(again, op)) {
      o.Fail("simulated result differs between repeats of the operating point");
    }
    host_s.push_back(again.wall_s);
    setup_s.push_back(again.setup_s);
  };
  // The search is deterministic for a seed, so it runs once per invocation,
  // and not at all in the traced one (no per-layer metric needs it).
  const Search search = opt.trace ? Search{} : FindMaxRps(mode, opt.seed, &o, timed_repeat);
  while (host_s.empty() || HostNow() - start < opt.seconds) {
    timed_repeat();
  }

  const Distribution lat = Summarize(op.latency_ms);
  char line[256];
  std::snprintf(line, sizeof(line),
                "SpliceServer %s, seed %llu: %d clients, %d x %lld KB objects, Zipf %.1f, "
                "open-loop Poisson; operating point timed %zu times\n",
                ModeName(mode), static_cast<unsigned long long>(opt.seed), cfg.n_clients,
                cfg.n_objects, static_cast<long long>(cfg.object_bytes >> 10), cfg.zipf_s,
                host_s.size());
  report << line;
  std::snprintf(line, sizeof(line),
                "  %.0f req/s: %zu samples, p50 %.3f ms, p99 %.3f ms, p%g %.3f ms, max %.3f ms, "
                "server busy %.3f, traps/req %.2f, generator lateness 0 ms\n",
                kOperatingRps, lat.count, lat.p50, lat.p99, lat.top_pct, lat.top_value, lat.max,
                BusyFraction(op.result),
                static_cast<double>(op.result.server_traps) /
                    static_cast<double>(op.result.requests));
  report << line;
  for (const auto& [rps, run] : search.probes) {
    const Distribution d = Summarize(run.latency_ms);
    std::snprintf(line, sizeof(line),
                  "  probe %3lld req/s x %d: p99 %9.3f ms, drain %9.3f ms -> %-6s (host %.3f s)\n",
                  static_cast<long long>(rps), kProbeRequests, d.p99,
                  static_cast<double>(run.result.end_time - run.last_arrival) / 1e6,
                  MeetsSlo(run) ? "meets" : "misses", run.wall_s);
    report << line;
  }
  std::snprintf(line, sizeof(line), "  host s per operating-point run: %s\n",
                Spread(host_s).c_str());
  report << line;
  if (!opt.trace) {
    std::snprintf(line, sizeof(line), "  max_rps %lld (p99 <= %.0f ms, backlog drains)\n",
                  static_cast<long long>(search.max_rps), kLatencyLimitMs);
    report << line;
  }
  if (lat.p99 <= 0) {
    o.Fail("operating point has too few samples for p99");
  }

  if (!opt.trace) {
    o.Add("p50_ms", lat.p50, "sim_ms");
    o.Add("p99_ms", lat.p99, "sim_ms");
    o.Add("max_rps", static_cast<double>(search.max_rps), "req/s");
    o.Add("server_idle", 1.0 - BusyFraction(op.result), "ratio");
    o.Add("setup_s", Median(setup_s), "s", true);
    return o;
  }

  ikdp::KspanCollector spans;
  ikdp::AttachKspan(&spans);
  const ServeRun traced = Serve(cfg);
  ikdp::AttachKspan(nullptr);
  Gate(traced, "traced operating point", &o);
  std::string err;
  if (!spans.CheckBalanced(&err)) {
    o.Fail("spans unbalanced: " + err);
  }
  if (!SameSim(traced, op)) {
    o.Fail("traced run differs from untraced run");
  }
  AddLayers(traced, spans, &o);
  o.Add("host_s", Median(host_s), "s", true);
  o.Add("trace.overhead_s", traced.wall_s - Median(host_s), "s", true);
  if (!opt.out_dir.empty()) {
    std::ofstream out(opt.out_dir + "/serve-" + ModeName(mode) + ".spans.json");
    ikdp::ExportSpanChromeTrace(spans, out);
  }
  return o;
}

}  // namespace perfbench
