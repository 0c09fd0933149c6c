// Online telemetry: trace records in, latency histograms out.
//
// TelemetryCollector installs itself as a TraceLog observer and feeds a
// TracePairer (src/metrics/trace_pairer.h), which pairs the begin/end
// records documented in src/sim/trace.h as they happen, so latencies
// survive ring eviction.  Each closed interval lands in one histogram:
//
//   disk.service_time.<device>   kDiskDispatch -> kDiskComplete
//   splice.chunk_latency         kSpliceRead   -> kSpliceChunk
//   syscall.latency.<name>       kSyscallEnter -> kSyscallExit
//   cpu.runq_wait                kRunnable     -> kDispatch
//   aio.completion_latency       kRingOpSubmit -> kRingOpComplete
//
// Reads retracted by a teardown (kSpliceReadAbort) close without a sample,
// and UDP interface occupancy has no histogram.  kRingSqDepth records
// additionally feed the aio.sq_depth histogram (the unfinished-op count
// sampled after every submission batch), and kKopExec records feed
// kop.exec_cost.
//
// Everything runs on the host side of the simulation boundary: observing a
// record never advances the simulated clock, so a traced run and an
// untraced run produce identical simulated results.
//
// CaptureKernelCounters samples the kernel's scattered Stats structs (CPU,
// syscalls, buffer cache, splice engine, and each mounted disk's driver +
// scheduler) into the registry's counter namespace, giving exporters one
// enumerable view of the whole machine.

#ifndef SRC_METRICS_TELEMETRY_H_
#define SRC_METRICS_TELEMETRY_H_

#include "src/metrics/histogram.h"
#include "src/metrics/trace_pairer.h"
#include "src/os/kernel.h"
#include "src/sim/trace.h"

namespace ikdp {

class TelemetryCollector {
 public:
  explicit TelemetryCollector(MetricsRegistry* registry) : registry_(registry) {}

  TelemetryCollector(const TelemetryCollector&) = delete;
  TelemetryCollector& operator=(const TelemetryCollector&) = delete;

  // Installs this collector as `log`'s observer.  The collector must
  // outlive the log (or a later set_observer call).
  void Attach(TraceLog* log);

  // Feeds one record; public so tests can drive the pairing logic directly.
  void Observe(const TraceRecord& rec);

  // Begin records whose end has not arrived yet (unfinished intervals).
  size_t PendingIntervals() const { return pairer_.Pending(); }

 private:
  // Adds one closed interval to its histogram.
  void Sample(const TraceInterval& iv);

  MetricsRegistry* registry_;
  TracePairer pairer_;
};

// Samples every kernel Stats struct into `registry` counters under stable
// dotted names ("cpu.switches", "cache.delwri_write_errors",
// "disk.<mount>.coalesced", ...).  Idempotent: sampling twice overwrites.
// Includes trace.dropped_events (ring-buffer evictions of the attached
// TraceLog; 0 when none is attached) and the per-disk fault-injection
// counters (errors, ENOSPC hits, transient/permanent split, latency spikes).
void CaptureKernelCounters(MetricsRegistry* registry, Kernel& kernel);

}  // namespace ikdp

#endif  // SRC_METRICS_TELEMETRY_H_
