// Pairs the begin/end trace records documented in src/sim/trace.h into
// closed intervals.
//
// This is the one implementation of that pairs table: the telemetry
// collector (latency histograms) and the span builder (child spans) each
// feed one TracePairer and only map the intervals it yields onto their own
// outputs.  The pairer owns every pair's key and the teardown rule that a
// kSpliceReadAbort closes all of its serial's open reads as errored, since
// their kSpliceChunk will never arrive.
//
// A begin whose key is already open replaces the earlier one; an end with
// no open begin is ignored.

#ifndef SRC_METRICS_TRACE_PAIRER_H_
#define SRC_METRICS_TRACE_PAIRER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>

#include "src/sim/trace.h"

namespace ikdp {

struct TraceInterval {
  // "syscall", "sched.runq", "disk.xfer", "splice.chunk", "aio.op" or
  // "net.tx" (a static string).
  const char* name = "";
  TraceRecord begin;  // start time, parent span, syscall name
  TraceRecord end;    // the closing record: kSpliceReadAbort for a retracted read
  // The key's innermost field (pid, transfer serial, chunk index, cookie,
  // datagram serial) and, for disk transfers and datagrams, the bytes the
  // end record reports.
  int64_t arg = 0;
  int64_t result = 0;
  bool error = false;  // closed by teardown, not by its end record
};

class TracePairer {
 public:
  // Feeds one record; calls `closed` once per interval it closes (a
  // kSpliceReadAbort closes its serial's open reads in chunk order).
  void Observe(const TraceRecord& rec, const std::function<void(const TraceInterval&)>& closed);

  // Begin records whose end has not arrived yet.
  size_t Pending() const { return open_.size(); }

 private:
  // (pair index, device tag, a, b): the fields a pair is not keyed by are
  // left empty.
  using Key = std::tuple<int, std::string, int64_t, int64_t>;
  std::map<Key, TraceRecord> open_;
};

}  // namespace ikdp

#endif  // SRC_METRICS_TRACE_PAIRER_H_
