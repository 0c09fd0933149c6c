#include "src/metrics/trace_pairer.h"

#include <iterator>
#include <limits>
#include <utility>

namespace ikdp {
namespace {

struct PairSpec {
  TraceKind begin;
  TraceKind end;
  const char* name;
  bool by_tag;      // keyed by device tag as well
  bool by_b;        // keyed by (a, b); b is the interval's arg (else a)
  bool end_result;  // the interval's result is the end record's b (bytes)
};

// The pairs table of src/sim/trace.h.
constexpr PairSpec kPairs[] = {
    {TraceKind::kSyscallEnter, TraceKind::kSyscallExit, "syscall", false, false, false},
    {TraceKind::kRunnable, TraceKind::kDispatch, "sched.runq", false, false, false},
    {TraceKind::kDiskDispatch, TraceKind::kDiskComplete, "disk.xfer", true, false, true},
    {TraceKind::kSpliceRead, TraceKind::kSpliceChunk, "splice.chunk", false, true, false},
    {TraceKind::kRingOpSubmit, TraceKind::kRingOpComplete, "aio.op", false, true, false},
    {TraceKind::kUdpSend, TraceKind::kUdpSent, "net.tx", false, false, true},
};
constexpr int kSpliceReadPair = 3;
static_assert(kPairs[kSpliceReadPair].begin == TraceKind::kSpliceRead);

TraceInterval Close(const PairSpec& p, const TraceRecord& begin, const TraceRecord& end) {
  TraceInterval iv;
  iv.name = p.name;
  iv.begin = begin;
  iv.end = end;
  iv.arg = p.by_b ? begin.b : begin.a;
  iv.result = p.end_result ? end.b : 0;
  return iv;
}

}  // namespace

void TracePairer::Observe(const TraceRecord& rec,
                          const std::function<void(const TraceInterval&)>& closed) {
  if (rec.kind == TraceKind::kSpliceReadAbort) {
    const PairSpec& p = kPairs[kSpliceReadPair];
    auto it = open_.lower_bound(
        Key{kSpliceReadPair, "", rec.a, std::numeric_limits<int64_t>::min()});
    while (it != open_.end() && std::get<0>(it->first) == kSpliceReadPair &&
           std::get<2>(it->first) == rec.a) {
      TraceInterval iv = Close(p, it->second, rec);
      iv.error = true;
      it = open_.erase(it);
      closed(iv);
    }
    return;
  }
  for (int i = 0; i < static_cast<int>(std::size(kPairs)); ++i) {
    const PairSpec& p = kPairs[i];
    if (rec.kind != p.begin && rec.kind != p.end) {
      continue;
    }
    Key key{i, p.by_tag ? rec.tag : "", rec.a, p.by_b ? rec.b : 0};
    if (rec.kind == p.begin) {
      open_.insert_or_assign(std::move(key), rec);
      return;
    }
    auto it = open_.find(key);
    if (it != open_.end()) {
      const TraceInterval iv = Close(p, it->second, rec);
      open_.erase(it);
      closed(iv);
    }
    return;
  }
}

}  // namespace ikdp
