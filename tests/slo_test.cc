// Tests for the SLO monitor (src/metrics/slo.h) and the span derivation /
// export helpers (src/metrics/span_trace.h): online percentiles and goodput,
// the sim-time stall watchdog's flag-once/progress-clears discipline,
// TraceLog pair derivation into child spans, per-request CPU breakdowns, and
// the folded-stack / Chrome / extended-telemetry exports round-tripping
// through the bundled JSON reader.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/kern/cpu.h"
#include "src/metrics/slo.h"
#include "src/metrics/span_trace.h"
#include "src/metrics/trace_export.h"
#include "src/sim/kspan.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace ikdp {
namespace {

TEST(SloMonitor, PercentilesGoodputAndWindow) {
  SloMonitor slo(Seconds(10));
  // 10 requests, 1..10 ms latency, 1000 bytes each, back to back.
  for (uint64_t i = 1; i <= 10; ++i) {
    const SimTime start = static_cast<SimTime>(i) * 100000;
    slo.OnRequestStart(i, start);
    slo.OnRequestEnd(i, start + Milliseconds(static_cast<int64_t>(i)), 1000, false);
  }
  const SloReport r = slo.Report(Milliseconds(100));
  EXPECT_EQ(r.completed, 10u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.open, 0u);
  EXPECT_EQ(r.bytes, 10000);
  // Log2 buckets report conservative upper bounds: ordered, median-covering,
  // and max is the exact maximum sample.
  EXPECT_GE(r.p50_ns, Milliseconds(5));
  EXPECT_LE(r.p50_ns, r.p99_ns);
  EXPECT_LE(r.p99_ns, r.p999_ns);
  EXPECT_LE(r.p999_ns, Milliseconds(16));
  EXPECT_EQ(r.max_ns, Milliseconds(10));
  // Window: first arrival to last completion.
  EXPECT_EQ(r.window_start, 100000);
  EXPECT_EQ(r.window_end, 10 * 100000 + Milliseconds(10));
  const double window_s = static_cast<double>(r.window_end - r.window_start) / 1e9;
  EXPECT_NEAR(r.goodput_bps, 10000.0 / window_s, 1.0);
}

TEST(SloMonitor, ErrorCompletionsCountLatencyButNotBytes) {
  SloMonitor slo(Seconds(10));
  slo.OnRequestStart(1, 0);
  slo.OnRequestEnd(1, Milliseconds(2), 5000, /*error=*/true);
  slo.OnRequestStart(2, 0);
  slo.OnRequestEnd(2, Milliseconds(1), 3000, /*error=*/false);
  const SloReport r = slo.Report(Milliseconds(5));
  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(r.errors, 1u);
  EXPECT_EQ(r.bytes, 3000);  // the failed request's bytes are not goodput
  EXPECT_EQ(slo.latency().count(), 2u);  // but its latency was observed
}

TEST(SloMonitor, UnknownIdsAreIgnored) {
  SloMonitor slo(Seconds(1));
  slo.OnRequestProgress(99, Milliseconds(1));
  slo.OnRequestEnd(99, Milliseconds(2), 1000, false);
  const SloReport r = slo.Report(Milliseconds(3));
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.bytes, 0);
}

TEST(SloMonitor, StallWatchdogFlagsOnceAndProgressClears) {
  SloMonitor slo(Milliseconds(10));
  slo.OnRequestStart(1, 0);
  slo.OnRequestStart(2, 0);

  // Under threshold: nothing.
  EXPECT_TRUE(slo.CheckStalls(Milliseconds(10)).empty());

  // Over threshold: both flag, deterministically in id order.
  std::vector<uint64_t> stalled = slo.CheckStalls(Milliseconds(11));
  ASSERT_EQ(stalled.size(), 2u);
  EXPECT_EQ(stalled[0], 1u);
  EXPECT_EQ(stalled[1], 2u);

  // A flagged request does not re-flag while still silent.
  EXPECT_TRUE(slo.CheckStalls(Milliseconds(25)).empty());
  EXPECT_EQ(slo.Report(Milliseconds(25)).stall_flags, 2u);

  // Progress clears the flag; a NEW silence re-flags.
  slo.OnRequestProgress(1, Milliseconds(30));
  EXPECT_TRUE(slo.CheckStalls(Milliseconds(35)).empty());
  stalled = slo.CheckStalls(Milliseconds(41));
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0], 1u);
  EXPECT_EQ(slo.Report(Milliseconds(41)).stall_flags, 3u);

  // Completion retires the id entirely.
  slo.OnRequestEnd(1, Milliseconds(50), 100, false);
  slo.OnRequestEnd(2, Milliseconds(50), 100, false);
  EXPECT_TRUE(slo.CheckStalls(Seconds(1)).empty());
}

// --- span derivation from trace pairs ---

TEST(SpanTraceBuilder, DerivesChildSpansFromDocumentedPairs) {
  KspanCollector c;
  const SpanId req = c.Begin(0, "request", kNoSpan);
  SpanTraceBuilder builder(&c);

  // A syscall interval stamped with the request's span.
  TraceRecord enter;
  enter.time = 100;
  enter.kind = TraceKind::kSyscallEnter;
  enter.a = 7;  // pid
  enter.tag = "splice";
  enter.span = req;
  builder.Observe(enter);
  EXPECT_EQ(builder.PendingIntervals(), 1u);

  TraceRecord exit = enter;
  exit.time = 900;
  exit.kind = TraceKind::kSyscallExit;
  builder.Observe(exit);
  EXPECT_EQ(builder.PendingIntervals(), 0u);

  // A disk transfer keyed by (device, serial).
  TraceRecord dd;
  dd.time = 200;
  dd.kind = TraceKind::kDiskDispatch;
  dd.a = 3;  // serial
  dd.b = 8192;
  dd.tag = "RZ56";
  dd.span = req;
  builder.Observe(dd);
  TraceRecord dc = dd;
  dc.time = 700;
  dc.kind = TraceKind::kDiskComplete;
  builder.Observe(dc);

  // A teardown closes each of its serial's open reads as an errored span.
  builder.Observe({300, TraceKind::kSpliceRead, 4, 0, "", req});
  builder.Observe({310, TraceKind::kSpliceRead, 4, 1, "", req});
  builder.Observe({800, TraceKind::kSpliceReadAbort, 4, 0, "", req});
  EXPECT_EQ(builder.PendingIntervals(), 0u);

  ASSERT_EQ(builder.derived().count("syscall"), 1u);
  ASSERT_EQ(builder.derived().count("disk.xfer"), 1u);
  ASSERT_EQ(builder.derived().at("splice.chunk"), 2u);

  // Derived spans nest under the request and carry the interval bounds.
  int found = 0;
  for (const SpanRecord& s : c.spans()) {
    if (std::string(s.name) == "syscall") {
      EXPECT_EQ(s.parent, req);
      EXPECT_EQ(s.start, 100);
      EXPECT_EQ(s.end, 900);
      ++found;
    } else if (std::string(s.name) == "disk.xfer") {
      EXPECT_EQ(s.parent, req);
      EXPECT_EQ(s.start, 200);
      EXPECT_EQ(s.end, 700);
      ++found;
    } else if (std::string(s.name) == "splice.chunk") {
      EXPECT_EQ(s.parent, req);
      EXPECT_EQ(s.start, 300 + 10 * s.a);  // arg = chunk index
      EXPECT_EQ(s.end, 800);
      EXPECT_TRUE(s.error);
      ++found;
    }
  }
  EXPECT_EQ(found, 4);

  c.End(1000, req);
  std::string err;
  EXPECT_TRUE(c.CheckBalanced(&err)) << err;
}

// --- per-request CPU breakdowns and exports ---

// Two requests with child spans and a hand-built attribution ledger.
struct BreakdownFixture {
  KspanCollector c;
  SpanId r1 = kNoSpan;
  SpanId r2 = kNoSpan;
  SpanId child1 = kNoSpan;
  std::map<CpuSystem::ChargeKey, SimDuration> attr;

  BreakdownFixture() {
    r1 = c.Begin(0, "request", kNoSpan, /*arg=*/1);
    child1 = c.Begin(10, "splice.stream", r1);
    r2 = c.Begin(20, "request", kNoSpan, /*arg=*/2);
    c.End(500, child1, 4096);
    c.End(600, r1, 4096);
    c.End(800, r2, 4096);
    attr[{CpuSystem::ChargeBucket::kProcess, "process", r1}] = 300;
    attr[{CpuSystem::ChargeBucket::kInterrupt, "disk", child1}] = 150;
    attr[{CpuSystem::ChargeBucket::kProcess, "process", r2}] = 200;
    // Charges on spans nobody minted fold under "untracked".
    attr[{CpuSystem::ChargeBucket::kInterrupt, "net", kNoSpan}] = 42;
  }
};

TEST(RequestBreakdowns, RollUpChildChargesToTheRoot) {
  BreakdownFixture f;
  const std::vector<RequestBreakdown> rows = BuildRequestBreakdowns(f.c, f.attr);
  ASSERT_EQ(rows.size(), 2u);  // one per ROOT, in mint order
  EXPECT_EQ(rows[0].root, f.r1);
  EXPECT_EQ(rows[0].arg, 1);
  EXPECT_EQ(rows[0].Latency(), 600);
  EXPECT_EQ(rows[0].cpu_total, 450);  // root's own 300 + child's 150
  EXPECT_EQ(rows[0].cpu.at("process/process"), 300);
  EXPECT_EQ(rows[0].cpu.at("interrupt/disk"), 150);
  EXPECT_EQ(rows[1].root, f.r2);
  EXPECT_EQ(rows[1].cpu_total, 200);
}

TEST(RequestBreakdowns, FoldedStacksCoverEveryAttributedNanosecond) {
  BreakdownFixture f;
  std::ostringstream os;
  ExportFoldedStacks(f.c, f.attr, os);
  const std::string out = os.str();
  // Child charges fold under the request path; unknown spans under
  // "untracked".
  EXPECT_NE(out.find("request;splice.stream;interrupt:disk 150"), std::string::npos) << out;
  EXPECT_NE(out.find("untracked;interrupt:net 42"), std::string::npos) << out;
  // The lines' values sum to the ledger total.
  int64_t total = 0;
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    total += std::stoll(line.substr(sp + 1));
  }
  EXPECT_EQ(total, 300 + 150 + 200 + 42);
}

TEST(RequestBreakdowns, ChromeTraceAndSpanSectionsRoundTrip) {
  BreakdownFixture f;

  std::ostringstream chrome;
  ExportSpanChromeTrace(f.c, chrome);
  JsonValue parsed;
  ASSERT_TRUE(ParseJson(chrome.str(), &parsed)) << chrome.str();
  const JsonValue* events = parsed.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  // One begin + one end event per (closed) span.
  EXPECT_EQ(events->items.size(), 2 * f.c.spans().size());

  // The extended-telemetry sections parse when wrapped as an object and
  // mirror the collector and the ledger exactly.
  const std::string sections = RenderSpanSections(f.c, f.attr);
  JsonValue doc;
  ASSERT_TRUE(ParseJson("{" + sections + "}", &doc)) << sections;
  const JsonValue* spans = doc.Get("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->Get("begun")->number, 3.0);
  EXPECT_EQ(spans->Get("ended")->number, 3.0);
  EXPECT_EQ(spans->Get("bad_ends")->number, 0.0);
  EXPECT_EQ(spans->Get("by_name")->Get("request")->number, 2.0);
  const JsonValue* attr = doc.Get("attribution");
  ASSERT_NE(attr, nullptr);
  ASSERT_TRUE(attr->IsArray());
  ASSERT_EQ(attr->items.size(), f.attr.size());
  double ns_total = 0;
  for (const JsonValue& row : attr->items) {
    ASSERT_NE(row.Get("bucket"), nullptr);
    ASSERT_NE(row.Get("subsystem"), nullptr);
    ASSERT_NE(row.Get("span"), nullptr);
    ns_total += row.Get("ns")->number;
  }
  EXPECT_EQ(ns_total, 300 + 150 + 200 + 42);
}

}  // namespace
}  // namespace ikdp
