#include "src/sim/krace.h"

#include <cstdio>
#include <cstring>
#include <string>

#include "src/kern/kernel_context.h"

namespace ikdp {

namespace {

// splitmix64: a well-mixed 64-bit permutation, enough to make the perturbed
// tie-break order look unrelated to insertion order while staying a strict
// total order per seed.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

const char* AccessKindName(KraceAccess k) {
  switch (k) {
    case KraceAccess::kRead:
      return "read";
    case KraceAccess::kWrite:
      return "write";
    case KraceAccess::kCommute:
      return "commute";
  }
  return "?";
}

}  // namespace

size_t KraceDetector::FieldKeyHash::operator()(const FieldKey& k) const {
  // FNV-1a over the field name (string literals for the same field may have
  // distinct addresses across translation units), mixed with the object.
  uint64_t h = 1469598103934665603ull;
  for (const char* p = k.field; *p != '\0'; ++p) {
    h = (h ^ static_cast<uint64_t>(*p)) * 1099511628211ull;
  }
  return static_cast<size_t>(Mix64(h ^ reinterpret_cast<uintptr_t>(k.obj)));
}

bool KraceDetector::FieldKeyEq::operator()(const FieldKey& a, const FieldKey& b) const {
  return a.obj == b.obj && std::strcmp(a.field, b.field) == 0;
}

KraceDetector& Krace() { return Kctx().run.krace; }

KraceDetector::Mode KraceDetector::mode() const { return Kctx().settings.krace; }

void KraceDetector::SetMode(Mode mode) {
  Kctx().settings.krace = mode;
  Reset();
}

void KraceDetector::Reset() { *this = KraceDetector(); }

void KraceDetector::SetPerturbSeed(uint64_t seed) {
  Kctx().settings.perturb_seed = seed;
  Reset();
}

uint64_t KraceDetector::perturb_seed() const { return Kctx().settings.perturb_seed; }

std::string KraceDetector::Race::Describe() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s @%p at t=%lld ns: %s in event #%llu (%s, %s:%d) is "
                "concurrent with %s in event #%llu (%s, %s:%d) — no "
                "happens-before chain; a legal tie-break permutation reorders "
                "them",
                field, obj, static_cast<long long>(time),
                AccessKindName(prior.kind), static_cast<unsigned long long>(prior.event),
                prior.ctx, prior.file, prior.line, AccessKindName(current.kind),
                static_cast<unsigned long long>(current.event), current.ctx, current.file,
                current.line);
  return std::string(buf);
}

void KraceDetector::OnSchedule(EventId child, SimTime when) {
  if (!in_event_ || when != now_) {
    // Cross-timestamp scheduling is ordered by the clock; host-side
    // scheduling has no executing-event creator.  Neither needs an edge.
    return;
  }
  // Same-timestamp child: it inherits the creator's same-timestamp ancestor
  // chain plus the creator itself.
  std::vector<EventId>& anc = pending_anc_[child];
  anc.assign(cur_anc_.begin(), cur_anc_.end());
  anc.push_back(cur_);
}

void KraceDetector::OnEventBegin(EventId id, SimTime when) {
  if (when != now_) {
    if (when < now_) {
      // The clock went backwards: a new simulation started on this thread
      // without the Simulator-constructor Reset (e.g. a hand-driven
      // EventQueue).  Everything recorded belongs to the previous run, whose
      // event ids this run will reuse; drop it all rather than alias it.
      table_.clear();
      channels_.clear();
    }
    // Time advanced: everything recorded for the previous timestamp is
    // ordered before this event by the clock.  Same-timestamp children
    // always execute (or are cancelled) before time advances, so the
    // pending map cannot carry live entries across timestamps.
    now_ = when;
    pending_anc_.clear();
  }
  in_event_ = true;
  cur_ = id;
  cur_anc_.clear();
  auto it = pending_anc_.find(id);
  if (it != pending_anc_.end()) {
    cur_anc_.insert(it->second.begin(), it->second.end());
    pending_anc_.erase(it);
  }
}

void KraceDetector::OnEventEnd() {
  in_event_ = false;
  cur_ = 0;
  cur_anc_.clear();
}

void KraceDetector::OnCancel(EventId id) { pending_anc_.erase(id); }

void KraceDetector::ChannelRelease(const void* chan) {
  if (!in_event_) {
    return;  // host-side publication is ordered with everything
  }
  ChannelState& st = channels_[chan];
  if (st.time != now_) {
    st.time = now_;
    st.releasers.clear();
  }
  // The acquirer is ordered after everything that happens-before the
  // release, not just the releasing event itself: record cur_'s
  // same-timestamp ancestors too, so X -schedule-> A -channel-> B composes
  // into X happens-before B.  Duplicates are harmless (ChannelAcquire
  // inserts into a set).
  st.releasers.push_back(cur_);
  st.releasers.insert(st.releasers.end(), cur_anc_.begin(), cur_anc_.end());
}

void KraceDetector::ChannelAcquire(const void* chan) {
  if (!in_event_) {
    return;
  }
  auto it = channels_.find(chan);
  if (it == channels_.end() || it->second.time != now_) {
    return;  // releases at earlier timestamps are clock-ordered already
  }
  cur_anc_.insert(it->second.releasers.begin(), it->second.releasers.end());
}

void KraceDetector::OnAccess(const void* obj, const char* field, KraceAccess kind,
                             const char* file, int line) {
  if (!KraceEnabled() || !in_event_) {
    // Host code (setup, verification) runs strictly between events on one
    // thread; it cannot be reordered against anything.
    return;
  }
  FieldSlot& slot = table_[FieldKey{obj, field}];
  if (slot.time != now_) {
    slot.time = now_;
    slot.acc.clear();
  }
  // One record per (event, kind): repeated identical accesses within one
  // event add nothing (program order covers them) and would duplicate race
  // reports.
  for (const AccessRec& r : slot.acc) {
    if (r.event == cur_ && r.kind == kind) {
      return;
    }
  }
  const AccessRec cur{cur_, kind, ExecContextName(CurrentExecContext()), file, line};
  for (const AccessRec& r : slot.acc) {
    if (r.event == cur_) {
      continue;  // same event, different kind: program-ordered
    }
    const bool conflicting =
        (kind == KraceAccess::kWrite || r.kind == KraceAccess::kWrite ||
         (kind == KraceAccess::kCommute) != (r.kind == KraceAccess::kCommute));
    if (!conflicting) {
      continue;  // read/read, or two commuting updates
    }
    if (cur_anc_.count(r.event) > 0) {
      continue;  // schedule/channel chain orders r before us
    }
    ReportRace(FieldKey{obj, field}, r, cur);
  }
  slot.acc.push_back(cur);
}

void KraceDetector::ReportRace(const FieldKey& key, const AccessRec& prior,
                               const AccessRec& cur) {
  Race race;
  race.obj = key.obj;
  race.field = key.field;
  race.time = now_;
  race.prior = Site{prior.event, prior.ctx, prior.file, prior.line, prior.kind};
  race.current = Site{cur.event, cur.ctx, cur.file, cur.line, cur.kind};
  if (mode() == Mode::kAbort) {
    ContractAbort("krace: %s", race.Describe().c_str());
  }
  // Collect mode: keep a bounded report (a single hot pair could otherwise
  // flood the run).
  if (races_.size() < 256) {
    races_.push_back(std::move(race));
  }
}

uint64_t KraceDetector::TieKey(EventId id) const {
  const uint64_t seed = Kctx().settings.perturb_seed;
  if (seed == 0) {
    return id;  // historical behaviour: insertion order
  }
  return Mix64(id ^ seed);
}

}  // namespace ikdp
