#include "src/sim/kspan.h"

#include "src/kern/kernel_context.h"

namespace ikdp {

const KspanCursor& CurrentKspan() { return Kctx().scope.kspan; }

void KspanCursorSetSpan(SpanId span) { Kctx().scope.kspan.span = span; }

KspanScope::KspanScope(const char* subsystem, SpanId span) : prev_(CurrentKspan()) {
  Kctx().scope.kspan = KspanCursor{subsystem, span};
}

KspanScope::~KspanScope() { Kctx().scope.kspan = prev_; }

KspanCollector* Kspan() { return Kctx().settings.kspan; }

void AttachKspan(KspanCollector* collector) { Kctx().settings.kspan = collector; }

SpanId KspanCollector::Begin(SimTime t, const char* name, SpanId parent, int64_t arg) {
  const SpanId id = ++next_;
  SpanRecord rec;
  rec.id = id;
  rec.parent = parent;
  rec.name = name;
  rec.start = t;
  rec.a = arg;
  index_[id] = spans_.size();
  spans_.push_back(rec);
  return id;
}

void KspanCollector::End(SimTime t, SpanId id, int64_t result, bool error) {
  auto it = index_.find(id);
  if (it == index_.end() || !spans_[it->second].open()) {
    ++bad_ends_;
    return;
  }
  SpanRecord& rec = spans_[it->second];
  rec.end = t;
  rec.result = result;
  rec.error = error;
  ++ended_;
}

bool KspanCollector::IsOpen(SpanId id) const {
  auto it = index_.find(id);
  return it != index_.end() && spans_[it->second].open();
}

SpanId KspanCollector::RootOf(SpanId id) const {
  SpanId cur = id;
  for (;;) {
    auto it = index_.find(cur);
    if (it == index_.end()) {
      return cur;
    }
    const SpanRecord& rec = spans_[it->second];
    if (rec.parent == kNoSpan || index_.count(rec.parent) == 0) {
      return cur;
    }
    cur = rec.parent;
  }
}

const SpanRecord* KspanCollector::Find(SpanId id) const {
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : &spans_[it->second];
}

bool KspanCollector::CheckBalanced(std::string* err) const {
  if (bad_ends_ > 0) {
    if (err != nullptr) {
      *err = "End() on an unknown or already-ended span (" + std::to_string(bad_ends_) +
             " occurrence(s))";
    }
    return false;
  }
  for (const SpanRecord& rec : spans_) {
    if (rec.open()) {
      if (err != nullptr) {
        *err = std::string("span never ended: ") + rec.name + " id=" + std::to_string(rec.id);
      }
      return false;
    }
  }
  return true;
}

SpanId KspanBegin(SimTime t, const char* name, int64_t arg) {
  KspanCollector* collector = Kspan();
  if (collector == nullptr) {
    return CurrentKspan().span;
  }
  return collector->Begin(t, name, CurrentKspan().span, arg);
}

void KspanEnd(SimTime t, SpanId id, int64_t result, bool error) {
  if (KspanCollector* collector = Kspan()) {
    collector->End(t, id, result, error);
  }
}

}  // namespace ikdp
