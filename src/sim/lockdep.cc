#include "src/sim/lockdep.h"

#include <deque>
#include <set>

#include "src/kern/kernel_context.h"

namespace ikdp {

namespace {

// Violation reports are bounded: a systematically-broken discipline would
// otherwise flood collect mode.
constexpr size_t kMaxViolations = 256;

}  // namespace

LockdepValidator& Lockdep() { return Kctx().run.lockdep; }

LockdepValidator::Mode LockdepValidator::mode() const { return Kctx().settings.lockdep; }

void LockdepValidator::SetMode(Mode mode) {
  Kctx().settings.lockdep = mode;
  Reset();
}

void LockdepValidator::Reset() { *this = LockdepValidator(); }

std::string LockdepValidator::Violation::Describe() const {
  return "lockdep " + kind + ": " + detail;
}

bool LockdepValidator::Reachable(const std::string& from, const std::string& to) const {
  std::deque<std::string> frontier{from};
  std::set<std::string> seen{from};
  while (!frontier.empty()) {
    const std::string cur = frontier.front();
    frontier.pop_front();
    if (cur == to) {
      return true;
    }
    for (const auto& [edge, witness] : edges_) {
      (void)witness;
      if (edge.first == cur && seen.insert(edge.second).second) {
        frontier.push_back(edge.second);
      }
    }
  }
  return false;
}

void LockdepValidator::Report(const char* kind, std::string detail) {
  if (mode() == Mode::kAbort) {
    ContractAbort("lockdep %s: %s", kind, detail.c_str());
  }
  if (violations_.size() < kMaxViolations) {
    violations_.push_back(Violation{kind, std::move(detail)});
  }
}

void LockdepValidator::OnAcquire(const void* lock, const char* name, int rank, bool spin) {
  for (const Held& h : held_) {
    if (h.lock == lock || h.name == name) {
      Report("double-acquire",
             std::string(name) + " re-acquired while already held (non-recursive)");
      return;  // treat as a re-entrant no-op so collect mode can continue
    }
  }
  for (const Held& h : held_) {
    if (h.rank >= rank) {
      Report("rank", std::string(name) + " (rank " + std::to_string(rank) +
                         ") acquired while holding " + h.name + " (rank " +
                         std::to_string(h.rank) + "); ranks must strictly increase inward");
    }
    // Closing a path inner→…→outer while acquiring outer-held→inner is a
    // cycle: some other site took these locks in the opposite order.
    if (Reachable(name, h.name)) {
      const auto reverse = edges_.find({name, h.name});
      std::string other = reverse != edges_.end()
                              ? reverse->second
                              : name + std::string(" …-> ") + h.name + " (transitive)";
      Report("order-inversion", std::string(h.name) + " -> " + name +
                                    " contradicts the recorded order [" + other + "]");
    }
    auto key = std::make_pair(h.name, std::string(name));
    if (edges_.find(key) == edges_.end()) {
      edges_[key] = h.name + std::string(" held while acquiring ") + name;
    }
  }
  held_.push_back(Held{lock, name, rank, spin});
}

void LockdepValidator::OnRelease(const void* lock, const char* name) {
  (void)name;
  // Out-of-order (hand-over-hand) release is legal: erase wherever it sits.
  for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
    if (it->lock == lock) {
      held_.erase(std::next(it).base());
      return;
    }
  }
  // Releasing an untracked lock only happens after a recorded
  // double-acquire was treated as re-entrant; ignore the unwind.
}

void LockdepValidator::OnMayBlock(const char* what) {
  for (const Held& h : held_) {
    if (h.spin) {
      Report("sleep-under-spinlock", std::string(what) + " reached while SpinLock " + h.name +
                                         " is held; a spinning CPU cannot yield");
      return;
    }
  }
}

}  // namespace ikdp
