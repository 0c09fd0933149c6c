// kcheck fixture: mutable state that outlives one simulation.
// Parsed by kcheck only — never compiled.
//
// Expected findings:
//   [mutable-global]  g_serial (namespace scope, anonymous namespace)
//   [mutable-global]  g_name (pointer to const char; the pointer is mutable)
//   [mutable-global]  t_depth (thread_local at namespace scope)
//   [mutable-global]  Registry::count_ (static data member)
//   [mutable-global]  detector (function-static)
//   [mutable-global]  cache (function-static thread_local, brace-initialised)
// Must stay quiet: constants, constexpr tables, const pointers, function
// declarations, locals, non-static members, and the waived definition.

#include <cstdint>

namespace demo {

namespace {
uint64_t g_serial = 0;
const char* g_name = "demo";
constexpr int kLimit = 4;
const char* const kLabel = "label";
const int kTable[] = {1, 2, 3};
}  // namespace

thread_local int t_depth;

enum class Mode : uint8_t { kOff, kOn };

struct Detector {
  int races = 0;
};

class Registry {
 public:
  static Registry& Get();
  static constexpr int kMax = 8;
  static int count_;
  int live_ = 0;
};

Detector& Shared() {
  static Detector detector;
  return detector;
}

int Depth() {
  static thread_local Detector cache{};
  static const int kOnce = kLimit * 2;
  int local = kOnce;
  return local + cache.races;
}

Detector& Waived() {
  static Detector one;  // kcheck: allow(mutable-global) -- the fixture's sanctioned global
  return one;
}

int Serial() { return static_cast<int>(g_serial++); }

}  // namespace demo
