/// \file alloc_count.cpp
/// Replacement global operator new/delete that counts every heap allocation
/// while counting is switched on.
///
/// la::aligned_alloc_count() only sees Matrix/Vector/Workspace buffers; this
/// counter also sees the job records, promises, std::function bodies, task
/// nodes and journal buffers around them, which is what "allocations per
/// request" has to mean.  Off (the default), the cost is one relaxed load per
/// allocation; the untimed traced run is the only one that turns it on.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_count{0};
thread_local int t_excluded = 0;

void note() noexcept {
  if (g_counting.load(std::memory_order_relaxed) && t_excluded == 0)
    g_count.fetch_add(1, std::memory_order_relaxed);
}

void* raw_alloc(std::size_t n, std::size_t align) noexcept {
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  void* p = nullptr;
  return posix_memalign(&p, align, n) == 0 ? p : nullptr;
}

void* alloc_or_throw(std::size_t n, std::size_t align) {
  note();
  for (;;) {
    if (void* p = raw_alloc(n, align)) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

void* alloc_nothrow(std::size_t n, std::size_t align) noexcept {
  try {
    return alloc_or_throw(n, align);
  } catch (...) {
    return nullptr;
  }
}

constexpr std::size_t kDefault = alignof(std::max_align_t);

}  // namespace

// Every replaceable allocation form; all memory comes from malloc or
// posix_memalign, so every deallocation form is free().
void* operator new(std::size_t n) { return alloc_or_throw(n, kDefault); }
void* operator new[](std::size_t n) { return alloc_or_throw(n, kDefault); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return alloc_nothrow(n, kDefault); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return alloc_nothrow(n, kDefault); }
void* operator new(std::size_t n, std::align_val_t a) { return alloc_or_throw(n, static_cast<std::size_t>(a)); }
void* operator new[](std::size_t n, std::align_val_t a) { return alloc_or_throw(n, static_cast<std::size_t>(a)); }
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return alloc_nothrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return alloc_nothrow(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }

namespace pitk_bench::heap {

void set_counting(bool on) noexcept { g_counting.store(on, std::memory_order_relaxed); }

std::uint64_t count() noexcept { return g_count.load(std::memory_order_relaxed); }

bool self_check() {
  // The volatile sink keeps the compiler from eliding the new/delete pair.
  static int* volatile sink = nullptr;
  const std::uint64_t c0 = count();
  set_counting(true);
  sink = new int(1);
  set_counting(false);
  delete sink;
  const std::uint64_t c1 = count();
  sink = new int(2);
  delete sink;
  const std::uint64_t c2 = count();
  return c1 - c0 == 1 && c2 == c1;
}

Exclude::Exclude() noexcept { ++t_excluded; }
Exclude::~Exclude() { --t_excluded; }

}  // namespace pitk_bench::heap
