#include "alloc.hpp"

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "probe.hpp"

namespace perfbench::alloc {

thread_local int t_layer = -1;
thread_local bool t_quiet = false;

namespace {

std::atomic<std::uint64_t> g_total{0};
std::array<std::atomic<std::int64_t>, static_cast<std::size_t>(Layer::kCount)>
    g_layer{};

}  // namespace

std::uint64_t total() { return g_total.load(std::memory_order_relaxed); }

std::int64_t layer_allocs(int layer) {
  return g_layer[static_cast<std::size_t>(layer)].load();
}

void reset_layer_allocs() {
  for (auto& n : g_layer) n = 0;
}

}  // namespace perfbench::alloc

namespace {

void count() {
  using namespace perfbench::alloc;
  g_total.fetch_add(1, std::memory_order_relaxed);
  if (t_layer >= 0 && !t_quiet)
    g_layer[static_cast<std::size_t>(t_layer)].fetch_add(
        1, std::memory_order_relaxed);
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* aligned(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = ((n == 0 ? 1 : n) + a - 1) / a * a;
  return std::aligned_alloc(a, size);
}

}  // namespace

// Every form of the global allocation functions, so each heap allocation
// the library makes is counted; release goes straight to free().


void* operator new(std::size_t n) {
  count();
  return checked(std::malloc(n == 0 ? 1 : n));
}
void* operator new[](std::size_t n) {
  count();
  return checked(std::malloc(n == 0 ? 1 : n));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count();
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  count();
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  count();
  return checked(aligned(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  count();
  return checked(aligned(n, al));
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  count();
  return aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  count();
  return aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
