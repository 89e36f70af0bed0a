// Allocation gate: once warm, BlockQuantMatmulBackend::matmul at decode
// shapes allocates nothing. A test-local operator new counts heap
// allocations while a window is open.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "llm/backend.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long> g_allocations{0};

// Out of line, so that GCC does not see free() meet a new-expression's
// pointer after inlining (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) { std::free(p); }

}  // namespace

void* operator new(std::size_t bytes) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace bbal::llm {
namespace {

llm::Matrix random_matrix(int rows, int cols, std::uint64_t seed) {
  llm::Matrix m(rows, cols);
  Rng rng(seed);
  for (float& x : m.flat()) x = static_cast<float>(rng.gaussian());
  return m;
}

TEST(MatmulAllocs, WarmBlockMatmulAllocatesNothingAtDecodeShapes) {
  common::ThreadPool::set_global_threads(1);
  // The integer kernel's formats and one wide format on the float path;
  // the decoder's projection shapes (d_model 128, d_ff 341, a vocab).
  const std::vector<quant::BlockFormat> formats = {
      quant::BlockFormat::bfp(4), quant::BlockFormat::bbfp(4, 2),
      quant::BlockFormat::bbfp(6, 3), quant::BlockFormat::bbfp(10, 5)};
  const std::vector<std::pair<int, int>> shapes = {
      {128, 128}, {128, 341}, {341, 128}, {128, 1000}};
  for (const quant::BlockFormat& fmt : formats) {
    BlockQuantMatmulBackend backend(fmt, fmt);
    std::vector<int> handles;
    std::vector<Matrix> acts;
    for (const auto& [k, n] : shapes) {
      handles.push_back(backend.prepare_weights(
          random_matrix(k, n, static_cast<std::uint64_t>(k * n)), "w"));
      for (const int m : {8, 1, 5})
        acts.push_back(random_matrix(m, k, static_cast<std::uint64_t>(m)));
    }
    Matrix out;
    const auto run_all = [&] {
      for (std::size_t s = 0; s < shapes.size(); ++s)
        for (std::size_t r = 0; r < 3; ++r)
          backend.matmul(acts[s * 3 + r], handles[s], out);
    };
    run_all();  // warm: scratch grows to the largest shapes
    g_allocations = 0;
    g_counting = true;
    run_all();
    run_all();
    g_counting = false;
    EXPECT_EQ(g_allocations.load(), 0) << fmt.name();
  }
}

}  // namespace
}  // namespace bbal::llm
