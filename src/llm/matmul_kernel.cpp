#include "llm/matmul_kernel.hpp"

#include <algorithm>

// On x86-64 the kernel is cloned per ISA level and the best clone for the
// running CPU is picked at load time. Vectorising runs across output
// columns, so every element keeps its serial accumulation order; with FP
// contraction off (CMakeLists.txt) no clone fuses the multiply and add, and
// all clones produce the same bits.
//
// ThreadSanitizer instruments the clone resolver, which the loader runs
// before the sanitizer's runtime is up (the process crashes at start-up),
// so thread-sanitized builds keep the single default version.
#if defined(__SANITIZE_THREAD__)
#define BBAL_KERNEL_TSAN
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BBAL_KERNEL_TSAN
#endif
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(BBAL_KERNEL_TSAN)
#define BBAL_KERNEL_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define BBAL_KERNEL_CLONES
#endif

namespace bbal::llm {

namespace {

// Output columns per pass: the tile's double accumulators (4 KiB) stay in
// L1 while a row of A streams over the matching slice of B.
constexpr int kColumnTile = 512;

}  // namespace

BBAL_KERNEL_CLONES
void matmul_rows(const float* __restrict a, const float* __restrict b,
                 float* __restrict c, int k, int n, std::int64_t i0,
                 std::int64_t i1) {
  double acc[kColumnTile];
  for (std::int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int j0 = 0; j0 < n; j0 += kColumnTile) {
      const int jn = std::min(kColumnTile, n - j0);
      std::fill(acc, acc + jn, 0.0);
      for (int kk = 0; kk < k; ++kk) {
        const double av = arow[kk];
        if (av == 0.0) continue;
        const float* brow = b + static_cast<std::int64_t>(kk) * n + j0;
        for (int j = 0; j < jn; ++j)
          acc[j] += av * static_cast<double>(brow[j]);
      }
      for (int j = 0; j < jn; ++j) crow[j0 + j] = static_cast<float>(acc[j]);
    }
  }
}

}  // namespace bbal::llm
