#include "llm/tensor.hpp"

#include <cassert>
#include <cmath>

#include "common/threadpool.hpp"
#include "llm/matmul_kernel.hpp"

namespace bbal::llm {

namespace {

// Below this many elements a row-wise pass runs inline: the per-loop setup
// (shared state + helper enqueue) would cost more than the work it
// distributes.
constexpr std::int64_t kParallelMinElements = 1 << 15;

}  // namespace

void matmul(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.cols() == b.rows());
  assert(&c != &a && &c != &b);
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  c.resize(m, n);
  // Output rows are independent, so the tile is a row chunk; every row is
  // computed by exactly the same kernel code regardless of thread count,
  // keeping results bit-identical (the determinism contract of the
  // parallel engine — see common/threadpool.hpp). The kernel keeps its
  // accumulators on the stack, so a steady-state decode loop pays no
  // allocation here.
  const auto row_chunk = [&](std::int64_t i0, std::int64_t i1) {
    matmul_rows(a.flat().data(), b.flat().data(), c.flat().data(), k, n, i0,
                i1);
  };
  const std::int64_t macs =
      static_cast<std::int64_t>(m) * k * n;
  if (macs < kMatmulParallelMinMacs || m == 1) {
    row_chunk(0, m);
  } else {
    common::ThreadPool::global().parallel_for_chunks(0, m, /*grain=*/0,
                                                     row_chunk);
  }
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul(a, b, c);
  return c;
}

void rmsnorm_row(std::span<float> x, std::span<const float> gain, float eps) {
  assert(x.size() == gain.size());
  double sq = 0.0;
  for (const float v : x) sq += static_cast<double>(v) * v;
  const double rms = std::sqrt(sq / static_cast<double>(x.size()) + eps);
  const auto inv = static_cast<float>(1.0 / rms);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = x[i] * inv * gain[i];
}

void rmsnorm_rows(Matrix& x, std::span<const float> gain, float eps) {
  if (static_cast<std::int64_t>(x.size()) < kParallelMinElements) {
    for (int r = 0; r < x.rows(); ++r) rmsnorm_row(x.row(r), gain, eps);
    return;
  }
  common::ThreadPool::global().parallel_for(0, x.rows(), [&](std::int64_t r) {
    rmsnorm_row(x.row(static_cast<int>(r)), gain, eps);
  });
}

void softmax_reference(std::span<float> xs) {
  if (xs.empty()) return;
  float mx = xs[0];
  for (const float v : xs) mx = std::max(mx, v);
  double sum = 0.0;
  for (float& v : xs) {
    v = std::exp(v - mx);
    sum += v;
  }
  const auto inv = static_cast<float>(1.0 / sum);
  for (float& v : xs) v *= inv;
}

float silu_reference(float x) {
  return x / (1.0f + std::exp(-x));
}

void add_inplace(Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  const std::span<const float> bs = b.flat();
  const std::span<float> as = a.flat();
  for (std::size_t i = 0; i < as.size(); ++i) as[i] += bs[i];
}

}  // namespace bbal::llm
