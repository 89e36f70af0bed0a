// The integer block kernel's activation encoder: every variant this CPU
// runs writes the lanes and steps of the scalar encoder, which is
// quant::encode_block_lanes (itself checked against encode_block here).
// The GEMM variants are checked against a quant::dot_block oracle in
// test_simulator.cpp.
#include "llm/block_kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "llm/backend.hpp"
#include "quant/block.hpp"

namespace bbal::llm {
namespace {

using quant::BlockFormat;

/// Values that stress every encoder branch: wide exponent spreads (long
/// right shifts), ties and carries at the p-bit rounding, signed zeros,
/// normals below the zero-block exponent, the float extremes, and one
/// float subnormal.
Matrix edge_matrix(Rng& rng, int rows, int cols, int precision) {
  Matrix x(rows, cols);
  const int drop = std::max(0, 24 - precision);
  const auto scaled = [&](double v, int lo, int hi) {
    const auto e = static_cast<int>(rng.uniform_int(lo, hi));
    const double sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
    return static_cast<float>(sign * std::ldexp(v, e));
  };
  for (float& v : x.flat()) {
    switch (rng.uniform_int(0, 9)) {
      case 0:  // a tie at the p-bit rounding, odd or even kept part
        if (drop > 0) {
          const std::int64_t sig = rng.uniform_int(1 << 23, (1 << 24) - 1);
          const std::int64_t tie = (sig >> drop << drop) | (1 << (drop - 1));
          v = scaled(static_cast<double>(tie), -40, 10);
          break;
        }
        [[fallthrough]];
      case 1:  // all-ones significand: rounds up into a carry
        v = scaled(0xffffff, -50, 0);
        break;
      case 2:
        v = rng.uniform() < 0.5 ? 0.0f : -0.0f;
        break;
      case 3:  // tiny normals, down to below the zero-block exponent
        v = scaled(rng.uniform(1.0, 2.0), -126, -118);
        break;
      case 4:
        v = scaled(std::numeric_limits<float>::max(), 0, 0);
        break;
      default:  // gaussian over a wide exponent spread
        v = scaled(rng.gaussian(), -30, 30);
    }
  }
  x.at(0, 0) = 1e-40f;  // a float subnormal: the first block of row 0
  return x;
}

std::vector<BlockFormat> encoder_formats() {
  std::vector<BlockFormat> formats;
  const std::vector<BlockFormat> bases = {
      BlockFormat::bfp(2),     BlockFormat::bfp(4),     BlockFormat::bfp(6),
      BlockFormat::bfp(13),    BlockFormat::bbfp(3, 1), BlockFormat::bbfp(4, 2),
      BlockFormat::bbfp(4, 3), BlockFormat::bbfp(6, 3), BlockFormat::bbfp(6, 4),
      BlockFormat::bbfp(8, 5), BlockFormat::bbfp(9, 6)};
  int i = 0;
  for (const BlockFormat& base : bases)
    for (const int delta : {0, -3, -1, 1, 3, 64}) {
      BlockFormat f = base.with_delta(delta);
      // Cycle the other knobs so every format meets each of them.
      f.rounding = i % 2 == 0 ? quant::Rounding::kNearestEven
                              : quant::Rounding::kTruncate;
      f.overflow = i % 3 == 0 ? quant::OverflowPolicy::kSaturate
                              : quant::OverflowPolicy::kClipBits;
      f.source_precision = std::array{11, 24, 8, 16}[i % 4];
      f.block_size = std::array{32, 32, 17, 16, 7, 1}[i % 6];
      formats.push_back(f);
      ++i;
    }
  return formats;
}

std::string describe(const BlockFormat& f) {
  return f.name() + " delta " + std::to_string(f.strategy_delta) + " p " +
         std::to_string(f.source_precision) + " block " +
         std::to_string(f.block_size) +
         (f.rounding == quant::Rounding::kTruncate ? " trunc" : " rne") +
         (f.overflow == quant::OverflowPolicy::kSaturate ? " sat" : " clip");
}

TEST(BlockKernel, ScalarLanesAreTheLiftedEncodedBlock) {
  Rng rng(3);
  for (const BlockFormat& fmt : encoder_formats()) {
    const Matrix x = edge_matrix(rng, 4, 77, fmt.source_precision);
    for (int r = 0; r < x.rows(); ++r)
      for (int k0 = 0; k0 < x.cols(); k0 += fmt.block_size) {
        const auto len = static_cast<std::size_t>(
            std::min(fmt.block_size, x.cols() - k0));
        const std::span<const float> vals =
            x.row(r).subspan(static_cast<std::size_t>(k0), len);
        std::vector<std::int16_t> lanes(len);
        const int step = quant::encode_block_lanes(vals, fmt, lanes);
        const quant::EncodedBlock block = quant::encode_block(
            std::vector<double>(vals.begin(), vals.end()), fmt);
        ASSERT_EQ(step, block.shared_exponent - fmt.mantissa_bits + 1)
            << describe(fmt);
        for (std::size_t i = 0; i < len; ++i) {
          const quant::BlockElement& e = block.elems[i];
          const auto lifted = static_cast<int>(
              e.mantissa << (e.flag ? fmt.shift_distance() : 0));
          ASSERT_EQ(lanes[i], e.negative ? -lifted : lifted)
              << describe(fmt) << " value " << vals[i];
        }
      }
  }
}

TEST(BlockKernel, EveryEncoderVariantWritesTheScalarLanes) {
  Rng rng(5);
  const std::vector<BlockKernelIsa> isas = block_kernel_isas();
  for (const BlockFormat& fmt : encoder_formats())
    for (const int k : {1, 15, 16, 17, 32, 33, 128, 341}) {
      const Matrix x = edge_matrix(rng, 9, k, fmt.source_precision);
      PackedRows want;
      reset_packed_rows(want, x.rows(), k, fmt.block_size);
      pack_rows(BlockKernelIsa::kScalar, x, fmt, want, 0, x.rows());
      for (const BlockKernelIsa isa : isas) {
        PackedRows got;
        reset_packed_rows(got, x.rows(), k, fmt.block_size);
        pack_rows(isa, x, fmt, got, 0, x.rows());
        ASSERT_EQ(want.steps, got.steps)
            << describe(fmt) << " k " << k << " isa "
            << static_cast<int>(isa);
        ASSERT_EQ(want.lanes, got.lanes)
            << describe(fmt) << " k " << k << " isa "
            << static_cast<int>(isa);
      }
    }
}

TEST(BlockKernel, BackendReencodesOnlyChangedActivations) {
  // Q/K/V-style calls share one encoding; a changed activation of the same
  // shape, even in one element, is encoded afresh.
  Rng rng(8);
  const BlockFormat fmt = BlockFormat::bbfp(4, 2);
  Matrix w1(64, 20), w2(64, 20), a(3, 64);
  for (Matrix* m : {&w1, &w2, &a})
    for (float& v : m->flat()) v = static_cast<float>(rng.gaussian());
  Matrix b = a;
  b.at(2, 63) = -b.at(2, 63);
  BlockQuantMatmulBackend backend(fmt, fmt);
  const int h1 = backend.prepare_weights(w1, "w1");
  const int h2 = backend.prepare_weights(w2, "w2");
  const auto fresh = [&](const Matrix& acts, const Matrix& w) {
    BlockQuantMatmulBackend one(fmt, fmt);
    Matrix out;
    one.matmul(acts, one.prepare_weights(w, "w"), out);
    return out;
  };
  for (const auto& [acts, h, w] :
       {std::tuple{&a, h1, &w1}, std::tuple{&a, h2, &w2},
        std::tuple{&b, h2, &w2}, std::tuple{&a, h1, &w1}}) {
    Matrix out;
    backend.matmul(*acts, h, out);
    const Matrix want = fresh(*acts, *w);
    ASSERT_EQ(std::vector<float>(want.flat().begin(), want.flat().end()),
              std::vector<float>(out.flat().begin(), out.flat().end()));
  }
}

}  // namespace
}  // namespace bbal::llm
