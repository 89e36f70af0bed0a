// The integer block-dot GEMM behind BlockQuantMatmulBackend: the paper's
// PE datapath (Eq. 7/10) as host code. Both operands are held as signed
// lifted mantissas ±m << (flag·d) in int16, one step exponent per K-block
// (E_s - m + 1, so an element is lane * 2^step). Each block dot is an exact
// int16 x int16 -> int32 sum; it is scaled exactly by its two power-of-two
// steps and added into a double accumulator in ascending block order, and
// the accumulator is rounded to float once. Every kernel variant computes
// that same value, so results do not depend on the instruction set.
//
// llm::BlockQuantMatmulBackend packs the operands and drives the kernel
// (its header includes this one for the member types); tests call each
// variant directly.
#pragma once

#include <cstdint>
#include <vector>

#include "llm/tensor.hpp"
#include "quant/format.hpp"

namespace bbal::llm {

/// Can this (activation, weight) format pair run on the integer kernel?
/// Both sides share a block size, each lifted mantissa fits int16
/// (m + d <= 15), a block sum fits int32
/// ((m_a + d_a) + (m_w + d_w) + ceil(log2 block) <= 31), and
/// |strategy_delta| <= 64, which keeps every block's combined step a
/// normal double for float inputs.
[[nodiscard]] bool block_kernel_eligible(const quant::BlockFormat& act,
                                         const quant::BlockFormat& weight);

/// The kernel's instruction-set variants.
enum class BlockKernelIsa { kScalar, kAvx2, kAvx512Vnni };

/// Output columns per weight panel: one 512-bit int32 accumulator.
inline constexpr int kBlockPanel = 16;

/// K laid out in blocks of `block` elements, each padded with zero lanes
/// to an even `lanes` so that consecutive K lanes pair up.
struct BlockGeometry {
  int k = 0;
  int block = 0;
  int lanes = 0;
  int blocks = 0;

  [[nodiscard]] static BlockGeometry of(int k, int block) {
    return {k, block, block + (block & 1), (k + block - 1) / block};
  }
};

/// A K x N weight matrix in 16-column panels. Lanes are
/// [panel][block][lane pair][column][2]: each lane pair of 16 columns is
/// 64 contiguous bytes. Steps are [panel][block][column]. Columns past N
/// are zero.
struct PackedWeights {
  BlockGeometry geo;
  int n = 0;
  std::vector<std::int16_t> lanes;
  std::vector<std::int16_t> steps;

  [[nodiscard]] int panels() const {
    return (n + kBlockPanel - 1) / kBlockPanel;
  }
  /// Bytes held: the int16 lanes plus the block step exponents.
  [[nodiscard]] std::int64_t bytes() const {
    return static_cast<std::int64_t>(lanes.size() + steps.size()) *
           static_cast<std::int64_t>(sizeof(std::int16_t));
  }
};

/// M activation rows. Lanes are [row][block][lane], steps [row][block].
struct PackedRows {
  BlockGeometry geo;
  int rows = 0;
  std::vector<std::int16_t> lanes;
  std::vector<std::int32_t> steps;
};

/// Size `w` for a k x n matrix in blocks of `block` and zero it.
void reset_packed_weights(PackedWeights& w, int k, int n, int block);
/// Encode weight panels [g0, g1) of `src` column-block-wise along K.
void pack_weight_panels(const Matrix& src, const quant::BlockFormat& fmt,
                        PackedWeights& w, int g0, int g1);

/// Size `a` for rows x k in blocks of `block`, reusing its storage.
void reset_packed_rows(PackedRows& a, int rows, int k, int block);

/// Encode activation rows [r0, r1) of `src` block-wise along K, with the
/// rounding of quant::encode_block_lanes. The AVX-512 variant encodes
/// blocks of up to 32 elements 16 lanes at a time; every variant writes
/// the same lanes and steps.
void pack_rows(BlockKernelIsa isa, const Matrix& src,
               const quant::BlockFormat& fmt, PackedRows& a, int r0, int r1);

/// The variants this CPU can run, scalar first.
[[nodiscard]] std::vector<BlockKernelIsa> block_kernel_isas();
/// The widest of them, chosen once per process.
[[nodiscard]] BlockKernelIsa block_kernel_isa();

/// Rows [i0, i1) of C = A x W through variant `isa`. C must already be
/// a.rows x w.n.
void block_gemm_rows(BlockKernelIsa isa, const PackedRows& a,
                     const PackedWeights& w, Matrix& c, int i0, int i1);

}  // namespace bbal::llm
