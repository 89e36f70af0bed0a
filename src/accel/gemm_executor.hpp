// Functional (bit-exact) model of the BBAL compute path: input encoder ->
// PE array integer block-dot products -> FP adder accumulation across
// K-blocks. It runs the served datapath itself, a one-shot
// llm::BlockQuantMatmulBackend; formats its integer kernel does not admit
// (llm/block_kernel.hpp) take the backend's float path.
#pragma once

#include "llm/tensor.hpp"
#include "quant/format.hpp"

namespace bbal::accel {

/// C = A x W with A rows and W columns encoded block-wise along K and every
/// block product computed on the integer datapath (as quant::dot_block).
[[nodiscard]] llm::Matrix execute_gemm_bit_exact(
    const llm::Matrix& acts, const llm::Matrix& weights,
    const quant::BlockFormat& act_fmt, const quant::BlockFormat& weight_fmt);

}  // namespace bbal::accel
