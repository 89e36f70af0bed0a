// Transformer layer -> GEMM/nonlinear op lists: the workloads the paper's
// evaluation runs (decoder runtime breakdown, throughput, energy).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "llm/model.hpp"

namespace bbal::accel {

struct GemmShape {
  std::int64_t m = 1;
  std::int64_t k = 1;
  std::int64_t n = 1;
  std::string tag;
  /// Attention fusion (Fig. 7): score outputs flow into the on-chip
  /// nonlinear unit instead of DRAM...
  bool output_on_chip = false;
  /// ...and the context GEMM consumes them straight from the unit's buffer.
  bool acts_on_chip = false;

  [[nodiscard]] std::int64_t macs() const { return m * k * n; }
};

struct NlOp {
  enum class Kind { kSoftmax, kSilu };
  Kind kind = Kind::kSoftmax;
  std::int64_t vectors = 1;  ///< how many independent vectors
  std::int64_t width = 1;    ///< elements per vector
  [[nodiscard]] std::int64_t elements() const { return vectors * width; }
};

/// All GEMMs of one decode step (M = 1) at context length `ctx`:
/// QKV + attention score/context + output proj + gate/up/down, per layer —
/// prefill_chunk_gemms(cfg, ctx - 1, 1).
[[nodiscard]] std::vector<GemmShape> decode_step_gemms(
    const llm::ModelConfig& cfg, int ctx);

/// Nonlinear ops of one decode step: one softmax of width ctx per head per
/// layer, one SiLU of width d_ff per layer.
[[nodiscard]] std::vector<NlOp> decode_step_nl_ops(const llm::ModelConfig& cfg,
                                                   int ctx);

/// All GEMMs of a prefill pass over `seq` tokens.
[[nodiscard]] std::vector<GemmShape> prefill_gemms(const llm::ModelConfig& cfg,
                                                   int seq);

/// All GEMMs of one chunked-prefill step advancing a sequence by `chunk`
/// positions from context length `base` (serve::Engine's mixed-tick
/// pricing). Projections run fused at M = chunk — {chunk, d, 3d} QKV,
/// {chunk, d, d} proj, {chunk, d, ff} gate/up, {chunk, ff, d} down — so
/// the weight streaming that dominates the simulator's memory cycles is
/// paid once per chunk instead of once per token; attention stays
/// inherently per row, one {heads, dh, base+i+1} score and one
/// {heads, base+i+1, dh} context GEMM per chunk position i (causal ragged
/// contexts). With chunk == 1 the list is decode_step_gemms(cfg, base+1),
/// shape for shape.
[[nodiscard]] std::vector<GemmShape> prefill_chunk_gemms(
    const llm::ModelConfig& cfg, int base, int chunk);

/// prefill_chunk_gemms appended to `gemms` instead of returned, so a
/// caller pricing many sequences per tick can reuse one buffer.
void append_prefill_chunk_gemms(const llm::ModelConfig& cfg, int base,
                                int chunk, std::vector<GemmShape>& gemms);

/// Total MAC count of a GEMM list.
[[nodiscard]] std::int64_t total_macs(const std::vector<GemmShape>& gemms);

}  // namespace bbal::accel
