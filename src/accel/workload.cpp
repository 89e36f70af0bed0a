#include "accel/workload.hpp"

namespace bbal::accel {

std::vector<GemmShape> decode_step_gemms(const llm::ModelConfig& cfg,
                                         int ctx) {
  return prefill_chunk_gemms(cfg, ctx - 1, 1);
}

std::vector<NlOp> decode_step_nl_ops(const llm::ModelConfig& cfg, int ctx) {
  std::vector<NlOp> ops;
  ops.push_back({NlOp::Kind::kSoftmax,
                 static_cast<std::int64_t>(cfg.n_heads) * cfg.n_layers, ctx});
  ops.push_back({NlOp::Kind::kSilu, cfg.n_layers, cfg.d_ff});
  return ops;
}

std::vector<GemmShape> prefill_gemms(const llm::ModelConfig& cfg, int seq) {
  std::vector<GemmShape> gemms;
  const std::int64_t d = cfg.d_model;
  const std::int64_t dh = cfg.head_dim();
  const std::int64_t heads = cfg.n_heads;
  const std::int64_t ff = cfg.d_ff;
  const std::int64_t s = seq;
  for (int l = 0; l < cfg.n_layers; ++l) {
    gemms.push_back({s, d, 3 * d, "qkv"});
    // Attention is fused through the on-chip nonlinear unit (Fig. 7).
    gemms.push_back({heads * s, dh, s, "attn_scores", /*out_on_chip=*/true,
                     /*acts_on_chip=*/false});
    gemms.push_back({heads * s, s, dh, "attn_context", /*out_on_chip=*/false,
                     /*acts_on_chip=*/true});
    gemms.push_back({s, d, d, "proj"});
    gemms.push_back({s, d, ff, "gate"});
    gemms.push_back({s, d, ff, "up"});
    gemms.push_back({s, ff, d, "down"});
  }
  return gemms;
}

std::vector<GemmShape> prefill_chunk_gemms(const llm::ModelConfig& cfg,
                                           int base, int chunk) {
  std::vector<GemmShape> gemms;
  append_prefill_chunk_gemms(cfg, base, chunk, gemms);
  return gemms;
}

void append_prefill_chunk_gemms(const llm::ModelConfig& cfg, int base,
                                int chunk, std::vector<GemmShape>& gemms) {
  const std::int64_t d = cfg.d_model;
  const std::int64_t dh = cfg.head_dim();
  const std::int64_t heads = cfg.n_heads;
  const std::int64_t ff = cfg.d_ff;
  const std::int64_t m = chunk;
  for (int l = 0; l < cfg.n_layers; ++l) {
    gemms.push_back({m, d, 3 * d, "qkv"});
    // Attention is fused through the on-chip nonlinear unit (Fig. 7) and
    // stays per chunk row: row i attends over base+i+1 causal positions.
    for (int i = 0; i < chunk; ++i) {
      const std::int64_t ctx = base + i + 1;
      gemms.push_back({heads, dh, ctx, "attn_scores", /*out_on_chip=*/true,
                       /*acts_on_chip=*/false});
      gemms.push_back({heads, ctx, dh, "attn_context", /*out_on_chip=*/false,
                       /*acts_on_chip=*/true});
    }
    gemms.push_back({m, d, d, "proj"});
    gemms.push_back({m, d, ff, "gate"});
    gemms.push_back({m, d, ff, "up"});
    gemms.push_back({m, ff, d, "down"});
  }
}

std::int64_t total_macs(const std::vector<GemmShape>& gemms) {
  std::int64_t total = 0;
  for (const GemmShape& g : gemms) total += g.macs();
  return total;
}

}  // namespace bbal::accel
