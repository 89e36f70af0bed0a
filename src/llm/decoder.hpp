// Incremental (KV-cached) decoding: token-by-token generation used to
// synthesise evaluation streams from the FP32 model, to drive the
// decode-phase runtime study (Fig. 1b workload shapes) and to execute the
// per-request forward steps of the serving engine (serve::Engine).
//
// Attention state is accessed through KVCacheView, so the same step
// arithmetic runs over any storage layout: the classic contiguous KVCache
// value type below (decoder-owned for step(token), caller-owned for
// step(token, cache)) or the serving engine's block-paged pool
// (serve::PagedKVPool), whose pages are shared across requests with a
// common prompt prefix. The step reads identical floats in identical order
// through either view, so the two layouts are bit-identical by
// construction (tested in test_paged_kv).
#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "llm/transformer.hpp"

namespace bbal::llm {

/// Per-sequence attention state: cached keys/values per layer, rows =
/// positions seen so far. Cheap to move; independent of any Decoder.
struct KVCache {
  KVCache() = default;
  explicit KVCache(int n_layers)
      : k(static_cast<std::size_t>(n_layers)),
        v(static_cast<std::size_t>(n_layers)) {}

  /// Positions cached so far (the context length of the sequence).
  [[nodiscard]] int length() const {
    return k.empty() ? 0 : static_cast<int>(k.front().size());
  }
  /// Drop all cached positions but keep the per-layer structure.
  void clear() {
    for (auto& layer : k) layer.clear();
    for (auto& layer : v) layer.clear();
  }

  // Per layer: cached keys/values, rows = positions seen so far.
  std::vector<std::vector<std::vector<float>>> k;
  std::vector<std::vector<std::vector<float>>> v;
};

/// Storage-agnostic access to one sequence's attention state. One decode
/// step advances a sequence by n >= 1 new positions (n == 1 for decode,
/// n == chunk for chunked prefill) and follows a strict protocol the
/// implementations may rely on:
///
///   1. length() is read once, before any append — the first of the n
///      positions the step writes is length(), the last length()+n-1;
///   2. for each layer l in order 0..n_layers-1, append(l, pos, k, v) is
///      called exactly once per new position, positions in increasing
///      order starting at length(); every layer appends the same position
///      set;
///   3. k_at/v_at are only called for layer l after append(l, pos, ...),
///      with pos <= the largest position appended for l so far, and the
///      returned spans stay valid for the rest of the step (no
///      reallocation mid-step);
///   4. the n new positions commit to length() once the last layer's
///      appends land.
///
/// An implementation whose length() is derived from storage (e.g. the
/// contiguous KVCacheRef below) may therefore report a transiently
/// inconsistent length mid-step; the decoder never observes it.
class KVCacheView {
 public:
  virtual ~KVCacheView() = default;
  /// Positions cached so far (the context length before this step).
  [[nodiscard]] virtual int length() const = 0;
  /// Store this step's K/V row for `layer` at position `pos`. `pos` is
  /// explicit (not derived from length()) because a chunked step appends
  /// several positions per layer before any of them commit to length().
  virtual void append(int layer, int pos, std::span<const float> k_row,
                      std::span<const float> v_row) = 0;
  /// Cached K/V row of `layer` at `pos` (d_model floats).
  [[nodiscard]] virtual std::span<const float> k_at(int layer,
                                                    int pos) const = 0;
  [[nodiscard]] virtual std::span<const float> v_at(int layer,
                                                    int pos) const = 0;
};

/// KVCacheView over a contiguous KVCache: the adapter the value-type APIs
/// (step(token) / step(token, cache)) run through.
class KVCacheRef final : public KVCacheView {
 public:
  explicit KVCacheRef(KVCache& cache) : cache_(cache) {}

  [[nodiscard]] int length() const override { return cache_.length(); }
  void append(int layer, int pos, std::span<const float> k_row,
              std::span<const float> v_row) override {
    // Contiguous storage appends in position order by construction.
    assert(pos ==
           static_cast<int>(cache_.k[static_cast<std::size_t>(layer)].size()));
    (void)pos;
    cache_.k[static_cast<std::size_t>(layer)].emplace_back(k_row.begin(),
                                                           k_row.end());
    cache_.v[static_cast<std::size_t>(layer)].emplace_back(v_row.begin(),
                                                           v_row.end());
  }
  [[nodiscard]] std::span<const float> k_at(int layer,
                                            int pos) const override {
    return cache_.k[static_cast<std::size_t>(layer)]
                  [static_cast<std::size_t>(pos)];
  }
  [[nodiscard]] std::span<const float> v_at(int layer,
                                            int pos) const override {
    return cache_.v[static_cast<std::size_t>(layer)]
                  [static_cast<std::size_t>(pos)];
  }

 private:
  KVCache& cache_;
};

class Decoder {
 public:
  /// Borrows the transformer (weights + backends) for its lifetime.
  explicit Decoder(Transformer& model);

  /// Clear the decoder-owned KV cache.
  void reset();

  /// Feed one token into the decoder-owned cache; returns the logits for
  /// the next-token distribution.
  [[nodiscard]] std::vector<float> step(int token);

  /// Feed one token into a caller-owned cache (serving engine path). The
  /// cache must come from make_cache() (or a moved-from equivalent) of a
  /// model with the same layer count. Bit-identical to the owned-cache
  /// step at the same context.
  [[nodiscard]] std::vector<float> step(int token, KVCache& cache);

  /// Feed one token through an arbitrary cache view (paged serving path).
  /// The view must hold state of a model with this decoder's layer count
  /// and d_model, and must have capacity for one more position. All the
  /// step() overloads run this arithmetic and are bit-identical at the
  /// same context.
  [[nodiscard]] std::vector<float> step(int token, KVCacheView& view);

  /// Fused batched step: advance tokens.size() independent sequences by
  /// one position in a single forward pass. Row r of the stacked
  /// (batch x d_model) activation matrix carries sequence r, so every
  /// projection (QKV, attention output, FFN up/down, logits) is one GEMM
  /// over the whole batch instead of batch M=1 calls — activations are
  /// quantised once per projection, and llm::matmul's row tiling spreads
  /// the batch over the thread pool. Attention stays per sequence over
  /// its own KVCacheView (ragged contexts are fine: each row attends over
  /// its own length), and because every llm::matmul output row is an
  /// independent serial accumulation, row r is bit-identical to a step()
  /// of sequence r alone — at any BBAL_THREADS (tested in test_decoder).
  ///
  /// tokens and views must be the same non-zero size, views non-null and
  /// distinct. logits_out is resized to (batch x vocab) reusing its
  /// storage, and the decoder's per-layer workspace persists across calls,
  /// so the step's own buffers are not reallocated once warm. A serving
  /// run as a whole still allocates: perfbench measures allocs_per_token
  /// at BBAL_THREADS=1 of about 76 (decode-bbfp), 22 (prefill-shared-fp16)
  /// and 15 (sweep-table2). Rows follow the caller's order, so retiring or
  /// back-filling sequences between calls just changes which views are
  /// passed.
  void step_batch(std::span<const int> tokens,
                  std::span<KVCacheView* const> views, Matrix& logits_out);

  /// Grouped fused step — the mixed prefill/decode tick primitive. The
  /// batch is split into views.size() groups: group g receives counts[g]
  /// consecutive tokens (counts[g] >= 1) appended to views[g] at positions
  /// length()..length()+counts[g]-1. All groups stack into ONE activation
  /// matrix of sum(counts) rows, so each projection stays a single batched
  /// GEMM whether a row is a decode step (count 1) or part of a prefill
  /// chunk; attention is causal within a chunk — row i of a group attends
  /// over positions 0..length()+i of its own view, reading the chunk's
  /// earlier rows back through the view exactly as a later step would.
  ///
  /// With the default LogitsMode::kLastPerGroup, logits_out is resized to
  /// (views.size() x vocab): one row per GROUP, the logits after each
  /// group's LAST token (mid-chunk positions never reach the LM head — a
  /// prompt's intermediate logits are discarded anyway, so the vocab GEMM
  /// runs at M = groups, not M = total rows).
  ///
  /// LogitsMode::kAllRows instead surfaces every batch row's logits —
  /// logits_out becomes (sum(counts) x vocab), row r the next-token
  /// distribution after the r-th stacked token. This is the speculative
  /// verify window: a target backend feeds [x0, d1..dk] as one group of
  /// k+1 rows and checks each drafted token against the argmax of the row
  /// before it (docs/SPECULATIVE.md). Row contents are unchanged — the
  /// mode only decides which rows reach the final-norm + LM-head GEMM, so
  /// the rows the default mode surfaces are bit-identical in both modes.
  ///
  /// Bit-identity: every output row of every projection is an independent
  /// serial accumulation over the same floats a one-token-per-step run
  /// would produce, and attention reads identical K/V floats in identical
  /// order, so a chunked prefill stream is bit-identical to the unchunked
  /// stream at any BBAL_THREADS (tested in test_decoder / test_serve).
  /// step_batch is exactly this call with every count == 1.
  enum class LogitsMode {
    kLastPerGroup,  ///< one logits row per group (its last token)
    kAllRows,       ///< one logits row per stacked token (verify window)
  };
  void step_groups(std::span<const int> tokens,
                   std::span<KVCacheView* const> views,
                   std::span<const int> counts, Matrix& logits_out,
                   LogitsMode mode = LogitsMode::kLastPerGroup);

  /// Chunked prefill of one sequence: feed tokens.size() prompt tokens
  /// through `view` in one grouped step — one (chunk x d_model) GEMM per
  /// projection instead of chunk M=1 steps. logits_out gets one row: the
  /// logits after the final token of the chunk.
  void prefill_chunk(std::span<const int> tokens, KVCacheView& view,
                     Matrix& logits_out);

  /// A fresh, empty cache sized for this decoder's model.
  [[nodiscard]] KVCache make_cache() const;

  /// Current context length of the decoder-owned cache.
  [[nodiscard]] int context_length() const { return cache_.length(); }

 private:
  /// Per-layer scratch reused across step_batch calls (and by the
  /// single-token step() overloads, which run as a batch of one): after
  /// the first call at a given batch size and context, no step allocates.
  struct BatchWorkspace {
    Matrix x;         ///< running hidden state, batch x d_model
    Matrix normed;    ///< RMSNorm input copy (attention + MLP)
    Matrix q, k, v;   ///< QKV projections, batch x d_model
    Matrix context;   ///< attention mix, batch x d_model
    Matrix attn_out;  ///< output projection
    Matrix gate, up, down;  ///< FFN activations
    Matrix logits;    ///< single-step logits (step() overloads)
    Matrix last;      ///< gathered per-group last rows (LM head input)
    std::vector<int> pos;  ///< per-row write position, read pre-append
    std::vector<int> ones;  ///< all-ones counts (step_batch forwarding)
    std::vector<std::span<const float>> krows, vrows;  ///< hoisted rows
    std::vector<float> scores;  ///< per-head attention scores
  };

  Transformer& model_;
  KVCache cache_;
  BatchWorkspace ws_;
};

}  // namespace bbal::llm
