#include "llm/backend.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/threadpool.hpp"
#include "quant/block.hpp"

namespace bbal::llm {

namespace {

// Same inline cutoff as llm::matmul (tensor.cpp): tiny quantisation jobs
// (decoder single rows, per-head slices) skip the pool dispatch.
constexpr std::int64_t kParallelMinElements = 1 << 15;

/// body(0, n) inline, or in chunks across the pool when `parallel`. Each
/// chunk runs the same per-index code, so results do not depend on the
/// thread count.
template <typename Body>
void for_chunks(bool parallel, std::int64_t n, const Body& body) {
  if (parallel) {
    common::ThreadPool::global().parallel_for_chunks(0, n, /*grain=*/0, body);
  } else {
    body(0, n);
  }
}

/// Same shape and bytes: stricter than equal values, so safe for reuse.
bool same_bytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 || std::memcmp(a.flat().data(), b.flat().data(),
                                       a.size() * sizeof(float)) == 0);
}

}  // namespace

// --- Fp32MatmulBackend ------------------------------------------------------

int Fp32MatmulBackend::prepare_weights(const Matrix& w,
                                       const std::string& tag) {
  (void)tag;
  weights_.push_back(w);
  return static_cast<int>(weights_.size()) - 1;
}

void Fp32MatmulBackend::matmul(const Matrix& acts, int weight_handle,
                               Matrix& out) {
  assert(weight_handle >= 0 &&
         weight_handle < static_cast<int>(weights_.size()));
  llm::matmul(acts, weights_[static_cast<std::size_t>(weight_handle)], out);
}

void Fp32MatmulBackend::matmul_dynamic(const Matrix& a, const Matrix& b,
                                       Matrix& out) {
  llm::matmul(a, b, out);
}

// --- BlockQuantMatmulBackend ------------------------------------------------

BlockQuantMatmulBackend::BlockQuantMatmulBackend(quant::BlockFormat act_fmt,
                                                 quant::BlockFormat weight_fmt)
    : act_fmt_(act_fmt),
      weight_fmt_(weight_fmt),
      integer_(block_kernel_eligible(act_fmt, weight_fmt)) {
  act_fmt_.validate().expect("BlockQuantMatmulBackend activation format");
  weight_fmt_.validate().expect("BlockQuantMatmulBackend weight format");
}

std::string BlockQuantMatmulBackend::name() const {
  return act_fmt_.name();
}

std::int64_t BlockQuantMatmulBackend::weights_bytes() const {
  std::int64_t bytes = matrices_bytes(float_weights_);
  for (const PackedWeights& w : packed_weights_) bytes += w.bytes();
  return bytes;
}

Matrix BlockQuantMatmulBackend::quantise_weights(const Matrix& w) const {
  // Blocks run along K (rows of W) for each output column independently —
  // exactly the per-column weight vectors the PE array consumes. Columns
  // are independent, so they tile across the pool.
  Matrix q(w.rows(), w.cols());
  const int bs = weight_fmt_.block_size;
  for_chunks(static_cast<std::int64_t>(w.size()) >= kParallelMinElements,
             w.cols(), [&](std::int64_t j0, std::int64_t j1) {
               std::vector<float> buf(static_cast<std::size_t>(bs));
               for (int j = static_cast<int>(j0); j < j1; ++j) {
                 for (int k0 = 0; k0 < w.rows(); k0 += bs) {
                   const auto len = static_cast<std::size_t>(
                       std::min(bs, w.rows() - k0));
                   for (std::size_t i = 0; i < len; ++i)
                     buf[i] = w.at(k0 + static_cast<int>(i), j);
                   const std::span<float> col(buf.data(), len);
                   quant::quantise(col, weight_fmt_, col);
                   for (std::size_t i = 0; i < len; ++i)
                     q.at(k0 + static_cast<int>(i), j) = buf[i];
                 }
               }
             });
  return q;
}

void BlockQuantMatmulBackend::quantise_activations_into(const Matrix& acts,
                                                        Matrix& q) const {
  q.resize(acts.rows(), acts.cols());
  for_chunks(static_cast<std::int64_t>(acts.size()) >= kParallelMinElements,
             acts.rows(), [&](std::int64_t r0, std::int64_t r1) {
               for (int r = static_cast<int>(r0); r < r1; ++r)
                 quant::quantise(acts.row(r), act_fmt_, q.row(r));
             });
}

int BlockQuantMatmulBackend::prepare_weights(const Matrix& w,
                                             const std::string& tag) {
  (void)tag;
  if (!integer_) {
    float_weights_.push_back(quantise_weights(w));
    return static_cast<int>(float_weights_.size()) - 1;
  }
  PackedWeights& packed = packed_weights_.emplace_back();
  reset_packed_weights(packed, w.rows(), w.cols(), weight_fmt_.block_size);
  // Panels are disjoint column ranges, so they tile across the pool.
  for_chunks(static_cast<std::int64_t>(w.size()) >= kParallelMinElements,
             packed.panels(), [&](std::int64_t g0, std::int64_t g1) {
               pack_weight_panels(w, weight_fmt_, packed, static_cast<int>(g0),
                                  static_cast<int>(g1));
             });
  return static_cast<int>(packed_weights_.size()) - 1;
}

void BlockQuantMatmulBackend::matmul(const Matrix& acts, int weight_handle,
                                     Matrix& out) {
  const auto h = static_cast<std::size_t>(weight_handle);
  if (!integer_) {
    assert(h < float_weights_.size());
    quantise_activations_into(acts, act_scratch_);
    llm::matmul(act_scratch_, float_weights_[h], out);
    return;
  }
  assert(h < packed_weights_.size());
  const PackedWeights& w = packed_weights_[h];
  assert(acts.cols() == w.geo.k);
  const int m = acts.rows();
  const BlockKernelIsa isa = block_kernel_isa();
  // Q/K/V and gate/up multiply the same activations: encode only when
  // they differ, byte for byte, from the last call's.
  if (!same_bytes(acts, act_source_)) {
    reset_packed_rows(act_lanes_, m, acts.cols(), act_fmt_.block_size);
    for_chunks(static_cast<std::int64_t>(acts.size()) >= kParallelMinElements,
               m, [&](std::int64_t r0, std::int64_t r1) {
                 pack_rows(isa, acts, act_fmt_, act_lanes_,
                           static_cast<int>(r0), static_cast<int>(r1));
               });
    act_source_ = acts;
  }
  out.resize(m, w.n);
  // Row chunks above llm::matmul's cutoff: every row is the same serial
  // computation whichever thread runs it.
  const std::int64_t macs = static_cast<std::int64_t>(m) * w.geo.k * w.n;
  for_chunks(macs >= kMatmulParallelMinMacs && m > 1, m,
             [&](std::int64_t i0, std::int64_t i1) {
               block_gemm_rows(isa, act_lanes_, w, out, static_cast<int>(i0),
                               static_cast<int>(i1));
             });
}

void BlockQuantMatmulBackend::matmul_dynamic(const Matrix& a, const Matrix& b,
                                             Matrix& out) {
  // Attention score/context products are activation-activation GEMMs; the
  // paper's weight-activation quantisation (Table II) applies to the linear
  // (weight) layers, so these run on the FP path — matching the W&A
  // conventions of the baselines (OmniQuant/Oltron/Olive are WxAy on
  // weight layers only).
  llm::matmul(a, b, out);
}

std::unique_ptr<BlockQuantMatmulBackend> make_block_backend(
    const quant::BlockFormat& fmt) {
  return std::make_unique<BlockQuantMatmulBackend>(fmt, fmt);
}

}  // namespace bbal::llm
