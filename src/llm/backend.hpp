// Pluggable execution backends: the same transformer runs with FP32 math,
// block-quantised (BFP/BBFP) math, or any baseline quantiser, and with FP32
// or LUT-based nonlinear units. Table II swaps the matmul backend; Table IV
// swaps the nonlinear backend.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "llm/block_kernel.hpp"
#include "llm/tensor.hpp"
#include "quant/format.hpp"

namespace bbal::llm {

/// Payload bytes of a set of prepared weight matrices — the accounting
/// every float-storing MatmulBackend uses for weights_bytes().
[[nodiscard]] inline std::int64_t matrices_bytes(
    const std::vector<Matrix>& weights) {
  std::int64_t bytes = 0;
  for (const Matrix& w : weights)
    bytes += static_cast<std::int64_t>(w.size()) *
             static_cast<std::int64_t>(sizeof(float));
  return bytes;
}

/// Linear-layer executor. Weights are registered once (so backends can
/// pre-quantise them); activations are processed per call.
class MatmulBackend {
 public:
  virtual ~MatmulBackend() = default;

  /// Register a weight matrix; returns a handle for `matmul`.
  virtual int prepare_weights(const Matrix& w, const std::string& tag) = 0;

  /// out = acts x W[handle], with backend-specific quantisation applied.
  virtual void matmul(const Matrix& acts, int weight_handle, Matrix& out) = 0;

  /// Dynamic activation-by-activation product (attention scores/context):
  /// out = a x b with both sides quantised on the fly where applicable.
  virtual void matmul_dynamic(const Matrix& a, const Matrix& b,
                              Matrix& out) = 0;

  /// Bytes of prepared weight storage this backend holds (the quantised
  /// copies registered through prepare_weights). The serving engine
  /// surfaces this as the weights_bytes metric: with one shared backend
  /// the figure is paid once per engine, not once per execution slot.
  [[nodiscard]] virtual std::int64_t weights_bytes() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Nonlinear-layer executor (softmax rows and SiLU activations). SiLU is
/// vector-wise: block-based units (BFP/BBFP LUT engines) share one exponent
/// per 32-element chunk, so element context matters.
class NonlinearBackend {
 public:
  virtual ~NonlinearBackend() = default;
  virtual void softmax(std::span<float> xs) = 0;
  virtual void silu(std::span<float> xs) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

// --- Reference FP32 backends ------------------------------------------------

class Fp32MatmulBackend final : public MatmulBackend {
 public:
  int prepare_weights(const Matrix& w, const std::string& tag) override;
  void matmul(const Matrix& acts, int weight_handle, Matrix& out) override;
  void matmul_dynamic(const Matrix& a, const Matrix& b, Matrix& out) override;
  [[nodiscard]] std::int64_t weights_bytes() const override {
    return matrices_bytes(weights_);
  }
  [[nodiscard]] std::string name() const override { return "FP32"; }

 private:
  std::vector<Matrix> weights_;
};

class Fp32NonlinearBackend final : public NonlinearBackend {
 public:
  void softmax(std::span<float> xs) override { softmax_reference(xs); }
  void silu(std::span<float> xs) override {
    for (float& x : xs) x = silu_reference(x);
  }
  [[nodiscard]] std::string name() const override { return "FP32"; }
};

// --- Block-quantised backend ------------------------------------------------

/// The BBAL datapath as a host executor: weights encoded offline
/// column-block-wise along K, activations per call row-block-wise. Format
/// pairs the integer kernel admits (llm/block_kernel.hpp) are held as int16
/// lifted mantissas plus block steps and multiplied as exact integer block
/// sums; wider formats are quantised to float and run through llm::matmul.
/// The path is chosen once, in the constructor.
class BlockQuantMatmulBackend final : public MatmulBackend {
 public:
  BlockQuantMatmulBackend(quant::BlockFormat act_fmt,
                          quant::BlockFormat weight_fmt);

  int prepare_weights(const Matrix& w, const std::string& tag) override;
  void matmul(const Matrix& acts, int weight_handle, Matrix& out) override;
  void matmul_dynamic(const Matrix& a, const Matrix& b, Matrix& out) override;
  [[nodiscard]] std::int64_t weights_bytes() const override;
  [[nodiscard]] std::string name() const override;

  /// Row-block-wise activation quantisation into a caller-owned matrix
  /// (resized to acts' shape): the float path's activation step.
  void quantise_activations_into(const Matrix& acts, Matrix& q) const;

 private:
  [[nodiscard]] Matrix quantise_weights(const Matrix& w) const;

  quant::BlockFormat act_fmt_;
  quant::BlockFormat weight_fmt_;
  bool integer_;  ///< block_kernel_eligible(act_fmt_, weight_fmt_)
  std::vector<PackedWeights> packed_weights_;  ///< integer path
  std::vector<Matrix> float_weights_;          ///< float path
  // Per-call activation scratch, reused so that a warm matmul() allocates
  // nothing; backends are single-session objects (see bbal/registry.hpp),
  // so matmul() is never re-entered.
  PackedRows act_lanes_;  ///< integer path: act_source_, encoded
  Matrix act_source_;     ///< the activations act_lanes_ encodes
  Matrix act_scratch_;    ///< float path
};

/// Convenience: both sides in the same format (the paper's W&A setting).
[[nodiscard]] std::unique_ptr<BlockQuantMatmulBackend> make_block_backend(
    const quant::BlockFormat& fmt);

}  // namespace bbal::llm
