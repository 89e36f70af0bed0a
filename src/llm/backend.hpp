// Pluggable execution backends: the same transformer runs with FP32 math,
// block-quantised (BFP/BBFP) math, or any baseline quantiser, and with FP32
// or LUT-based nonlinear units. Table II swaps the matmul backend; Table IV
// swaps the nonlinear backend.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

/// Fake-quant executor mathematically equivalent to the BBAL datapath:
/// weights quantised offline column-block-wise along K, activations
/// quantised on the fly row-block-wise along K, products accumulated in
/// double (the FP-adder path across 32-element blocks).
class BlockQuantMatmulBackend final : public MatmulBackend {
 public:
  BlockQuantMatmulBackend(quant::BlockFormat act_fmt,
                          quant::BlockFormat weight_fmt);

  int prepare_weights(const Matrix& w, const std::string& tag) override;
  void matmul(const Matrix& acts, int weight_handle, Matrix& out) override;
  void matmul_dynamic(const Matrix& a, const Matrix& b, Matrix& out) override;
  [[nodiscard]] std::int64_t weights_bytes() const override {
    return matrices_bytes(quantised_weights_);
  }
  [[nodiscard]] std::string name() const override;

  /// Row-block-wise activation quantisation into a caller-owned matrix
  /// (resized to acts' shape): the allocation-free path matmul() runs on.
  void quantise_activations_into(const Matrix& acts, Matrix& q) const;
  /// Quantise a weight matrix column-block-wise along K (exposed for tests).
  [[nodiscard]] Matrix quantise_weights(const Matrix& w) const;

 private:
  quant::BlockFormat act_fmt_;
  quant::BlockFormat weight_fmt_;
  std::vector<Matrix> quantised_weights_;
  Matrix act_scratch_;  ///< reused by matmul(); rows quantised per call
};

/// Convenience: both sides in the same format (the paper's W&A setting).
[[nodiscard]] std::unique_ptr<BlockQuantMatmulBackend> make_block_backend(
    const quant::BlockFormat& fmt);

}  // namespace bbal::llm
