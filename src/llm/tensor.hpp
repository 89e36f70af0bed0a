// Minimal dense row-major matrix with the numerics the transformer needs.
//
// GEMMs accumulate in double: products of block-quantised values are exact
// in double, so the fake-quant executor matches the accelerator's integer
// datapath bit for bit at block level (tested in test_quant_executor).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace bbal::llm {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols) : rows_(rows), cols_(cols),
                               data_(static_cast<std::size_t>(rows) * cols) {}

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  /// Reshape to rows x cols, keeping the underlying capacity: a matrix
  /// that is resized back and forth between shapes it has already held
  /// never reallocates (the zero-allocation contract of the decode step
  /// loop). A no-op when the shape already matches. Contents are
  /// unspecified after a shape change — callers are expected to overwrite
  /// every element (llm::matmul does).
  void resize(int rows, int cols) {
    if (rows == rows_ && cols == cols_) return;
    rows_ = rows;
    cols_ = cols;
    data_.resize(static_cast<std::size_t>(rows) * cols);
  }

  [[nodiscard]] float& at(int r, int c) {
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }
  [[nodiscard]] float at(int r, int c) const {
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }

  [[nodiscard]] std::span<float> row(int r) {
    return {data_.data() + static_cast<std::size_t>(r) * cols_,
            static_cast<std::size_t>(cols_)};
  }
  [[nodiscard]] std::span<const float> row(int r) const {
    return {data_.data() + static_cast<std::size_t>(r) * cols_,
            static_cast<std::size_t>(cols_)};
  }

  [[nodiscard]] std::span<float> flat() { return data_; }
  [[nodiscard]] std::span<const float> flat() const { return data_; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

/// C = A * B. A: MxK, B: KxN, C resized to MxN (reusing its storage when
/// the shape already matches — no allocation in a steady-state loop).
/// C must not alias A or B. Double accumulation per output row.
void matmul(const Matrix& a, const Matrix& b, Matrix& c);
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

/// RMSNorm over each row: x <- x / rms(x) * gain.
void rmsnorm_rows(Matrix& x, std::span<const float> gain, float eps = 1e-5f);
void rmsnorm_row(std::span<float> x, std::span<const float> gain,
                 float eps = 1e-5f);

/// Reference FP32 softmax over a span (numerically stable, in place).
void softmax_reference(std::span<float> xs);

/// Reference FP32 SiLU: x * sigmoid(x).
[[nodiscard]] float silu_reference(float x);

/// a += b (same shape).
void add_inplace(Matrix& a, const Matrix& b);

}  // namespace bbal::llm
