// The row kernel behind llm::matmul, in its own translation unit so it can
// be compiled for vectorisation (see CMakeLists.txt) without changing the
// flags of the rest of the library.
#pragma once

#include <cstdint>

namespace bbal::llm {

/// Rows [i0, i1) of C = A * B for row-major A (MxK), B (KxN), C (MxN).
/// Each output element is the double sum of a[i][kk] * b[kk][j] over
/// ascending kk, skipping zero activations, rounded once to float: the
/// same value whatever instruction set the kernel runs on.
void matmul_rows(const float* a, const float* b, float* c, int k, int n,
                 std::int64_t i0, std::int64_t i1);

}  // namespace bbal::llm
