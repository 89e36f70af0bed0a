#include "accel/gemm_executor.hpp"

#include "llm/backend.hpp"

namespace bbal::accel {

llm::Matrix execute_gemm_bit_exact(const llm::Matrix& acts,
                                   const llm::Matrix& weights,
                                   const quant::BlockFormat& act_fmt,
                                   const quant::BlockFormat& weight_fmt) {
  // Weight stationary: encode W once, then stream the activation rows.
  llm::BlockQuantMatmulBackend backend(act_fmt, weight_fmt);
  const int handle = backend.prepare_weights(weights, "gemm");
  llm::Matrix out;
  backend.matmul(acts, handle, out);
  return out;
}

}  // namespace bbal::accel
