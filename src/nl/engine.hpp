// The BBFP-based nonlinear computation unit (Section IV.B): exponent-
// segmented lookup tables addressed directly by aligned mantissas.
//
// Emulation model: the input vector is encoded block-wise in the configured
// format (BBFP(10,5) in the paper, BFP10 for the ablation). Each element's
// m-bit aligned mantissa supplies the LUT address (top `addr_bits` bits);
// the sub-table is selected by the block's shared exponent and the
// element's flag bit, so resolution is `step * 2^(m - addr_bits)` — for
// BFP10 that step is 2^(m-o) = 32x coarser than BBFP(10,5), which is the
// mechanism behind Table IV's blow-up.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "quant/block.hpp"

namespace bbal::nl {

/// Scalar function identities the unit can compute (the Control Unit's
/// opcode space; "SILU and so on" in Table V).
enum class NlFunction { kSoftmax, kSilu, kGelu, kSigmoid, kExp };

/// Usage counters: LUT traffic and distinct sub-tables touched, for the
/// cost model and the segmented-loading story.
struct NlUsageStats {
  std::uint64_t lut_lookups = 0;
  std::uint64_t blocks_encoded = 0;
  std::uint64_t elements = 0;
  std::set<std::pair<int, bool>> subtables_touched;  // (shared exp, flag)
};

class NlUnitEngine {
 public:
  /// `fmt` must have >= addr_bits mantissa bits; the paper uses
  /// BBFP(10,5) with 7-bit LUT addresses.
  explicit NlUnitEngine(quant::BlockFormat fmt, int addr_bits = 7);

  /// Numerically-stable softmax computed entirely through the unit's
  /// pipeline: max -> subtract -> exp LUT -> adder tree -> divide -> encode.
  void softmax(std::span<float> xs);

  /// SiLU via the sigmoid LUT and the Mul unit, in place, block-wise.
  void silu(std::span<float> xs);

  /// GELU (tanh-free formulation x * Phi(x)) via a Phi LUT.
  void gelu(std::span<float> xs);

  /// Plain sigmoid through the LUT path.
  void sigmoid(std::span<float> xs);

  /// Generic elementwise f through the LUT path (building block; exposed
  /// for error-bound tests). Evaluates f per lookup; the built-in
  /// functions above read memoised tables instead, with identical results.
  void apply_lut(std::span<const double> xs, std::span<double> out,
                 const std::function<double(double)>& f);

  [[nodiscard]] const NlUsageStats& stats() const { return stats_; }

  [[nodiscard]] const quant::BlockFormat& format() const { return fmt_; }
  [[nodiscard]] int addr_bits() const { return addr_bits_; }

  /// Sub-tables provisioned to cover input exponents [e_min, e_max]
  /// (x 2 if both signs are needed): the paper's 18 (softmax) / 24 (SiLU).
  [[nodiscard]] static int provisioned_subtables(int e_min, int e_max,
                                                 bool both_signs);

  /// Storage of one sub-table in bits (2^addr entries of sign+exp+mantissa).
  [[nodiscard]] std::size_t subtable_bits() const;

 private:
  /// Functions with memoised sub-tables.
  enum Table { kExpTable, kSigmoidTable, kPhiTable, kTableCount };

  /// Effective step exponents (shared exponent + flag * d) whose sub-table
  /// rows are memoised; lookups outside the window evaluate directly.
  static constexpr int kLutMinExponent = -64;
  static constexpr int kLutExponents = 128;

  /// One function's sub-tables as this engine has loaded them: slot
  /// 2 * (e - kLutMinExponent) + sign points at the 2^addr_bits entries
  /// of step exponent e and that sign, or is null until first use.
  struct LutTable {
    double (*f)(double) = nullptr;
    double at_zero = 0.0;  ///< entry read by zero-mantissa elements
    std::array<const double*, 2 * kLutExponents> rows{};
  };

  /// The entries of one sub-table row. They depend only on (function,
  /// m, addr_bits, step exponent, sign), so every engine shares one
  /// process-wide copy, computed on first request and never freed.
  [[nodiscard]] const double* shared_row(Table table, int step_exponent,
                                         bool negative) const;

  /// Quantise a scalar LUT entry / output to the unit's mantissa precision.
  [[nodiscard]] double quantise_entry(double v) const;

  /// The input the entry at `addr` of a sub-table with quantisation step
  /// 2^(step_exponent - m + 1) is tabulated at: its bucket midpoint.
  [[nodiscard]] double bucket_midpoint(int step_exponent, bool negative,
                                       std::uint32_t addr) const;

  /// Memoised quantise_entry(f(bucket_midpoint(...))) for `table`.
  [[nodiscard]] double lut_entry(Table table, int step_exponent, bool negative,
                                 std::uint32_t addr);

  /// The unit's pipeline over one vector: encode xs as one block into
  /// block_, then out[i] = entry(element i, its step exponent).
  template <typename Entry>
  void run_lut(std::span<const double> xs, std::span<double> out,
               Entry&& entry);
  /// run_lut reading the memoised sub-tables of `table`.
  void apply_table(std::span<const double> xs, std::span<double> out,
                   Table table);
  /// lut_out_ = table(xs) through the LUT pass, with in_ holding xs and
  /// block_ its encoding.
  void lookup(std::span<const float> xs, Table table);
  /// The Mul-unit pipeline shared by SiLU and GELU: x * table(x).
  void gated(std::span<float> xs, Table table);

  quant::BlockFormat fmt_;
  int addr_bits_;
  NlUsageStats stats_;
  std::array<LutTable, kTableCount> tables_;
  // Per-call working storage, kept so steady-state calls allocate nothing.
  quant::EncodedBlock block_;
  std::vector<double> in_;
  std::vector<double> lut_out_;
};

}  // namespace bbal::nl
