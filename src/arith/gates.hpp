// Gate-level tallies: every datapath model is composed from these counts and
// priced by a standard-cell library (hw/tech.hpp). This is the reproduction's
// stand-in for the paper's Design Compiler flow.
#pragma once

#include <string>

namespace bbal::arith {

/// Fractional counts are allowed: block-shared logic is amortised per lane.
struct GateTally {
  double and2 = 0;
  double or2 = 0;
  double xor2 = 0;
  double inv = 0;
  double mux2 = 0;
  double half_adder = 0;
  double full_adder = 0;
  double carry_cell = 0;  ///< sparse-adder cell: S = C ^ a, C' = C & a
  double dff = 0;

  GateTally& operator+=(const GateTally& other) {
    and2 += other.and2;
    or2 += other.or2;
    xor2 += other.xor2;
    inv += other.inv;
    mux2 += other.mux2;
    half_adder += other.half_adder;
    full_adder += other.full_adder;
    carry_cell += other.carry_cell;
    dff += other.dff;
    return *this;
  }

  [[nodiscard]] GateTally operator+(const GateTally& other) const {
    GateTally t = *this;
    t += other;
    return t;
  }

  [[nodiscard]] GateTally operator*(double n) const {
    GateTally t = *this;
    t.and2 *= n;
    t.or2 *= n;
    t.xor2 *= n;
    t.inv *= n;
    t.mux2 *= n;
    t.half_adder *= n;
    t.full_adder *= n;
    t.carry_cell *= n;
    t.dff *= n;
    return t;
  }
};

// --- Builders for the structural blocks used across the accelerator -------

/// n x m unsigned array multiplier (n, m >= 2): n*m partial-product ANDs,
/// (m-2) carry-save rows of n full adders plus a final row of half adders.
[[nodiscard]] GateTally array_multiplier(int n_bits, int m_bits);

/// Ripple-carry adder over `bits` full adders.
[[nodiscard]] GateTally ripple_adder(int bits);

/// Sparse-adder carry chain over `bits` (Eq. 13/14): one XOR + one AND per
/// bit instead of a full adder.
[[nodiscard]] GateTally carry_chain(int bits);

/// Barrel shifter: ceil(log2(range)) stages of `width` 2:1 muxes.
[[nodiscard]] GateTally barrel_shifter(int width, int shift_range);

/// `width`-bit 2:1 mux bank.
[[nodiscard]] GateTally mux_bank(int width);

/// `bits`-wide magnitude comparator (~1 XOR + 1 AND + 0.5 OR per bit).
[[nodiscard]] GateTally comparator(int bits);

/// Register bank of `bits` flip-flops.
[[nodiscard]] GateTally register_bank(int bits);

/// Leading-one detector / priority encoder over `bits`.
[[nodiscard]] GateTally leading_one_detector(int bits);

}  // namespace bbal::arith
