// Bit-manipulation helpers shared by the bit-exact datapath models.
#pragma once

#include <cassert>
#include <cstdint>

namespace bbal {

/// Mask with the low `bits` bits set. `bits` must be in [0, 64].
[[nodiscard]] constexpr std::uint64_t low_mask(int bits) noexcept {
  assert(bits >= 0 && bits <= 64);
  return bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << bits) - 1);
}

/// Index (0-based) of the most significant set bit; -1 for zero.
[[nodiscard]] constexpr int msb_index(std::uint64_t v) noexcept {
  int idx = -1;
  while (v != 0) {
    v >>= 1;
    ++idx;
  }
  return idx;
}

/// Number of bits needed to represent `v` (0 needs 0 bits).
[[nodiscard]] constexpr int bit_width_of(std::uint64_t v) noexcept {
  return msb_index(v) + 1;
}

/// Extract bit `i` (0-based) of `v`.
[[nodiscard]] constexpr bool bit_at(std::uint64_t v, int i) noexcept {
  assert(i >= 0 && i < 64);
  return ((v >> i) & 1u) != 0;
}

/// Extract the inclusive bit field [hi:lo] of `v` (0-based positions).
[[nodiscard]] constexpr std::uint64_t bit_field(std::uint64_t v, int hi,
                                                int lo) noexcept {
  assert(hi >= lo && lo >= 0 && hi < 64);
  return (v >> lo) & low_mask(hi - lo + 1);
}

/// Shift `v` right by `n` (n may exceed 63, result 0) — plain truncation.
[[nodiscard]] constexpr std::uint64_t shr_trunc(std::uint64_t v,
                                                int n) noexcept {
  assert(n >= 0);
  return n >= 64 ? 0 : (v >> n);
}

/// Shift `v` right by `n` with round-to-nearest-even on the dropped bits.
[[nodiscard]] constexpr std::uint64_t shr_rne(std::uint64_t v, int n) noexcept {
  assert(n >= 0);
  if (n == 0) return v;
  if (n >= 64) return 0;  // any representable v rounds to 0 at such shifts
  const std::uint64_t kept = v >> n;
  const std::uint64_t dropped = v & low_mask(n);
  const std::uint64_t half = std::uint64_t{1} << (n - 1);
  // Round up above the half-way point, and on a tie when that makes the
  // result even. Computed without branches: the dropped bits of quantised
  // data are effectively random, so a branch would mispredict often.
  const std::uint64_t above = dropped > half;
  const std::uint64_t tie = dropped == half;
  return kept + (above | (tie & kept & 1u));
}

/// True if `v` fits in `bits` unsigned bits.
[[nodiscard]] constexpr bool fits_unsigned(std::uint64_t v, int bits) noexcept {
  return bit_width_of(v) <= bits;
}

/// ceil(a / b) for positive integers.
[[nodiscard]] constexpr std::int64_t ceil_div(std::int64_t a,
                                              std::int64_t b) noexcept {
  assert(b > 0 && a >= 0);
  return (a + b - 1) / b;
}

}  // namespace bbal
