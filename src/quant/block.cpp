#include "quant/block.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/bitutils.hpp"
#include "common/float_parts.hpp"

namespace bbal::quant {
namespace {

/// Shift the p-bit mantissa by `net` positions (left if positive) and round
/// according to `rounding`. Returns the unclipped result and, via
/// `trunc_out`, the truncated (no-round) value used for overflow detection.
std::uint64_t shift_and_round(std::uint64_t mantissa, int net,
                              Rounding rounding, std::uint64_t& trunc_out) {
  if (net >= 0) {
    // Left shifts introduce no rounding. Mantissas are <= 2^24 and nets are
    // bounded by the exponent spread we admit, so this cannot overflow u64.
    assert(net < 40);
    trunc_out = mantissa << net;
    return trunc_out;
  }
  const int shift = -net;
  trunc_out = shr_trunc(mantissa, shift);
  return rounding == Rounding::kNearestEven ? shr_rne(mantissa, shift)
                                            : trunc_out;
}

/// Shared exponent of a block per Eq. (9) plus the configured strategy
/// offset (for BFP, d == 0 and delta defaults to 0: plain max alignment),
/// or kZeroBlockExponent with `any_nonzero` false for an all-zero block.
template <typename T>
int shared_exponent_of(std::span<const T> values, const BlockFormat& fmt,
                       bool& any_nonzero) {
  int max_e = kZeroBlockExponent;
  any_nonzero = false;
  for (const T v : values) {
    const FloatParts part =
        decompose(static_cast<double>(v), fmt.source_precision);
    if (!part.zero) {
      any_nonzero = true;
      max_e = std::max(max_e, part.exponent);
    }
  }
  if (!any_nonzero) return kZeroBlockExponent;
  return max_e - fmt.shift_distance() + fmt.strategy_delta;
}

/// Encode one value against a non-zero block's shared exponent. Forced
/// inline: it runs per element in every encode and quantise loop.
[[gnu::always_inline]] inline BlockElement encode_element(
    double value, int shared_exponent, const BlockFormat& fmt) {
  const int p = fmt.source_precision;
  const int m = fmt.mantissa_bits;
  const int d = fmt.shift_distance();
  const FloatParts part = decompose(value, p);
  BlockElement elem;
  elem.negative = part.negative;
  if (part.zero) return elem;

  const int n = part.exponent - shared_exponent;
  // Bitwise, not short-circuit: which group an element lands in is data
  // dependent, and a branch on it would mispredict.
  const bool flag = fmt.is_bbfp() & (n > 0);
  elem.flag = flag;
  // Window bottom: bits below it are dropped. High group sits d bits up.
  const int window_bottom = (p - m) + (flag ? d : 0);
  const int net = n - window_bottom;

  std::uint64_t trunc = 0;
  std::uint64_t rounded =
      shift_and_round(part.mantissa, net, fmt.rounding, trunc);

  const std::uint64_t cap = std::uint64_t{1} << m;
  if (rounded >= cap) {
    if (trunc < cap) {
      // Pure rounding carry past the window top: hardware sticky-rounds.
      rounded = cap - 1;
    } else if (fmt.overflow == OverflowPolicy::kSaturate) {
      rounded = cap - 1;
    } else {
      // Clip() semantics: bits above the stored window are lost.
      rounded &= cap - 1;
    }
  }
  elem.mantissa = static_cast<std::uint32_t>(rounded);
  return elem;
}

template <typename T>
void encode_block_impl(std::span<const T> values, const BlockFormat& fmt,
                       EncodedBlock& block) {
  assert(!values.empty());
  fmt.validate().expect("encode_block");
  block.format = fmt;
  block.elems.resize(values.size());
  bool any_nonzero = false;
  const int se = shared_exponent_of(values, fmt, any_nonzero);
  block.shared_exponent = se;
  if (!any_nonzero) {  // an all-zero block stores plain (positive) zeros
    std::fill(block.elems.begin(), block.elems.end(), BlockElement{});
    return;
  }
  for (std::size_t i = 0; i < values.size(); ++i)
    block.elems[i] = encode_element(static_cast<double>(values[i]), se, fmt);
}

template <typename T>
void quantise_impl(std::span<const T> values, const BlockFormat& fmt,
                   std::span<T> out) {
  assert(values.size() == out.size());
  fmt.validate().expect("quantise");
  const std::size_t bs = static_cast<std::size_t>(fmt.block_size);
  for (std::size_t start = 0; start < values.size(); start += bs) {
    const std::size_t len = std::min(bs, values.size() - start);
    const std::span<const T> in = values.subspan(start, len);
    bool any_nonzero = false;
    const int se = shared_exponent_of(in, fmt, any_nonzero);
    if (!any_nonzero) {  // an all-zero block decodes to plain zeros
      std::fill_n(out.subspan(start).begin(), len, T{0});
      continue;
    }
    for (std::size_t i = 0; i < len; ++i) {
      const BlockElement e = encode_element(static_cast<double>(in[i]), se, fmt);
      out[start + i] = static_cast<T>(decode_element(fmt, se, e));
    }
  }
}

}  // namespace

double EncodedBlock::step_low() const {
  return std::ldexp(1.0, shared_exponent - format.mantissa_bits + 1);
}

double EncodedBlock::step_high() const {
  return std::ldexp(step_low(), format.shift_distance());
}

double EncodedBlock::decode(std::size_t i) const {
  assert(i < elems.size());
  return decode_element(format, shared_exponent, elems[i]);
}

Status EncodedBlock::decode_all(std::span<double> out) const {
  if (out.size() != elems.size())
    return Status::error("decode_all: span size " +
                         std::to_string(out.size()) + " != block size " +
                         std::to_string(elems.size()));
  for (std::size_t i = 0; i < elems.size(); ++i) out[i] = decode(i);
  return Status::ok();
}

std::vector<double> EncodedBlock::decode_all() const {
  std::vector<double> out(elems.size());
  decode_all(std::span<double>(out)).expect("EncodedBlock::decode_all");
  return out;
}

std::size_t EncodedBlock::flag_count() const {
  return static_cast<std::size_t>(
      std::count_if(elems.begin(), elems.end(),
                    [](const BlockElement& e) { return e.flag; }));
}

EncodedBlock encode_block(std::span<const double> values,
                          const BlockFormat& fmt) {
  EncodedBlock block;
  encode_block_into(values, fmt, block);
  return block;
}

void encode_block_into(std::span<const double> values, const BlockFormat& fmt,
                       EncodedBlock& block) {
  encode_block_impl(values, fmt, block);
}

void encode_block_into(std::span<const float> values, const BlockFormat& fmt,
                       EncodedBlock& block) {
  encode_block_impl(values, fmt, block);
}

void quantise(std::span<const double> values, const BlockFormat& fmt,
              std::span<double> out) {
  quantise_impl(values, fmt, out);
}

std::vector<double> quantise(std::span<const double> values,
                             const BlockFormat& fmt) {
  std::vector<double> out(values.size());
  quantise(values, fmt, std::span<double>(out));
  return out;
}

void quantise(std::span<const float> values, const BlockFormat& fmt,
              std::span<float> out) {
  quantise_impl(values, fmt, out);
}

}  // namespace bbal::quant
