#include "llm/block_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <span>

#include "common/float_parts.hpp"
#include "quant/block.hpp"

// The AVX2 and AVX-512 variants carry per-function target attributes and
// are chosen at run time by CPU feature, so they exist in every x86-64
// build whatever -march says (x86-64-v4 does not imply VNNI).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BBAL_BLOCK_KERNEL_X86
// GCC 12.2's AVX-512 headers self-initialise their "undefined" vectors
// (GCC bug 105593), which -Wuninitialized reports at every use.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace bbal::llm {

namespace {

/// Activation rows per tile: each weight lane pair loaded serves this
/// many rows.
constexpr int kRowTile = 4;

/// Operands of one tile: up to kRowTile rows against one weight panel.
struct Tile {
  const std::int16_t* a[kRowTile];   ///< row lanes at block 0
  const std::int32_t* ae[kRowTile];  ///< row block steps
  float* c[kRowTile];                ///< output rows at the panel's column 0
  const std::int16_t* w;             ///< panel lanes at block 0
  const std::int16_t* we;            ///< panel block steps
  int cols;                          ///< valid columns in the panel
  int blocks;
  int lanes;
};

using TileFn = void (*)(const Tile&);

/// Lanes l and l + 1 of a row as one 32-bit word, low lane first: the
/// operand the pair instructions broadcast.
inline std::int32_t lane_pair(const std::int16_t* row, int l) {
  std::int32_t v;
  std::memcpy(&v, row + l, sizeof v);
  return v;
}

template <int R>
void tile_scalar(const Tile& t) {
  double acc[R][kBlockPanel] = {};
  const std::int16_t* w = t.w;
  for (int b = 0; b < t.blocks; ++b) {
    std::int32_t s[R][kBlockPanel] = {};
    for (int l = 0; l < t.lanes; l += 2, w += 2 * kBlockPanel)
      for (int r = 0; r < R; ++r) {
        const std::int32_t a0 = t.a[r][b * t.lanes + l];
        const std::int32_t a1 = t.a[r][b * t.lanes + l + 1];
        for (int j = 0; j < kBlockPanel; ++j)
          s[r][j] += a0 * w[2 * j] + a1 * w[2 * j + 1];
      }
    const std::int16_t* we = t.we + b * kBlockPanel;
    for (int r = 0; r < R; ++r)
      for (int j = 0; j < kBlockPanel; ++j) {
        const auto sum = static_cast<double>(s[r][j]);
        acc[r][j] += scale_pow2(sum, t.ae[r][b] + we[j]);
      }
  }
  for (int r = 0; r < R; ++r)
    for (int j = 0; j < t.cols; ++j)
      t.c[r][j] = static_cast<float>(acc[r][j]);
}

#ifdef BBAL_BLOCK_KERNEL_X86

// The vector variants scale a block sum by 2^e built from its bits:
// biased = e + 1023 lies in [1, 2046] for every step the eligibility rule
// admits, so the scaling is one exact multiply, as in scale_pow2.

[[gnu::target("avx2")]] inline __m256d pow2_avx2(__m128i biased) {
  const __m256i wide = _mm256_cvtepi32_epi64(biased);
  return _mm256_castsi256_pd(_mm256_slli_epi64(wide, 52));
}

[[gnu::target("avx2")]] inline __m256i load_avx2(const std::int16_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// Eight int16 at p widened to int32.
[[gnu::target("avx2")]] inline __m256i widen_avx2(const std::int16_t* p) {
  const __m128i narrow = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm256_cvtepi16_epi32(narrow);
}

template <int R>
[[gnu::target("avx2")]] void tile_avx2(const Tile& t) {
  // 16 columns: two 8-lane int32 sums (vpmaddwd + vpaddd per lane pair),
  // four 4-lane double accumulators.
  __m256d acc[R][4];
  for (int r = 0; r < R; ++r)
    for (__m256d& q : acc[r]) q = _mm256_setzero_pd();
  const std::int16_t* w = t.w;
  for (int b = 0; b < t.blocks; ++b) {
    __m256i s[R][2];
    for (int r = 0; r < R; ++r) s[r][0] = s[r][1] = _mm256_setzero_si256();
    for (int l = 0; l < t.lanes; l += 2, w += 2 * kBlockPanel) {
      const __m256i w0 = load_avx2(w);
      const __m256i w1 = load_avx2(w + 16);
      for (int r = 0; r < R; ++r) {
        const int pair = lane_pair(t.a[r], b * t.lanes + l);
        const __m256i a = _mm256_set1_epi32(pair);
        s[r][0] = _mm256_add_epi32(s[r][0], _mm256_madd_epi16(a, w0));
        s[r][1] = _mm256_add_epi32(s[r][1], _mm256_madd_epi16(a, w1));
      }
    }
    const std::int16_t* we = t.we + b * kBlockPanel;
    const __m256i wexp[2] = {widen_avx2(we), widen_avx2(we + 8)};
    for (int r = 0; r < R; ++r) {
      const __m256i bias = _mm256_set1_epi32(t.ae[r][b] + 1023);
      for (int h = 0; h < 2; ++h) {
        const __m256i e = _mm256_add_epi32(wexp[h], bias);
        const __m128i sum_lo = _mm256_castsi256_si128(s[r][h]);
        const __m128i sum_hi = _mm256_extracti128_si256(s[r][h], 1);
        const __m256d s_lo = _mm256_cvtepi32_pd(sum_lo);
        const __m256d s_hi = _mm256_cvtepi32_pd(sum_hi);
        const __m256d p_lo = pow2_avx2(_mm256_castsi256_si128(e));
        const __m256d p_hi = pow2_avx2(_mm256_extracti128_si256(e, 1));
        acc[r][2 * h] = _mm256_add_pd(acc[r][2 * h], _mm256_mul_pd(s_lo, p_lo));
        acc[r][2 * h + 1] =
            _mm256_add_pd(acc[r][2 * h + 1], _mm256_mul_pd(s_hi, p_hi));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    float vals[kBlockPanel];
    for (int q = 0; q < 4; ++q)
      _mm_storeu_ps(vals + 4 * q, _mm256_cvtpd_ps(acc[r][q]));
    std::copy_n(vals, t.cols, t.c[r]);
  }
}

[[gnu::target("avx512f")]] inline __m512d pow2_avx512(__m256i biased) {
  const __m512i wide = _mm512_cvtepi32_epi64(biased);
  return _mm512_castsi512_pd(_mm512_slli_epi64(wide, 52));
}

template <int R>
[[gnu::target("avx512f,avx512vnni")]] void tile_avx512(const Tile& t) {
  // 16 columns: one int32 sum (one vpdpwssd per lane pair), two 8-lane
  // double accumulators.
  __m512d lo[R];
  __m512d hi[R];
  for (int r = 0; r < R; ++r) lo[r] = hi[r] = _mm512_setzero_pd();
  const std::int16_t* w = t.w;
  for (int b = 0; b < t.blocks; ++b) {
    __m512i s[R];
    for (int r = 0; r < R; ++r) s[r] = _mm512_setzero_si512();
    for (int l = 0; l < t.lanes; l += 2, w += 2 * kBlockPanel) {
      const __m512i wv = _mm512_loadu_si512(w);
      for (int r = 0; r < R; ++r) {
        const int pair = lane_pair(t.a[r], b * t.lanes + l);
        s[r] = _mm512_dpwssd_epi32(s[r], wv, _mm512_set1_epi32(pair));
      }
    }
    const auto* we = reinterpret_cast<const __m256i*>(t.we + b * kBlockPanel);
    const __m512i wexp = _mm512_cvtepi16_epi32(_mm256_loadu_si256(we));
    for (int r = 0; r < R; ++r) {
      const __m512i bias = _mm512_set1_epi32(t.ae[r][b] + 1023);
      const __m512i e = _mm512_add_epi32(wexp, bias);
      const __m512d s_lo = _mm512_cvtepi32_pd(_mm512_castsi512_si256(s[r]));
      const __m512d s_hi =
          _mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(s[r], 1));
      const __m512d p_lo = pow2_avx512(_mm512_castsi512_si256(e));
      const __m512d p_hi = pow2_avx512(_mm512_extracti64x4_epi64(e, 1));
      lo[r] = _mm512_add_pd(lo[r], _mm512_mul_pd(s_lo, p_lo));
      hi[r] = _mm512_add_pd(hi[r], _mm512_mul_pd(s_hi, p_hi));
    }
  }
  for (int r = 0; r < R; ++r) {
    float vals[kBlockPanel];
    _mm256_storeu_ps(vals, _mm512_cvtpd_ps(lo[r]));
    _mm256_storeu_ps(vals + 8, _mm512_cvtpd_ps(hi[r]));
    std::copy_n(vals, t.cols, t.c[r]);
  }
}

[[gnu::target("avx512f")]] inline __m512i splat(int v) {
  return _mm512_set1_epi32(v);
}

/// Round-to-nearest-even increment of x >> s, lane by lane (s >= 1): the
/// dropped bits are above half, or exactly half with an odd kept part.
[[gnu::target("avx512f")]] inline __mmask16 rne_up(__m512i x, __m512i kept,
                                                   __m512i s) {
  const __m512i one = splat(1);
  const __m512i mask = _mm512_sub_epi32(_mm512_sllv_epi32(one, s), one);
  const __m512i dropped = _mm512_and_si512(x, mask);
  const __m512i half = _mm512_sllv_epi32(one, _mm512_sub_epi32(s, one));
  const __mmask16 tie = _mm512_cmpeq_epi32_mask(dropped, half);
  return _mm512_cmpgt_epu32_mask(dropped, half) |
         (tie & _mm512_test_epi32_mask(kept, one));
}

/// quant::encode_block_lanes for one block of at most 32 floats, 16
/// elements per vector, with the scalar encoder's integer rules: decompose
/// to p bits, take the block's maximum exponent, round each element into
/// its window. Returns false, having written nothing, when the block holds
/// a float subnormal; the caller then encodes it with the scalar encoder.
[[gnu::target("avx512f")]] bool encode_block_avx512(
    const float* x, int len, const quant::BlockFormat& fmt,
    std::int16_t* lanes, std::int32_t& step) {
  const int p = fmt.source_precision;
  const int m = fmt.mantissa_bits;
  const int d = fmt.shift_distance();
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = splat(1);
  const auto first = [](int n) {
    return static_cast<__mmask16>((1u << std::clamp(n, 0, 16)) - 1);
  };
  const __mmask16 valid[2] = {first(len), first(len - 16)};
  __m512i bits[2];
  __m512i mant[2];
  __m512i expo[2];
  __mmask16 nonzero[2];
  __m512i max_e = splat(quant::kZeroBlockExponent);
  for (int h = 0; h < 2; ++h) {
    const __m512 v = _mm512_maskz_loadu_ps(valid[h], x + 16 * h);
    bits[h] = _mm512_castps_si512(v);
    const __m512i biased =
        _mm512_and_si512(_mm512_srli_epi32(bits[h], 23), splat(0xff));
    nonzero[h] = _mm512_test_epi32_mask(bits[h], splat(0x7fffffff));
    if (_mm512_mask_cmpeq_epi32_mask(nonzero[h], biased, zero) != 0)
      return false;
    // decompose(): the 24-bit significand rounded to p bits; a carry to
    // 2^p renormalises.
    const __m512i frac = _mm512_and_si512(bits[h], splat(0x7fffff));
    const __m512i sig = _mm512_or_si512(frac, splat(0x800000));
    __m512i mt = sig;
    if (p < 24) {
      const __m512i s = splat(24 - p);
      const __m512i kept = _mm512_srlv_epi32(sig, s);
      mt = _mm512_mask_add_epi32(kept, rne_up(sig, kept, s), kept, one);
    }
    const __mmask16 carry = _mm512_cmpeq_epi32_mask(mt, splat(1 << p));
    const __m512i e = _mm512_sub_epi32(biased, splat(127));
    mant[h] = _mm512_mask_srli_epi32(mt, carry, mt, 1);
    expo[h] = _mm512_mask_add_epi32(e, carry, e, one);
    max_e = _mm512_mask_max_epi32(max_e, nonzero[h], max_e, expo[h]);
  }
  int se = quant::kZeroBlockExponent;
  if ((nonzero[0] | nonzero[1]) != 0)
    se = _mm512_reduce_max_epi32(max_e) - d + fmt.strategy_delta;
  step = se - m + 1;

  const __m512i top = splat((1 << m) - 1);
  const bool nearest = fmt.rounding == quant::Rounding::kNearestEven;
  const bool saturate = fmt.overflow == quant::OverflowPolicy::kSaturate;
  for (int h = 0; h < 2; ++h) {
    const __m512i n = _mm512_sub_epi32(expo[h], splat(se));
    const __mmask16 flag =
        fmt.is_bbfp() ? _mm512_cmpgt_epi32_mask(n, zero) : __mmask16{0};
    const __m512i lift = _mm512_maskz_mov_epi32(flag, splat(d));
    const __m512i net =
        _mm512_sub_epi32(_mm512_sub_epi32(n, splat(p - m)), lift);
    const __mmask16 left = _mm512_cmpge_epi32_mask(net, zero);
    // net >= 0: an exact left shift. mant >= 2^(p-1), so it overflows the
    // window exactly when p - 1 + net >= m; bits shifted past 32 lie above
    // the m kept bits either way.
    const __m512i shifted = _mm512_sllv_epi32(mant[h], net);
    const __mmask16 left_over =
        left & _mm512_cmpge_epi32_mask(net, splat(m - p + 1));
    // net < 0: a right shift by s = -net, clamped to 31 (mant < 2^24
    // rounds to 0 from s = 25 on either way).
    const __m512i s = _mm512_min_epi32(_mm512_sub_epi32(zero, net), splat(31));
    const __m512i kept = _mm512_srlv_epi32(mant[h], s);
    __m512i rounded = kept;
    if (nearest) {
      const __mmask16 up = rne_up(mant[h], kept, s);
      rounded = _mm512_mask_add_epi32(kept, up, kept, one);
    }
    const __mmask16 right_over = static_cast<__mmask16>(~left) &
                                 _mm512_cmpgt_epu32_mask(rounded, top);
    // A pure rounding carry past the window top sticks at the top.
    const __mmask16 carry_over =
        right_over & _mm512_cmple_epu32_mask(kept, top);
    const __mmask16 over = left_over | right_over;
    const auto to_top =
        static_cast<__mmask16>((saturate ? over : 0) | carry_over);
    __m512i r = _mm512_mask_mov_epi32(rounded, left, shifted);
    r = _mm512_mask_and_epi32(r, over, r, top);
    r = _mm512_mask_mov_epi32(r, to_top, top);
    r = _mm512_sllv_epi32(r, lift);
    const __mmask16 negative = _mm512_cmplt_epi32_mask(bits[h], zero);
    r = _mm512_mask_sub_epi32(r, negative, zero, r);
    r = _mm512_maskz_mov_epi32(nonzero[h], r);
    _mm512_mask_cvtepi32_storeu_epi16(lanes + 16 * h, valid[h], r);
  }
  return true;
}

#endif  // BBAL_BLOCK_KERNEL_X86

/// The variant's tile function for R rows.
template <int R>
TileFn tile_of(BlockKernelIsa isa) {
#ifdef BBAL_BLOCK_KERNEL_X86
  if (isa == BlockKernelIsa::kAvx2) return tile_avx2<R>;
  if (isa == BlockKernelIsa::kAvx512Vnni) return tile_avx512<R>;
#endif
  assert(isa == BlockKernelIsa::kScalar);
  return tile_scalar<R>;
}

TileFn tile_of(BlockKernelIsa isa, int rows) {
  switch (rows) {
    case 1:
      return tile_of<1>(isa);
    case 2:
      return tile_of<2>(isa);
    case 3:
      return tile_of<3>(isa);
    default:
      return tile_of<kRowTile>(isa);
  }
}

int lifted_bits(const quant::BlockFormat& fmt) {
  return fmt.mantissa_bits + fmt.shift_distance();
}

}  // namespace

bool block_kernel_eligible(const quant::BlockFormat& act,
                           const quant::BlockFormat& weight) {
  const int sum_bits =
      std::bit_width(static_cast<unsigned>(act.block_size - 1));
  return act.block_size == weight.block_size && lifted_bits(act) <= 15 &&
         lifted_bits(weight) <= 15 &&
         lifted_bits(act) + lifted_bits(weight) + sum_bits <= 31 &&
         std::abs(act.strategy_delta) <= 64 &&
         std::abs(weight.strategy_delta) <= 64;
}

void reset_packed_weights(PackedWeights& w, int k, int n, int block) {
  w.geo = BlockGeometry::of(k, block);
  w.n = n;
  const auto panel_blocks = static_cast<std::size_t>(w.panels()) *
                            static_cast<std::size_t>(w.geo.blocks);
  const auto block_lanes = static_cast<std::size_t>(w.geo.lanes) * kBlockPanel;
  w.lanes.assign(panel_blocks * block_lanes, 0);
  w.steps.assign(panel_blocks * kBlockPanel, 0);
}

void pack_weight_panels(const Matrix& src, const quant::BlockFormat& fmt,
                        PackedWeights& w, int g0, int g1) {
  const BlockGeometry& geo = w.geo;
  std::vector<float> column(static_cast<std::size_t>(geo.block));
  std::vector<std::int16_t> lifted(static_cast<std::size_t>(geo.block));
  for (int g = g0; g < g1; ++g) {
    const int cols = std::min(kBlockPanel, w.n - g * kBlockPanel);
    for (int jj = 0; jj < cols; ++jj) {
      const int j = g * kBlockPanel + jj;
      for (int b = 0; b < geo.blocks; ++b) {
        const int k0 = b * geo.block;
        const auto len =
            static_cast<std::size_t>(std::min(geo.block, geo.k - k0));
        for (std::size_t i = 0; i < len; ++i)
          column[i] = src.at(k0 + static_cast<int>(i), j);
        const auto pb = static_cast<std::size_t>(g) * geo.blocks + b;
        const int step = quant::encode_block_lanes(
            std::span<const float>(column.data(), len), fmt,
            std::span<std::int16_t>(lifted.data(), len));
        w.steps[pb * kBlockPanel + jj] = static_cast<std::int16_t>(step);
        std::int16_t* dst = w.lanes.data() + pb * geo.lanes * kBlockPanel;
        for (std::size_t i = 0; i < len; ++i)
          dst[(i / 2) * 2 * kBlockPanel + jj * 2 + (i & 1)] = lifted[i];
      }
    }
  }
}

void reset_packed_rows(PackedRows& a, int rows, int k, int block) {
  a.geo = BlockGeometry::of(k, block);
  a.rows = rows;
  const auto row_blocks = static_cast<std::size_t>(rows) *
                          static_cast<std::size_t>(a.geo.blocks);
  a.lanes.resize(row_blocks * static_cast<std::size_t>(a.geo.lanes));
  a.steps.resize(row_blocks);
}

void pack_rows(BlockKernelIsa isa, const Matrix& src,
               const quant::BlockFormat& fmt, PackedRows& a, int r0, int r1) {
  const BlockGeometry& geo = a.geo;
#ifdef BBAL_BLOCK_KERNEL_X86
  const bool vector = isa == BlockKernelIsa::kAvx512Vnni && geo.block <= 32 &&
                      fmt.source_precision <= 24;
#else
  (void)isa;
#endif
  for (int r = r0; r < r1; ++r) {
    const std::span<const float> x = src.row(r);
    const auto rb = static_cast<std::size_t>(r) * geo.blocks;
    for (int b = 0; b < geo.blocks; ++b) {
      const int k0 = b * geo.block;
      const int len = std::min(geo.block, geo.k - k0);
      std::int16_t* dst = a.lanes.data() + (rb + b) * geo.lanes;
      std::int32_t& step = a.steps[rb + b];
      std::fill(dst + len, dst + geo.lanes, std::int16_t{0});
#ifdef BBAL_BLOCK_KERNEL_X86
      if (vector && encode_block_avx512(x.data() + k0, len, fmt, dst, step))
        continue;
#endif
      const auto n = static_cast<std::size_t>(len);
      step = quant::encode_block_lanes(
          x.subspan(static_cast<std::size_t>(k0), n), fmt,
          std::span<std::int16_t>(dst, n));
    }
  }
}

std::vector<BlockKernelIsa> block_kernel_isas() {
  std::vector<BlockKernelIsa> isas = {BlockKernelIsa::kScalar};
#ifdef BBAL_BLOCK_KERNEL_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) isas.push_back(BlockKernelIsa::kAvx2);
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vnni"))
    isas.push_back(BlockKernelIsa::kAvx512Vnni);
#endif
  return isas;
}

BlockKernelIsa block_kernel_isa() {
  static const BlockKernelIsa isa = block_kernel_isas().back();
  return isa;
}

void block_gemm_rows(BlockKernelIsa isa, const PackedRows& a,
                     const PackedWeights& w, Matrix& c, int i0, int i1) {
  assert(a.geo.k == w.geo.k && a.geo.block == w.geo.block);
  assert(c.rows() == a.rows && c.cols() == w.n);
  const auto row_lanes = static_cast<std::size_t>(a.geo.blocks) * a.geo.lanes;
  const auto panel_lanes =
      static_cast<std::size_t>(w.geo.blocks) * w.geo.lanes * kBlockPanel;
  Tile t{};
  t.blocks = a.geo.blocks;
  t.lanes = a.geo.lanes;
  for (int i = i0; i < i1; i += kRowTile) {
    const int rows = std::min(kRowTile, i1 - i);
    const TileFn tile = tile_of(isa, rows);
    for (int g = 0; g < w.panels(); ++g) {
      for (int r = 0; r < rows; ++r) {
        const auto row = static_cast<std::size_t>(i + r);
        t.a[r] = a.lanes.data() + row * row_lanes;
        t.ae[r] = a.steps.data() + row * a.geo.blocks;
        t.c[r] = c.row(i + r).data() + g * kBlockPanel;
      }
      t.w = w.lanes.data() + static_cast<std::size_t>(g) * panel_lanes;
      t.we = w.steps.data() +
             static_cast<std::size_t>(g) * w.geo.blocks * kBlockPanel;
      t.cols = std::min(kBlockPanel, w.n - g * kBlockPanel);
      tile(t);
    }
  }
}

}  // namespace bbal::llm
