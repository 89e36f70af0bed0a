// Golden numerics of the quantised datapath: every literal below was
// recorded from the straightforward reference implementations (per-element
// LUT evaluation, frexp-based decompose, per-bit KV packing, scalar matmul)
// and pins their outputs bit for bit. Faster implementations must keep
// every hash unchanged at any thread count.
//
// No committed BENCH row runs the LUT nonlinear unit (every row uses an
// FP32 nonlinear), so this file is what guards its numerics.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bbal/session.hpp"
#include "common/float_parts.hpp"
#include "common/threadpool.hpp"
#include "llm/tensor.hpp"
#include "nl/engine.hpp"
#include "quant/block.hpp"
#include "quant/kv_codec.hpp"
#include "serve/engine.hpp"
#include "serve/workload.hpp"

namespace bbal {
namespace {

/// FNV-1a over 64-bit words.
class Hash {
 public:
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(float v) {
    mix(static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(v)));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// splitmix64: a portable input generator (no std distribution, whose
/// output differs between standard libraries).
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [-1, 1) with 53 random bits.
  double unit() {
    return static_cast<double>(next() >> 11) * 0x1p-52 - 1.0;
  }

 private:
  std::uint64_t s_;
};

/// Seeded float vectors: lengths 1..400, scales 2^-6..2^6, a sprinkling
/// of exact zeros and a few wide-range outliers.
std::vector<std::vector<float>> nl_inputs() {
  std::vector<std::vector<float>> out;
  Gen gen(11);
  const int lengths[] = {1, 2, 3, 7, 31, 32, 33, 64, 100, 128, 341, 400};
  for (const int len : lengths) {
    for (int scale_exp = -6; scale_exp <= 6; scale_exp += 3) {
      std::vector<float> v(static_cast<std::size_t>(len));
      for (float& x : v) {
        const std::uint64_t r = gen.next();
        double val = gen.unit() * std::ldexp(1.0, scale_exp);
        if (r % 17 == 0) val = 0.0;
        if (r % 29 == 0) val *= 64.0;
        x = static_cast<float>(val);
      }
      out.push_back(std::move(v));
    }
  }
  return out;
}

void mix_stats(Hash& h, const nl::NlUsageStats& s) {
  h.mix(s.lut_lookups);
  h.mix(s.blocks_encoded);
  h.mix(s.elements);
  h.mix(static_cast<std::uint64_t>(s.subtables_touched.size()));
  for (const auto& [exp, flag] : s.subtables_touched) {
    h.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(exp)));
    h.mix(static_cast<std::uint64_t>(flag));
  }
}

using NlOp = void (nl::NlUnitEngine::*)(std::span<float>);

std::uint64_t nl_hash(const quant::BlockFormat& fmt, NlOp op) {
  // One engine across every vector, so state carried between calls (and
  // the cumulative stats) is part of what is pinned.
  nl::NlUnitEngine engine(fmt);
  Hash h;
  for (std::vector<float> v : nl_inputs()) {
    (engine.*op)(v);
    for (const float x : v) h.mix(x);
    mix_stats(h, engine.stats());
  }
  return h.value();
}

TEST(DatapathGolden, NlUnitEngine) {
  const quant::BlockFormat bbfp = quant::BlockFormat::bbfp(10, 5);
  const quant::BlockFormat bfp = quant::BlockFormat::bfp(10);
  EXPECT_EQ(nl_hash(bbfp, &nl::NlUnitEngine::softmax), 13136189611920522397ull);
  EXPECT_EQ(nl_hash(bbfp, &nl::NlUnitEngine::silu), 1872711444558646042ull);
  EXPECT_EQ(nl_hash(bbfp, &nl::NlUnitEngine::gelu), 13965562223772850577ull);
  EXPECT_EQ(nl_hash(bbfp, &nl::NlUnitEngine::sigmoid), 12954546025136632927ull);
  EXPECT_EQ(nl_hash(bfp, &nl::NlUnitEngine::softmax), 447813550679457117ull);
  EXPECT_EQ(nl_hash(bfp, &nl::NlUnitEngine::silu), 5790951927278604622ull);
  EXPECT_EQ(nl_hash(bfp, &nl::NlUnitEngine::gelu), 2656030486543581818ull);
  EXPECT_EQ(nl_hash(bfp, &nl::NlUnitEngine::sigmoid), 4314636350783483381ull);
}

TEST(DatapathGolden, NlApplyLut) {
  nl::NlUnitEngine engine(quant::BlockFormat::bbfp(10, 5));
  Gen gen(5);
  Hash h;
  for (int len = 1; len <= 96; len += 19) {
    std::vector<double> xs(static_cast<std::size_t>(len));
    for (double& x : xs) x = gen.unit() * 6.0;
    std::vector<double> out(xs.size());
    engine.apply_lut(xs, out, [](double x) { return std::tanh(x); });
    for (const double y : out) h.mix(y);
  }
  mix_stats(h, engine.stats());
  EXPECT_EQ(h.value(), 16952173775395993577ull);
}

/// Quantiser inputs: seeded values over a wide exponent range plus the
/// edge cases 0, -0, 1e-30 and float subnormals.
std::vector<float> quant_inputs() {
  std::vector<float> v;
  Gen gen(7);
  for (int i = 0; i < 4000; ++i) {
    const int e = static_cast<int>(gen.next() % 40) - 20;
    v.push_back(static_cast<float>(gen.unit() * std::ldexp(1.0, e)));
  }
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float normal_min = std::numeric_limits<float>::min();
  const float edge[] = {0.0f, -0.0f, 1e-30f, -1e-30f, 1.0f, -1.0f, 65504.0f};
  for (int rep = 0; rep < 7; ++rep) {
    const auto scale = static_cast<float>(rep + 1);
    for (const float x : edge) v.push_back(x * scale);
    v.push_back(tiny * scale);
    v.push_back(normal_min * scale);
  }
  return v;
}

std::uint64_t quantise_hash(const quant::BlockFormat& fmt) {
  const std::vector<float> in = quant_inputs();
  Hash h;
  // Whole vector (full blocks plus a short tail) and a few odd offsets so
  // block boundaries land on different elements.
  for (const std::size_t off : {0u, 5u, 37u}) {
    const std::span<const float> src = std::span<const float>(in).subspan(off);
    std::vector<float> out(src.size());
    quant::quantise(src, fmt, out);
    for (const float x : out) h.mix(x);
    std::vector<double> wide(src.begin(), src.end());
    for (const double x : quant::quantise(wide, fmt)) h.mix(x);
  }
  return h.value();
}

TEST(DatapathGolden, QuantiseFloat) {
  using quant::BlockFormat;
  EXPECT_EQ(quantise_hash(BlockFormat::bfp(4)), 7656276451109147958ull);
  EXPECT_EQ(quantise_hash(BlockFormat::bbfp(4, 2)), 14719299751613164072ull);
  EXPECT_EQ(quantise_hash(BlockFormat::bbfp(6, 3)), 2877379367411388488ull);
  EXPECT_EQ(quantise_hash(BlockFormat::bfp(8)), 5358708629465970176ull);
}

TEST(DatapathGolden, QuantiseEdgeValues) {
  // Sign of zero survives; values far below the block's window flush to
  // a zero of their own sign.
  const float in[] = {0.0f, -0.0f, 1e-30f, -1e-30f, 1.0f};
  float out[5];
  quant::quantise(std::span<const float>(in), quant::BlockFormat::bbfp(4, 2),
                  std::span<float>(out));
  EXPECT_FALSE(std::signbit(out[0]));
  EXPECT_TRUE(std::signbit(out[1]));
  EXPECT_EQ(out[2], 0.0f);
  EXPECT_TRUE(std::signbit(out[3]));
  EXPECT_EQ(out[4], 1.0f);
}

TEST(DatapathGolden, Decompose) {
  Gen gen(3);
  Hash h;
  using Lim = std::numeric_limits<double>;
  std::vector<double> xs = {0.0, -0.0, 1.0, -1.0, 1.0 - 0x1p-53, 0x1.fffp-1030};
  for (const double x : {Lim::denorm_min(), Lim::min(), Lim::max()}) {
    xs.push_back(x);
    xs.push_back(-x);
  }
  for (int i = 0; i < 3000; ++i) {
    const int e = static_cast<int>(gen.next() % 2100) - 1075;
    xs.push_back(std::ldexp(gen.unit(), e));
  }
  for (const double x : xs) {
    for (const int p : {2, 5, 11, 24, 52, 53}) {
      const FloatParts parts = decompose(x, p);
      h.mix(static_cast<std::uint64_t>(parts.negative));
      h.mix(static_cast<std::uint64_t>(parts.zero));
      h.mix(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(parts.exponent)));
      h.mix(parts.mantissa);
      h.mix(compose(parts, p));
    }
  }
  EXPECT_EQ(h.value(), 1075552014552196277ull);
}

std::uint64_t kv_bytes_hash(const std::string& format, int row_elems) {
  const quant::KvPageCodec codec(quant::KvFormat::parse(format).expect("kv"),
                                 row_elems);
  Gen gen(static_cast<std::uint64_t>(row_elems));
  Hash h;
  std::vector<float> row(static_cast<std::size_t>(row_elems));
  std::vector<std::uint8_t> bytes(codec.encoded_row_bytes());
  std::vector<float> back(row.size());
  for (int r = 0; r < 24; ++r) {
    for (float& x : row) {
      const std::uint64_t bits = gen.next();
      x = static_cast<float>(gen.unit() *
                             std::ldexp(1.0, static_cast<int>(bits % 12) - 6));
      if (bits % 13 == 0) x = 0.0f;
    }
    if (r == 0) std::fill(row.begin(), row.end(), 0.0f);
    codec.encode_row(row, bytes);
    codec.decode_row(bytes, back);
    for (const std::uint8_t b : bytes) h.mix(static_cast<std::uint64_t>(b));
    for (const float x : back) h.mix(x);
  }
  return h.value();
}

TEST(DatapathGolden, KvCodecBytes) {
  // The packed layout itself is pinned (not only the round trip): stored
  // pages must stay readable byte for byte.
  EXPECT_EQ(kv_bytes_hash("INT8", 128), 14060232525256793386ull);
  EXPECT_EQ(kv_bytes_hash("BFP4", 128), 14882673369270502868ull);
  EXPECT_EQ(kv_bytes_hash("BBFP(4,2)", 128), 11683555042020463352ull);
  EXPECT_EQ(kv_bytes_hash("BBFP(6,3)", 100), 6646449646156623572ull);
  EXPECT_EQ(kv_bytes_hash("BFP8", 45), 8628605245334155431ull);
}

std::uint64_t matmul_hash(int m) {
  const int k = 130;
  const int n = 67;
  Gen gen(static_cast<std::uint64_t>(m) * 31 + 1);
  llm::Matrix a(m, k);
  llm::Matrix b(k, n);
  for (float& x : a.flat()) x = static_cast<float>(gen.unit() * 3.0);
  for (float& x : b.flat()) x = static_cast<float>(gen.unit());
  // Exact zero activations (a whole row and scattered entries) exercise
  // the zero-skip.
  for (int c = 0; c < k; ++c) a.at(0, c) = 0.0f;
  for (int r = 1; r < m; ++r) a.at(r, (r * 7) % k) = 0.0f;
  llm::Matrix c;
  llm::matmul(a, b, c);
  Hash h;
  for (const float x : c.flat()) h.mix(x);
  return h.value();
}

TEST(DatapathGolden, Matmul) {
  for (const int threads : {1, 4}) {
    common::ThreadPool::set_global_threads(threads);
    EXPECT_EQ(matmul_hash(1), 10951396911022221987ull) << threads;
    EXPECT_EQ(matmul_hash(8), 2078199957723319322ull) << threads;
    EXPECT_EQ(matmul_hash(64), 6908974371178764048ull) << threads;
    EXPECT_EQ(matmul_hash(256), 3240237068058375548ull) << threads;
  }
  common::ThreadPool::set_global_threads(common::ThreadPool::env_threads());
}

/// BBFP(4,2) GEMMs, the BBFP-LUT(10,5) nonlinear unit and BBFP(4,2) KV
/// pages: the paper's full stack through the serving engine.
serve::Report lut_stream(int threads) {
  static const std::shared_ptr<const llm::PreparedModel> prepared = [] {
    llm::ModelConfig cfg;
    cfg.name = "golden";
    cfg.vocab = 96;
    cfg.d_model = 64;
    cfg.n_layers = 2;
    cfg.n_heads = 2;
    cfg.d_ff = 96;
    cfg.seed = 41;
    return prepare_shared(cfg, /*eval_tokens=*/96);
  }();
  common::ThreadPool::set_global_threads(threads);
  serve::Engine::Options options;
  options.max_batch = 4;
  options.kv_format = "BBFP(4,2)";
  serve::Engine engine =
      serve::Engine::create(prepared, quant::spec_of("BBFP(4,2)"),
                            quant::spec_of("BBFP-LUT(10,5)"),
                            std::move(options))
          .expect("engine");
  const std::vector<serve::Request> requests = serve::synthetic_requests(
      prepared->config, /*count=*/10, /*base_prompt_len=*/6,
      /*max_new_tokens=*/8);
  for (const serve::Request& req : requests) engine.submit(req);
  serve::Report report = engine.run();
  common::ThreadPool::set_global_threads(common::ThreadPool::env_threads());
  return report;
}

TEST(DatapathGolden, LutServingStream) {
  for (const int threads : {1, 4}) {
    const serve::Report report = lut_stream(threads);
    EXPECT_EQ(report.completed, 10) << threads;
    EXPECT_EQ(report.stream_hash, 1758460346u) << threads;
  }
}

}  // namespace
}  // namespace bbal
