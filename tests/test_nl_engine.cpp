// Nonlinear unit numerics: LUT accuracy bounds, softmax/SiLU behaviour,
// BBFP(10,5) vs BFP10 resolution gap (the Table IV mechanism), sub-table
// provisioning (18 softmax / 24 SiLU) and the baseline units.
#include "nl/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "llm/tensor.hpp"
#include "nl/backends.hpp"

namespace bbal::nl {
namespace {

quant::BlockFormat bbfp105() { return quant::BlockFormat::bbfp(10, 5); }
quant::BlockFormat bfp10() { return quant::BlockFormat::bfp(10); }

TEST(NlEngine, SoftmaxSumsToOne) {
  NlUnitEngine engine(bbfp105());
  Rng rng(1);
  std::vector<float> xs(64);
  for (auto& x : xs) x = static_cast<float>(rng.gaussian(0.0, 4.0));
  engine.softmax(xs);
  double sum = 0.0;
  for (const float v : xs) {
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 0.02);
}

TEST(NlEngine, SoftmaxCloseToReferenceWithBbfp) {
  NlUnitEngine engine(bbfp105());
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> xs(48);
    for (auto& x : xs) x = static_cast<float>(rng.gaussian(0.0, 3.0));
    std::vector<float> ref = xs;
    llm::softmax_reference(ref);
    engine.softmax(xs);
    for (std::size_t i = 0; i < xs.size(); ++i)
      EXPECT_NEAR(xs[i], ref[i], 0.01) << trial << ":" << i;
  }
}

TEST(NlEngine, Bfp10SoftmaxMuchCoarserThanBbfp105) {
  // The Table IV mechanism: with outliers widening the block range, BFP10's
  // max-aligned step destroys resolution near the top scores.
  Rng rng(3);
  double err_bbfp = 0.0;
  double err_bfp = 0.0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> xs(64);
    // Competitive top scores (small spread) plus one strongly negative
    // score that widens the (x - max) block range: BFP10 max-aligns to the
    // tail and loses the resolution of the near-zero top scores, while
    // BBFP(10,5)'s low group keeps a 2^(m-o) finer step for them.
    for (auto& x : xs) x = static_cast<float>(rng.gaussian(0.0, 0.6));
    xs[0] = -30.0f;
    std::vector<float> ref = xs;
    llm::softmax_reference(ref);

    std::vector<float> a = xs;
    NlUnitEngine(bbfp105()).softmax(a);
    std::vector<float> b = xs;
    NlUnitEngine(bfp10()).softmax(b);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      err_bbfp += std::fabs(a[i] - ref[i]);
      err_bfp += std::fabs(b[i] - ref[i]);
    }
  }
  // Per call the softmax normalisation cancels part of the common-mode
  // error, so the factor here is modest; the Table IV PPL gap comes from
  // compounding across every head, layer and token (bench_table4).
  EXPECT_LT(err_bbfp * 1.4, err_bfp);
}

TEST(NlEngine, LowGroupResolutionMechanism) {
  // Direct mechanism check via an identity LUT: with a wide-range block,
  // near-zero elements keep 2^(m-o)-finer resolution under BBFP(10,5) than
  // under BFP10 (whose step is hostage to the block max).
  NlUnitEngine bbfp(bbfp105());
  NlUnitEngine bfp(bfp10());
  Rng rng(33);
  double err_bbfp = 0.0;
  double err_bfp = 0.0;
  int counted = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> xs(32);
    for (auto& x : xs) x = -rng.uniform(0.0, 1.0);  // top scores
    xs[0] = -31.0;                                  // range-setting tail
    std::vector<double> a(32), b(32);
    auto identity = [](double x) { return x; };
    bbfp.apply_lut(xs, a, identity);
    bfp.apply_lut(xs, b, identity);
    for (std::size_t i = 1; i < xs.size(); ++i) {
      err_bbfp += std::fabs(a[i] - xs[i]);
      err_bfp += std::fabs(b[i] - xs[i]);
      ++counted;
    }
  }
  ASSERT_GT(counted, 0);
  EXPECT_LT(err_bbfp * 8.0, err_bfp);
}

TEST(NlEngine, SiluMatchesReferenceInBulk) {
  NlUnitEngine engine(bbfp105());
  Rng rng(4);
  std::vector<float> xs(96);
  for (auto& x : xs) x = static_cast<float>(rng.gaussian(0.0, 2.0));
  std::vector<float> ref = xs;
  for (auto& x : ref) x = llm::silu_reference(x);
  engine.silu(xs);
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_NEAR(xs[i], ref[i], 0.02 + 0.01 * std::fabs(ref[i])) << i;
}

TEST(NlEngine, SigmoidAndGeluWithinLutResolution) {
  NlUnitEngine engine(bbfp105());
  std::vector<float> xs = {-6.0f, -2.0f, -0.5f, 0.0f, 0.5f, 2.0f, 6.0f};
  std::vector<float> sig = xs;
  engine.sigmoid(sig);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double expected = 1.0 / (1.0 + std::exp(-xs[i]));
    EXPECT_NEAR(sig[i], expected, 0.02) << i;
  }
  std::vector<float> gel = xs;
  engine.gelu(gel);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double phi = 0.5 * (1.0 + std::erf(xs[i] / std::sqrt(2.0)));
    EXPECT_NEAR(gel[i], xs[i] * phi, 0.05 + 0.02 * std::fabs(xs[i])) << i;
  }
}

TEST(NlEngine, LutErrorBoundedByBucketWidth) {
  // Generic LUT property: |f(x_mid) - f(x)| <= Lip * bucket_width/2 plus
  // entry quantisation; for exp on [-1, 0] with BBFP(10,5) this is tiny.
  NlUnitEngine engine(bbfp105());
  Rng rng(5);
  std::vector<double> xs(32);
  for (auto& x : xs) x = -rng.uniform(0.01, 1.0);
  std::vector<double> out(32);
  engine.apply_lut(xs, out, [](double x) { return std::exp(x); });
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_NEAR(out[i], std::exp(xs[i]), 0.01) << i;
}

TEST(NlEngine, StatsTrackSubtables) {
  NlUnitEngine engine(bbfp105());
  std::vector<float> xs(32, 1.0f);
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<float>(i) * 0.25f - 4.0f;
  engine.softmax(xs);
  const NlUsageStats& stats = engine.stats();
  EXPECT_GT(stats.lut_lookups, 0u);
  EXPECT_GT(stats.blocks_encoded, 0u);
  EXPECT_FALSE(stats.subtables_touched.empty());
}

TEST(NlEngine, EnginesOnSeveralThreadsAgree) {
  // Engines share their memoised sub-table rows process-wide; engines
  // filling them concurrently must read exactly what one engine alone
  // computes. Odd mantissa widths keep the rows cold for this test.
  const quant::BlockFormat fmt = quant::BlockFormat::bbfp(9, 4);
  std::vector<std::vector<float>> inputs(8, std::vector<float>(96));
  Rng rng(31);
  for (auto& v : inputs)
    for (float& x : v) x = static_cast<float>(rng.gaussian(0.0, 3.0));
  const auto run = [&](std::vector<std::vector<float>>& vs) {
    NlUnitEngine engine(fmt);
    for (auto& v : vs) {
      engine.silu(v);
      engine.softmax(v);
    }
  };
  std::vector<std::vector<std::vector<float>>> outs(4, inputs);
  std::vector<std::thread> threads;
  for (auto& out : outs) threads.emplace_back([&run, &out] { run(out); });
  for (std::thread& t : threads) t.join();
  std::vector<std::vector<float>> serial = inputs;
  run(serial);
  for (const auto& out : outs) EXPECT_EQ(out, serial);
}

TEST(NlEngine, ProvisionedSubtablesMatchPaper) {
  // Softmax: exp over x-max in (-2^10, -2^-8], exponents -8..9 -> 18 tables.
  EXPECT_EQ(NlUnitEngine::provisioned_subtables(-8, 9, false), 18);
  // SiLU: sigmoid over |x| exponents -8..3, both signs -> 24 tables.
  EXPECT_EQ(NlUnitEngine::provisioned_subtables(-8, 3, true), 24);
}

TEST(NlEngine, SubtableStorageMatchesAddressWidth) {
  NlUnitEngine engine(bbfp105(), 7);
  // 128 entries x (1 + 5 + 10) bits.
  EXPECT_EQ(engine.subtable_bits(), 128u * 16u);
}

TEST(PseudoSoftmax, ApproximatesButCoarser) {
  PseudoSoftmaxBackend pseudo(3);
  Rng rng(6);
  double err_pseudo = 0.0;
  double err_bbfp = 0.0;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<float> xs(32);
    for (auto& x : xs) x = static_cast<float>(rng.gaussian(0.0, 2.5));
    std::vector<float> ref = xs;
    llm::softmax_reference(ref);
    std::vector<float> a = xs;
    pseudo.softmax(a);
    double sum = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      err_pseudo += std::fabs(a[i] - ref[i]);
      sum += a[i];
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
    std::vector<float> b = xs;
    LutNonlinearBackend lut(bbfp105());
    lut.softmax(b);
    for (std::size_t i = 0; i < xs.size(); ++i)
      err_bbfp += std::fabs(b[i] - ref[i]);
  }
  EXPECT_GT(err_pseudo, err_bbfp);  // [32] trades accuracy for area
}

TEST(Base2Softmax, NearExact) {
  Base2SoftmaxBackend unit(27);
  Rng rng(7);
  std::vector<float> xs(40);
  for (auto& x : xs) x = static_cast<float>(rng.gaussian(0.0, 3.0));
  std::vector<float> ref = xs;
  llm::softmax_reference(ref);
  unit.softmax(xs);
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_NEAR(xs[i], ref[i], 1e-4) << i;
}

TEST(LutBackend, SelectiveQuantisationModes) {
  LutNonlinearBackend softmax_only(bbfp105(), true, false);
  LutNonlinearBackend silu_only(bbfp105(), false, true);
  EXPECT_NE(softmax_only.name().find("softmax-only"), std::string::npos);
  EXPECT_NE(silu_only.name().find("silu-only"), std::string::npos);

  // silu in softmax_only mode must be exact FP32.
  std::vector<float> xs = {-1.5f, 0.25f, 3.0f};
  std::vector<float> ref = xs;
  for (auto& x : ref) x = llm::silu_reference(x);
  softmax_only.silu(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_FLOAT_EQ(xs[i], ref[i]);
}

}  // namespace
}  // namespace bbal::nl
