// Cycle-level simulator invariants and the iso-area machinery behind Fig. 8.
#include "accel/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "accel/gemm_executor.hpp"
#include "common/rng.hpp"
#include "llm/backend.hpp"
#include "llm/block_kernel.hpp"
#include "quant/block.hpp"
#include "quant/dot.hpp"

namespace bbal::accel {
namespace {

AcceleratorConfig base_config() {
  AcceleratorConfig cfg;
  cfg.strategy = "BBFP(4,2)";
  cfg.array_rows = 16;
  cfg.array_cols = 16;
  return cfg;
}

TEST(Simulator, CyclesLowerBoundedByComputeRoof) {
  const AcceleratorConfig cfg = base_config();
  const GemmShape g{256, 512, 512, "fc"};
  const GemmStats s = simulate_gemm(cfg, g);
  EXPECT_EQ(s.macs, 256ll * 512 * 512);
  // Cycles can never beat MACs / PEs.
  EXPECT_GE(s.cycles, static_cast<double>(s.macs) /
                          static_cast<double>(cfg.pe_count()));
  EXPECT_LE(s.utilization(cfg), 1.0);
  EXPECT_GT(s.utilization(cfg), 0.3);  // big square GEMM should run well
}

TEST(Simulator, GemvUtilizationIsPoor) {
  // Decode-phase GEMVs (M = 1) cannot fill a weight-stationary array.
  const AcceleratorConfig cfg = base_config();
  const GemmStats s = simulate_gemm(cfg, {1, 512, 512, "gemv"});
  EXPECT_LT(s.utilization(cfg), 0.2);
}

TEST(Simulator, MoreMacsMoreCycles) {
  const AcceleratorConfig cfg = base_config();
  const double c1 = simulate_gemm(cfg, {64, 256, 256, "a"}).cycles;
  const double c2 = simulate_gemm(cfg, {128, 256, 256, "b"}).cycles;
  EXPECT_GT(c2, c1);
}

TEST(Simulator, BiggerArrayFasterOnBigGemm) {
  AcceleratorConfig small = base_config();
  AcceleratorConfig big = base_config();
  big.array_rows = big.array_cols = 32;
  const GemmShape g{512, 1024, 1024, "fc"};
  EXPECT_LT(simulate_gemm(big, g).cycles, simulate_gemm(small, g).cycles);
}

TEST(Simulator, LowBitFormatsMoveFewerDramBytes) {
  AcceleratorConfig bfp6 = base_config();
  bfp6.strategy = "BFP6";
  AcceleratorConfig fp16 = base_config();
  fp16.strategy = "FP16";
  const GemmShape g{128, 512, 512, "fc"};
  EXPECT_LT(simulate_gemm(bfp6, g).dram_bytes,
            simulate_gemm(fp16, g).dram_bytes);
}

TEST(Simulator, BandwidthStarvedRunsAreMemoryBound) {
  AcceleratorConfig cfg = base_config();
  cfg.dram_gbps = 0.5;  // starve
  const GemmStats s = simulate_gemm(cfg, {4, 2048, 2048, "skinny"});
  EXPECT_GT(s.memory_cycles, s.compute_cycles);
  EXPECT_GE(s.cycles, s.memory_cycles);
}

TEST(Simulator, EnergyComponentsPositiveAndDramScalesWithBits) {
  const AcceleratorConfig cfg = base_config();
  const std::vector<GemmShape> w = {{128, 512, 512, "fc"}};
  const RunStats run = simulate_workload(cfg, w);
  EXPECT_GT(run.energy.core_j, 0.0);
  EXPECT_GT(run.energy.buffer_j, 0.0);
  EXPECT_GT(run.energy.dram_j, 0.0);
  EXPECT_GT(run.energy.static_j, 0.0);

  AcceleratorConfig fp16 = cfg;
  fp16.strategy = "FP16";
  const RunStats run16 = simulate_workload(fp16, w);
  EXPECT_GT(run16.energy.dram_j, run.energy.dram_j);
}

TEST(IsoArea, PeCountsScaleInverselyWithPeArea) {
  const double budget = 150000.0;  // um^2
  const AcceleratorConfig bfp4 = iso_area_config("BFP4", budget);
  const AcceleratorConfig bbfp31 = iso_area_config("BBFP(3,1)", budget);
  EXPECT_GT(bbfp31.pe_count(), bfp4.pe_count());
  // Both fit the budget.
  EXPECT_LE(bfp4.pe_array_area_um2(), budget * 1.02);
  EXPECT_LE(bbfp31.pe_array_area_um2(), budget * 1.02);
}

TEST(IsoArea, HeadlineClaim_Bbfp31FasterThanBfp4) {
  // Fig. 8: at iso PE area, BBFP(3,1) beats BFP4 on throughput (paper: 40%).
  const double budget = 150000.0;
  const std::vector<GemmShape> w = {{256, 1024, 1024, "fc"},
                                    {256, 1024, 2752, "mlp"}};
  const RunStats bfp4 = simulate_workload(iso_area_config("BFP4", budget), w);
  const RunStats bbfp31 =
      simulate_workload(iso_area_config("BBFP(3,1)", budget), w);
  EXPECT_GT(bbfp31.throughput_gops, bfp4.throughput_gops * 1.1);
}

TEST(Workload, DecodeStepShapes) {
  llm::ModelConfig cfg;
  cfg.d_model = 128;
  cfg.n_layers = 2;
  cfg.n_heads = 4;
  cfg.d_ff = 344;
  const auto gemms = decode_step_gemms(cfg, 1024);
  EXPECT_EQ(gemms.size(), 7u * 2u);
  // Attention terms scale with ctx.
  const auto g512 = decode_step_gemms(cfg, 512);
  EXPECT_GT(total_macs(gemms), total_macs(g512));
  const auto nl = decode_step_nl_ops(cfg, 1024);
  ASSERT_EQ(nl.size(), 2u);
  EXPECT_EQ(nl[0].width, 1024);
  EXPECT_EQ(nl[0].vectors, 4 * 2);
}

TEST(Workload, DecodeStepIsAOneRowPrefillChunk) {
  llm::ModelConfig cfg;
  cfg.d_model = 128;
  cfg.n_layers = 2;
  cfg.n_heads = 4;
  cfg.d_ff = 344;
  for (const int ctx : {1, 2, 17, 1024}) {
    const auto decode = decode_step_gemms(cfg, ctx);
    const auto chunk = prefill_chunk_gemms(cfg, ctx - 1, 1);
    ASSERT_EQ(decode.size(), chunk.size()) << "ctx " << ctx;
    for (std::size_t i = 0; i < decode.size(); ++i) {
      EXPECT_EQ(decode[i].m, chunk[i].m) << "ctx " << ctx << " gemm " << i;
      EXPECT_EQ(decode[i].k, chunk[i].k) << "ctx " << ctx << " gemm " << i;
      EXPECT_EQ(decode[i].n, chunk[i].n) << "ctx " << ctx << " gemm " << i;
      EXPECT_EQ(decode[i].tag, chunk[i].tag) << "ctx " << ctx << " gemm " << i;
      EXPECT_EQ(decode[i].output_on_chip, chunk[i].output_on_chip);
      EXPECT_EQ(decode[i].acts_on_chip, chunk[i].acts_on_chip);
    }
  }
}

TEST(Workload, PrefillScalesQuadraticallyInAttention) {
  llm::ModelConfig cfg;
  cfg.d_model = 128;
  cfg.n_layers = 1;
  cfg.n_heads = 4;
  cfg.d_ff = 344;
  const auto a = total_macs(prefill_gemms(cfg, 256));
  const auto b = total_macs(prefill_gemms(cfg, 512));
  EXPECT_GT(static_cast<double>(b) / static_cast<double>(a), 2.0);
}

/// C = A x W computed without the GEMM kernel: every block encoded with
/// quant::encode_block, each block product on quant::dot_block's integer
/// datapath, and the block values summed in ascending order in double.
llm::Matrix block_oracle(const llm::Matrix& a, const llm::Matrix& w,
                         const quant::BlockFormat& act_fmt,
                         const quant::BlockFormat& weight_fmt) {
  const int k = a.cols();
  const int bs = act_fmt.block_size;
  const auto encode = [&](auto value_at, const quant::BlockFormat& fmt) {
    std::vector<quant::EncodedBlock> blocks;
    for (int k0 = 0; k0 < k; k0 += bs) {
      std::vector<double> vals;
      for (int x = k0; x < std::min(k, k0 + bs); ++x)
        vals.push_back(value_at(x));
      blocks.push_back(quant::encode_block(vals, fmt));
    }
    return blocks;
  };
  std::vector<std::vector<quant::EncodedBlock>> rows;
  std::vector<std::vector<quant::EncodedBlock>> cols;
  for (int i = 0; i < a.rows(); ++i)
    rows.push_back(encode([&](int x) { return a.at(i, x); }, act_fmt));
  for (int j = 0; j < w.cols(); ++j)
    cols.push_back(encode([&](int x) { return w.at(x, j); }, weight_fmt));
  llm::Matrix out(a.rows(), w.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < w.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t b = 0; b < rows[i].size(); ++b)
        acc += quant::dot_block(rows[i][b], cols[j][b]).value;
      out.at(i, j) = static_cast<float>(acc);
    }
  return out;
}

void expect_same_bits(const llm::Matrix& want, const llm::Matrix& got,
                      const std::string& what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  for (int i = 0; i < want.rows(); ++i)
    for (int j = 0; j < want.cols(); ++j) {
      const auto want_bits = std::bit_cast<std::uint32_t>(want.at(i, j));
      const auto got_bits = std::bit_cast<std::uint32_t>(got.at(i, j));
      ASSERT_EQ(want_bits, got_bits) << what << " at " << i << "," << j;
    }
}

/// Heavy-tailed values with an all-zero row and an all-zero K-block.
llm::Matrix generated_matrix(Rng& rng, int rows, int cols, bool by_row) {
  llm::Matrix x(rows, cols);
  for (float& v : x.flat())
    v = static_cast<float>(rng.heavy_tailed(0.5, 0.05, 30.0));
  const int outer = by_row ? rows : cols;
  const int inner = by_row ? cols : rows;
  auto at = [&](int o, int i) -> float& {
    return by_row ? x.at(o, i) : x.at(i, o);
  };
  if (outer > 1)
    for (int i = 0; i < inner; ++i) at(outer / 2, i) = 0.0f;
  for (int i = 32; i < std::min(inner, 64); ++i) at(0, i) = 0.0f;
  return x;
}

TEST(GemmExecutor, MatchesBackendAndBlockOracleBitForBit) {
  // Every eligible Table 2 format, a mixed act/weight pair and the
  // strategy_delta neighbours, over ragged K (short, exact and
  // multi-block), decode- and prefill-sized M, and panel-tail N. The
  // golden executor, the serving backend and every kernel variant this
  // CPU runs must equal the independent oracle bit for bit.
  using quant::BlockFormat;
  const BlockFormat max3 = BlockFormat::bbfp(4, 2).with_delta(-1);
  const BlockFormat max1 = BlockFormat::bbfp(4, 2).with_delta(1);
  const BlockFormat bfp4_up = BlockFormat::bfp(4).with_delta(1);
  const BlockFormat bfp6_down = BlockFormat::bfp(6).with_delta(-1);
  const std::vector<std::pair<BlockFormat, BlockFormat>> formats = {
      {BlockFormat::bfp(4), BlockFormat::bfp(4)},
      {BlockFormat::bfp(6), BlockFormat::bfp(6)},
      {BlockFormat::bbfp(3, 1), BlockFormat::bbfp(3, 1)},
      {BlockFormat::bbfp(4, 2), BlockFormat::bbfp(4, 2)},
      {BlockFormat::bbfp(4, 3), BlockFormat::bbfp(4, 3)},
      {BlockFormat::bbfp(6, 3), BlockFormat::bbfp(6, 3)},
      {BlockFormat::bbfp(6, 4), BlockFormat::bbfp(6, 4)},
      {BlockFormat::bbfp(6, 3), BlockFormat::bbfp(4, 2)},
      {max3, max1},
      {bfp4_up, bfp6_down},
  };
  const std::vector<llm::BlockKernelIsa> isas = llm::block_kernel_isas();
  Rng rng(42);
  int index = 0;
  for (const auto& [act_fmt, weight_fmt] : formats) {
    ASSERT_TRUE(llm::block_kernel_eligible(act_fmt, weight_fmt))
        << act_fmt.name() << " x " << weight_fmt.name();
    for (const int k : {1, 31, 32, 33, 96, 341})
      for (const int m : {1, 8, 64}) {
        const int n = std::array{1, 16, 37}[index++ % 3];
        std::string what = act_fmt.name() + " x " + weight_fmt.name();
        what += " delta " + std::to_string(act_fmt.strategy_delta);
        what += "/" + std::to_string(weight_fmt.strategy_delta);
        what += " " + std::to_string(m) + "x" + std::to_string(k);
        what += "x" + std::to_string(n);
        const llm::Matrix a = generated_matrix(rng, m, k, true);
        const llm::Matrix w = generated_matrix(rng, k, n, false);
        const llm::Matrix want = block_oracle(a, w, act_fmt, weight_fmt);

        const llm::Matrix golden =
            execute_gemm_bit_exact(a, w, act_fmt, weight_fmt);
        expect_same_bits(want, golden, what + " golden executor");
        llm::BlockQuantMatmulBackend backend(act_fmt, weight_fmt);
        const int h = backend.prepare_weights(w, "w");
        llm::Matrix served;
        backend.matmul(a, h, served);
        expect_same_bits(want, served, what + " backend");

        llm::PackedRows rows;
        llm::PackedWeights cols;
        llm::reset_packed_rows(rows, m, k, act_fmt.block_size);
        llm::pack_rows(llm::BlockKernelIsa::kScalar, a, act_fmt, rows, 0, m);
        llm::reset_packed_weights(cols, k, n, weight_fmt.block_size);
        llm::pack_weight_panels(w, weight_fmt, cols, 0, cols.panels());
        for (const llm::BlockKernelIsa isa : isas) {
          llm::Matrix c(m, n);
          llm::block_gemm_rows(isa, rows, cols, c, 0, m);
          const std::string variant = std::to_string(static_cast<int>(isa));
          expect_same_bits(want, c, what + " variant " + variant);
        }
      }
  }
}

TEST(GemmExecutor, SumsEachBlockBeforeAddingIt) {
  // Products 2^60 (block 0), 128 and 128 (block 1), -2^60 (block 2). In
  // element order each 128 ties at 2^60's ulp of 256 and rounds to even,
  // giving 0; the datapath sums block 1 exactly to 256 first, giving 256.
  llm::Matrix a(1, 96), w(96, 1);
  a.at(0, 0) = 0x1p30f;
  w.at(0, 0) = 0x1p30f;
  for (const int x : {32, 33}) {
    a.at(0, x) = 16.0f;
    w.at(x, 0) = 8.0f;
  }
  a.at(0, 64) = -0x1p30f;
  w.at(64, 0) = 0x1p30f;
  const quant::BlockFormat fmt = quant::BlockFormat::bfp(4);

  EXPECT_EQ(llm::matmul(a, w).at(0, 0), 0.0f);  // element order
  EXPECT_EQ(block_oracle(a, w, fmt, fmt).at(0, 0), 256.0f);
  EXPECT_EQ(execute_gemm_bit_exact(a, w, fmt, fmt).at(0, 0), 256.0f);
  llm::BlockQuantMatmulBackend backend(fmt, fmt);
  const int h = backend.prepare_weights(w, "w");
  llm::Matrix served;
  backend.matmul(a, h, served);
  EXPECT_EQ(served.at(0, 0), 256.0f);
}

TEST(GemmExecutor, EligibilityFollowsTheIntegerWidths) {
  using quant::BlockFormat;
  // m + d per side, plus ceil(log2 block) for the block sum, within 31.
  const auto same = [](const BlockFormat& f) {
    return llm::block_kernel_eligible(f, f);
  };
  EXPECT_TRUE(same(BlockFormat::bfp(8)));
  EXPECT_TRUE(same(BlockFormat::bbfp(8, 5)));
  EXPECT_FALSE(same(BlockFormat::bbfp(8, 2)));
  EXPECT_FALSE(same(BlockFormat::bbfp(10, 5)));
  EXPECT_TRUE(same(BlockFormat::bfp(14, 8)));
  EXPECT_FALSE(same(BlockFormat::bfp(14, 32)));
  EXPECT_FALSE(same(BlockFormat::bfp(16)));
  EXPECT_FALSE(same(BlockFormat::bfp(4).with_delta(65)));
  EXPECT_FALSE(llm::block_kernel_eligible(BlockFormat::bfp(4, 32),
                                          BlockFormat::bfp(4, 16)));
}

TEST(GemmExecutor, WideFormatsKeepTheFloatPath) {
  // BBFP(10,5) does not fit the integer kernel: the backend quantises both
  // sides to float and multiplies them with llm::matmul.
  Rng rng(9);
  llm::Matrix a(3, 70), w(70, 5);
  for (float& v : a.flat()) v = static_cast<float>(rng.gaussian());
  for (float& v : w.flat()) v = static_cast<float>(rng.gaussian());
  const quant::BlockFormat fmt = quant::BlockFormat::bbfp(10, 5);
  llm::BlockQuantMatmulBackend backend(fmt, fmt);
  llm::Matrix qa;
  backend.quantise_activations_into(a, qa);
  llm::Matrix qw(70, 5);
  for (int j = 0; j < 5; ++j) {
    std::vector<float> col(70);
    for (int x = 0; x < 70; ++x) col[static_cast<std::size_t>(x)] = w.at(x, j);
    const std::span<float> all(col);
    quant::quantise(all.first(32), fmt, all.first(32));
    quant::quantise(all.subspan(32, 32), fmt, all.subspan(32, 32));
    quant::quantise(all.last(6), fmt, all.last(6));
    for (int x = 0; x < 70; ++x) qw.at(x, j) = col[static_cast<std::size_t>(x)];
  }
  llm::Matrix served;
  backend.matmul(a, backend.prepare_weights(w, "w"), served);
  expect_same_bits(llm::matmul(qa, qw), served, "BBFP(10,5)");
  EXPECT_EQ(backend.weights_bytes(), 70 * 5 * 4);
}

TEST(GemmExecutor, ExactWhenValuesOnGrid) {
  // Values representable in the format produce an exact GEMM.
  llm::Matrix a(2, 64), w(64, 3);
  for (int i = 0; i < 2; ++i)
    for (int k = 0; k < 64; ++k) a.at(i, k) = (k % 2 == 0) ? 1.0f : -0.5f;
  for (int k = 0; k < 64; ++k)
    for (int j = 0; j < 3; ++j) w.at(k, j) = (k + j) % 3 == 0 ? 2.0f : 0.25f;
  const quant::BlockFormat fmt = quant::BlockFormat::bbfp(6, 3);
  const llm::Matrix golden = execute_gemm_bit_exact(a, w, fmt, fmt);
  const llm::Matrix exact = llm::matmul(a, w);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j)
      EXPECT_FLOAT_EQ(golden.at(i, j), exact.at(i, j));
}

}  // namespace
}  // namespace bbal::accel
