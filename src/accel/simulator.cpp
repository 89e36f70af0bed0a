#include "accel/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/bitutils.hpp"
#include "hw/sram.hpp"

namespace bbal::accel {

GemmStats& GemmStats::operator+=(const GemmStats& other) {
  macs += other.macs;
  cycles += other.cycles;
  compute_cycles += other.compute_cycles;
  memory_cycles += other.memory_cycles;
  dram_bytes += other.dram_bytes;
  weight_buffer_accesses += other.weight_buffer_accesses;
  act_buffer_accesses += other.act_buffer_accesses;
  out_buffer_accesses += other.out_buffer_accesses;
  return *this;
}

namespace {

/// simulate_gemm at an already-resolved storage width: resolving the PE
/// design parses the strategy string, so simulate_workload does it once.
GemmStats gemm_at(const AcceleratorConfig& cfg, double bits,
                  const GemmShape& shape) {
  assert(shape.m >= 1 && shape.k >= 1 && shape.n >= 1);
  GemmStats s;
  s.macs = shape.macs();

  const double bytes_per_elem = bits / 8.0;
  const auto r = static_cast<std::int64_t>(cfg.array_rows);
  const auto c = static_cast<std::int64_t>(cfg.array_cols);
  const std::int64_t kt = ceil_div(shape.k, r);
  const std::int64_t nt = ceil_div(shape.n, c);

  // Compute: steady-state MAC throughput (the controller folds short K
  // dimensions across rows, so PEs stay busy on skinny GEMMs) plus the
  // pipeline fill/drain of every (K-tile, N-tile) pass.
  s.compute_cycles =
      static_cast<double>(shape.macs()) / static_cast<double>(r * c) +
      static_cast<double>(kt * nt) * static_cast<double>(r + c);

  // DRAM traffic.
  const double weight_bytes =
      static_cast<double>(shape.k * shape.n) * bytes_per_elem;
  const double act_working_set =
      static_cast<double>(shape.m * shape.k) * bytes_per_elem;
  // Smooth reuse model: the fraction of the activation working set held in
  // the buffer is reused across N-tile passes, the remainder is re-fetched.
  const double buffered = std::min(
      act_working_set, static_cast<double>(cfg.act_buffer_bytes));
  const double refetch_fraction =
      act_working_set > 0.0 ? 1.0 - buffered / act_working_set : 0.0;
  double act_bytes = act_working_set *
                     (1.0 + static_cast<double>(nt - 1) * refetch_fraction);
  // Outputs leave once, re-encoded into the block format. Partial sums stay
  // on chip: the controller tiles M so each M-chunk's FP32 psums fit the
  // output buffer (no DRAM spill).
  double out_bytes = static_cast<double>(shape.m * shape.n) * bytes_per_elem;
  // Attention fusion (Fig. 7): fused operands never round-trip to DRAM.
  if (shape.acts_on_chip) act_bytes = 0.0;
  if (shape.output_on_chip) out_bytes = 0.0;
  s.dram_bytes = weight_bytes + act_bytes + out_bytes;

  // Memory cycles at the configured bandwidth.
  const double bytes_per_cycle = cfg.dram_gbps / cfg.freq_ghz;  // GB/s / GHz
  s.memory_cycles = s.dram_bytes / bytes_per_cycle;

  // Double buffering: overlap compute with memory.
  s.cycles = std::max(s.compute_cycles, s.memory_cycles) +
             static_cast<double>(r + c);  // one-time array fill

  // Buffer traffic (element granularity) for the energy model: weights fill
  // once per tile; every activation is re-read for each N-tile pass; FP32
  // psums are read+written per K-tile accumulation step.
  s.weight_buffer_accesses = static_cast<double>(shape.k * shape.n);
  s.act_buffer_accesses =
      static_cast<double>(shape.m * shape.k) * static_cast<double>(nt);
  s.out_buffer_accesses =
      2.0 * static_cast<double>(shape.m * shape.n) * static_cast<double>(kt);
  return s;
}

/// Energy of an aggregated run on the config's buffers and PE design.
EnergyBreakdown energy_of(const AcceleratorConfig& cfg,
                          const hw::DatapathDesign& pe,
                          const GemmStats& stats) {
  const hw::CellLibrary& lib = hw::CellLibrary::tsmc28();
  EnergyBreakdown e;

  // Core: one MAC through the PE datapath per MAC operation. The factor
  // covers wire capacitance and clock-tree energy on top of the cell-level
  // switching the gate model prices (typical 3-6x at 28nm).
  constexpr double kCoreWireClockFactor = 5.0;
  e.core_j = static_cast<double>(stats.macs) * lib.dynamic_fj(pe.lane) *
             kCoreWireClockFactor * 1e-15;

  // Buffers: per-element accesses at the element width.
  const int word_bits =
      std::max(8, static_cast<int>(std::lround(pe.equivalent_bits)));
  const hw::SramMacro wbuf = hw::make_sram(cfg.weight_buffer_bytes, word_bits);
  const hw::SramMacro abuf = hw::make_sram(cfg.act_buffer_bytes, word_bits);
  const hw::SramMacro obuf = hw::make_sram(cfg.out_buffer_bytes, 32);
  e.buffer_j = (stats.weight_buffer_accesses * wbuf.access_pj() +
                stats.act_buffer_accesses * abuf.access_pj() +
                stats.out_buffer_accesses * obuf.access_pj()) *
               1e-12;

  // DRAM.
  e.dram_j = stats.dram_bytes * 8.0 * hw::kDramPjPerBit * 1e-12;

  // Static: PE array + buffer leakage over the run.
  const double seconds = stats.cycles / (cfg.freq_ghz * 1e9);
  const double pe_leak_w =
      pe.leakage_nw(lib) * 1e-9 * static_cast<double>(cfg.pe_count());
  const double buf_leak_w =
      (wbuf.leakage_uw() + abuf.leakage_uw() + obuf.leakage_uw()) * 1e-6;
  e.static_j = (pe_leak_w + buf_leak_w) * seconds;
  return e;
}

}  // namespace

GemmStats simulate_gemm(const AcceleratorConfig& cfg, const GemmShape& shape) {
  return gemm_at(cfg, cfg.bits_per_element(), shape);
}

RunStats simulate_workload(const AcceleratorConfig& cfg,
                           std::span<const GemmShape> gemms) {
  const hw::DatapathDesign pe = cfg.pe_design();
  RunStats run;
  for (const GemmShape& g : gemms)
    run.gemm += gemm_at(cfg, pe.equivalent_bits, g);
  run.seconds = run.gemm.cycles / (cfg.freq_ghz * 1e9);
  run.throughput_gops =
      run.seconds > 0.0
          ? 2.0 * static_cast<double>(run.gemm.macs) / run.seconds / 1e9
          : 0.0;
  run.energy = energy_of(cfg, pe, run.gemm);
  return run;
}

}  // namespace bbal::accel
