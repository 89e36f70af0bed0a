#include "nl/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "common/float_parts.hpp"

namespace bbal::nl {
namespace {

double exp_ref(double x) { return std::exp(x); }
double sigmoid_ref(double x) { return 1.0 / (1.0 + std::exp(-x)); }
double phi_ref(double x) { return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0))); }

}  // namespace

NlUnitEngine::NlUnitEngine(quant::BlockFormat fmt, int addr_bits)
    : fmt_(fmt), addr_bits_(addr_bits) {
  assert(addr_bits >= 2 && addr_bits <= fmt.mantissa_bits);
  tables_[kExpTable].f = exp_ref;
  tables_[kSigmoidTable].f = sigmoid_ref;
  tables_[kPhiTable].f = phi_ref;
  for (LutTable& t : tables_) t.at_zero = quantise_entry(t.f(0.0));
}

const double* NlUnitEngine::shared_row(Table table, int step_exponent,
                                       bool negative) const {
  using Key = std::tuple<int, int, int, int, bool>;
  static std::mutex mu;
  // Never destroyed: rows handed out stay valid until process exit.
  static auto* const rows = new std::map<Key, std::unique_ptr<double[]>>();
  const std::lock_guard<std::mutex> lock(mu);
  const int m = fmt_.mantissa_bits;
  const Key key{table, m, addr_bits_, step_exponent, negative};
  std::unique_ptr<double[]>& row = (*rows)[key];
  if (!row) {
    const LutTable& t = tables_[table];
    const std::uint32_t entries = std::uint32_t{1} << addr_bits_;
    row = std::make_unique<double[]>(entries);
    for (std::uint32_t a = 0; a < entries; ++a)
      row[a] = quantise_entry(t.f(bucket_midpoint(step_exponent, negative, a)));
  }
  return row.get();
}

double NlUnitEngine::quantise_entry(double v) const {
  if (v == 0.0) return 0.0;
  // Entries are stored with the unit's mantissa precision (sign + 5-bit
  // exponent + m-bit mantissa), i.e. scalar round at m bits.
  return round_to_precision(v, fmt_.mantissa_bits);
}

double NlUnitEngine::bucket_midpoint(int step_exponent, bool negative,
                                     std::uint32_t addr) const {
  const int m = fmt_.mantissa_bits;
  const int drop = m - addr_bits_;
  const double mid_mantissa =
      (static_cast<double>(addr) + 0.5) * std::ldexp(1.0, drop);
  const double step = std::ldexp(1.0, step_exponent - m + 1);
  return mid_mantissa * step * (negative ? -1.0 : 1.0);
}

double NlUnitEngine::lut_entry(Table table, int step_exponent, bool negative,
                               std::uint32_t addr) {
  LutTable& t = tables_[table];
  const int r = step_exponent - kLutMinExponent;
  if (r < 0 || r >= kLutExponents)
    return quantise_entry(t.f(bucket_midpoint(step_exponent, negative, addr)));
  const double*& row =
      t.rows[static_cast<std::size_t>(2 * r + (negative ? 1 : 0))];
  if (row == nullptr) row = shared_row(table, step_exponent, negative);
  return row[addr];
}

template <typename Entry>
void NlUnitEngine::run_lut(std::span<const double> xs, std::span<double> out,
                           Entry&& entry) {
  assert(xs.size() == out.size());
  if (xs.empty()) return;
  // The Align Exponent Unit computes ONE shared exponent for the whole
  // vector (Section IV.B: "once a shared exponent is calculated during the
  // alignment phase, the corresponding sub-table can be loaded") — this is
  // what makes max-aligned BFP catastrophic on wide-range vectors while
  // BBFP's lowered exponent keeps the bulk resolution.
  quant::encode_block_into(xs, fmt_, block_);
  ++stats_.blocks_encoded;
  stats_.elements += xs.size();
  const int se = block_.shared_exponent;
  const int dd = fmt_.shift_distance();
  const int drop = fmt_.mantissa_bits - addr_bits_;
  std::array<bool, 2> touched{};  // sub-tables hit, by flag
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const quant::BlockElement& e = block_.elems[i];
    if (e.mantissa == 0) {
      out[i] = entry(nullptr, 0, 0u);
      continue;
    }
    // LUT address: top addr_bits of the aligned mantissa, in the sub-table
    // selected by the shared exponent and the element's flag.
    ++stats_.lut_lookups;
    touched[e.flag ? 1 : 0] = true;
    out[i] = entry(&e, se + (e.flag ? dd : 0), e.mantissa >> drop);
  }
  for (const bool flag : {false, true})
    if (touched[flag ? 1 : 0]) stats_.subtables_touched.insert({se, flag});
}

void NlUnitEngine::apply_lut(std::span<const double> xs, std::span<double> out,
                             const std::function<double(double)>& f) {
  const auto entry = [&](const quant::BlockElement* e, int step_exponent,
                         std::uint32_t addr) {
    if (e == nullptr) return quantise_entry(f(0.0));
    return quantise_entry(f(bucket_midpoint(step_exponent, e->negative, addr)));
  };
  run_lut(xs, out, entry);
}

void NlUnitEngine::apply_table(std::span<const double> xs,
                               std::span<double> out, Table table) {
  const auto entry = [&](const quant::BlockElement* e, int step_exponent,
                         std::uint32_t addr) {
    if (e == nullptr) return tables_[table].at_zero;
    return lut_entry(table, step_exponent, e->negative, addr);
  };
  run_lut(xs, out, entry);
}

void NlUnitEngine::softmax(std::span<float> xs) {
  if (xs.empty()) return;
  // 1. Max unit.
  float mx = xs[0];
  for (const float v : xs) mx = std::max(mx, v);
  // 2. Sub unit (FP16-precision subtract), then exp LUT on x - max <= 0.
  in_.resize(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    in_[i] = to_fp16(static_cast<double>(xs[i]) - mx);
  lut_out_.resize(xs.size());
  apply_table(in_, lut_out_, kExpTable);
  // 3. Adder tree (high-bitwidth integer in hardware; exact here).
  double sum = 0.0;
  for (const double v : lut_out_) sum += v;
  if (sum <= 0.0) {  // degenerate: uniform fallback
    const float u = 1.0f / static_cast<float>(xs.size());
    for (float& v : xs) v = u;
    return;
  }
  // 4. Div unit + output encoder (quotients re-quantised to m bits).
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<float>(quantise_entry(lut_out_[i] / sum));
}

void NlUnitEngine::lookup(std::span<const float> xs, Table table) {
  in_.assign(xs.begin(), xs.end());
  lut_out_.resize(xs.size());
  apply_table(in_, lut_out_, table);
}

void NlUnitEngine::gated(std::span<float> xs, Table table) {
  lookup(xs, table);
  // Mul unit: multiply the vector-aligned quantised input (the block the
  // LUT pass just encoded) by the entry.
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<float>(quantise_entry(block_.decode(i) * lut_out_[i]));
}

void NlUnitEngine::silu(std::span<float> xs) { gated(xs, kSigmoidTable); }

void NlUnitEngine::gelu(std::span<float> xs) { gated(xs, kPhiTable); }

void NlUnitEngine::sigmoid(std::span<float> xs) {
  lookup(xs, kSigmoidTable);
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<float>(lut_out_[i]);
}

int NlUnitEngine::provisioned_subtables(int e_min, int e_max,
                                        bool both_signs) {
  assert(e_max >= e_min);
  return (e_max - e_min + 1) * (both_signs ? 2 : 1);
}

std::size_t NlUnitEngine::subtable_bits() const {
  const std::size_t entries = std::size_t{1} << addr_bits_;
  const std::size_t entry_bits =
      1 + static_cast<std::size_t>(fmt_.exponent_bits) +
      static_cast<std::size_t>(fmt_.mantissa_bits);
  return entries * entry_bits;
}

}  // namespace bbal::nl
