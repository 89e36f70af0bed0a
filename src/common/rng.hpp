// Deterministic random number generation for synthetic workloads.
//
// All experiments are seeded so that every bench/test run is reproducible;
// heavy-tailed draws model the outlier structure of LLM tensors (Fig. 1a).
#pragma once

#include <cstdint>
#include <random>

namespace bbal {

/// Thin deterministic wrapper over a fixed-algorithm engine.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Standard normal.
  [[nodiscard]] double gaussian() {
    return std::normal_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Normal with given mean / stddev.
  [[nodiscard]] double gaussian(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Two-sided heavy-tailed draw: Gaussian bulk with probability
  /// (1 - outlier_rate), otherwise a Laplace-like tail scaled by
  /// `outlier_scale`. Mimics LLM weight/activation outliers.
  [[nodiscard]] double heavy_tailed(double stddev, double outlier_rate,
                                    double outlier_scale) {
    if (uniform() < outlier_rate) {
      const double sign = uniform() < 0.5 ? -1.0 : 1.0;
      const double mag = -std::log(1.0 - uniform());  // Exp(1)
      return sign * stddev * outlier_scale * (1.0 + mag);
    }
    return gaussian(0.0, stddev);
  }

  /// Derive an independent child generator (stable split).
  [[nodiscard]] Rng split() {
    return Rng(static_cast<std::uint64_t>(engine_()) * 0x9E3779B97F4A7C15ull +
               0xD1B54A32D192ED03ull);
  }

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace bbal
