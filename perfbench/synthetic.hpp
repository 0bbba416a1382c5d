#pragma once
// Seeded synthetic hardware catalogs for the catalog-wide and fleet-churn
// workloads. Arm a is one hardware size on a fixed trade-off curve: a
// start-up overhead that grows with size and a per-unit cost that shrinks,
// so every arm is the fastest on some band of job sizes (the paper's
// finding that small jobs want small hardware and large jobs large).
//
//   expected_a(x) = overhead_a + unit_cost_a * load(x)^1.5,
//   load(x) = sum_k weight_k * x_k / d,  x_k ~ U(1, 10).
//
// Runtime grows faster than linearly in the features, as the paper's
// matmul runtimes do. Like the paper's run tables, each run (one context)
// has one actual runtime per arm: the expected runtime times a lognormal
// factor fixed by (seed, run, arm), which no model of the features can
// predict. Regret is measured against the best actual runtime of the run,
// so every decision contributes a little and the total is stable across
// seeds. The seed jitters the curve, the feature weights, the contexts and
// the per-run factors but not the curve's shape, so regret and per-call
// cost stay comparable across seeds. The engines see only contexts and
// actual runtimes.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/types.hpp"
#include "hardware/catalog.hpp"

namespace perfbench {

class SyntheticCatalog {
 public:
  SyntheticCatalog(std::size_t arms, std::size_t features, std::uint64_t seed)
      : features_(features), seed_(seed), overhead_(arms), unit_cost_(arms), weight_(features) {
    bw::Rng rng(seed);
    double weight_sum = 0.0;
    for (double& w : weight_) weight_sum += (w = rng.uniform(0.9, 1.1));
    for (double& w : weight_) w *= static_cast<double>(features) / weight_sum;

    // Overheads rise evenly from 2 s to 12 s. Unit costs fall so that arm
    // a and a + 1 cross at a load^1.5 spread evenly over [3, 28] — inside
    // the range [1, 31.6] — ending at 0.5 s per unit for the largest arm.
    const double step = 10.0 / static_cast<double>(arms);
    unit_cost_[arms - 1] = 0.5;
    for (std::size_t a = arms - 1; a-- > 0;) {
      const double crossing =
          3.0 + 25.0 * (static_cast<double>(a) + 0.5) / static_cast<double>(arms);
      unit_cost_[a] = unit_cost_[a + 1] + step / crossing;
    }
    for (std::size_t a = 0; a < arms; ++a) {
      overhead_[a] = (2.0 + step * static_cast<double>(a)) * (1.0 + 0.002 * rng.normal());
      unit_cost_[a] *= 1.0 + 0.002 * rng.normal();
      bw::hw::HardwareSpec spec;
      spec.name = "S";
      spec.name.append(std::to_string(a));
      spec.cpus = static_cast<int>(1 + (64 * a) / arms);
      spec.memory_gb = static_cast<double>(8 * (1 + (32 * a) / arms));
      catalog_.add(std::move(spec));
    }
    for (std::size_t k = 0; k < features; ++k) {
      names_.emplace_back("f");
      names_.back().append(std::to_string(k));
    }
  }

  const bw::hw::HardwareCatalog& catalog() const { return catalog_; }
  const std::vector<std::string>& feature_names() const { return names_; }
  std::size_t num_arms() const { return catalog_.size(); }

  bw::core::FeatureVector context(bw::Rng& rng) const {
    bw::core::FeatureVector x(features_);
    for (double& v : x) v = rng.uniform(1.0, 10.0);
    return x;
  }

  /// Noise-free expected runtime of context x on arm a.
  double expected(std::size_t a, const bw::core::FeatureVector& x) const {
    double load = 0.0;
    for (std::size_t k = 0; k < features_; ++k) load += weight_[k] * x[k];
    load /= static_cast<double>(features_);
    return overhead_[a] + unit_cost_[a] * load * std::sqrt(load);
  }

  /// Actual runtime of run `run` (context x) on arm a.
  double runtime(std::size_t a, const bw::core::FeatureVector& x, std::uint64_t run) const {
    // Box-Muller over two uniforms hashed from (seed, run, arm).
    std::uint64_t state = seed_ ^ (run * 0x9e3779b97f4a7c15ULL) ^ (a << 40);
    const double u1 = (static_cast<double>(bw::splitmix64_next(state) >> 11) + 1.0) * 0x1p-53;
    const double u2 = static_cast<double>(bw::splitmix64_next(state) >> 11) * 0x1p-53;
    const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    return expected(a, x) * std::exp(0.03 * z);
  }

  /// The oracle: run `run`'s best actual runtime over every arm.
  double best(const bw::core::FeatureVector& x, std::uint64_t run) const {
    double best = runtime(0, x, run);
    for (std::size_t a = 1; a < num_arms(); ++a) best = std::min(best, runtime(a, x, run));
    return best;
  }

 private:
  std::size_t features_;
  std::uint64_t seed_;
  std::vector<double> overhead_;
  std::vector<double> unit_cost_;
  std::vector<double> weight_;
  bw::hw::HardwareCatalog catalog_;
  std::vector<std::string> names_;
};

}  // namespace perfbench
