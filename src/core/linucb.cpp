#include "core/linucb.hpp"

#include <cmath>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "core/score_scratch.hpp"

namespace bw::core {

namespace {

ArmBank make_bank(const hw::HardwareCatalog& catalog, std::size_t num_features,
                  const LinUcbConfig& config) {
  linalg::FitOptions fit;
  fit.ridge = config.ridge;
  return ArmBank(catalog, num_features, fit, config.tolerance, config.resource_weights);
}

}  // namespace

LinUcb::LinUcb(const hw::HardwareCatalog& catalog, std::size_t num_features,
               LinUcbConfig config)
    : LinUcb(make_bank(catalog, num_features, config), config.alpha) {}

LinUcb::LinUcb(ArmBank bank, double alpha)
    : BankedPolicy(std::move(bank)), alpha_(alpha) {
  BW_CHECK_MSG(std::isfinite(alpha_) && alpha_ >= 0.0,
               "alpha must be finite and non-negative");
}

double LinUcb::lcb(ArmIndex arm, const FeatureVector& x) const {
  const double mean = bank_.predict(arm, x);
  const double width = std::sqrt(std::max(0.0, bank_.variance_proxy(arm, x)));
  return mean - alpha_ * width;
}

ArmIndex LinUcb::select(const FeatureVector& x, Rng& rng) {
  (void)rng;  // LinUCB is deterministic given its history
  // Bank-level sweep: one theta-plane pass for the means and one hoisted
  // quadratic-form loop for the widths, instead of re-walking the per-arm
  // objects 2x per arm. The per-arm expression below is the same FP
  // sequence as lcb(), so the argmin is byte-identical to the scalar walk.
  DecisionScratch& scratch = DecisionScratch::local();
  scratch.ensure(bank_.size(), bank_.dim(), 1);
  const std::span<double> means(scratch.scores.data(), bank_.size());
  const std::span<double> vars(scratch.widths.data(), bank_.size());
  bank_.predict_all(x, means);
  bank_.variance_proxy_all(x, vars);
  ArmIndex best = 0;
  double best_lcb = means[0] - alpha_ * std::sqrt(std::max(0.0, vars[0]));
  for (ArmIndex arm = 1; arm < bank_.size(); ++arm) {
    const double value = means[arm] - alpha_ * std::sqrt(std::max(0.0, vars[arm]));
    if (value < best_lcb) {
      best_lcb = value;
      best = arm;
    }
  }
  return best;
}

}  // namespace bw::core
