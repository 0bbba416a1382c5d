#include "core/thompson.hpp"

#include <cmath>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "core/score_scratch.hpp"

namespace bw::core {

namespace {

ArmBank make_bank(const hw::HardwareCatalog& catalog, std::size_t num_features,
                  const ThompsonConfig& config) {
  linalg::FitOptions fit;
  fit.ridge = config.ridge;
  return ArmBank(catalog, num_features, fit, config.tolerance, config.resource_weights);
}

}  // namespace

LinearThompson::LinearThompson(const hw::HardwareCatalog& catalog,
                               std::size_t num_features, ThompsonConfig config)
    : LinearThompson(make_bank(catalog, num_features, config), config.posterior_scale) {}

LinearThompson::LinearThompson(ArmBank bank, double posterior_scale)
    : BankedPolicy(std::move(bank)), posterior_scale_(posterior_scale) {
  BW_CHECK_MSG(std::isfinite(posterior_scale_) && posterior_scale_ > 0.0,
               "posterior scale must be finite and positive");
}

ArmIndex LinearThompson::select(const FeatureVector& x, Rng& rng) {
  // For a single decision only the marginal of x̃^T θ matters, and
  // θ ~ N(θ̂, v² A⁻¹) implies x̃^T θ ~ N(x̃^T θ̂, v² x̃^T A⁻¹ x̃) — so we
  // sample the scalar directly; x̃^T A⁻¹ x̃ = ‖R⁻ᵀx̃‖² is one triangular
  // solve per arm. Means and variances come
  // from one bank-level sweep; the draw itself still consumes exactly one
  // rng.normal() per arm in ascending order, so the sampled decisions match
  // the old per-arm walk stream-for-stream and bit-for-bit.
  DecisionScratch& scratch = DecisionScratch::local();
  scratch.ensure(bank_.size(), bank_.dim(), 1);
  const std::span<double> means(scratch.scores.data(), bank_.size());
  const std::span<double> vars(scratch.widths.data(), bank_.size());
  bank_.predict_all(x, means);
  bank_.variance_proxy_all(x, vars);
  ArmIndex best = 0;
  double best_sample = means[0] + posterior_scale_ *
                                      std::sqrt(std::max(0.0, vars[0])) *
                                      rng.normal();
  for (ArmIndex arm = 1; arm < bank_.size(); ++arm) {
    const double sample = means[arm] + posterior_scale_ *
                                           std::sqrt(std::max(0.0, vars[arm])) *
                                           rng.normal();
    if (sample < best_sample) {
      best_sample = sample;
      best = arm;
    }
  }
  return best;
}

}  // namespace bw::core
