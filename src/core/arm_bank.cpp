#include "core/arm_bank.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/score_scratch.hpp"
#include "linalg/gemm.hpp"
#include "linalg/intercept.hpp"
#include "linalg/matrix.hpp"

namespace bw::core {

void copy_stats(const linalg::RecursiveLeastSquares& arm, ArmStats& out) {
  out.r = arm.r();
  out.z = arm.z();
  out.n = arm.n_observations();
}

linalg::RecursiveLeastSquares ArmBank::make_arm(std::size_t dim,
                                                const linalg::FitOptions& fit) {
  BW_CHECK_MSG(fit.intercept,
               "arm model: fit.intercept = false is not supported (the recursive "
               "update always fits the intercept b)");
  return linalg::RecursiveLeastSquares(dim, fit.ridge == 0.0 ? 1e-8 : fit.ridge,
                                       fit.forgetting);
}

ArmBank::ArmBank(const hw::HardwareCatalog& catalog, std::size_t num_features,
                 const linalg::FitOptions& fit, const ToleranceParams& tolerance,
                 const hw::ResourceWeights& weights)
    : tolerance_(tolerance), dim_(num_features) {
  BW_CHECK_MSG(!catalog.empty(), "policy needs at least one arm");
  BW_CHECK_MSG(num_features > 0, "policy needs at least one feature");
  // NaN fails both comparisons. +inf stays legal: tolerant_select admits
  // every arm under an infinite ratio or slack.
  BW_CHECK_MSG(tolerance.ratio >= 0.0 && tolerance.seconds >= 0.0,
               "tolerance parameters must be non-negative");
  arms_.assign(catalog.size(), make_arm(num_features, fit));
  resource_costs_ = std::make_shared<const std::vector<double>>(
      catalog.resource_costs(weights));
  // Fresh arms are all-zero (w = b = 0), so the zero-initialized plane is
  // already in sync.
  theta_plane_.assign((dim_ + 1) * arms_.size(), 0.0);
}

void ArmBank::fill_plane_column(ArmIndex arm) {
  // Transposed plane (see gemm.hpp): one arm is a strided column. Writes
  // are per-observation; reads are the hot path and stream unit-stride.
  const linalg::Vector& theta = arms_[arm].theta();
  const std::size_t stride = arms_.size();
  for (std::size_t i = 0; i <= dim_; ++i) theta_plane_[i * stride + arm] = theta[i];
}

void ArmBank::observe(ArmIndex arm, const FeatureVector& x, double runtime_s) {
  BW_CHECK_MSG(arm < arms_.size(), "arm index out of range");
  // The arm checks x's size and finiteness; the runtime is the bank's.
  BW_CHECK_MSG(std::isfinite(runtime_s), "arm model: non-finite runtime");
  arms_[arm].update(x, runtime_s);
  fill_plane_column(arm);
}

void ArmBank::restore_arm(ArmIndex arm, const ArmStats& stats) {
  BW_CHECK_MSG(arm < arms_.size(), "arm index out of range");
  arms_[arm].restore(stats.r, stats.z, stats.n);
  fill_plane_column(arm);
}

void ArmBank::merge_arm(ArmIndex arm, const linalg::RecursiveLeastSquares& other,
                        const linalg::RecursiveLeastSquares* base) {
  BW_CHECK_MSG(arm < arms_.size(), "arm index out of range");
  arms_[arm].merge(other, base);
  fill_plane_column(arm);
}

double ArmBank::predict(ArmIndex arm, const FeatureVector& x) const {
  BW_CHECK_MSG(arm < arms_.size(), "arm index out of range");
  return arms_[arm].predict(x);
}

double ArmBank::variance_proxy(ArmIndex arm, const FeatureVector& x) const {
  BW_CHECK_MSG(arm < arms_.size(), "arm index out of range");
  return arms_[arm].variance_proxy(x);
}

void ArmBank::predict_all(const FeatureVector& x, std::span<double> out) const {
  BW_CHECK_MSG(x.size() == dim_, "feature vector size mismatch");
  BW_CHECK_MSG(out.size() == arms_.size(), "predict_all: output size mismatch");
  static thread_local std::vector<double> xa;
  linalg::with_intercept_into(x, xa);
  linalg::score_block(theta_plane_.data(), arms_.size(), dim_ + 1, xa.data(), 1,
                      out.data());
}

std::vector<double> ArmBank::predict_all(const FeatureVector& x) const {
  std::vector<double> out(arms_.size());
  predict_all(x, out);
  return out;
}

void ArmBank::variance_proxy_all(const FeatureVector& x,
                                 std::span<double> out) const {
  BW_CHECK_MSG(x.size() == dim_, "feature vector size mismatch");
  BW_CHECK_MSG(out.size() == arms_.size(),
               "variance_proxy_all: output size mismatch");
  static thread_local std::vector<double> xa;
  static thread_local std::vector<double> scratch;
  linalg::with_intercept_into(x, xa);
  for (ArmIndex arm = 0; arm < arms_.size(); ++arm) {
    // RLS::variance_proxy's own solve, minus its per-call allocations.
    out[arm] = arms_[arm].variance_proxy_aug(xa, scratch);
  }
}

TolerantChoice ArmBank::recommend_choice(const FeatureVector& x) const {
  DecisionScratch& scratch = DecisionScratch::local();
  scratch.ensure(arms_.size(), dim_, 1);
  predict_all(x, std::span<double>(scratch.scores.data(), arms_.size()));
  return tolerant_select(
      std::span<const double>(scratch.scores.data(), arms_.size()),
      *resource_costs_, tolerance_);
}

const linalg::RecursiveLeastSquares& ArmBank::arm(ArmIndex index) const {
  BW_CHECK_MSG(index < arms_.size(), "arm index out of range");
  return arms_[index];
}

void ArmBank::reset() {
  for (auto& arm : arms_) arm.reset();  // paper init: w_i = 0, b_i = 0
  theta_plane_.assign((dim_ + 1) * arms_.size(), 0.0);
}

}  // namespace bw::core
