#include "core/arm_model.hpp"

#include <cmath>

#include "common/error.hpp"

namespace bw::core {

namespace {

/// The ridge prior mirrors a batch fit: an explicit fit.ridge wins,
/// otherwise the rank-deficiency fallback ridge (which is what the batch
/// fit applies on every underdetermined system).
double rls_prior_ridge(const linalg::FitOptions& fit) {
  if (fit.ridge > 0.0) return fit.ridge;
  if (fit.fallback_ridge > 0.0) return fit.fallback_ridge;
  return 1e-8;
}

}  // namespace

LinearArmModel::LinearArmModel(std::size_t dim, const linalg::FitOptions& fit)
    : dim_(dim), rls_(dim > 0 ? dim : 1, rls_prior_ridge(fit), fit.forgetting) {
  BW_CHECK_MSG(dim > 0, "arm model needs at least one feature");
  BW_CHECK_MSG(fit.intercept,
               "arm model: fit.intercept = false is not supported (the recursive "
               "update always fits the intercept b)");
  reset();
}

void LinearArmModel::reset() {
  rls_.reset();
  model_.weights.assign(dim_, 0.0);  // paper init: w_i = 0, b_i = 0
  model_.bias = 0.0;
  model_.n_observations = 0;
}

void LinearArmModel::observe(std::span<const double> x, double runtime_s) {
  BW_CHECK_MSG(x.size() == dim_, "arm model: feature size mismatch");
  BW_CHECK_MSG(linalg::all_finite(x), "arm model: non-finite feature");
  BW_CHECK_MSG(std::isfinite(runtime_s), "arm model: non-finite runtime");
  rls_.update(x, runtime_s);
  sync_from_rls();
}

void LinearArmModel::sync_from_rls() {
  const linalg::Vector& theta = rls_.theta();
  model_.weights.assign(theta.begin(), theta.end() - 1);
  model_.bias = theta.back();
  model_.n_observations = rls_.n_observations();
}

void LinearArmModel::merge(const LinearArmModel& other, const LinearArmModel* base) {
  rls_.merge(other.rls_, base != nullptr ? &base->rls_ : nullptr);
  sync_from_rls();
}

void LinearArmModel::restore_stats(const linalg::Matrix& p,
                                   const linalg::Vector& theta, std::size_t n) {
  rls_.restore(p, theta, n);
  sync_from_rls();
}

ArmStats LinearArmModel::export_stats() const {
  return ArmStats{rls_.precision_inverse(), rls_.theta(), rls_.n_observations()};
}

double LinearArmModel::predict(std::span<const double> x) const {
  BW_CHECK_MSG(x.size() == dim_, "arm model: feature size mismatch");
  return model_.predict(x);
}

double LinearArmModel::variance_proxy(std::span<const double> x) const {
  return rls_.variance_proxy(x);
}

}  // namespace bw::core
