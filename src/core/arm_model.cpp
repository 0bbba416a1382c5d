#include "core/arm_model.hpp"

#include <cmath>

#include "common/error.hpp"

namespace bw::core {

namespace {

/// The prior ridge: fit.ridge, with 0 meaning the 1e-8 default. Anything
/// else the RLS constructor range-checks.
double rls_prior_ridge(const linalg::FitOptions& fit) {
  return fit.ridge == 0.0 ? 1e-8 : fit.ridge;
}

}  // namespace

LinearArmModel::LinearArmModel(std::size_t dim, const linalg::FitOptions& fit)
    : dim_(dim), rls_(dim > 0 ? dim : 1, rls_prior_ridge(fit), fit.forgetting) {
  BW_CHECK_MSG(dim > 0, "arm model needs at least one feature");
  BW_CHECK_MSG(fit.intercept,
               "arm model: fit.intercept = false is not supported (the recursive "
               "update always fits the intercept b)");
}

void LinearArmModel::reset() { rls_.reset(); }  // paper init: w_i = 0, b_i = 0

void LinearArmModel::observe(std::span<const double> x, double runtime_s) {
  // The RLS checks x's size and finiteness; the runtime is this model's.
  BW_CHECK_MSG(std::isfinite(runtime_s), "arm model: non-finite runtime");
  rls_.update(x, runtime_s);
}

void LinearArmModel::merge(const LinearArmModel& other, const LinearArmModel* base) {
  rls_.merge(other.rls_, base != nullptr ? &base->rls_ : nullptr);
}

void LinearArmModel::merge(const ArmStats& other) {
  rls_.merge(other.r, other.z, other.n);
}

void LinearArmModel::restore_stats(const ArmStats& stats) {
  rls_.restore(stats.r, stats.z, stats.n);
}

ArmStats LinearArmModel::export_stats() const {
  return ArmStats{rls_.r(), rls_.z(), rls_.n_observations()};
}

void LinearArmModel::export_stats(ArmStats& out) const {
  out.r = rls_.r();
  out.z = rls_.z();
  out.n = rls_.n_observations();
}

double LinearArmModel::predict(std::span<const double> x) const {
  BW_CHECK_MSG(x.size() == dim_, "arm model: feature size mismatch");
  return rls_.predict(x);
}

linalg::LinearModel LinearArmModel::model() const {
  const linalg::Vector& theta = rls_.theta();
  return linalg::LinearModel{linalg::Vector(theta.begin(), theta.end() - 1), theta.back(),
                             rls_.n_observations()};
}

double LinearArmModel::variance_proxy(std::span<const double> x) const {
  return rls_.variance_proxy(x);
}

}  // namespace bw::core
