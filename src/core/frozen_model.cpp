#include "core/frozen_model.hpp"

#include "common/error.hpp"
#include "core/score_scratch.hpp"
#include "linalg/gemm.hpp"

namespace bw::core {

FrozenModel::FrozenModel(std::vector<double> weight_plane,
                         std::shared_ptr<const std::vector<double>> resource_costs,
                         ToleranceParams tolerance, std::size_t num_features,
                         std::uint64_t epoch)
    : weight_plane_(std::move(weight_plane)),
      resource_costs_(std::move(resource_costs)),
      tolerance_(tolerance),
      num_features_(num_features),
      epoch_(epoch) {
  BW_CHECK_MSG(num_features_ > 0, "frozen model needs at least one feature");
  BW_CHECK_MSG(resource_costs_ != nullptr && !resource_costs_->empty(),
               "frozen model needs at least one arm");
  num_arms_ = resource_costs_->size();
  BW_CHECK_MSG(weight_plane_.size() == (num_features_ + 1) * num_arms_,
               "frozen model: coefficient plane is not (d+1) x arms");
}

TolerantChoice FrozenModel::recommend_choice(const FeatureVector& x) const {
  BW_CHECK_MSG(x.size() == num_features_, "feature vector size mismatch");
  DecisionScratch& scratch = DecisionScratch::local();
  scratch.ensure(num_arms_, num_features_, 1);
  for (std::size_t i = 0; i < num_features_; ++i) scratch.panel[i] = x[i];
  scratch.panel[num_features_] = 1.0;
  linalg::score_block(weight_plane_.data(), num_arms_, num_features_ + 1,
                      scratch.panel.data(), 1, scratch.scores.data());
  return tolerant_select(
      std::span<const double>(scratch.scores.data(), num_arms_),
      *resource_costs_, tolerance_);
}

TolerantChoice FrozenModel::recommend_choice_scalar(const FeatureVector& x) const {
  BW_CHECK_MSG(x.size() == num_features_, "feature vector size mismatch");
  DecisionScratch& scratch = DecisionScratch::local();
  scratch.ensure(num_arms_, num_features_, 1);
  const double* bias = weight_plane_.data() + num_features_ * num_arms_;
  for (ArmIndex arm = 0; arm < num_arms_; ++arm) {
    // LinearModel::predict's order: dot(w, x) ascending from 0.0, then + b.
    double acc = 0.0;
    for (std::size_t i = 0; i < num_features_; ++i) {
      acc += weight_plane_[i * num_arms_ + arm] * x[i];
    }
    scratch.scores[arm] = acc + bias[arm];
  }
  return tolerant_select(
      std::span<const double>(scratch.scores.data(), num_arms_),
      *resource_costs_, tolerance_);
}

void FrozenModel::recommend_greedy_batch(std::span<const FeatureVector> xs,
                                         std::span<const std::size_t> items,
                                         std::span<TolerantChoice> out) const {
  BW_CHECK_MSG(out.size() == items.size(),
               "recommend_greedy_batch: output size mismatch");
  if (items.empty()) return;
  const std::size_t b = items.size();
  DecisionScratch& scratch = DecisionScratch::local();
  scratch.ensure(num_arms_, num_features_, b);
  for (std::size_t j = 0; j < b; ++j) {
    BW_CHECK_MSG(items[j] < xs.size(), "recommend_greedy_batch: item out of range");
    const FeatureVector& x = xs[items[j]];
    BW_CHECK_MSG(x.size() == num_features_, "feature vector size mismatch");
    // Context-major pack: row j of the panel is [x_j; 1] (see gemm.hpp).
    double* row = scratch.panel.data() + j * (num_features_ + 1);
    for (std::size_t kk = 0; kk < num_features_; ++kk) row[kk] = x[kk];
    row[num_features_] = 1.0;
  }
  linalg::score_block(weight_plane_.data(), num_arms_, num_features_ + 1,
                      scratch.panel.data(), b, scratch.scores.data());
  for (std::size_t j = 0; j < b; ++j) {
    out[j] = tolerant_select(
        std::span<const double>(scratch.scores.data() + j * num_arms_, num_arms_),
        *resource_costs_, tolerance_);
  }
}

std::vector<TolerantChoice> FrozenModel::recommend_greedy_batch(
    std::span<const FeatureVector> xs) const {
  std::vector<std::size_t> items(xs.size());
  for (std::size_t j = 0; j < items.size(); ++j) items[j] = j;
  std::vector<TolerantChoice> out(xs.size());
  recommend_greedy_batch(xs, items, out);
  return out;
}

std::vector<double> FrozenModel::weight_row(ArmIndex arm) const {
  BW_CHECK_MSG(arm < num_arms_, "arm index out of range");
  std::vector<double> row(num_features_ + 1);
  for (std::size_t i = 0; i <= num_features_; ++i) {
    row[i] = weight_plane_[i * num_arms_ + arm];
  }
  return row;
}

}  // namespace bw::core
