#include "core/epsilon_greedy.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bw::core {

namespace {

ArmBank make_bank(const hw::HardwareCatalog& catalog, std::size_t num_features,
                  const EpsilonGreedyConfig& config) {
  BW_CHECK_MSG(config.initial_epsilon >= 0.0 && config.initial_epsilon <= 1.0,
               "initial epsilon must be in [0,1]");
  BW_CHECK_MSG(config.decay > 0.0 && config.decay <= 1.0, "decay must be in (0,1]");
  return ArmBank(catalog, num_features, config.fit, config.tolerance,
                 config.resource_weights);
}

}  // namespace

DecayingEpsilonGreedy::DecayingEpsilonGreedy(const hw::HardwareCatalog& catalog,
                                             std::size_t num_features,
                                             EpsilonGreedyConfig config)
    : BankedPolicy(make_bank(catalog, num_features, config)),
      config_(config),
      epsilon_(config.initial_epsilon) {}

ArmIndex DecayingEpsilonGreedy::select(const FeatureVector& x, Rng& rng) {
  // Line 6: with probability ε, explore uniformly at random.
  if (rng.bernoulli(epsilon_)) {
    last_was_exploration_ = true;
    return rng.index(bank_.size());
  }
  last_was_exploration_ = false;
  // Line 7: tolerant selection over the current estimates.
  return recommend(x);
}

void DecayingEpsilonGreedy::observe(ArmIndex arm, const FeatureVector& x,
                                    double runtime_s) {
  bank_.observe(arm, x, runtime_s);  // lines 10-11: store + least squares
  epsilon_ *= config_.decay;         // line 12: ε <- α ε
}

double fuse_epsilon(double epsilon, double other, double anchor) {
  return std::clamp(anchor > 0.0 ? epsilon * other / anchor : 0.0, 0.0, 1.0);
}

void DecayingEpsilonGreedy::set_epsilon(double epsilon) {
  epsilon_ = std::clamp(epsilon, 0.0, 1.0);
}

void DecayingEpsilonGreedy::reset() {
  bank_.reset();
  epsilon_ = config_.initial_epsilon;
  last_was_exploration_ = false;
}

}  // namespace bw::core
