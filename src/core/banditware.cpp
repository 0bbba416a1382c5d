#include "core/banditware.hpp"

#include <sstream>

#include "common/error.hpp"
#include "core/frozen_model.hpp"
#include "io/state_io.hpp"

namespace bw::core {

void check_same_shape(const ModelShape& mine, const ModelShape& theirs,
                      std::string_view what) {
  const auto require = [what](bool same, const char* field) {
    if (!same) throw InvalidArgument(std::string(what) + ": " + field + " differs");
  };
  const BanditWareConfig& a = mine.config;
  const BanditWareConfig& b = theirs.config;
  require(theirs.catalog.specs() == mine.catalog.specs(), "catalog");
  require(theirs.feature_names == mine.feature_names, "feature names");
  require(b.policy_kind == a.policy_kind, "policy kind");
  switch (a.policy_kind) {
    case PolicyKind::kEpsilonGreedy:
      require(b.policy.initial_epsilon == a.policy.initial_epsilon &&
                  b.policy.decay == a.policy.decay,
              "exploration schedule");
      break;
    case PolicyKind::kLinUcb:
      require(b.alpha == a.alpha, "alpha");
      break;
    case PolicyKind::kThompson:
      require(b.posterior_scale == a.posterior_scale, "posterior scale");
      break;
  }
  require(b.policy.tolerance.ratio == a.policy.tolerance.ratio &&
              b.policy.tolerance.seconds == a.policy.tolerance.seconds,
          "tolerance");
  require(b.policy.fit.ridge == a.policy.fit.ridge, "ridge prior");
  require(b.policy.fit.forgetting == a.policy.fit.forgetting, "forgetting factor");
}

BanditWare::ProductionPolicy BanditWare::make_policy(const hw::HardwareCatalog& catalog,
                                                     std::size_t num_features,
                                                     const BanditWareConfig& config) {
  if (config.policy_kind == PolicyKind::kEpsilonGreedy) {
    return DecayingEpsilonGreedy(catalog, num_features, config.policy);
  }
  ArmBank bank(catalog, num_features, config.policy.fit, config.policy.tolerance,
               config.policy.resource_weights);
  if (config.policy_kind == PolicyKind::kLinUcb) {
    return LinUcb(std::move(bank), config.alpha);
  }
  return LinearThompson(std::move(bank), config.posterior_scale);
}

BankedPolicy& BanditWare::banked() {
  return std::visit([](auto& policy) -> BankedPolicy& { return policy; }, policy_);
}

const BankedPolicy& BanditWare::banked() const {
  return std::visit([](const auto& policy) -> const BankedPolicy& { return policy; },
                    policy_);
}

DecayingEpsilonGreedy* BanditWare::eps_greedy() {
  return std::get_if<DecayingEpsilonGreedy>(&policy_);
}

const DecayingEpsilonGreedy* BanditWare::eps_greedy() const {
  return std::get_if<DecayingEpsilonGreedy>(&policy_);
}

BanditWare::BanditWare(hw::HardwareCatalog catalog, std::vector<std::string> feature_names,
                       BanditWareConfig config)
    : catalog_(std::move(catalog)),
      feature_names_(std::move(feature_names)),
      config_(config),
      policy_(make_policy(catalog_, feature_names_.empty() ? 1 : feature_names_.size(),
                          config)) {
  BW_CHECK_MSG(!feature_names_.empty(), "BanditWare needs at least one feature name");
}

BanditWare::Decision BanditWare::next(const FeatureVector& x, Rng& rng) {
  BW_CHECK_MSG(x.size() == feature_names_.size(), "feature vector size mismatch");
  Decision decision;
  decision.arm = banked().select(x, rng);
  if (const auto* eps = eps_greedy()) {
    decision.explored = eps->last_was_exploration();
    decision.predicted_runtime_s = banked().predict(decision.arm, x);
  } else {
    // LinUCB/Thompson have no explicit explore/exploit coin; report whether
    // the pick differed from the tolerant-greedy recommendation. One
    // tolerant pass is the price of the diagnostic (select scores with
    // LCB/posterior draws, not the greedy means, so its pass cannot answer
    // this) — and it is reused for the prediction on the greedy pick, so
    // serving under the exclusive shard lock pays no third pass.
    const TolerantChoice greedy = banked().recommend_choice(x);
    decision.explored = decision.arm != greedy.arm;
    decision.predicted_runtime_s = decision.explored
                                       ? banked().predict(decision.arm, x)
                                       : greedy.predicted_runtime;
  }
  decision.spec = &catalog_[decision.arm];
  return decision;
}

const hw::HardwareSpec& BanditWare::recommend(const FeatureVector& x) const {
  return catalog_[recommend_index(x)];
}

ArmIndex BanditWare::recommend_index(const FeatureVector& x) const {
  BW_CHECK_MSG(x.size() == feature_names_.size(), "feature vector size mismatch");
  return banked().recommend(x);
}

void BanditWare::observe(ArmIndex arm, const FeatureVector& x, double runtime_s) {
  BW_CHECK_MSG(x.size() == feature_names_.size(), "feature vector size mismatch");
  banked().observe(arm, x, runtime_s);
}

double BanditWare::epsilon() const {
  const auto* eps = eps_greedy();
  return eps != nullptr ? eps->epsilon() : 0.0;
}

const linalg::RecursiveLeastSquares& BanditWare::arm_model(ArmIndex arm) const {
  return banked().arm_model(arm);
}

const DecayingEpsilonGreedy& BanditWare::policy() const {
  const auto* eps = eps_greedy();
  BW_CHECK_MSG(eps != nullptr,
               "policy(): instance runs '" + to_string(config_.policy_kind) +
                   "', not epsilon-greedy; use arm_model()/policy_kind()");
  return *eps;
}

void BanditWare::merge_from(const BanditWare& other, const BanditWare* base) {
  check_same_shape(shape(), other.shape(), "merge_from: other");
  if (base != nullptr) check_same_shape(shape(), base->shape(), "merge_from: base");
  ArmBank& bank = banked().bank();
  for (ArmIndex arm = 0; arm < num_arms(); ++arm) {
    bank.merge_arm(arm, other.arm_model(arm),
                   base != nullptr ? &base->arm_model(arm) : nullptr);
  }
  // ε decays once per observation, so absorbing other's stream multiplies
  // the decay each side accumulated since the shared starting point (ε₀,
  // or the common ancestor's ε under replica sync). LinUCB/Thompson carry
  // no mutable scalar outside the arms: the arm fusion is their whole merge.
  if (auto* eps = eps_greedy()) {
    const double anchor =
        base != nullptr ? base->epsilon() : config_.policy.initial_epsilon;
    eps->set_epsilon(fuse_epsilon(eps->epsilon(), other.epsilon(), anchor));
  }
}

BanditWareStats BanditWare::export_stats() const {
  BanditWareStats stats;
  stats.epsilon = epsilon();
  stats.arms.resize(catalog_.size());
  for (ArmIndex arm = 0; arm < catalog_.size(); ++arm) {
    copy_stats(arm_model(arm), stats.arms[arm]);
  }
  return stats;
}

BanditWare BanditWare::from_stats(const hw::HardwareCatalog& catalog,
                                  const std::vector<std::string>& feature_names,
                                  const BanditWareConfig& config,
                                  const BanditWareStats& stats) {
  BW_CHECK_MSG(stats.arms.size() == catalog.size(),
               "from_stats: arm count does not match the catalog");
  BanditWare restored(catalog, feature_names, config);
  restored.restore_stats(stats, std::vector<bool>(catalog.size(), true));
  return restored;
}

void BanditWare::restore_stats(const BanditWareStats& stats,
                               const std::vector<bool>& arms) {
  BW_CHECK_MSG(stats.arms.size() == num_arms() && arms.size() == num_arms(),
               "restore_stats: arm count does not match the catalog");
  for (ArmIndex arm = 0; arm < num_arms(); ++arm) {
    if (arms[arm]) banked().bank().restore_arm(arm, stats.arms[arm]);
  }
  if (auto* eps = eps_greedy()) eps->set_epsilon(stats.epsilon);
}

std::shared_ptr<const FrozenModel> BanditWare::freeze(std::uint64_t epoch) const {
  const ArmBank& bank = banked().bank();
  return std::make_shared<const FrozenModel>(bank.plane(), bank.shared_resource_costs(),
                                             bank.tolerance(), bank.dim(), epoch);
}

std::vector<double> BanditWare::predictions(const FeatureVector& x) const {
  BW_CHECK_MSG(x.size() == feature_names_.size(), "feature vector size mismatch");
  return banked().predict_all(x);
}

std::size_t BanditWare::num_observations() const {
  std::size_t total = 0;
  for (ArmIndex arm = 0; arm < catalog_.size(); ++arm) {
    total += arm_model(arm).n_observations();
  }
  return total;
}

std::string BanditWare::save_state() const {
  // Thin wrapper over the io layer (src/io/), which owns every snapshot
  // codec. Text is the default format; see io::save_state for binary.
  std::ostringstream os;
  io::save_state(os, *this, io::Format::kText);
  return os.str();
}

BanditWare BanditWare::load_state(const std::string& text) {
  // Thin wrapper over io::load_state, which auto-detects text v1-v5 and
  // the binary container from the leading bytes.
  std::istringstream is(text, std::ios::binary);
  return io::load_state(is);
}

}  // namespace bw::core
