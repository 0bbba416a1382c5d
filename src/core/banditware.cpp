#include "core/banditware.hpp"

#include <sstream>

#include "common/error.hpp"
#include "core/frozen_model.hpp"
#include "io/state_io.hpp"

namespace bw::core {

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

const LinearArmModel& BanditWare::arm_model(ArmIndex arm) const {
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
  BW_CHECK_MSG(other.feature_names_ == feature_names_,
               "merge_from: feature names mismatch");
  BW_CHECK_MSG(other.config_.policy_kind == config_.policy_kind,
               "merge_from: policy kinds mismatch (" + to_string(config_.policy_kind) +
                   " vs " + to_string(other.config_.policy_kind) +
                   ") — cross-policy fusion is undefined");
  const auto& mine = config_.policy;
  const auto& theirs = other.config_.policy;
  BW_CHECK_MSG(mine.fit.ridge == theirs.fit.ridge,
               "merge_from: ridge prior mismatch — fusion would not be exact");
  BW_CHECK_MSG(mine.fit.forgetting == theirs.fit.forgetting,
               "merge_from: forgetting factor mismatch — fusion would not be exact");
  switch (config_.policy_kind) {
    case PolicyKind::kEpsilonGreedy:
      BW_CHECK_MSG(mine.initial_epsilon == theirs.initial_epsilon &&
                       mine.decay == theirs.decay,
                   "merge_from: exploration schedule mismatch");
      break;
    case PolicyKind::kLinUcb:
      BW_CHECK_MSG(config_.alpha == other.config_.alpha,
                   "merge_from: linucb alpha mismatch");
      break;
    case PolicyKind::kThompson:
      BW_CHECK_MSG(config_.posterior_scale == other.config_.posterior_scale,
                   "merge_from: thompson posterior scale mismatch");
      break;
  }
  if (base != nullptr) {
    BW_CHECK_MSG(base->feature_names_ == feature_names_,
                 "merge_from: base feature names mismatch");
    BW_CHECK_MSG(base->config_.policy_kind == config_.policy_kind,
                 "merge_from: base policy kind mismatch");
  }

  // ε decays by α once per observation, so absorbing other's stream maps to
  // multiplying the decay factors each side accumulated since the shared
  // starting point (ε₀, or the common ancestor's ε under replica sync).
  // LinUCB/Thompson carry no mutable scalar state outside the arms — their
  // exploration width is posterior-driven, so the arm fusion below is the
  // whole merge.
  double merged_epsilon = 0.0;
  if (eps_greedy() != nullptr) {
    const double eps_anchor = base != nullptr ? base->epsilon() : mine.initial_epsilon;
    merged_epsilon =
        eps_anchor > 0.0 ? epsilon() * other.epsilon() / eps_anchor : 0.0;
  }

  auto base_model_for = [base](const std::string& name) -> const LinearArmModel* {
    if (base == nullptr) return nullptr;
    const auto index = base->catalog_.index_of(name);
    return index ? &base->banked().arm_model(*index) : nullptr;
  };

  // Union of arms: self arms keep their indices, other-only arms append.
  hw::HardwareCatalog merged_catalog = catalog_;
  for (ArmIndex j = 0; j < other.catalog_.size(); ++j) {
    const hw::HardwareSpec& spec = other.catalog_[j];
    if (const auto index = merged_catalog.index_of(spec.name)) {
      BW_CHECK_MSG(merged_catalog[*index] == spec,
                   "merge_from: conflicting specs for arm " + spec.name);
    } else {
      merged_catalog.add(spec);
    }
  }
  if (merged_catalog.size() != catalog_.size()) {
    // Rebuild around the wider catalog, carrying our learned arms across
    // (indices are preserved; resource costs recompute from the catalog).
    BanditWare widened(merged_catalog, feature_names_, config_);
    for (ArmIndex arm = 0; arm < catalog_.size(); ++arm) {
      widened.banked().bank().assign_arm(arm, banked().arm_model(arm));
    }
    *this = std::move(widened);
  }

  for (ArmIndex j = 0; j < other.catalog_.size(); ++j) {
    const std::string& name = other.catalog_[j].name;
    const auto index = catalog_.index_of(name);
    banked().bank().merge_arm(*index, other.banked().arm_model(j), base_model_for(name));
  }
  if (auto* eps = eps_greedy()) eps->set_epsilon(merged_epsilon);
}

BanditWareStats BanditWare::export_stats() const {
  BanditWareStats stats;
  stats.epsilon = epsilon();
  stats.arms.reserve(catalog_.size());
  for (ArmIndex arm = 0; arm < catalog_.size(); ++arm) {
    stats.arms.push_back(banked().arm_model(arm).export_stats());
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
  for (ArmIndex arm = 0; arm < restored.num_arms(); ++arm) {
    restored.banked().bank().restore_arm(arm, stats.arms[arm]);
  }
  if (auto* eps = restored.eps_greedy()) eps->set_epsilon(stats.epsilon);
  return restored;
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
    total += banked().arm_model(arm).count();
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
