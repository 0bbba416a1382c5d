// The plain-text snapshot codecs — `banditware-state v1..v5` and
// `banditserver-state v1..v6`. The writers emit one version each: v5 / v6,
// with the λ, ridge and policy lines always present and one evidence
// record (z and R's upper triangle) per arm. Every older body is
// load-only. (θ, P) records (bandit v2-v4, inside server v2-v5) convert
// once through the RLS (A = P⁻¹, R = chol(A), z = Rθ), which rejects a P
// that is not positive definite. Raw observation rows — v1 bodies and
// v2-v4 `obs` records under `exact_history 1` — replay into the recursive
// arms. Shard blob reads are bounded by chunked reads instead of
// rdbuf()->in_avail(), because in_avail() only sees the buffered portion
// of a file stream and the codec reads from arbitrary istreams.

#include <iomanip>
#include <sstream>

#include "common/error.hpp"
#include "io/codec.hpp"
#include "io/state_access.hpp"

namespace bw::io::detail {
namespace {

using core::ArmIndex;
using core::BanditWare;
using core::FeatureVector;
using core::PolicyKind;

[[noreturn]] void fail(const std::string& what) {
  throw ParseError("BanditWare::load_state: " + what);
}

/// Reads a per-arm observation count defensively: the stream extracts a
/// signed value so "-3" is caught as negative instead of wrapping to a
/// huge unsigned count, and overflow sets failbit. The cap keeps a
/// mis-parsed count from turning into a multi-gigabyte replay allocation.
std::size_t read_obs_count(std::istream& is) {
  long long obs = 0;
  is >> obs;
  if (!is) fail("malformed obs count");
  if (obs < 0) fail("negative obs count");
  if (static_cast<std::uint64_t>(obs) > kMaxObservationsPerArm) {
    fail("obs count exceeds limit");
  }
  return static_cast<std::size_t>(obs);
}

struct SnapshotHeader {
  core::BanditWareConfig config;
  /// Legacy flag: the arms carry raw observation rows (`obs` records).
  bool exact_history = false;
  double epsilon = 1.0;
  std::vector<std::string> feature_names;
  std::size_t num_arms = 0;
};

/// One legacy arm's raw observation rows, restored by replay.
struct ArmRows {
  std::vector<FeatureVector> xs;
  std::vector<double> ys;
};

/// Reads `n` rows of `dim` features followed by the runtime.
void read_rows(std::istream& is, std::size_t dim, std::size_t n, ArmRows& rows) {
  for (std::size_t i = 0; i < n; ++i) {
    FeatureVector x(dim);
    double y = 0.0;
    for (double& v : x) is >> v;
    is >> y;
    if (!is) fail("truncated observation");
    rows.xs.push_back(std::move(x));
    rows.ys.push_back(y);
  }
}

/// Replays rows through the policy: O(n d^2) with the recursive arm. The
/// replay decays ε; callers reinstate the snapshot's ε afterwards.
void replay_rows(BanditWare& bandit, ArmIndex arm, const ArmRows& rows) {
  for (std::size_t i = 0; i < rows.xs.size(); ++i) {
    StateAccess::banked(bandit).observe(arm, rows.xs[i], rows.ys[i]);
  }
}

/// Parses the config / epsilon / features / arms preamble shared by v1-v5
/// (v2-v4 additionally carry the exact_history flag on the config line, and
/// v1 holds raw rows only; the lambda, ridge and policy lines are read by
/// the caller before this preamble).
SnapshotHeader read_header(std::istream& is, int version) {
  SnapshotHeader header;
  header.exact_history = version == 1;
  std::string token;
  is >> token;
  if (token != "epsilon0") fail("expected epsilon0");
  is >> header.config.policy.initial_epsilon;
  is >> token >> header.config.policy.decay;
  is >> token >> header.config.policy.tolerance.ratio;
  is >> token >> header.config.policy.tolerance.seconds;
  if (version >= 2 && version <= 4) {
    int exact = 0;
    is >> token >> exact;
    if (token != "exact_history") fail("expected exact_history");
    header.exact_history = exact != 0;
  }
  is >> token;
  if (token != "epsilon") fail("expected epsilon");
  is >> header.epsilon;

  std::size_t num_features = 0;
  is >> token >> num_features;
  // Check the stream BEFORE acting on the count: an overflowed extraction
  // leaves a garbage value that must not reach resize().
  if (!is || token != "features" || num_features == 0) fail("expected features");
  if (num_features > kMaxFeatures) fail("feature count exceeds limit");
  header.feature_names.resize(num_features);
  for (auto& name : header.feature_names) is >> name;

  is >> token >> header.num_arms;
  if (!is || token != "arms" || header.num_arms == 0) fail("expected arms");
  if (header.num_arms > kMaxArms) fail("arm count exceeds limit");
  return header;
}

/// One v5 evidence record: `z` with d+1 values, then R's upper triangle,
/// one `R` line per row.
void read_evidence(std::istream& is, std::size_t dim, core::ArmStats& stats) {
  const std::size_t dim_aug = dim + 1;
  std::string token;
  is >> token;
  if (token != "z") fail("expected z");
  stats.z.resize(dim_aug);
  for (double& v : stats.z) is >> v;
  stats.r.resize(linalg::RecursiveLeastSquares::packed_size(dim));
  std::size_t at = 0;
  for (std::size_t row = 0; row < dim_aug; ++row) {
    is >> token;
    if (token != "R") fail("expected R row");
    for (std::size_t c = row; c < dim_aug; ++c) is >> stats.r[at++];
  }
  if (!is) fail("truncated evidence");
}

/// One legacy (θ, P) record, converted to evidence by the RLS.
void read_covariance(std::istream& is, std::size_t dim, core::ArmStats& stats) {
  const std::size_t dim_aug = dim + 1;
  std::string token;
  is >> token;
  if (token != "theta") fail("expected theta");
  linalg::Vector theta(dim_aug);
  for (double& v : theta) is >> v;
  linalg::Matrix p(dim_aug, dim_aug);
  for (std::size_t r = 0; r < dim_aug; ++r) {
    is >> token;
    if (token != "P") fail("expected P row");
    for (std::size_t c = 0; c < dim_aug; ++c) is >> p(r, c);
  }
  if (!is) fail("truncated sufficient statistics");
  if (!linalg::RecursiveLeastSquares::information_from_covariance(p, theta, stats.r,
                                                                  stats.z)) {
    fail("covariance P is not positive definite");
  }
}

BanditWare load_bandit_body(std::istream& is, int version) {
  std::string token;
  PolicyKind kind = PolicyKind::kEpsilonGreedy;
  double alpha = 1.0;
  double posterior_scale = 1.0;
  double lambda = 1.0;  // v1-v3 predate the discount: legacy loads as λ=1
  double ridge = 0.0;   // v1-v4 predate the persisted ridge: the default prior
  // λ, the ridge, α and v are range-checked by the RLS and policy
  // constructors (the io entry points turn their InvalidArgument into
  // ParseError).
  if (version >= 4) {
    is >> token >> lambda;
    if (!is || token != "lambda") fail("expected lambda");
  }
  if (version >= 5) {
    is >> token >> ridge;
    if (!is || token != "ridge") fail("expected ridge");
  }
  if (version >= 3) {
    is >> token;
    if (!is || token != "policy") fail("expected policy");
    std::string kind_name;
    is >> kind_name;
    if (!is) fail("truncated policy line");
    kind = core::parse_policy_kind(kind_name);
    if (kind == PolicyKind::kLinUcb) {
      is >> token >> alpha;
      if (!is || token != "alpha") fail("expected alpha");
    } else if (kind == PolicyKind::kThompson) {
      is >> token >> posterior_scale;
      if (!is || token != "posterior_scale") fail("expected posterior_scale");
    }
  }
  SnapshotHeader header = read_header(is, version);
  header.config.policy_kind = kind;
  header.config.alpha = alpha;
  header.config.posterior_scale = posterior_scale;
  header.config.policy.fit.forgetting = lambda;
  header.config.policy.fit.ridge = ridge;
  // Row-carrying snapshots were only ever written for ε-greedy at λ = 1; a
  // snapshot claiming rows with anything else is corrupt.
  if (header.exact_history && (lambda != 1.0 || kind != PolicyKind::kEpsilonGreedy)) {
    fail("exact_history rows require an epsilon-greedy snapshot with lambda 1");
  }
  const std::size_t dim = header.feature_names.size();

  struct ArmState {
    bool exact = false;
    core::ArmStats stats;  // evidence (v5) or converted (θ, P) record
    ArmRows rows;          // legacy obs record
  };
  std::vector<ArmState> arms(header.num_arms);
  hw::HardwareCatalog catalog;
  for (auto& arm : arms) {
    hw::HardwareSpec spec;
    is >> token;
    if (token != "arm") fail("expected arm record");
    is >> spec.name >> spec.cpus >> spec.memory_gb;
    if (version >= 2) is >> spec.gpus;  // v1 predates the gpus column
    is >> token;
    if (token != "obs" && token != "stats") fail("expected obs or stats count");
    arm.exact = token == "obs";
    if (arm.exact != header.exact_history) {
      fail("arm record kind contradicts exact_history flag");
    }
    arm.stats.n = read_obs_count(is);
    if (!is) fail("truncated arm header");
    catalog.add(spec);
    if (arm.exact) {
      read_rows(is, dim, arm.stats.n, arm.rows);
    } else if (version >= 5) {
      read_evidence(is, dim, arm.stats);
    } else {
      read_covariance(is, dim, arm.stats);
    }
  }
  if (version >= 2) {  // v1 predates the end trailer
    is >> token;
    if (token != "end") fail("truncated state (missing end trailer)");
  }

  BanditWare restored(std::move(catalog), header.feature_names, header.config);
  for (ArmIndex arm = 0; arm < restored.num_arms(); ++arm) {
    ArmState& state = arms[arm];
    if (state.exact) {
      replay_rows(restored, arm, state.rows);
    } else {
      StateAccess::banked(restored).bank().restore_arm(arm, state.stats);
    }
  }
  // A replay decays ε; the snapshot's value is authoritative (the original
  // run may have interleaved other decays).
  if (auto* eps = StateAccess::eps_greedy(restored)) eps->set_epsilon(header.epsilon);
  return restored;
}

}  // namespace

std::string bandit_state_text(const BanditWare& bandit) {
  // Evidence (R, z, n) per arm — O(arms * d^2) regardless of history
  // length. Non-ε policies carry no decaying exploration rate; the epsilon
  // line round-trips the schedule origin so every kind shares one header.
  const core::BanditWareConfig& config = bandit.config();
  const hw::HardwareCatalog& catalog = bandit.catalog();
  std::ostringstream os;
  os << std::setprecision(17);
  os << "banditware-state v5\n";
  os << "lambda " << config.policy.fit.forgetting << "\n";
  os << "ridge " << config.policy.fit.ridge << "\n";
  os << "policy " << core::to_string(config.policy_kind);
  if (config.policy_kind == PolicyKind::kLinUcb) {
    os << " alpha " << config.alpha;
  } else if (config.policy_kind == PolicyKind::kThompson) {
    os << " posterior_scale " << config.posterior_scale;
  }
  os << "\n";
  const double epsilon_line = config.policy_kind == PolicyKind::kEpsilonGreedy
                                  ? bandit.epsilon()
                                  : config.policy.initial_epsilon;
  os << "epsilon0 " << config.policy.initial_epsilon << " decay " << config.policy.decay
     << " tol_ratio " << config.policy.tolerance.ratio << " tol_seconds "
     << config.policy.tolerance.seconds << "\n";
  os << "epsilon " << epsilon_line << "\n";
  os << "features " << bandit.feature_names().size();
  for (const auto& name : bandit.feature_names()) os << ' ' << name;
  os << "\n";
  os << "arms " << catalog.size() << "\n";
  const std::size_t dim_aug = bandit.feature_names().size() + 1;
  for (ArmIndex arm = 0; arm < catalog.size(); ++arm) {
    const auto& spec = catalog[arm];
    const auto& rls = bandit.arm_model(arm);
    os << "arm " << spec.name << ' ' << spec.cpus << ' ' << spec.memory_gb << ' '
       << spec.gpus << " stats " << rls.n_observations() << "\n";
    os << "z";
    for (double v : rls.z()) os << ' ' << v;
    os << "\n";
    const double* r = rls.r().data();
    for (std::size_t row = 0; row < dim_aug; ++row) {
      os << "R";
      for (std::size_t c = row; c < dim_aug; ++c) os << ' ' << *r++;
      os << "\n";
    }
  }
  // Explicit trailer: a truncated numeric tail would still parse as a
  // (wrong) shorter number, so the reader verifies this sentinel instead.
  os << "end\n";
  return os.str();
}

core::BanditWare load_bandit_text(std::istream& is, int version) {
  if (version < 1 || version > 5) fail("bad header");
  return load_bandit_body(is, version);
}

std::string server_state_text(const serve::BanditServer& server) {
  // Consistent cut: the fuse lock plus every shard lock, shared, held while
  // the text is assembled (see StateAccess::lock_snapshot).
  const StateAccess::ServerReadLock lock = StateAccess::lock_snapshot(server);

  // The header repeats the engine's λ, ridge and policy kind; the shard
  // blobs carry them too (with the policy scalars), and the loader checks
  // the header against the engine the blobs restore.
  const serve::BanditServerConfig& config = server.config();
  const std::size_t num_shards = StateAccess::num_shards(server);
  std::ostringstream os;
  os << "banditserver-state v6\n";
  os << "shards " << num_shards << " sharding " << to_string(config.sharding)
     << " seed " << config.seed << " threads " << config.num_threads << " explore "
     << (config.explore ? 1 : 0) << " sync_every " << config.sync_every
     << " sync_mode " << to_string(config.sync_mode) << std::setprecision(17)
     << " lambda " << config.bandit.policy.fit.forgetting << " ridge "
     << config.bandit.policy.fit.ridge << " policy "
     << core::to_string(config.bandit.policy_kind);
  os << " observe_batches " << StateAccess::observe_batches(server) << " rr_counter "
     << StateAccess::rr_counter(server) << "\n";
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::string state = bandit_state_text(StateAccess::shard_bandit(server, s));
    os << "shard " << s << " bytes " << state.size() << "\n" << state;
  }
  // The sync baseline rides along so a restored server keeps merging
  // exactly (the shared fuse lock serializes against baseline swaps).
  const std::string base_state = bandit_state_text(StateAccess::sync_base(server));
  os << "base bytes " << base_state.size() << "\n" << base_state;
  return os.str();
}

serve::BanditServer load_server_text(std::istream& is, int version) {
  std::string line;
  auto fail = [](const std::string& what) -> void {
    throw ParseError("BanditServer::load_state: " + what);
  };

  serve::BanditServerConfig config;
  std::size_t num_shards = 0;
  std::string token;
  std::string sharding_name;
  int explore = 1;
  std::uint64_t rr_counter = 0;
  std::uint64_t observe_batches = 0;
  is >> token >> num_shards;
  // Stream state is checked BEFORE the count is used: an overflowed
  // extraction must not turn into a huge replica allocation.
  if (!is || token != "shards" || num_shards == 0) fail("expected shards");
  if (num_shards > kMaxShards) fail("shard count exceeds limit");
  is >> token >> sharding_name;
  if (!is || token != "sharding") fail("expected sharding");
  config.sharding = serve::parse_sharding_policy(sharding_name);
  is >> token >> config.seed;
  if (!is || token != "seed") fail("expected seed");
  is >> token >> config.num_threads;
  if (!is || token != "threads") fail("expected threads");
  // Same cap as shards: a corrupted count (e.g. "-7" wrapping to ~1.8e19)
  // must fail cleanly here, not inside ThreadPool's worker reserve.
  if (config.num_threads > kMaxShards) fail("thread count exceeds limit");
  is >> token >> explore;
  if (!is || token != "explore") fail("expected explore");
  config.explore = explore != 0;
  // What the header declares about the engine's shape, checked against the
  // restored engine at the end: ε-greedy at λ = 1 with the default ridge
  // until v4 / v5 / v6 say otherwise (v1-v3 predate the policy axis, v1-v4
  // the discount, v1-v5 the persisted ridge).
  PolicyKind header_kind = PolicyKind::kEpsilonGreedy;
  double header_lambda = 1.0;
  double header_ridge = 0.0;
  if (version >= 2) {
    is >> token >> config.sync_every;
    if (!is || token != "sync_every") fail("expected sync_every");
    if (version >= 3) {
      // v2 predates SyncMode; restored v2 servers default to inline.
      std::string mode_name;
      is >> token >> mode_name;
      if (!is || token != "sync_mode") fail("expected sync_mode");
      config.sync_mode = serve::parse_sync_mode(mode_name);
    }
    if (version >= 5) {
      is >> token >> header_lambda;
      if (!is || token != "lambda") fail("expected lambda");
    }
    if (version >= 6) {
      is >> token >> header_ridge;
      if (!is || token != "ridge") fail("expected ridge");
    }
    if (version >= 4) {
      std::string policy_name;
      is >> token >> policy_name;
      if (!is || token != "policy") fail("expected policy");
      header_kind = core::parse_policy_kind(policy_name);
    }
    // The auto-sync cadence phase: without it a restored server with
    // sync_every > 1 would sync on different batches than the original.
    is >> token >> observe_batches;
    if (!is || token != "observe_batches") fail("expected observe_batches");
  }
  is >> token >> rr_counter;
  if (!is || token != "rr_counter") fail("expected rr_counter");
  if (!std::getline(is, line)) fail("truncated header");

  auto read_blob = [&](const char* what) -> std::string {
    std::size_t bytes = 0;
    is >> token >> bytes;
    if (!is || token != "bytes") fail(std::string("expected ") + what + " byte count");
    if (!std::getline(is, line)) fail(std::string("truncated ") + what + " header");
    // Read in chunks so the allocation is bounded by the bytes the stream
    // actually provides — a corrupted byte count must fail cleanly, not
    // bad_alloc. (in_avail() cannot bound this: it only sees the buffered
    // portion of a file stream.)
    std::string blob;
    constexpr std::size_t kChunk = 1u << 16;
    while (blob.size() < bytes) {
      const std::size_t want = std::min(kChunk, bytes - blob.size());
      const std::size_t old = blob.size();
      blob.resize(old + want);
      is.read(blob.data() + old, static_cast<std::streamsize>(want));
      if (static_cast<std::size_t>(is.gcount()) != want) {
        fail(std::string("truncated ") + what + " blob");
      }
    }
    return blob;
  };

  std::vector<core::BanditWare> replicas;
  replicas.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    std::size_t index = 0;
    is >> token >> index;
    if (!is || token != "shard" || index != s) fail("expected shard record");
    replicas.push_back(BanditWare::load_state(read_blob("shard")));
  }

  // v1 snapshots predate cross-shard sync; their baseline is the prior
  // (reconstructed by the constructor when no base is passed).
  std::unique_ptr<core::BanditWare> base;
  if (version >= 2) {
    is >> token;
    if (!is || token != "base") fail("expected base record");
    base = std::make_unique<core::BanditWare>(BanditWare::load_state(read_blob("base")));
  }

  // The restore constructor holds every blob to the first one; what is
  // left is the header's word against the engine's.
  serve::BanditServer server = StateAccess::make_server(
      config, std::move(replicas), std::move(base), rr_counter, observe_batches);
  const core::BanditWareConfig& engine = server.config().bandit;
  if (engine.policy_kind != header_kind) {
    fail("shard policy '" + core::to_string(engine.policy_kind) +
         "' contradicts the header policy '" + core::to_string(header_kind) + "'");
  }
  if (engine.policy.fit.forgetting != header_lambda) {
    fail("shard lambda contradicts the header lambda");
  }
  if (engine.policy.fit.ridge != header_ridge) {
    fail("shard ridge contradicts the header ridge");
  }
  return server;
}

}  // namespace bw::io::detail
