// Population-size-independent approximate training (the server-side half of
// ml/krr_approx.h).
//
// The exact trainer samples `negative_ratio * n_pos` impostor vectors per
// user and solves an O(N^3) Gram system, so its cost grows with how much of
// the population it is allowed to see. The approximate trainer instead
// summarizes the WHOLE population once per context into fixed-size
// sufficient statistics in feature space
//
//   G = sum_v z(v~) z(v~)^T   (D x D),   s = sum_v z(v~)   (D),
//
// where v~ is the stored vector standardized by a population scaler and z is
// the shared feature map (RFF or Nystrom). A user's model is then the
// weighted ridge solution
//
//   (Zp^T Zp + beta (G - G_u) + rho I) w = Zp^T 1 - beta (s - s_u),
//   beta = negative_ratio * n_pos / N_eff,
//
// with Zp the user's standardized+mapped positives and (G_u, s_u) the
// statistics of the user's own contributions (exact self-exclusion). Per-user
// cost is O(n_pos D^2 + D^3) — independent of the population size — and the
// statistics build is shared across every user in a batch, exactly like the
// COW snapshot itself. Relative to the exact path this also removes the
// impostor-sampling variance: every population vector contributes with
// weight beta instead of `want` of them contributing with weight 1.
//
// Determinism contract (tests/core_approx_training_test):
//   * The statistics are a pure function of bucket CONTENT, not history:
//     they cover the largest power-of-two prefix of the bucket, the scaler
//     is fit on that prefix, and Nystrom landmarks are drawn from it with
//     the deterministic sample_landmark_indices. Two stores holding the same
//     vectors in the same order — two runs, or a recovered replica — yield
//     bitwise-identical statistics and therefore bitwise-identical models.
//   * The pow2-floor prefix means stats rebuild only at size doublings
//     (amortized O(1) rebuilds per contribution) and a cache entry stays
//     valid across appends that do not cross a doubling.
//   * Self-exclusion is vector-exact: every StoredVector inside the prefix
//     carries its contributor token, and subtracting the z-statistics of the
//     vectors bearing the user's token removes their data exactly. The check
//     is per vector, never per block header: a live bucket holds one
//     contributor per block, but snapshot recovery rebuilds a whole shard's
//     context as one merged block mixing contributors, and exclusion must be
//     identical across both layouts. Transforms still run only on the user's
//     own vectors.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/auth_server.h"
#include "ml/krr.h"
#include "ml/krr_approx.h"
#include "ml/scaler.h"

namespace sy::core {

// Largest power of two <= n. Requires n >= 1.
std::size_t pow2_floor(std::size_t n);

// Shared per-context sufficient statistics in feature space. Immutable once
// built; shared across threads via shared_ptr<const>.
struct ApproxContextStats {
  std::size_t dim{0};             // raw feature dimension M
  std::size_t prefix_vectors{0};  // pow2_floor(bucket size) at build time
  // Population scaler fit on the prefix (stored into every ContextModel the
  // stats train, so the scoring pipeline is unchanged).
  ml::StandardScaler scaler;
  std::shared_ptr<const ml::KrrFeatureMap> map;
  ml::Matrix gram;                  // G: D x D, over the standardized prefix
  std::vector<double> feature_sum;  // s: D
  // Cache identity: the block handles covering the prefix at build time,
  // plus the config fields the map/scaler depend on. A bucket whose covering
  // prefix still aliases these exact blocks has identical content, so the
  // entry is reusable; a recovered store rebuilds blocks (different
  // pointers, same content) and deterministically rebuilds to the same bits.
  // Shared handles, not raw pointers: the entry keeps its blocks alive, so a
  // pointer match can never be an ABA false hit against a freed-and-reused
  // address.
  std::vector<VectorBlock> prefix_blocks;
  ml::TrainingMode mode{ml::TrainingMode::kExact};
  std::size_t approx_dim{0};
  std::uint64_t approx_seed{0};
  ml::KernelType kernel_type{ml::KernelType::kRbf};
  double kernel_gamma{0.0};  // effective (dim-resolved) gamma
};

// Builds the shared statistics for one context bucket. Pure function of
// (bucket content, dim, config.kernel/mode/approx_dim/approx_seed). Requires
// a non-empty bucket and config.mode != kExact.
ApproxContextStats build_approx_context_stats(const PopulationBucket& bucket,
                                              std::size_t dim,
                                              const ml::KrrConfig& config);

// The z-statistics of one user's own vectors inside the stats prefix — the
// exact quantity to subtract from (G, s) for self-exclusion. Contributor is
// matched per vector, so the result is independent of block layout (live
// per-contribution blocks vs a recovered merged block).
struct ExclusionStats {
  ml::Matrix gram;
  std::vector<double> sum;
  std::size_t count{0};
};
ExclusionStats user_exclusion_stats(const ApproxContextStats& stats,
                                    const PopulationBucket& bucket,
                                    int user_token);

// Solves the weighted ridge system above for one user. Requires
// positives non-empty and excl.count < stats.prefix_vectors.
ml::KrrClassifier train_classifier_from_stats(
    const ApproxContextStats& stats, const ExclusionStats& excl,
    const std::vector<std::vector<double>>& positives,
    const TrainingConfig& config);

// Thread-safe cache of shared statistics, one entry per context. get()
// returns the cached entry when the bucket's covering prefix still aliases
// the entry's exact blocks (and the config identity matches), else rebuilds.
// The gateway's enroll and its retrain queue share one cache, so the build
// is paid once per snapshot prefix, not once per user.
class ApproxStatsCache {
 public:
  std::shared_ptr<const ApproxContextStats> get(
      sensors::DetectedContext context, const PopulationBucket& bucket,
      std::size_t dim, const ml::KrrConfig& config);

  struct Stats {
    std::size_t hits{0};
    std::size_t builds{0};
  };
  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::map<sensors::DetectedContext, std::shared_ptr<const ApproxContextStats>>
      entries_;
  Stats stats_;
};

// Approximate counterpart of train_user_from_store (train_user_from_store
// routes here when config.krr.mode != kExact). Same error semantics: throws
// when a requested context has no impostor data or only this user's data.
// `cache` may be null (statistics are then built per call).
AuthModel train_user_approx(const PopulationStore& store,
                            const TrainingConfig& config, int user_token,
                            const VectorsByContext& positives, int version,
                            ApproxStatsCache* cache = nullptr);

}  // namespace sy::core
