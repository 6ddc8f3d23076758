// The cloud Authentication Server (paper §IV-A3).
//
// Hosts the anonymized population feature store and the training module.
// When a user enrolls (or a behavioral-drift retrain triggers), the phone
// uploads the legitimate user's authentication feature vectors; the server
// draws balanced anonymized impostor vectors from the other contributors,
// trains one KRR model per context, and ships the model bundle back.
// A simple network simulator accounts for transfer sizes and latency —
// training is the only phase that needs connectivity (§III).
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/auth_model.h"
#include "core/population_store.h"
#include "ml/krr.h"
#include "sensors/types.h"
#include "util/rng.h"

namespace sy::core {

// Per-context collection of raw (unscaled) authentication feature vectors.
using VectorsByContext =
    std::map<sensors::DetectedContext, std::vector<std::vector<double>>>;

struct NetworkConfig {
  double latency_ms{45.0};
  double bandwidth_mbps{8.0};
  bool available{true};
};

struct TransferStats {
  std::size_t uploads{0};
  std::size_t downloads{0};
  std::size_t bytes_up{0};
  std::size_t bytes_down{0};
  double total_delay_ms{0.0};
};

// Thrown by any transfer/training path when NetworkConfig::available is
// false. Training is the only phase that needs connectivity (§III); callers
// that can wait (e.g. the drift-retraining path) catch this and queue the
// work instead of failing the session.
struct NetworkUnavailableError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Accounts one simulated transfer against `stats` using the latency/bandwidth
// network model; shared by AuthServer and serve::AuthGateway. Throws
// NetworkUnavailableError when the network is down — a transfer over a dead
// link must never silently succeed.
void apply_transfer(TransferStats& stats, const NetworkConfig& net,
                    std::size_t bytes, bool upload);

// Wire sizes of the two transfer payloads (8 bytes per double), shared by
// AuthServer and serve::AuthGateway so the simulated accounting can never
// drift between them.
std::size_t upload_bytes(const VectorsByContext& positives);
std::size_t model_download_bytes(const AuthModel& model);

struct TrainingConfig {
  ml::KrrConfig krr{};
  // Impostor vectors drawn per positive vector (1.0 = balanced classes).
  double negative_ratio{1.0};
};

// StoredVector / PopulationBucket / PopulationStore live in
// core/population_store.h: the store is a bucket-level copy-on-write
// structure whose snapshots share immutable vector blocks instead of
// deep-copying them.

// Contribution/snapshot backend behind AuthServer.
// Implementations choose their own synchronization contract:
// CowPopulationStore (below) keeps the server's historical
// externally-synchronized single-map behavior; serve::ShardedPopulationStore
// is internally synchronized and scales contribution across shards.
class PopulationStoreBackend {
 public:
  virtual ~PopulationStoreBackend() = default;

  // Anonymized contribution: the token exists only to avoid self-matching
  // during training. Throws std::invalid_argument, with no state changed,
  // for a NaN/infinite value or vectors of differing lengths
  // (make_vector_block).
  virtual void contribute(int contributor_token,
                          sensors::DetectedContext context,
                          const std::vector<std::vector<double>>& vectors) = 0;

  // Immutable snapshot of the whole store. The returned map must never
  // change after the call: later contributions go to fresh storage.
  virtual std::shared_ptr<const PopulationStore> snapshot() const = 0;

  virtual std::size_t store_size(sensors::DetectedContext context) const = 0;
};

// The original single-map store with copy-on-write snapshots: contribution
// clones the map only while a snapshot is outstanding, so training against a
// snapshot is never perturbed. The clone shares every bucket's immutable
// block list (O(contexts) pointers, no vector payloads). Public methods are
// externally synchronized (one caller at a time), matching the historical
// server contract.
class CowPopulationStore final : public PopulationStoreBackend {
 public:
  CowPopulationStore() : data_(std::make_shared<PopulationStore>()) {}

  void contribute(int contributor_token, sensors::DetectedContext context,
                  const std::vector<std::vector<double>>& vectors) override;
  std::shared_ptr<const PopulationStore> snapshot() const override {
    return data_;
  }
  std::size_t store_size(sensors::DetectedContext context) const override;

 private:
  std::shared_ptr<PopulationStore> data_;
};

// Shared per-context statistics cache for the approximate training modes
// (core/approx_training.h).
class ApproxStatsCache;

// Trains one user's per-context model bundle against an immutable store
// snapshot. This is the single training kernel behind
// AuthServer::train_user_model, serve::AuthGateway::enroll and the retrain
// queue: given the same store, positives and RNG state they produce
// bit-identical models. Throws std::runtime_error when the store lacks
// impostor data for a requested context.
//
// When config.krr.mode is kNystrom or kRff this routes to the approximate
// trainer (core/approx_training.h): `rng` goes unused (the approximate path
// is seeded by config.krr.approx_seed and is a pure function of the
// snapshot), and `stats_cache` — optional — shares the per-context
// population statistics across calls the way the COW snapshot shares the
// store itself.
AuthModel train_user_from_store(const PopulationStore& store,
                                const TrainingConfig& config, int user_token,
                                const VectorsByContext& positives,
                                util::Rng& rng, int version,
                                ApproxStatsCache* stats_cache = nullptr);

// Thread-safety contract: the public methods are externally synchronized
// (one caller at a time). Inject a serve::ShardedPopulationStore backend for
// internally-synchronized, concurrent contribution.
class AuthServer {
 public:
  // `store` is the contribution/snapshot backend; null means a private
  // CowPopulationStore (the historical single-map behavior). Injecting a
  // shared serve::ShardedPopulationStore lets many servers/gateways feed one
  // population.
  explicit AuthServer(TrainingConfig config = {}, NetworkConfig net = {},
                      std::shared_ptr<PopulationStoreBackend> store = nullptr);

  // Anonymized contribution: vectors enter the population store without any
  // user identifier (contributor ids are only used to avoid self-matching
  // during training, mirroring the paper's anonymization note).
  void contribute(int contributor_token, sensors::DetectedContext context,
                  const std::vector<std::vector<double>>& vectors);

  // Trains per-context models from the user's uploaded positives plus
  // anonymized impostor samples. Throws NetworkUnavailableError when the
  // network is unavailable, std::runtime_error when the store lacks impostor
  // data for a context.
  AuthModel train_user_model(int user_token, const VectorsByContext& positives,
                             util::Rng& rng, int version = 1);

  // Public transfer accounting for out-of-band flows (the async retrain
  // bridge uploads drift windows and downloads the finished model around the
  // serve::RetrainQueue rather than through train_user_model). Both throw
  // NetworkUnavailableError when the link is down.
  void account_upload(const VectorsByContext& positives);
  void account_model_download(const AuthModel& model);

  std::size_t store_size(sensors::DetectedContext context) const;
  const TransferStats& transfers() const { return transfers_; }
  void set_network(NetworkConfig net) { net_ = net; }
  const std::shared_ptr<PopulationStoreBackend>& store() const {
    return store_;
  }

 private:
  void simulate_transfer(std::size_t bytes, bool upload);

  TrainingConfig config_;
  NetworkConfig net_;
  TransferStats transfers_;
  std::shared_ptr<PopulationStoreBackend> store_;
  // Shared approximate-training statistics, reused across train calls while
  // the snapshot prefix is unchanged. Untouched in exact mode.
  std::shared_ptr<ApproxStatsCache> approx_cache_;
};

}  // namespace sy::core
