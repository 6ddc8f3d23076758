#include "core/auth_server.h"

#include <stdexcept>

#include "core/approx_training.h"
#include "ml/dataset.h"

namespace sy::core {

void CowPopulationStore::contribute(
    int contributor_token, sensors::DetectedContext context,
    const std::vector<std::vector<double>>& vectors) {
  // Validate before the clone: a rejected payload leaves the map as it was.
  VectorBlock block = make_vector_block(contributor_token, vectors);
  // Copy-on-write: clone only while an outstanding snapshot aliases the map,
  // so training against a snapshot is never perturbed by later growth. The
  // clone shares bucket block lists; the bucket's own append then detaches
  // just that bucket's pointer list.
  if (data_.use_count() > 1) {
    data_ = std::make_shared<PopulationStore>(*data_);
  }
  (*data_)[context].append_block(std::move(block));
}

std::size_t CowPopulationStore::store_size(
    sensors::DetectedContext context) const {
  const auto it = data_->find(context);
  return it == data_->end() ? 0 : it->second.size();
}

AuthServer::AuthServer(TrainingConfig config, NetworkConfig net,
                       std::shared_ptr<PopulationStoreBackend> store)
    : config_(config),
      net_(net),
      store_(store != nullptr ? std::move(store)
                              : std::make_shared<CowPopulationStore>()),
      approx_cache_(std::make_shared<ApproxStatsCache>()) {}

void AuthServer::contribute(int contributor_token,
                            sensors::DetectedContext context,
                            const std::vector<std::vector<double>>& vectors) {
  store_->contribute(contributor_token, context, vectors);
}

void apply_transfer(TransferStats& stats, const NetworkConfig& net,
                    std::size_t bytes, bool upload) {
  if (!net.available) {
    throw NetworkUnavailableError(
        "apply_transfer: network unavailable, transfer cannot complete");
  }
  const double seconds =
      net.latency_ms * 1e-3 +
      static_cast<double>(bytes) * 8.0 / (net.bandwidth_mbps * 1e6);
  stats.total_delay_ms += seconds * 1e3;
  if (upload) {
    ++stats.uploads;
    stats.bytes_up += bytes;
  } else {
    ++stats.downloads;
    stats.bytes_down += bytes;
  }
}

void AuthServer::simulate_transfer(std::size_t bytes, bool upload) {
  apply_transfer(transfers_, net_, bytes, upload);
}

void AuthServer::account_upload(const VectorsByContext& positives) {
  simulate_transfer(upload_bytes(positives), /*upload=*/true);
}

void AuthServer::account_model_download(const AuthModel& model) {
  simulate_transfer(model_download_bytes(model), /*upload=*/false);
}

std::size_t upload_bytes(const VectorsByContext& positives) {
  std::size_t bytes = 0;
  for (const auto& [context, vectors] : positives) {
    for (const auto& v : vectors) bytes += v.size() * sizeof(double);
  }
  return bytes;
}

std::size_t model_download_bytes(const AuthModel& model) {
  std::size_t bytes = 0;
  for (const auto& [context, cm] : model.models()) {
    bytes += cm.classifier.pack().size() * sizeof(double);
    bytes += cm.scaler.pack().size() * sizeof(double);
  }
  return bytes;
}

AuthModel train_user_from_store(const PopulationStore& store,
                                const TrainingConfig& config, int user_token,
                                const VectorsByContext& positives,
                                util::Rng& rng, int version,
                                ApproxStatsCache* stats_cache) {
  if (config.krr.mode != ml::TrainingMode::kExact) {
    // Approximate path: deterministic (approx_seed-driven), rng untouched.
    return train_user_approx(store, config, user_token, positives, version,
                             stats_cache);
  }
  if (positives.empty()) {
    throw std::invalid_argument("AuthServer: no positive vectors uploaded");
  }
  AuthModel model(user_token, version);
  for (const auto& [context, pos_vectors] : positives) {
    if (pos_vectors.empty()) continue;
    const auto it = store.find(context);
    if (it == store.end()) {
      throw std::runtime_error("AuthServer: no impostor data for context " +
                               sensors::to_string(context));
    }
    // Candidate negatives: all store vectors not contributed by this user.
    std::vector<const StoredVector*> candidates;
    candidates.reserve(it->second.size());
    for (const auto& sv : it->second) {
      if (sv.contributor != user_token) candidates.push_back(&sv);
    }
    if (candidates.empty()) {
      throw std::runtime_error(
          "AuthServer: impostor store has only this user's data");
    }

    const auto want = static_cast<std::size_t>(
        static_cast<double>(pos_vectors.size()) * config.negative_ratio);
    ml::Dataset train;
    for (const auto& v : pos_vectors) train.add(v, +1);
    for (std::size_t i = 0; i < want; ++i) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(candidates.size()) - 1));
      train.add(candidates[pick]->vector, -1);
    }

    ml::StandardScaler scaler;
    scaler.fit(train.x);
    const ml::Dataset scaled = scaler.transform(train);
    ml::KrrClassifier krr(config.krr);
    krr.fit(scaled.x, scaled.y);
    model.set_context_model(context,
                            ContextModel(std::move(scaler), std::move(krr)));
  }
  return model;
}

AuthModel AuthServer::train_user_model(int user_token,
                                       const VectorsByContext& positives,
                                       util::Rng& rng, int version) {
  if (!net_.available) {
    throw NetworkUnavailableError("AuthServer: network unavailable");
  }
  if (positives.empty()) {
    throw std::invalid_argument("AuthServer: no positive vectors uploaded");
  }

  simulate_transfer(upload_bytes(positives), /*upload=*/true);

  const std::shared_ptr<const PopulationStore> snapshot = store_->snapshot();
  AuthModel model = train_user_from_store(*snapshot, config_, user_token,
                                          positives, rng, version,
                                          approx_cache_.get());

  simulate_transfer(model_download_bytes(model), /*upload=*/false);
  return model;
}

std::size_t AuthServer::store_size(sensors::DetectedContext context) const {
  return store_->store_size(context);
}

}  // namespace sy::core
