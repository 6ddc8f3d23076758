// AuthGateway end-to-end: enroll / score_batch / report_drift across the
// sharded store, the LRU model cache, and the async retrain queue.
//
// Acceptance (ISSUE 2): a drift-triggered retrain completes asynchronously
// and swaps the model without blocking scoring, asserted via the completion
// future in DriftRetrainSwapsWithoutBlockingScoring.
#include "serve/auth_gateway.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <limits>

#include "core/model_store.h"
#include "util/rng.h"

namespace sy::serve {
namespace {

constexpr auto kStationary = sensors::DetectedContext::kStationary;
constexpr auto kMoving = sensors::DetectedContext::kMoving;

std::vector<std::vector<double>> user_vectors(int user, std::size_t n,
                                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(6);
    for (auto& v : x) v = rng.gaussian(3.0 * user, 1.0);
    out.push_back(std::move(x));
  }
  return out;
}

core::VectorsByContext positives_for(int user, std::uint64_t seed) {
  core::VectorsByContext out;
  out[kStationary] = user_vectors(user, 30, seed);
  out[kMoving] = user_vectors(user, 25, seed + 1);
  return out;
}

std::size_t accepted_count(const std::vector<core::AuthDecision>& decisions) {
  std::size_t n = 0;
  for (const auto& d : decisions) {
    if (d.accepted) ++n;
  }
  return n;
}

// Background contributors so the first enrollment already has impostor data.
void seed_population(AuthGateway& gateway) {
  for (int u = 100; u < 103; ++u) {
    gateway.contribute(u, kStationary, user_vectors(u, 30, 500 + 10u * u));
    gateway.contribute(u, kMoving, user_vectors(u, 25, 501 + 10u * u));
  }
}

TEST(AuthGateway, EnrollThenScoreSeparatesOwnerFromImpostor) {
  AuthGateway gateway;
  // Feed the population first so every model trains against every other
  // user's clusters (the impostor below is represented in the negatives).
  std::vector<core::VectorsByContext> uploads;
  for (int u = 0; u < 4; ++u) {
    uploads.push_back(positives_for(u, 600 + 10u * u));
    for (const auto& [context, vectors] : uploads.back()) {
      gateway.contribute(u, context, vectors);
    }
  }
  for (int u = 0; u < 4; ++u) {
    (void)gateway.enroll(u, uploads[static_cast<std::size_t>(u)], 700 + u,
                         /*contribute_positives=*/false);
  }
  EXPECT_EQ(gateway.stats().enrolled_users, 4u);
  EXPECT_EQ(gateway.model_version(0), 1);

  // Owner windows accepted, a far-away impostor rejected.
  const auto own = gateway.score_batch(0, kStationary,
                                       user_vectors(0, 20, 801));
  const auto imp = gateway.score_batch(0, kStationary,
                                       user_vectors(3, 20, 802));
  EXPECT_GT(accepted_count(own), 16u);
  EXPECT_LT(accepted_count(imp), 4u);
}

TEST(AuthGateway, OneShardGatewayMatchesAuthServerBitForBit) {
  // Acceptance criterion: the gateway's training path over a 1-shard store
  // is the same computation as AuthServer over the single COW map.
  GatewayConfig config;
  config.shards = 1;
  AuthGateway gateway(config);
  core::AuthServer server;

  std::vector<core::VectorsByContext> uploads;
  for (int u = 0; u < 4; ++u) {
    uploads.push_back(positives_for(u, 900 + 10u * u));
    for (const auto& [context, vectors] : uploads.back()) {
      gateway.contribute(u, context, vectors);
      server.contribute(u, context, vectors);
    }
  }
  // contribute_positives=false: the population was already fed identically.
  const auto gateway_model =
      gateway.enroll(2, uploads[2], 1000, /*contribute_positives=*/false);
  util::Rng rng(1000);
  const auto server_model = server.train_user_model(2, uploads[2], rng);

  ASSERT_NE(gateway_model, nullptr);
  ASSERT_EQ(gateway_model->models().size(), server_model.models().size());
  for (const auto& [context, cm] : server_model.models()) {
    EXPECT_EQ(cm.classifier.pack(),
              gateway_model->context_model(context).classifier.pack());
    EXPECT_EQ(cm.scaler.pack(),
              gateway_model->context_model(context).scaler.pack());
  }
}

TEST(AuthGateway, DriftRetrainSwapsWithoutBlockingScoring) {
  util::ThreadPool pool(1);
  AuthGateway gateway({}, &pool);
  seed_population(gateway);
  for (int u = 0; u < 4; ++u) {
    (void)gateway.enroll(u, positives_for(u, 1100 + 10u * u), 1200 + u);
  }

  // Occupy the single worker so the retrain job stays queued: scoring must
  // proceed on the old model the whole time. Wait until the blocker has
  // actually STARTED — the worker pops its own queue LIFO, so a blocker
  // still sitting in the queue would run after (not before) the retrain.
  std::promise<void> go;
  std::shared_future<void> hold = go.get_future().share();
  std::promise<void> entered;
  pool.submit([hold, &entered] {
    entered.set_value();
    hold.wait();
  });
  entered.get_future().wait();

  auto future = gateway.report_drift(0, positives_for(0, 1300), 1301);
  EXPECT_EQ(future.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);

  // Retrain in flight (queued): scoring still answers, on version 1.
  const auto during = gateway.score_batch(0, kStationary,
                                          user_vectors(0, 10, 1302));
  EXPECT_EQ(during.size(), 10u);
  EXPECT_EQ(gateway.model_version(0), 1);

  go.set_value();
  const core::AuthModel retrained = future.get();
  // The completion future resolving means the swap already happened.
  EXPECT_EQ(retrained.version(), 2);
  EXPECT_EQ(gateway.model_version(0), 2);
  const auto after = gateway.score_batch(0, kStationary,
                                         user_vectors(0, 10, 1303));
  EXPECT_EQ(after.size(), 10u);
  gateway.wait_idle();  // the stats update lands after the future resolves
  EXPECT_EQ(gateway.stats().queue.completed, 1u);
}

TEST(AuthGateway, CoalescedDriftReportsShareOneRetrain) {
  util::ThreadPool pool(1);
  AuthGateway gateway({}, &pool);
  seed_population(gateway);
  for (int u = 0; u < 3; ++u) {
    (void)gateway.enroll(u, positives_for(u, 1400 + 10u * u), 1500 + u);
  }

  std::promise<void> go;
  std::shared_future<void> hold = go.get_future().share();
  std::promise<void> entered;
  pool.submit([hold, &entered] {
    entered.set_value();
    hold.wait();
  });
  entered.get_future().wait();  // blocker running, not merely queued

  auto first = gateway.report_drift(0, positives_for(0, 1600), 1601);
  auto second = gateway.report_drift(0, positives_for(0, 1602), 1603);
  go.set_value();
  (void)first.get();
  (void)second.get();
  gateway.wait_idle();

  const auto stats = gateway.stats();
  EXPECT_EQ(stats.queue.submitted, 2u);
  EXPECT_EQ(stats.queue.coalesced, 1u);
  EXPECT_EQ(stats.queue.completed, 1u);
  // Both reports reserved a version (2 then 3); the coalesced job trained
  // the highest one, and exactly one model was installed.
  EXPECT_EQ(gateway.model_version(0), 3);
}

TEST(AuthGateway, VersionsAdvanceMonotonicallyAcrossEnrollAndRetrain) {
  AuthGateway gateway;
  seed_population(gateway);
  const auto first = gateway.enroll(0, positives_for(0, 3000), 3001);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->version(), 1);

  const core::AuthModel retrained =
      gateway.report_drift(0, positives_for(0, 3002), 3003).get();
  EXPECT_EQ(retrained.version(), 2);
  EXPECT_EQ(gateway.model_version(0), 2);

  // Re-enrollment reserves the next version and INSTALLS it — the served
  // model must never silently diverge from the one handed to the phone
  // (and a stale lower version can never displace it: install_model skips
  // anything <= the installed version).
  const auto reenrolled = gateway.enroll(0, positives_for(0, 3004), 3005);
  ASSERT_NE(reenrolled, nullptr);
  EXPECT_EQ(reenrolled->version(), 3);
  EXPECT_EQ(gateway.model_version(0), 3);
}

TEST(AuthGateway, NonFiniteUploadInstallsNothing) {
  // One NaN in an upload. Kept to the user's own training set, it fails the
  // Cholesky pivot; contributed, the store refuses it before it reaches
  // anyone's impostor samples. Enroll and drift retrain throw, the
  // installed version stays, and the next enrollee trains a working model.
  for (const auto mode : {ml::TrainingMode::kExact, ml::TrainingMode::kRff}) {
    GatewayConfig config;
    config.training.krr.mode = mode;
    config.training.krr.approx_dim = 32;
    AuthGateway gateway(config);
    seed_population(gateway);
    (void)gateway.enroll(0, positives_for(0, 3100), 3101);
    auto poisoned = positives_for(0, 3102);
    poisoned[kStationary][3][2] = std::numeric_limits<double>::quiet_NaN();

    EXPECT_THROW((void)gateway.enroll(0, poisoned, 3103,
                                      /*contribute_positives=*/false),
                 std::runtime_error)
        << ml::to_string(mode);
    EXPECT_THROW((void)gateway.enroll(0, poisoned, 3104),
                 std::invalid_argument)
        << ml::to_string(mode);
    EXPECT_THROW((void)gateway.report_drift(0, poisoned, 3105).get(),
                 std::runtime_error)
        << ml::to_string(mode);
    EXPECT_EQ(gateway.model_version(0), 1) << ml::to_string(mode);

    (void)gateway.enroll(1, positives_for(1, 3106), 3107);
    const auto own =
        gateway.score_batch(1, kStationary, user_vectors(1, 20, 3108));
    EXPECT_GT(accepted_count(own), 16u) << ml::to_string(mode);
  }
}

TEST(AuthGateway, EvictedModelsReloadFromPersistedBundles) {
  const std::string dir = ::testing::TempDir() + "/sy_gateway_models";
  std::filesystem::create_directories(dir);
  GatewayConfig config;
  config.model_dir = dir;
  // Budget below two bundles: enrolling several users forces evictions.
  {
    AuthGateway probe;
    seed_population(probe);
    (void)probe.enroll(0, positives_for(0, 1700), 1701);
    config.cache_bytes = probe.stats().cache.bytes * 3 / 2;
  }

  AuthGateway gateway(config);
  seed_population(gateway);
  for (int u = 0; u < 4; ++u) {
    (void)gateway.enroll(u, positives_for(u, 1800 + 10u * u), 1900 + u);
  }
  EXPECT_GT(gateway.stats().cache.evictions, 0u);

  // User 0's model was evicted long ago; scoring reloads the bundle.
  const auto decisions = gateway.score_batch(0, kStationary,
                                             user_vectors(0, 10, 2000));
  EXPECT_EQ(decisions.size(), 10u);
  EXPECT_GT(gateway.stats().cache.loads, 0u);

  std::filesystem::remove_all(dir);
}

TEST(AuthGateway, CorruptPersistedBundleIsASecurityEvent) {
  const std::string dir = ::testing::TempDir() + "/sy_gateway_corrupt";
  std::filesystem::create_directories(dir);
  GatewayConfig config;
  config.model_dir = dir;
  config.cache_bytes = 1;  // everything evicts: scoring always reloads

  AuthGateway gateway(config);
  seed_population(gateway);
  for (int u = 0; u < 2; ++u) {
    (void)gateway.enroll(u, positives_for(u, 2100 + 10u * u), 2200 + u);
  }
  // Tamper with user 0's bundle on disk.
  const std::string path = dir + "/user_0.symd";
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(40);
    const char original = static_cast<char>(file.get());
    file.seekp(40);
    file.put(static_cast<char>(original ^ 0x42));  // guaranteed bit flip
  }
  // User 1 enrolls more, evicting user 0 from the tiny cache; the next
  // lookup must surface the tampering, not serve a silently-wrong model.
  EXPECT_THROW((void)gateway.score_batch(0, kStationary,
                                         user_vectors(0, 5, 2300)),
               core::ModelCorruptError);
  std::filesystem::remove_all(dir);
}

TEST(AuthGateway, UnknownUserAndNetworkFailuresAreExplicit) {
  AuthGateway gateway;
  gateway.contribute(1, kStationary, user_vectors(1, 30, 2400));
  EXPECT_THROW((void)gateway.score_batch(42, kStationary,
                                         user_vectors(42, 5, 2401)),
               std::out_of_range);

  core::NetworkConfig offline;
  offline.available = false;
  gateway.set_network(offline);
  EXPECT_THROW((void)gateway.enroll(2, positives_for(2, 2500), 2501),
               core::NetworkUnavailableError);
  EXPECT_THROW((void)gateway.report_drift(2, positives_for(2, 2502), 2503),
               core::NetworkUnavailableError);
}

TEST(AuthGateway, SessionTrackingLocksImpostorsAndRecordsDetectionLatency) {
  GatewayConfig config;
  config.track_sessions = true;
  config.window_seconds = 6.0;
  AuthGateway gateway(config);
  // Contribute everyone first so user 0's model trains against user 3's
  // clusters — the impostor below must actually be rejectable.
  std::vector<core::VectorsByContext> uploads;
  for (int u = 0; u < 4; ++u) {
    uploads.push_back(positives_for(u, 3100 + 10 * u));
    for (const auto& [context, vectors] : uploads.back()) {
      gateway.contribute(u, context, vectors);
    }
  }
  for (int u = 0; u < 4; ++u) {
    (void)gateway.enroll(u, uploads[static_cast<std::size_t>(u)], 3200 + u,
                         /*contribute_positives=*/false);
  }
  EXPECT_EQ(gateway.session_state(0), core::SessionState::kActive);

  // A far-away impostor scoring under user 0's token: consecutive
  // rejections must walk the response module to kLocked and stamp the
  // detection-latency histogram.
  (void)gateway.score_batch(0, kStationary, user_vectors(3, 20, 3301));
  EXPECT_EQ(gateway.session_state(0), core::SessionState::kLocked);
  const std::uint64_t lock_window = gateway.session_lockout_window(0);
  EXPECT_GE(lock_window, 2u);  // rejects_to_lock = 2 consecutive rejections
  EXPECT_LE(lock_window, 20u);

  const auto metrics = gateway.metrics().snapshot();
  EXPECT_GE(metrics.counters.at("gateway.session.lockouts"), 1u);
  EXPECT_GE(metrics.counters.at("gateway.session.rejects"), 2u);
  EXPECT_GE(metrics.counters.at("gateway.session.challenges"), 1u);
  const auto& latency =
      metrics.histograms.at("gateway.session.detection_latency_ns");
  ASSERT_GE(latency.count, 1u);
  EXPECT_GT(latency.percentile(0.5), 0u);

  // Explicit re-auth: the owner takes the phone back and keeps scoring.
  gateway.reset_session(0);
  EXPECT_EQ(gateway.session_state(0), core::SessionState::kActive);
  EXPECT_EQ(gateway.session_lockout_window(0), 0u);
  const auto own = gateway.score_batch(0, kStationary,
                                       user_vectors(0, 10, 3302));
  EXPECT_GT(accepted_count(own), 7u);
  EXPECT_EQ(gateway.session_state(0), core::SessionState::kActive);
}

TEST(AuthGateway, UntrackedGatewayKeepsSessionSurfaceInert) {
  AuthGateway gateway;  // track_sessions defaults off
  seed_population(gateway);
  (void)gateway.enroll(0, positives_for(0, 3400), 3401);
  (void)gateway.score_batch(0, kStationary, user_vectors(3, 10, 3402));
  EXPECT_EQ(gateway.session_state(0), core::SessionState::kActive);
  EXPECT_EQ(gateway.session_lockout_window(0), 0u);
  EXPECT_FALSE(gateway.confidence_retrain_needed(0));
  const auto metrics = gateway.metrics().snapshot();
  EXPECT_EQ(metrics.counters.at("gateway.session.accepts"), 0u);
  EXPECT_EQ(metrics.counters.at("gateway.session.rejects"), 0u);
}

TEST(AuthGateway, ConfidenceTriggerLatchesOnceAndResetsOnRetrainInstall) {
  GatewayConfig config;
  config.track_sessions = true;
  // Genuine own-window confidences are comfortably positive; an epsilon
  // above them makes "low-but-positive" include normal traffic so the
  // trigger path is exercised deterministically.
  config.confidence.epsilon = 50.0;
  config.confidence.trigger_days = 1.0;
  config.confidence.window_days = 3.0;
  config.confidence.min_observations = 5;
  AuthGateway gateway(config);
  seed_population(gateway);
  (void)gateway.enroll(0, positives_for(0, 3500), 3501);

  (void)gateway.score_batch(0, kStationary, user_vectors(0, 10, 3502),
                            /*day=*/0.0);
  EXPECT_FALSE(gateway.confidence_retrain_needed(0));  // span < trigger_days
  (void)gateway.score_batch(0, kStationary, user_vectors(0, 10, 3503),
                            /*day=*/1.2);
  EXPECT_TRUE(gateway.confidence_retrain_needed(0));
  auto metrics = gateway.metrics().snapshot();
  EXPECT_EQ(metrics.counters.at("gateway.confidence.retrain_triggers"), 1u);

  // Still triggering, but the edge was latched: no double count.
  (void)gateway.score_batch(0, kStationary, user_vectors(0, 10, 3504),
                            /*day=*/1.3);
  metrics = gateway.metrics().snapshot();
  EXPECT_EQ(metrics.counters.at("gateway.confidence.retrain_triggers"), 1u);

  // The retrain lands, the fresh model installs: the drift history that
  // demanded it is void, so the monitor starts over.
  (void)gateway.report_drift(0, positives_for(0, 3505), 3506).get();
  gateway.wait_idle();
  EXPECT_FALSE(gateway.confidence_retrain_needed(0));

  // A new sustained episode against the new model re-arms the trigger.
  (void)gateway.score_batch(0, kStationary, user_vectors(0, 10, 3507),
                            /*day=*/5.0);
  (void)gateway.score_batch(0, kStationary, user_vectors(0, 10, 3508),
                            /*day=*/6.2);
  EXPECT_TRUE(gateway.confidence_retrain_needed(0));
  metrics = gateway.metrics().snapshot();
  EXPECT_EQ(metrics.counters.at("gateway.confidence.retrain_triggers"), 2u);
}

TEST(AuthGateway, MissingContextFallsBackLikeAuthenticator) {
  AuthGateway gateway;
  seed_population(gateway);
  for (int u = 0; u < 3; ++u) {
    core::VectorsByContext stationary_only;
    stationary_only[kStationary] = user_vectors(u, 30, 2600 + 10u * u);
    (void)gateway.enroll(u, stationary_only, 2700 + u);
  }
  // The user never enrolled a moving model; the stationary one serves.
  const auto decisions = gateway.score_batch(0, kMoving,
                                             user_vectors(0, 10, 2800));
  EXPECT_EQ(decisions.size(), 10u);
  EXPECT_GT(accepted_count(decisions), 6u);
}

}  // namespace
}  // namespace sy::serve
