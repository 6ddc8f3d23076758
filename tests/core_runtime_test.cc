// Authenticator + ResponseModule + ConfidenceMonitor unit behaviour.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/authenticator.h"
#include "core/confidence.h"
#include "core/response.h"
#include "ml/dataset.h"
#include "util/rng.h"

namespace sy::core {
namespace {

constexpr auto kStationary = sensors::DetectedContext::kStationary;
constexpr auto kMoving = sensors::DetectedContext::kMoving;

AuthModel one_context_model(util::Rng& rng, std::size_t dim = 28) {
  ml::Dataset train;
  std::vector<double> x(dim);
  for (int i = 0; i < 80; ++i) {
    for (auto& v : x) v = rng.gaussian(1.5, 1.0);
    train.add(x, +1);
    for (auto& v : x) v = rng.gaussian(-1.5, 1.0);
    train.add(x, -1);
  }
  ml::StandardScaler scaler;
  scaler.fit(train.x);
  ml::KrrClassifier krr{ml::KrrConfig{}};
  const auto scaled = scaler.transform(train);
  krr.fit(scaled.x, scaled.y);
  AuthModel model(0, 1);
  model.set_context_model(kStationary,
                          ContextModel(std::move(scaler), std::move(krr)));
  return model;
}

TEST(Authenticator, AcceptsGenuineRejectsImpostorVectors) {
  util::Rng rng(81);
  const Authenticator auth(nullptr, one_context_model(rng));
  std::vector<double> genuine(28), impostor(28);
  int genuine_ok = 0, impostor_rejected = 0;
  for (int i = 0; i < 50; ++i) {
    for (auto& v : genuine) v = rng.gaussian(1.5, 1.0);
    for (auto& v : impostor) v = rng.gaussian(-1.5, 1.0);
    const auto a = auth.authenticate(genuine);
    const auto b = auth.authenticate(impostor);
    if (a.accepted) ++genuine_ok;
    if (!b.accepted) ++impostor_rejected;
    EXPECT_GT(a.confidence, b.confidence);
  }
  EXPECT_GE(genuine_ok, 47);
  EXPECT_GE(impostor_rejected, 47);
}

TEST(Authenticator, RejectsWrongDimensions) {
  util::Rng rng(82);
  const Authenticator auth(nullptr, one_context_model(rng));
  EXPECT_THROW((void)auth.authenticate(std::vector<double>(13, 0.0)),
               std::invalid_argument);
}

TEST(Authenticator, FallsBackWhenContextModelMissing) {
  // Model trained only for stationary; without a detector all windows route
  // there anyway; with a 28-dim vector the decision must not throw.
  util::Rng rng(83);
  const Authenticator auth(nullptr, one_context_model(rng));
  std::vector<double> x(28, 1.5);
  EXPECT_NO_THROW((void)auth.authenticate(x));
}

TEST(Authenticator, BatchMatchesSingle) {
  util::Rng rng(84);
  const Authenticator auth(nullptr, one_context_model(rng));
  std::vector<std::vector<double>> windows;
  for (int i = 0; i < 10; ++i) {
    std::vector<double> x(28);
    for (auto& v : x) v = rng.gaussian(0.0, 2.0);
    windows.push_back(std::move(x));
  }
  const auto batch = auth.authenticate_session(windows);
  ASSERT_EQ(batch.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto single = auth.authenticate(windows[i]);
    EXPECT_EQ(batch[i].accepted, single.accepted);
    // Bit identity (ARCHITECTURE contract 1), not a few-ulp closeness.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[i].confidence),
              std::bit_cast<std::uint64_t>(single.confidence));
  }
}

TEST(ResponseModule, LocksAfterConsecutiveRejects) {
  ResponseModule response{ResponsePolicy{}};
  AuthDecision reject{false, -1.0, kStationary};
  AuthDecision accept{true, 1.0, kStationary};

  EXPECT_EQ(response.on_decision(accept), Action::kAllow);
  EXPECT_EQ(response.on_decision(reject), Action::kChallenge);
  EXPECT_EQ(response.state(), SessionState::kChallenged);
  EXPECT_EQ(response.on_decision(reject), Action::kLock);
  EXPECT_TRUE(response.locked());
  // Further decisions stay locked, even accepts.
  EXPECT_EQ(response.on_decision(accept), Action::kLock);
}

TEST(ResponseModule, AcceptResetsStreak) {
  ResponseModule response{ResponsePolicy{}};
  AuthDecision reject{false, -1.0, kStationary};
  AuthDecision accept{true, 1.0, kStationary};
  EXPECT_EQ(response.on_decision(reject), Action::kChallenge);
  EXPECT_EQ(response.on_decision(accept), Action::kAllow);
  EXPECT_EQ(response.consecutive_rejects(), 0u);
  EXPECT_EQ(response.on_decision(reject), Action::kChallenge);  // streak anew
}

TEST(ResponseModule, ExplicitReauthUnlocks) {
  ResponseModule response{ResponsePolicy{}};
  AuthDecision reject{false, -1.0, kStationary};
  response.on_decision(reject);
  response.on_decision(reject);
  EXPECT_TRUE(response.locked());
  response.explicit_auth(true);
  EXPECT_FALSE(response.locked());
  AuthDecision accept{true, 1.0, kStationary};
  EXPECT_EQ(response.on_decision(accept), Action::kAllow);
}

TEST(ResponseModule, FailedExplicitAuthStaysLocked) {
  ResponseModule response{ResponsePolicy{}};
  response.explicit_auth(false);
  EXPECT_TRUE(response.locked());
}

TEST(ResponseModule, PolicyValidation) {
  ResponsePolicy bad;
  bad.rejects_to_challenge = 3;
  bad.rejects_to_lock = 2;
  EXPECT_THROW(ResponseModule{bad}, std::invalid_argument);
}

class ResponsePolicies : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ResponsePolicies, LocksExactlyAtThreshold) {
  ResponsePolicy policy;
  policy.rejects_to_challenge = 1;
  policy.rejects_to_lock = GetParam();
  ResponseModule response(policy);
  AuthDecision reject{false, -1.0, kStationary};
  for (std::size_t i = 0; i + 1 < GetParam(); ++i) {
    EXPECT_NE(response.on_decision(reject), Action::kLock);
  }
  EXPECT_EQ(response.on_decision(reject), Action::kLock);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ResponsePolicies,
                         ::testing::Values(1, 2, 3, 5));

TEST(ConfidenceMonitor, TriggersAfterSustainedLowScores) {
  ConfidenceConfig config;
  config.epsilon = 0.2;
  config.trigger_days = 1.0;
  ConfidenceMonitor monitor(config);

  // Healthy day: no trigger.
  for (double t = 0.0; t < 1.0; t += 0.1) monitor.record(t, 0.8);
  EXPECT_FALSE(monitor.retrain_needed());

  // Low-but-positive scores for over a day: trigger.
  for (double t = 1.0; t < 2.2; t += 0.1) monitor.record(t, 0.1);
  EXPECT_TRUE(monitor.retrain_needed());

  monitor.reset();
  EXPECT_FALSE(monitor.retrain_needed());
}

TEST(ConfidenceMonitor, BriefDipsDoNotTrigger) {
  ConfidenceMonitor monitor{ConfidenceConfig{}};
  monitor.record(0.0, 0.1);
  monitor.record(0.2, 0.1);
  monitor.record(0.5, 0.9);  // recovery resets the streak
  monitor.record(1.4, 0.1);
  EXPECT_FALSE(monitor.retrain_needed());
}

TEST(ConfidenceMonitor, NegativePeriodMeanNeverTriggers) {
  // Attacker scores drive the period mean negative: recorded, but the
  // retraining gate stays shut.
  ConfidenceMonitor monitor{ConfidenceConfig{}};
  for (double t = 0.0; t < 3.0; t += 0.1) monitor.record(t, -0.5);
  EXPECT_FALSE(monitor.retrain_needed());
  EXPECT_GT(monitor.observations(), 0u);

  // Mixed series whose mean is slightly negative: still shut.
  ConfidenceMonitor mixed{ConfidenceConfig{}};
  for (double t = 0.0; t < 3.0; t += 0.1) {
    mixed.record(t, t - std::floor(t) < 0.5 ? 0.3 : -0.4);
  }
  EXPECT_FALSE(mixed.retrain_needed());
}

TEST(ConfidenceMonitor, MeanConfidenceOverWindow) {
  ConfidenceMonitor monitor{ConfidenceConfig{}};
  monitor.record(0.0, 0.4);
  monitor.record(0.1, 0.6);
  EXPECT_NEAR(monitor.mean_confidence(), 0.5, 1e-12);
  EXPECT_NEAR(monitor.recent_mean_confidence(), 0.5, 1e-12);
}

TEST(ConfidenceMonitor, NeedsEnoughObservationsInPeriod) {
  ConfidenceConfig config;
  config.trigger_days = 0.5;
  config.min_observations = 5;
  ConfidenceMonitor monitor(config);
  // Low scores but only three observations inside the period: no trigger.
  monitor.record(0.0, 0.1);
  monitor.record(0.6, 0.1);
  monitor.record(0.9, 0.1);
  monitor.record(1.0, 0.1);
  EXPECT_FALSE(monitor.retrain_needed());
  // Densify the period: trigger.
  monitor.record(1.05, 0.1);
  monitor.record(1.1, 0.1);
  monitor.record(1.15, 0.1);
  EXPECT_TRUE(monitor.retrain_needed());
}

TEST(ConfidenceMonitor, ResetClearsDayAnchorsForTheNextSession) {
  ConfidenceConfig config;
  config.epsilon = 0.2;
  config.trigger_days = 1.0;
  ConfidenceMonitor monitor(config);
  for (double t = 0.0; t < 2.2; t += 0.1) monitor.record(t, 0.1);
  ASSERT_TRUE(monitor.retrain_needed());

  monitor.reset();
  // A single fresh observation after reset: the trigger period is anchored
  // at the new sample's day, not at the pre-reset last_day_. A stale anchor
  // would either exclude this sample from recent_mean_confidence (recorded
  // "before" the stale cutoff) or let an old observation span satisfy
  // trigger_days instantly.
  monitor.record(10.0, 0.1);
  EXPECT_EQ(monitor.observations(), 1u);
  EXPECT_NEAR(monitor.recent_mean_confidence(), 0.1, 1e-12);
  EXPECT_FALSE(monitor.retrain_needed());  // span restarts at zero days

  // The low streak must run a full trigger period again before firing.
  for (double t = 10.1; t < 10.9; t += 0.1) monitor.record(t, 0.1);
  EXPECT_FALSE(monitor.retrain_needed());
  for (double t = 10.9; t < 11.3; t += 0.1) monitor.record(t, 0.1);
  EXPECT_TRUE(monitor.retrain_needed());
}

TEST(ConfidenceMonitor, OutOfOrderDaysDoNotRewindTheWindow) {
  ConfidenceConfig config;
  config.epsilon = 0.2;
  config.trigger_days = 1.0;
  config.window_days = 3.0;
  ConfidenceMonitor monitor(config);
  monitor.record(0.0, 0.9);  // healthy enrollment-era observation
  for (double t = 4.0; t <= 5.0; t += 0.1) monitor.record(t, 0.05);
  ASSERT_TRUE(monitor.retrain_needed());

  // A delayed upload from day 3.5 lands now. The observation window stays
  // anchored at day 5: the stale sample must neither rewind the trigger
  // cutoff (pulling day-3.5 data into the "recent" period) nor evict the
  // genuinely recent entries against its own old timestamp.
  monitor.record(3.5, 0.9);
  EXPECT_TRUE(monitor.retrain_needed());
  EXPECT_NEAR(monitor.recent_mean_confidence(), 0.05, 1e-12);

  // Eviction still keys off the newest day ever seen, so the stale window
  // drains as time advances instead of pinning the deque forever.
  for (double t = 5.1; t <= 8.0; t += 0.1) monitor.record(t, 0.5);
  EXPECT_NEAR(monitor.recent_mean_confidence(), 0.5, 1e-12);
  EXPECT_LE(monitor.observations(), 34u);  // day-4.x entries evicted
}

TEST(ConfidenceMonitor, ValidationAndHistoryTrim) {
  ConfidenceConfig bad;
  bad.epsilon = 0.0;
  EXPECT_THROW(ConfidenceMonitor{bad}, std::invalid_argument);
  ConfidenceConfig bad2;
  bad2.min_observations = 0;
  EXPECT_THROW(ConfidenceMonitor{bad2}, std::invalid_argument);

  ConfidenceConfig config;
  config.window_days = 1.0;
  ConfidenceMonitor monitor(config);
  for (double t = 0.0; t < 5.0; t += 0.5) monitor.record(t, 0.5);
  // Only ~last day retained.
  EXPECT_LE(monitor.observations(), 3u);
}

}  // namespace
}  // namespace sy::core
