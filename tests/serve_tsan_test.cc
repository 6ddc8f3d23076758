// TSan-targeted hammering of the serve subsystem's concurrency contracts
// (registered in the sanitizer CI jobs; also runs as a plain ctest suite):
//   - ShardedPopulationStore: contribute racing snapshot/store_size
//   - RetrainQueue: concurrent submits (coalescing) racing model swaps
//   - ModelCache: eviction racing parallel lookups and puts
//   - AuthGateway in the approximate modes: enroll, drift retrain and
//     contribute racing on the shared ApproxStatsCache
// Assertions are deliberately coarse (counts, invariants); the point is the
// interleavings TSan observes, not the values.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "core/model_store.h"
#include "core/population_codec.h"
#include "ml/dataset.h"
#include "serve/auth_gateway.h"
#include "serve/model_cache.h"
#include "serve/retrain_queue.h"
#include "serve/sharded_population_store.h"
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

core::AuthModel tiny_model(int user, int version = 1) {
  util::Rng rng(40 + static_cast<std::uint64_t>(user));
  ml::Dataset train;
  std::vector<double> x(6);
  for (int i = 0; i < 10; ++i) {
    for (auto& v : x) v = rng.gaussian(1.0, 1.0);
    train.add(x, +1);
    for (auto& v : x) v = rng.gaussian(-1.0, 1.0);
    train.add(x, -1);
  }
  ml::StandardScaler scaler;
  scaler.fit(train.x);
  ml::KrrClassifier krr{ml::KrrConfig{}};
  const auto scaled = scaler.transform(train);
  krr.fit(scaled.x, scaled.y);
  core::AuthModel model(user, version);
  model.set_context_model(kStationary,
                          core::ContextModel(std::move(scaler),
                                             std::move(krr)));
  return model;
}

TEST(ServeTsan, ConcurrentContributeAndSnapshot) {
  ShardedPopulationStore store(8);
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kRounds = 25;

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, w] {
      for (int r = 0; r < kRounds; ++r) {
        const int user = w * kRounds + r;
        store.contribute(user, kStationary,
                         user_vectors(user, 4, 3000 + user));
        store.contribute(user, kMoving, user_vectors(user, 2, 4000 + user));
      }
    });
  }
  std::atomic<bool> stop{false};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&store, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = store.snapshot();
        // A snapshot is internally consistent: iterating it while writers
        // contribute must be safe, and it never shrinks.
        std::size_t total = 0;
        for (const auto& [context, bucket] : *snapshot) {
          total += bucket.size();
        }
        (void)total;
        (void)store.store_size(kStationary);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(store.store_size(kStationary),
            static_cast<std::size_t>(kWriters * kRounds * 4));
  EXPECT_EQ(store.snapshot()->at(kMoving).size(),
            static_cast<std::size_t>(kWriters * kRounds * 2));
  EXPECT_EQ(store.stats().contributions,
            static_cast<std::uint64_t>(2 * kWriters * kRounds));
}

TEST(ServeTsan, RetrainCoalescingAndSwapRaces) {
  ShardedPopulationStore store(4);
  for (int u = 0; u < 6; ++u) {
    store.contribute(u, kStationary, user_vectors(u, 20, 5000 + u));
  }
  util::ThreadPool pool(4);
  // The swap target shared by workers: a cache, as in the gateway.
  ModelCache cache(1 << 20);
  {
    RetrainQueue queue(
        &store, {},
        [&cache](int user, const core::AuthModel& model) {
          cache.put(user, model);
        },
        &pool);

    constexpr int kSubmitters = 4;
    constexpr int kPerThread = 10;
    std::vector<std::thread> threads;
    for (int t = 0; t < kSubmitters; ++t) {
      threads.emplace_back([&queue, t] {
        for (int i = 0; i < kPerThread; ++i) {
          RetrainQueue::Request request;
          request.user_token = i % 3;  // heavy duplication => coalescing
          request.positives[kStationary] =
              user_vectors(request.user_token, 15,
                           6000 + static_cast<std::uint64_t>(t * 100 + i));
          request.rng_seed = 7000 + static_cast<std::uint64_t>(t * 100 + i);
          request.version = 2 + i;
          auto future = queue.submit(std::move(request));
          if (i % 4 == 0) (void)future.get();  // some callers block, some not
        }
      });
    }
    for (auto& thread : threads) thread.join();
    queue.wait_idle();

    const auto stats = queue.stats();
    EXPECT_EQ(stats.submitted,
              static_cast<std::uint64_t>(kSubmitters * kPerThread));
    EXPECT_EQ(stats.submitted,
              stats.coalesced + stats.completed + stats.failed);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.in_flight, 0u);
  }
  // Every hammered user ended up with a swapped-in model.
  for (int u = 0; u < 3; ++u) {
    EXPECT_NE(cache.get(u), nullptr);
  }
}

TEST(ServeTsan, ApproxEnrollDriftAndContributeRaces) {
  // Enroll and the retrain queue share one ApproxStatsCache. Four threads
  // each enroll three users (contributing their positives), report drift and
  // contribute, so the statistics rebuild across power-of-two prefixes
  // (32 -> 64 -> 128 vectors) while other threads look them up.
  for (const auto mode :
       {ml::TrainingMode::kRff, ml::TrainingMode::kNystrom}) {
    util::ThreadPool pool(4);
    GatewayConfig config;
    config.shards = 4;
    config.training.krr.mode = mode;
    config.training.krr.approx_dim = 32;
    AuthGateway gateway(config, &pool);
    for (int u = 100; u < 104; ++u) {
      gateway.contribute(u, kStationary, user_vectors(u, 8, 9700 + u));
    }
    constexpr int kThreads = 4;
    constexpr int kUsersPerThread = 3;
    std::vector<std::vector<std::shared_future<core::AuthModel>>> drifts(
        kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&gateway, &drifts, t] {
        for (int user = t * kUsersPerThread; user < (t + 1) * kUsersPerThread;
             ++user) {
          (void)gateway.enroll(
              user, {{kStationary, user_vectors(user, 12, 9800 + user)}},
              9900 + user, /*contribute_positives=*/true);
          drifts[t].push_back(gateway.report_drift(
              user, {{kStationary, user_vectors(user, 12, 9850 + user)}},
              9950 + user));
          gateway.contribute(200 + user, kStationary,
                             user_vectors(200 + user, 6, 10000 + user));
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (const auto& futures : drifts) {
      for (const auto& future : futures) {
        EXPECT_GE(future.get().version(), 2) << ml::to_string(mode);
      }
    }
    for (int user = 0; user < kThreads * kUsersPerThread; ++user) {
      EXPECT_GE(gateway.model_version(user), 2) << ml::to_string(mode);
    }
  }
}

TEST(ServeTsan, WritersRacingLogReplayRecovery) {
  // Writer-during-recovery: enrollment-driven contributions race
  // attach_persistence's shard-by-shard log replay. (AuthGateway recovers
  // inside its constructor, so the store is the raceable surface.) The
  // contract: a racing contribution lands either before its shard's
  // recovery (folded into the canonicalizing snapshot) or after (appended
  // to the fresh log) — durable and present exactly once either way.
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "sy_tsan_recovery").string();
  fs::remove_all(dir);
  constexpr int kRecovered = 40;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 25;
  PersistenceOptions options;
  options.dir = dir;
  options.compact_threshold = 0;
  options.sync_every = 0;

  {  // Generation 1: persist a population, then "crash".
    ShardedPopulationStore store(8);
    store.attach_persistence(options);
    for (int u = 0; u < kRecovered; ++u) {
      store.contribute(u, kStationary, user_vectors(u, 2, 9000 + u));
    }
  }

  // Generation 2: contributions race the replay.
  ShardedPopulationStore store(8);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, &go, w] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerWriter; ++i) {
        const int user = 1000 + w * kPerWriter + i;
        store.contribute(user, kStationary,
                         user_vectors(user, 2, 9500 + user));
      }
    });
  }
  go.store(true, std::memory_order_release);
  const auto recovered = store.attach_persistence(options);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(recovered.snapshot_vectors + recovered.replayed_vectors,
            static_cast<std::uint64_t>(2 * kRecovered));
  const auto total =
      static_cast<std::size_t>(2 * (kRecovered + kWriters * kPerWriter));
  EXPECT_EQ(store.store_size(kStationary), total);

  // Every racing write was durable: a third generation recovers the
  // second's merged snapshot bit-identically.
  ShardedPopulationStore third(8);
  third.attach_persistence(options);
  EXPECT_EQ(third.store_size(kStationary), total);
  EXPECT_EQ(core::serialize_population(*third.snapshot()),
            core::serialize_population(*store.snapshot()));

  fs::remove_all(dir);
}

TEST(ServeTsan, CacheEvictionUnderParallelLookups) {
  const std::size_t one_model =
      core::ModelStore::serialize(tiny_model(0)).size();
  std::atomic<std::uint64_t> loader_calls{0};
  // Room for only 3 of the 16 users: constant eviction pressure.
  ModelCache cache(
      3 * one_model,
      [&loader_calls](int user) -> std::optional<ModelCache::LoadedModel> {
        loader_calls.fetch_add(1, std::memory_order_relaxed);
        return ModelCache::LoadedModel{tiny_model(user), 0};
      });

  constexpr int kThreads = 6;
  constexpr int kLookups = 200;
  constexpr int kUsers = 16;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      util::Rng rng(8000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kLookups; ++i) {
        const int user = rng.uniform_int(0, kUsers - 1);
        if (i % 31 == 0) {
          cache.put(user, tiny_model(user, /*version=*/2));
        } else {
          const auto model = cache.get(user);
          ASSERT_NE(model, nullptr);
          EXPECT_EQ(model->user_id(), user);
          // Use the model after potential concurrent eviction.
          EXPECT_GE(model->context_count(), 1u);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 4u);  // 3 fit + at most the freshly kept one
  EXPECT_EQ(stats.loads, loader_calls.load());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

}  // namespace
}  // namespace sy::serve
