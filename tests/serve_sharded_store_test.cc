// ShardedPopulationStore: the 1-shard configuration must be bit-identical
// to the single-map CowPopulationStore path, multi-shard must preserve every
// vector, and snapshots must be cached and immutable.
#include "serve/sharded_population_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "core/auth_server.h"
#include "core/population_codec.h"
#include "serve/volume.h"
#include "util/rng.h"

namespace sy::serve {
namespace {

constexpr auto kStationary = sensors::DetectedContext::kStationary;
constexpr auto kMoving = sensors::DetectedContext::kMoving;

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

void expect_models_identical(const core::AuthModel& a,
                             const core::AuthModel& b) {
  ASSERT_EQ(a.models().size(), b.models().size());
  for (const auto& [context, cm] : a.models()) {
    ASSERT_TRUE(b.has_context(context));
    EXPECT_EQ(cm.classifier.pack(), b.context_model(context).classifier.pack());
    EXPECT_EQ(cm.scaler.pack(), b.context_model(context).scaler.pack());
  }
}

TEST(ShardedPopulationStore, RejectsZeroShards) {
  EXPECT_THROW(ShardedPopulationStore(0), std::invalid_argument);
}

TEST(ShardedPopulationStore, OneShardSnapshotIdenticalToCowStore) {
  core::CowPopulationStore cow;
  ShardedPopulationStore sharded(1);
  util::Rng rng(31);
  for (int u = 0; u < 5; ++u) {
    const auto stationary = user_vectors(u, 30, rng);
    const auto moving = user_vectors(u, 20, rng);
    cow.contribute(u, kStationary, stationary);
    cow.contribute(u, kMoving, moving);
    sharded.contribute(u, kStationary, stationary);
    sharded.contribute(u, kMoving, moving);
  }

  const auto a = cow.snapshot();
  const auto b = sharded.snapshot();
  ASSERT_EQ(a->size(), b->size());
  for (const auto& [context, bucket] : *a) {
    const auto& other = b->at(context);
    ASSERT_EQ(bucket.size(), other.size());
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      // Element-for-element: same contributor, same vector, same position —
      // the precondition for bit-identical impostor draws.
      EXPECT_EQ(bucket[i].contributor, other[i].contributor);
      EXPECT_EQ(bucket[i].vector, other[i].vector);
    }
  }
}

TEST(ShardedPopulationStore, OneShardTrainsBitIdenticalModels) {
  // Acceptance criterion: AuthServer over a 1-shard ShardedPopulationStore
  // is bit-identical to the default single-map path.
  core::AuthServer reference;
  core::AuthServer sharded_server(
      {}, {}, std::make_shared<ShardedPopulationStore>(1));
  util::Rng data_rng(32);
  std::vector<core::VectorsByContext> positives(4);
  for (int u = 0; u < 4; ++u) {
    positives[u][kStationary] = user_vectors(u, 40, data_rng);
    positives[u][kMoving] = user_vectors(u, 25, data_rng);
    for (const auto& [context, vectors] : positives[u]) {
      reference.contribute(u, context, vectors);
      sharded_server.contribute(u, context, vectors);
    }
  }
  for (int u = 0; u < 4; ++u) {
    util::Rng rng_a(100 + u);
    util::Rng rng_b(100 + u);
    const auto a = reference.train_user_model(u, positives[u], rng_a);
    const auto b = sharded_server.train_user_model(u, positives[u], rng_b);
    expect_models_identical(a, b);
  }
}

TEST(ShardedPopulationStore, MultiShardPreservesEveryVector) {
  ShardedPopulationStore sharded(8);
  core::CowPopulationStore cow;
  util::Rng rng(33);
  for (int u = 0; u < 20; ++u) {
    const auto vectors = user_vectors(u, 10, rng);
    sharded.contribute(u, kStationary, vectors);
    cow.contribute(u, kStationary, vectors);
  }
  EXPECT_EQ(sharded.store_size(kStationary), 200u);

  // Same multiset of (contributor, vector) regardless of shard layout.
  auto key_set = [](const core::PopulationStore& store) {
    std::multiset<std::pair<int, std::vector<double>>> out;
    for (const auto& sv : store.at(kStationary)) {
      out.insert({sv.contributor, sv.vector});
    }
    return out;
  };
  EXPECT_EQ(key_set(*sharded.snapshot()), key_set(*cow.snapshot()));

  // The hash actually spreads 20 contributors over 8 shards.
  std::size_t populated = 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    if (sharded.shard_size(s, kStationary) > 0) ++populated;
  }
  EXPECT_GT(populated, 1u);
}

TEST(ShardedPopulationStore, ContributorShardIsStable) {
  ShardedPopulationStore sharded(8);
  for (int u = -5; u < 50; ++u) {
    EXPECT_EQ(sharded.shard_of(u), sharded.shard_of(u));
    EXPECT_LT(sharded.shard_of(u), sharded.shard_count());
  }
}

TEST(ShardedPopulationStore, SnapshotIsCachedUntilContribution) {
  ShardedPopulationStore sharded(4);
  util::Rng rng(34);
  sharded.contribute(1, kStationary, user_vectors(1, 10, rng));

  const auto first = sharded.snapshot();
  const auto second = sharded.snapshot();
  EXPECT_EQ(first.get(), second.get());  // served from cache
  EXPECT_EQ(sharded.stats().snapshot_rebuilds, 1u);
  EXPECT_EQ(sharded.stats().snapshot_reuses, 1u);

  sharded.contribute(2, kStationary, user_vectors(2, 10, rng));
  const auto third = sharded.snapshot();
  EXPECT_NE(first.get(), third.get());  // rebuilt after growth
  EXPECT_EQ(sharded.stats().snapshot_rebuilds, 2u);
}

TEST(ShardedPopulationStore, SnapshotImmutableAfterLaterContributions) {
  ShardedPopulationStore sharded(4);
  util::Rng rng(35);
  sharded.contribute(1, kStationary, user_vectors(1, 10, rng));
  const auto snapshot = sharded.snapshot();
  ASSERT_EQ(snapshot->at(kStationary).size(), 10u);

  sharded.contribute(2, kStationary, user_vectors(2, 10, rng));
  sharded.contribute(1, kMoving, user_vectors(1, 5, rng));
  EXPECT_EQ(snapshot->at(kStationary).size(), 10u);
  EXPECT_EQ(snapshot->count(kMoving), 0u);
  EXPECT_EQ(sharded.snapshot()->at(kStationary).size(), 20u);
}

TEST(ShardedPopulationStore, IncrementalRebuildSharesUntouchedBuckets) {
  ShardedPopulationStore sharded(4);
  util::Rng rng(37);
  sharded.contribute(1, kStationary, user_vectors(1, 10, rng));
  sharded.contribute(1, kMoving, user_vectors(1, 5, rng));
  const auto first = sharded.snapshot();
  // First rebuild merged both contexts from the shards.
  EXPECT_EQ(sharded.stats().snapshot_buckets_copied, 2u);
  EXPECT_EQ(sharded.stats().snapshot_buckets_shared, 0u);

  // Same contributor (same shard), so the old block keeps its merged
  // position and the address comparison below is order-stable.
  sharded.contribute(1, kMoving, user_vectors(2, 5, rng));
  const auto second = sharded.snapshot();
  // Only the touched context re-merged; the other was reused wholesale.
  EXPECT_EQ(sharded.stats().snapshot_buckets_copied, 3u);
  EXPECT_EQ(sharded.stats().snapshot_buckets_shared, 1u);
  EXPECT_TRUE(second->at(kStationary).shares_storage_with(
      first->at(kStationary)));
  // Even the re-merged bucket shares its vector payloads: the elements the
  // two snapshots have in common live at the very same addresses.
  ASSERT_EQ(second->at(kMoving).size(), 10u);
  EXPECT_EQ(&second->at(kMoving)[0], &first->at(kMoving)[0]);
  EXPECT_EQ(&second->at(kMoving)[4], &first->at(kMoving)[4]);
}

TEST(ShardedPopulationStore, BucketsCopiedTracksDeltaNotStoreSize) {
  // The O(delta) contract: alternating contribute/snapshot re-merges exactly
  // the contributed context each time, no matter how large the store grows.
  ShardedPopulationStore sharded(8);
  util::Rng rng(38);
  constexpr std::size_t kUsers = 50;
  for (std::size_t u = 0; u < kUsers; ++u) {
    sharded.contribute(static_cast<int>(u), kStationary,
                       user_vectors(static_cast<int>(u), 4, rng));
    (void)sharded.snapshot();
  }
  const auto stats = sharded.stats();
  EXPECT_EQ(stats.snapshot_rebuilds, kUsers);
  EXPECT_EQ(stats.snapshot_buckets_copied, kUsers);  // 1 per rebuild, flat
  EXPECT_EQ(stats.snapshot_buckets_shared, 0u);

  // A second context joins: rebuilds now copy the touched bucket and share
  // the untouched one.
  sharded.contribute(7, kMoving, user_vectors(7, 4, rng));
  (void)sharded.snapshot();
  EXPECT_EQ(sharded.stats().snapshot_buckets_copied, kUsers + 1);
  EXPECT_EQ(sharded.stats().snapshot_buckets_shared, 1u);
}

TEST(ShardedPopulationStore, RejectedContributionChangesNothing) {
  // A NaN/inf value or a ragged payload is refused before the shard lock:
  // no bucket, shard version, counter or log record moves, and recovery
  // replays only the accepted contribution.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Rng rng(39);
  std::vector rejected(4, user_vectors(2, 4, rng));
  rejected[0][2][1] = std::numeric_limits<double>::quiet_NaN();
  rejected[1][2][1] = kInf;
  rejected[2][2][1] = -kInf;
  rejected[3][3].pop_back();

  PersistenceOptions options;
  options.dir = "/mem/rejected";
  options.volume = std::make_shared<MemVolume>();
  std::vector<std::uint8_t> accepted;
  {
    ShardedPopulationStore store(4);
    store.attach_persistence(options);
    store.contribute(1, kStationary, user_vectors(1, 10, rng));
    const auto snapshot = store.snapshot();
    const auto before = store.stats();
    for (const auto& payload : rejected) {
      EXPECT_THROW(store.contribute(2, kStationary, payload),
                   std::invalid_argument);
      EXPECT_THROW(store.contribute(2, kMoving, payload),
                   std::invalid_argument);
    }
    EXPECT_EQ(store.stats().contributions, before.contributions);
    EXPECT_EQ(store.stats().log_records, before.log_records);
    EXPECT_EQ(store.snapshot(), snapshot);  // cached: no shard version moved
    EXPECT_EQ(store.store_size(kMoving), 0u);
    accepted = core::serialize_population(*snapshot);
  }
  ShardedPopulationStore recovered(4);
  EXPECT_EQ(recovered.attach_persistence(options).replayed_records, 1u);
  EXPECT_EQ(core::serialize_population(*recovered.snapshot()), accepted);
}

}  // namespace
}  // namespace sy::serve
