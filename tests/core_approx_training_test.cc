// Determinism and correctness of the population-size-independent training
// path (core/approx_training.h):
//   - shared statistics are a pure function of bucket content (two runs,
//     cached vs uncached, and a block-layout-changing rebuild all agree)
//   - block-level self-exclusion matches a reference pass that skips the
//     user's vectors
//   - a cached build trains the same model bits as an uncached one
//   - gateway enrollment after compacted-snapshot recovery reproduces the
//     live run's model bits
//   - nystrom retrain after gateway crash-recovery reproduces the exact
//     landmark set and model bits (ties into PR 4's persistence bit-identity)
#include "core/approx_training.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <vector>

#include "core/auth_server.h"
#include "core/model_store.h"
#include "serve/auth_gateway.h"
#include "util/rng.h"

namespace sy::core {
namespace {

namespace fs = std::filesystem;
constexpr auto kStationary = sensors::DetectedContext::kStationary;
constexpr auto kMoving = sensors::DetectedContext::kMoving;
constexpr std::size_t kDim = 6;

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name)
      : path(fs::temp_directory_path() / ("sy_approx_test_" + name)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

std::vector<std::vector<double>> vectors_for(int token, std::size_t n,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> out(n);
  for (auto& x : out) {
    x.resize(kDim);
    for (auto& v : x) v = rng.gaussian(0.1 * token, 1.0);
  }
  return out;
}

TrainingConfig approx_config(ml::TrainingMode mode, std::size_t dim = 32) {
  TrainingConfig config;
  config.krr.mode = mode;
  config.krr.approx_dim = dim;
  return config;
}

// Populates a CowPopulationStore with `users` contributors in one context.
std::shared_ptr<CowPopulationStore> seeded_store(int users,
                                                 std::size_t per_user = 12) {
  auto store = std::make_shared<CowPopulationStore>();
  for (int u = 0; u < users; ++u) {
    store->contribute(u, kStationary,
                      vectors_for(u, per_user, 1000 + static_cast<unsigned>(u)));
  }
  return store;
}

std::vector<double> model_bits(const AuthModel& model,
                               sensors::DetectedContext context) {
  return model.context_model(context).classifier.pack();
}

TEST(Pow2Floor, Basics) {
  EXPECT_EQ(pow2_floor(1), 1u);
  EXPECT_EQ(pow2_floor(2), 2u);
  EXPECT_EQ(pow2_floor(3), 2u);
  EXPECT_EQ(pow2_floor(4), 4u);
  EXPECT_EQ(pow2_floor(1023), 512u);
  EXPECT_EQ(pow2_floor(1024), 1024u);
}

TEST(ApproxStats, PureFunctionOfBucketContent) {
  for (const auto mode :
       {ml::TrainingMode::kRff, ml::TrainingMode::kNystrom}) {
    const auto store_a = seeded_store(7);
    const auto store_b = seeded_store(7);
    const auto& bucket_a = store_a->snapshot()->at(kStationary);
    const auto& bucket_b = store_b->snapshot()->at(kStationary);
    const auto config = approx_config(mode);
    const auto sa = build_approx_context_stats(bucket_a, kDim, config.krr);
    const auto sb = build_approx_context_stats(bucket_b, kDim, config.krr);

    EXPECT_EQ(sa.prefix_vectors, 64u);  // pow2_floor(84)
    EXPECT_EQ(sa.prefix_vectors, sb.prefix_vectors);
    EXPECT_EQ(0, std::memcmp(sa.gram.data().data(), sb.gram.data().data(),
                             sa.gram.rows() * sa.gram.cols() * sizeof(double)))
        << ml::to_string(mode);
    EXPECT_EQ(sa.feature_sum, sb.feature_sum);
    EXPECT_EQ(sa.map->pack(), sb.map->pack());
    EXPECT_EQ(sa.scaler.pack(), sb.scaler.pack());
  }
}

TEST(ApproxStats, SelfExclusionMatchesReferenceSkipPass) {
  const auto store = seeded_store(5, 16);
  const auto snapshot = store->snapshot();
  const auto& bucket = snapshot->at(kStationary);
  const auto config = approx_config(ml::TrainingMode::kRff);
  const auto stats = build_approx_context_stats(bucket, kDim, config.krr);
  ASSERT_EQ(stats.prefix_vectors, 64u);  // user 4's block straddles the edge

  const int user = 3;
  const ExclusionStats excl = user_exclusion_stats(stats, bucket, user);
  EXPECT_EQ(excl.count, 16u);

  // Reference: transform every prefix vector NOT contributed by the user
  // and accumulate naively; G - G_u must match within numerical tolerance.
  const std::size_t d = stats.map->output_dim();
  std::vector<double> ref_gram(d * d, 0.0), ref_sum(d, 0.0), z(d);
  std::size_t i = 0;
  for (auto it = bucket.begin(); i < stats.prefix_vectors; ++i, ++it) {
    if (it->contributor == user) continue;
    stats.map->transform(stats.scaler.transform(it->vector), z);
    for (std::size_t a = 0; a < d; ++a) {
      for (std::size_t b = 0; b < d; ++b) ref_gram[a * d + b] += z[a] * z[b];
      ref_sum[a] += z[a];
    }
  }
  for (std::size_t a = 0; a < d; ++a) {
    EXPECT_NEAR(stats.feature_sum[a] - excl.sum[a], ref_sum[a], 1e-9);
    for (std::size_t b = 0; b < d; ++b) {
      EXPECT_NEAR(stats.gram(a, b) - excl.gram(a, b), ref_gram[a * d + b],
                  1e-9);
    }
  }

  // A user whose block lies entirely past the prefix is excluded for free.
  const ExclusionStats past = user_exclusion_stats(stats, bucket, 4);
  EXPECT_EQ(past.count, 0u);
}

TEST(ApproxStats, CacheHitsWhilePrefixUnchangedRebuildsAcrossDoubling) {
  auto store = std::make_shared<CowPopulationStore>();
  for (int u = 0; u < 4; ++u) {
    store->contribute(u, kStationary, vectors_for(u, 16, 2000u + u));
  }
  const auto config = approx_config(ml::TrainingMode::kNystrom);
  ApproxStatsCache cache;

  const auto snap1 = store->snapshot();
  const auto s1 = cache.get(kStationary, snap1->at(kStationary), kDim,
                            config.krr);
  EXPECT_EQ(s1->prefix_vectors, 64u);
  EXPECT_EQ(cache.stats().builds, 1u);

  // +32 vectors: 96 total, prefix still 64 — the covering blocks are
  // untouched, so the entry survives.
  store->contribute(90, kStationary, vectors_for(90, 32, 3000));
  const auto snap2 = store->snapshot();
  const auto s2 = cache.get(kStationary, snap2->at(kStationary), kDim,
                            config.krr);
  EXPECT_EQ(s2.get(), s1.get());
  EXPECT_EQ(cache.stats().hits, 1u);

  // +32 more: 128 total crosses the doubling; prefix grows, entry rebuilt.
  store->contribute(91, kStationary, vectors_for(91, 32, 3001));
  const auto snap3 = store->snapshot();
  const auto s3 = cache.get(kStationary, snap3->at(kStationary), kDim,
                            config.krr);
  EXPECT_EQ(s3->prefix_vectors, 128u);
  EXPECT_EQ(cache.stats().builds, 2u);
}

TEST(ApproxTraining, CachedAndUncachedModelsBitIdentical) {
  const auto store = seeded_store(6);
  const auto snapshot = store->snapshot();
  const VectorsByContext positives{{kStationary, vectors_for(2, 10, 77)}};
  for (const auto mode :
       {ml::TrainingMode::kRff, ml::TrainingMode::kNystrom}) {
    const auto config = approx_config(mode);
    util::Rng rng_a(5), rng_b(5);
    ApproxStatsCache cache;
    const AuthModel cached = train_user_from_store(*snapshot, config, 2,
                                                   positives, rng_a, 1,
                                                   &cache);
    const AuthModel uncached =
        train_user_from_store(*snapshot, config, 2, positives, rng_b, 1);
    EXPECT_EQ(model_bits(cached, kStationary), model_bits(uncached, kStationary))
        << ml::to_string(mode);
    EXPECT_EQ(cache.stats().builds, 1u);

    // Same cache, second user: statistics are shared, models still per-user.
    util::Rng rng_c(6);
    const VectorsByContext other{{kStationary, vectors_for(3, 10, 78)}};
    const AuthModel second = train_user_from_store(*snapshot, config, 3, other,
                                                   rng_c, 1, &cache);
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_NE(model_bits(cached, kStationary), model_bits(second, kStationary));
  }
}

TEST(ApproxTraining, ErrorSemanticsMatchExactPath) {
  const auto config = approx_config(ml::TrainingMode::kRff);
  CowPopulationStore store;
  util::Rng rng(1);
  const VectorsByContext positives{{kStationary, vectors_for(0, 4, 5)}};
  // No data at all for the context.
  EXPECT_THROW((void)train_user_from_store(*store.snapshot(), config, 0,
                                           positives, rng, 1),
               std::runtime_error);
  // Only this user's own data.
  store.contribute(0, kStationary, vectors_for(0, 8, 6));
  EXPECT_THROW((void)train_user_from_store(*store.snapshot(), config, 0,
                                           positives, rng, 1),
               std::runtime_error);
  // Another contributor fixes it.
  store.contribute(1, kStationary, vectors_for(1, 8, 7));
  const AuthModel model = train_user_from_store(*store.snapshot(), config, 0,
                                                positives, rng, 1);
  EXPECT_TRUE(model.has_context(kStationary));
  // And empty positives still reject.
  EXPECT_THROW((void)train_user_from_store(*store.snapshot(), config, 0, {},
                                           rng, 1),
               std::invalid_argument);
}

TEST(ApproxStats, ExclusionIdenticalAcrossBlockLayouts) {
  // A live bucket holds one contributor per block (one contribute() call);
  // a snapshot-recovered bucket is rebuilt as ONE merged block mixing every
  // contributor (population_codec read_population_segment). Exclusion must
  // be a function of content only: same counts, same statistics, same model
  // bits on both layouts. A block-header contributor shortcut fails here —
  // for the block's first contributor it subtracts the whole prefix, for
  // everyone else nothing.
  PopulationBucket per_block;
  for (int u = 0; u < 5; ++u) {
    per_block.append_block(
        make_vector_block(u, vectors_for(u, 16, 4000u + static_cast<unsigned>(u))));
  }
  auto merged_payload = std::make_shared<std::vector<StoredVector>>();
  for (const auto& stored : per_block) merged_payload->push_back(stored);
  PopulationBucket merged;
  merged.append_block(std::move(merged_payload));

  for (const auto mode :
       {ml::TrainingMode::kRff, ml::TrainingMode::kNystrom}) {
    const auto config = approx_config(mode);
    const auto stats_a = build_approx_context_stats(per_block, kDim, config.krr);
    const auto stats_b = build_approx_context_stats(merged, kDim, config.krr);
    ASSERT_EQ(stats_a.prefix_vectors, 64u);  // pow2_floor(80): user 4 is out
    // User 0 heads the merged block; user 3 sits mid-block. Both must
    // exclude exactly their own 16 vectors on either layout.
    for (const int user : {0, 3}) {
      const ExclusionStats ea = user_exclusion_stats(stats_a, per_block, user);
      const ExclusionStats eb = user_exclusion_stats(stats_b, merged, user);
      EXPECT_EQ(ea.count, 16u) << ml::to_string(mode) << " user " << user;
      EXPECT_EQ(eb.count, 16u) << ml::to_string(mode) << " user " << user;
      EXPECT_EQ(ea.sum, eb.sum);
      EXPECT_EQ(0,
                std::memcmp(ea.gram.data().data(), eb.gram.data().data(),
                            ea.gram.rows() * ea.gram.cols() * sizeof(double)));
      const auto positives =
          vectors_for(user, 8, 70u + static_cast<unsigned>(user));
      const auto ma = train_classifier_from_stats(stats_a, ea, positives, config);
      const auto mb = train_classifier_from_stats(stats_b, eb, positives, config);
      EXPECT_EQ(ma.pack(), mb.pack()) << ml::to_string(mode) << " user " << user;
    }
  }
}

TEST(ApproxTraining, GatewayEnrollAfterCompactedSnapshotRecovery) {
  // The first restart replays per-record log blocks (one contributor each);
  // constructing the store then compacts, so the SECOND restart recovers
  // each shard's bucket purely from the snapshot — one merged block mixing
  // all contributors. Self-exclusion must keep working on that layout: an
  // enrolling contributor trains against everyone else's data and
  // reproduces the live run's model bits.
  ScratchDir scratch("snapshot_mixed_block");
  serve::GatewayConfig gc;
  gc.shards = 1;  // every contributor merges into a single snapshot block
  gc.training = approx_config(ml::TrainingMode::kNystrom);
  gc.model_dir = scratch.str() + "/models";
  gc.persist_dir = scratch.str() + "/population";

  const VectorsByContext first_vecs{{kStationary, vectors_for(0, 10, 800)}};
  const VectorsByContext mid_vecs{{kStationary, vectors_for(3, 10, 801)}};

  std::vector<double> live_first, live_mid;
  {
    serve::AuthGateway gateway(gc);
    for (int u = 0; u < 6; ++u) {
      gateway.contribute(u, kStationary,
                         vectors_for(u, 12, 900u + static_cast<unsigned>(u)));
    }
    live_first = model_bits(*gateway.enroll(0, first_vecs, 50,
                                            /*contribute_positives=*/false),
                            kStationary);
    live_mid = model_bits(*gateway.enroll(3, mid_vecs, 51,
                                          /*contribute_positives=*/false),
                          kStationary);
  }

  // First restart: replays the log, then compacts into a merged snapshot.
  { serve::AuthGateway intermediate(gc); }

  // Second restart: recovery reads only the compacted snapshot.
  serve::AuthGateway recovered(gc);
  EXPECT_GT(recovered.population_recovery().snapshot_vectors, 0u);
  EXPECT_EQ(recovered.population_recovery().replayed_records, 0u);
  // User 0's vectors head the merged block, user 3's sit mid-block; both
  // enrollments must be bit-identical to the live run.
  EXPECT_EQ(model_bits(*recovered.enroll(0, first_vecs, 50,
                                         /*contribute_positives=*/false),
                       kStationary),
            live_first);
  EXPECT_EQ(model_bits(*recovered.enroll(3, mid_vecs, 51,
                                         /*contribute_positives=*/false),
                       kStationary),
            live_mid);
}

TEST(ApproxTraining, GatewayNystromRetrainAfterRecoveryBitIdentical) {
  // PR 4 guarantees the recovered population is bit-identical to the live
  // one; this extends the guarantee through approximate training: the same
  // snapshot content must select the same landmarks and produce the same
  // model bits, even though recovery rebuilds every block (different block
  // pointers force a statistics rebuild from content).
  ScratchDir scratch("nystrom_recovery");
  serve::GatewayConfig gc;
  gc.shards = 4;
  gc.training = approx_config(ml::TrainingMode::kNystrom);
  gc.model_dir = scratch.str() + "/models";
  gc.persist_dir = scratch.str() + "/population";

  const VectorsByContext enroll_vecs{
      {kStationary, vectors_for(10, 10, 500)},
      {kMoving, vectors_for(10, 10, 501)}};
  const VectorsByContext drift_vecs{{kStationary, vectors_for(10, 10, 502)}};

  std::vector<double> live_bits;
  {
    serve::AuthGateway gateway(gc);
    for (int u = 0; u < 6; ++u) {
      gateway.contribute(u, kStationary, vectors_for(u, 12, 600u + u));
      gateway.contribute(u, kMoving, vectors_for(u, 12, 700u + u));
    }
    (void)gateway.enroll(10, enroll_vecs, /*rng_seed=*/42,
                         /*contribute_positives=*/false);
    const auto retrained = gateway.report_drift(10, drift_vecs, 43).get();
    live_bits = model_bits(retrained, kStationary);
  }

  // Restart: population replays from snapshot+log, then the same drift
  // retrain must reproduce the exact same model.
  serve::AuthGateway recovered(gc);
  EXPECT_GT(recovered.population_recovery().snapshot_vectors +
                recovered.population_recovery().replayed_vectors,
            0u);
  const auto retrained = recovered.report_drift(10, drift_vecs, 43).get();
  EXPECT_EQ(model_bits(retrained, kStationary), live_bits);

  // The exclusion machinery also holds at the gateway level: a contributor
  // who enrolls trains against everyone else's data, not their own.
  const auto self = recovered.enroll(0, enroll_vecs, 44,
                                     /*contribute_positives=*/true);
  EXPECT_TRUE(self->has_context(kStationary));
}

}  // namespace
}  // namespace sy::core
