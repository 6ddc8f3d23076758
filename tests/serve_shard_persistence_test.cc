// Durable shard snapshots + append-log crash recovery, proven under storage
// faults (the serve-side extension of core_store_robustness_test):
//   - clean crash: recovered merged snapshot bit-identical to the live one
//   - torn tail record: dropped with a warning, recovery succeeds
//   - mid-log bit flip / snapshot corruption: ModelCorruptError naming the
//     offending path and shard — never a crash, never silently-wrong data
//   - dropped fsyncs: recovery yields exactly the durable prefix
//   - AuthGateway restart: versions, bundles, and population all come back
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/model_store.h"
#include "core/population_codec.h"
#include "serve/auth_gateway.h"
#include "serve/shard_log.h"
#include "serve/shard_snapshot.h"
#include "serve/sharded_population_store.h"
#include "serve/volume.h"
#include "util/rng.h"

namespace sy::serve {
namespace {

namespace fs = std::filesystem;
constexpr auto kStationary = sensors::DetectedContext::kStationary;
constexpr auto kMoving = sensors::DetectedContext::kMoving;

// Fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name)
      : path(fs::temp_directory_path() / ("sy_persist_test_" + name)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

std::vector<std::vector<double>> vectors_for(int token, std::size_t n,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(4);
    for (auto& v : x) v = rng.gaussian(0.1 * token, 1.0);
    out.push_back(std::move(x));
  }
  return out;
}

std::vector<std::uint8_t> merged_bytes(const ShardedPopulationStore& store) {
  return core::serialize_population(*store.snapshot());
}

void flip_byte(const fs::path& file, std::size_t offset) {
  std::fstream io(file, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(io) << file;
  io.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  io.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  io.seekp(static_cast<std::streamoff>(offset));
  io.write(&byte, 1);
}

TEST(ShardPersistence, CleanRestartRecoversBitIdenticalStore) {
  ScratchDir dir("clean_restart");
  std::vector<std::uint8_t> live_bytes;
  {
    ShardedPopulationStore store(4);
    PersistenceOptions options;
    options.dir = dir.str();
    options.compact_threshold = 3;  // exercise compaction mid-run
    const auto recovered = store.attach_persistence(options);
    EXPECT_EQ(recovered.snapshot_vectors + recovered.replayed_vectors, 0u);

    for (int token = -3; token < 8; ++token) {
      store.contribute(token, token % 2 == 0 ? kStationary : kMoving,
                       vectors_for(token, 2, 100 + token));
    }
    live_bytes = merged_bytes(store);
    EXPECT_FALSE(live_bytes.empty());
  }  // "crash": no checkpoint beyond what compaction already wrote

  ShardedPopulationStore recovered_store(4);
  PersistenceOptions options;
  options.dir = dir.str();
  const auto recovered = recovered_store.attach_persistence(options);
  EXPECT_EQ(recovered.snapshot_vectors + recovered.replayed_vectors, 22u);
  EXPECT_EQ(merged_bytes(recovered_store), live_bytes);

  // Negative tokens round-trip through the u32 encoding.
  const auto snapshot = recovered_store.snapshot();
  bool found_negative = false;
  for (const auto& [context, bucket] : *snapshot) {
    for (const auto& stored : bucket) {
      if (stored.contributor == -3) found_negative = true;
    }
  }
  EXPECT_TRUE(found_negative);
}

TEST(ShardPersistence, MissingSnapshotReplaysLogAlone) {
  ScratchDir dir("log_only");
  std::vector<std::uint8_t> live_bytes;
  {
    ShardedPopulationStore store(2);
    PersistenceOptions options;
    options.dir = dir.str();
    options.compact_threshold = 0;  // keep everything in the logs
    store.attach_persistence(options);
    for (int token = 0; token < 6; ++token) {
      store.contribute(token, kStationary, vectors_for(token, 1, 200 + token));
    }
    live_bytes = merged_bytes(store);
  }
  // Snapshots (written empty at attach) lost; the logs carry everything.
  for (std::size_t s = 0; s < 2; ++s) {
    fs::remove(snapshot_path_for(dir.str(), s));
  }
  ShardedPopulationStore recovered_store(2);
  PersistenceOptions options;
  options.dir = dir.str();
  const auto recovered = recovered_store.attach_persistence(options);
  EXPECT_EQ(recovered.shards_with_snapshot, 0u);
  EXPECT_EQ(recovered.replayed_records, 6u);
  EXPECT_EQ(merged_bytes(recovered_store), live_bytes);
}

TEST(ShardPersistence, TornTailRecordIsDiscardedAndRecoverySucceeds) {
  auto volume = std::make_shared<MemVolume>();
  const std::string dir = "/mem/torn_tail";
  const std::string log_path = ShardLog::path_for(dir, 0);
  std::vector<std::uint8_t> expected;
  std::size_t durable_before_tail = 0;
  {
    ShardedPopulationStore store(1);
    PersistenceOptions options;
    options.dir = dir;
    options.compact_threshold = 0;
    options.sync_every = 1;
    options.volume = volume;
    store.attach_persistence(options);
    store.contribute(1, kStationary, vectors_for(1, 2, 301));
    store.contribute(2, kMoving, vectors_for(2, 1, 302));
    expected = merged_bytes(store);
    durable_before_tail = volume->bytes(log_path).size();
    store.contribute(3, kStationary, vectors_for(3, 2, 303));
  }
  volume->crash();
  // Tear the final record 5 bytes in.
  volume->bytes(log_path).resize(durable_before_tail + 5);

  const auto replay = ShardLog::replay(*volume, log_path, 0);
  EXPECT_TRUE(replay.dropped_torn_tail);
  EXPECT_EQ(replay.records.size(), 2u);

  ShardedPopulationStore recovered_store(1);
  PersistenceOptions options;
  options.dir = dir;
  options.volume = volume;
  const auto recovered = recovered_store.attach_persistence(options);
  EXPECT_EQ(recovered.torn_tails_dropped, 1u);
  EXPECT_EQ(recovered.replayed_records, 2u);
  // Recovered = everything except the torn third contribution.
  EXPECT_EQ(merged_bytes(recovered_store), expected);
}

TEST(ShardPersistence, MidLogBitFlipRaisesCorruptionNamingPathAndShard) {
  ScratchDir dir("bit_flip");
  {
    ShardedPopulationStore store(1);
    PersistenceOptions options;
    options.dir = dir.str();
    options.compact_threshold = 0;
    options.sync_every = 1;
    store.attach_persistence(options);
    store.contribute(1, kStationary, vectors_for(1, 2, 311));
    store.contribute(2, kMoving, vectors_for(2, 1, 312));
  }
  // Flip a payload byte of the FIRST record: fully-present record with a
  // digest mismatch — media corruption, not a torn write.
  const std::string log_path = ShardLog::path_for(dir.str(), 0);
  flip_byte(log_path, 8 + 3);

  ShardedPopulationStore recovered_store(1);
  PersistenceOptions options;
  options.dir = dir.str();
  try {
    recovered_store.attach_persistence(options);
    FAIL() << "mid-log bit flip must raise ModelCorruptError";
  } catch (const core::ModelCorruptError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(log_path), std::string::npos) << what;
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
  }
  // The failed attach rolled back: after the operator repairs (here:
  // removes) the corrupt log, the SAME store attaches successfully.
  fs::remove(log_path);
  const auto recovered = recovered_store.attach_persistence(options);
  EXPECT_EQ(recovered.replayed_records, 0u);
  EXPECT_TRUE(recovered_store.persistent());
}

TEST(ShardPersistence, LengthFieldFlipMidLogIsCorruptionNotTornTail) {
  ScratchDir dir("len_flip");
  {
    ShardedPopulationStore store(1);
    PersistenceOptions options;
    options.dir = dir.str();
    options.compact_threshold = 0;
    options.sync_every = 1;
    store.attach_persistence(options);
    store.contribute(1, kStationary, vectors_for(1, 2, 361));
    store.contribute(2, kMoving, vectors_for(2, 1, 362));
    store.contribute(3, kStationary, vectors_for(3, 1, 363));
  }
  // Flip a middle bit of the FIRST record's payload_len (file offset 6 =
  // len byte 2, += 4 MiB): the record now claims to run far past EOF, but
  // digest-valid records 2 and 3 still sit behind it — that is mid-log
  // corruption and must NOT be waved through as a torn tail.
  const std::string log_path = ShardLog::path_for(dir.str(), 0);
  flip_byte(log_path, 6);

  ShardedPopulationStore recovered_store(1);
  PersistenceOptions options;
  options.dir = dir.str();
  try {
    recovered_store.attach_persistence(options);
    FAIL() << "length flip over durable records must raise ModelCorruptError";
  } catch (const core::ModelCorruptError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(log_path), std::string::npos) << what;
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
  }
}

TEST(ShardPersistence, FailedAttachRollsBackExactlyAcrossShards) {
  ScratchDir dir("rollback_multi");
  {  // Generation 1: data spread across 4 shards, then crash.
    ShardedPopulationStore store(4);
    PersistenceOptions options;
    options.dir = dir.str();
    store.attach_persistence(options);
    for (int token = 0; token < 12; ++token) {
      store.contribute(token, kStationary, vectors_for(token, 1, 370 + token));
    }
  }

  // Generation 2: live writes land before the attach, and the attach dies
  // mid-install (shard 3's log cannot be opened) AFTER earlier shards were
  // already installed — the rollback must restore the exact pre-attach
  // in-memory state, with no recovered vectors left behind.
  ShardedPopulationStore store(4);
  for (int token = 100; token < 104; ++token) {
    store.contribute(token, kStationary, vectors_for(token, 1, 380 + token));
  }
  const auto live_bytes = merged_bytes(store);

  // A volume whose shard-3 log cannot be opened.
  struct Shard3LogFails final : FileVolume {
    std::unique_ptr<LogSink> open_log(const std::string& path) override {
      if (path.ends_with("/shard_3.log")) {
        throw std::runtime_error("injected: disk full");
      }
      return FileVolume::open_log(path);
    }
  };
  PersistenceOptions failing;
  failing.dir = dir.str();
  failing.volume = std::make_shared<Shard3LogFails>();
  EXPECT_THROW(store.attach_persistence(failing), std::runtime_error);
  EXPECT_FALSE(store.persistent());
  // The in-memory store is exactly its pre-attach self: no recovered
  // vectors left behind, no live vectors lost.
  EXPECT_EQ(merged_bytes(store), live_bytes);
  EXPECT_EQ(store.store_size(kStationary), 4u);

  // After an I/O failure the supported path is a FRESH store (see the
  // attach_persistence contract): it recovers every generation-1 vector
  // exactly once, plus the live writes that shards 0-2 compacted to disk
  // before the failure (shard 3 never installed, so its live writes exist
  // only in the abandoned instance).
  std::size_t live_persisted = 0;
  for (int token = 100; token < 104; ++token) {
    if (store.shard_of(token) != 3) ++live_persisted;
  }
  ShardedPopulationStore fresh(4);
  PersistenceOptions options;
  options.dir = dir.str();
  fresh.attach_persistence(options);
  EXPECT_TRUE(fresh.persistent());
  EXPECT_EQ(fresh.store_size(kStationary), 12u + live_persisted);
}

TEST(ShardPersistence, DroppedFsyncsLoseExactlyTheUnsyncedSuffix) {
  auto volume = std::make_shared<MemVolume>();
  auto chaos = std::make_shared<ChaosVolume>(volume);
  const std::string dir = "/mem/drop_sync";
  std::vector<std::uint8_t> expected;
  {
    ShardedPopulationStore store(1);
    PersistenceOptions options;
    options.dir = dir;
    options.compact_threshold = 0;
    options.sync_every = 1;
    options.volume = chaos;
    store.attach_persistence(options);
    store.contribute(1, kStationary, vectors_for(1, 2, 321));
    store.contribute(2, kMoving, vectors_for(2, 1, 322));
    expected = merged_bytes(store);
    // Storage stops honoring fsync from here on: the third contribution
    // reaches the page cache but never the medium.
    chaos->arm(parse_fault_plan("dropsync"));
    store.contribute(3, kStationary, vectors_for(3, 2, 323));
  }
  volume->crash();

  ShardedPopulationStore recovered_store(1);
  PersistenceOptions options;
  options.dir = dir;
  options.volume = volume;
  const auto recovered = recovered_store.attach_persistence(options);
  EXPECT_EQ(recovered.replayed_records, 2u);
  EXPECT_EQ(merged_bytes(recovered_store), expected);
}

TEST(ShardPersistence, SnapshotBitFlipRaisesCorruptionNamingPathAndShard) {
  ScratchDir dir("snap_flip");
  {
    ShardedPopulationStore store(2);
    PersistenceOptions options;
    options.dir = dir.str();
    store.attach_persistence(options);
    for (int token = 0; token < 6; ++token) {
      store.contribute(token, kStationary, vectors_for(token, 2, 331 + token));
    }
    store.checkpoint();  // fold everything into the snapshots
  }
  const std::string snap_path = snapshot_path_for(dir.str(), 1);
  const auto size = fs::file_size(snap_path);
  ASSERT_GT(size, 40u);
  flip_byte(snap_path, static_cast<std::size_t>(size / 2));

  ShardedPopulationStore recovered_store(2);
  PersistenceOptions options;
  options.dir = dir.str();
  try {
    recovered_store.attach_persistence(options);
    FAIL() << "snapshot bit flip must raise ModelCorruptError";
  } catch (const core::ModelCorruptError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(snap_path), std::string::npos) << what;
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
  }
}

TEST(ShardPersistence, TruncatedSnapshotRaisesCorruption) {
  ScratchDir dir("snap_trunc");
  {
    ShardedPopulationStore store(1);
    PersistenceOptions options;
    options.dir = dir.str();
    store.attach_persistence(options);
    store.contribute(7, kStationary, vectors_for(7, 3, 341));
    store.checkpoint();
  }
  const std::string snap_path = snapshot_path_for(dir.str(), 0);
  const auto size = fs::file_size(snap_path);
  fs::resize_file(snap_path, size / 2);

  ShardedPopulationStore recovered_store(1);
  PersistenceOptions options;
  options.dir = dir.str();
  EXPECT_THROW(recovered_store.attach_persistence(options),
               core::ModelCorruptError);
}

TEST(ShardPersistence, ShardLayoutMismatchIsRejectedNotReinterpreted) {
  ScratchDir dir("layout");
  {
    ShardedPopulationStore store(2);
    PersistenceOptions options;
    options.dir = dir.str();
    store.attach_persistence(options);
    store.contribute(1, kStationary, vectors_for(1, 1, 351));
    store.checkpoint();
  }
  ShardedPopulationStore recovered_store(3);
  PersistenceOptions options;
  options.dir = dir.str();
  EXPECT_THROW(recovered_store.attach_persistence(options),
               std::invalid_argument);
}

TEST(ShardPersistence, DoubleAttachThrows) {
  ScratchDir dir("double_attach");
  ShardedPopulationStore store(1);
  PersistenceOptions options;
  options.dir = dir.str();
  store.attach_persistence(options);
  EXPECT_THROW(store.attach_persistence(options), std::logic_error);
}

TEST(ShardPersistence, ReplayOfMissingLogIsEmpty) {
  FileVolume volume;
  const auto result =
      ShardLog::replay(volume, "/nonexistent/dir/shard_0.log", 0);
  EXPECT_TRUE(result.records.empty());
  EXPECT_FALSE(result.dropped_torn_tail);
}

// --- Gateway-level restart ------------------------------------------------

// Same dimensionality as vectors_for(): the gateway trains positives against
// impostors drawn from the contributed population.
core::VectorsByContext positives_for(int user, std::uint64_t seed) {
  core::VectorsByContext positives;
  util::Rng rng(seed);
  auto& bucket = positives[kStationary];
  for (int i = 0; i < 12; ++i) {
    std::vector<double> x(4);
    for (auto& v : x) v = rng.gaussian(2.0 * user, 1.0);
    bucket.push_back(std::move(x));
  }
  return positives;
}

TEST(GatewayRecovery, RestartServesEnrolledUsersAndKeepsVersions) {
  ScratchDir models("gw_models");
  ScratchDir persist("gw_persist");
  GatewayConfig config;
  config.shards = 4;
  config.model_dir = models.str();
  config.persist_dir = persist.str();

  std::vector<std::uint8_t> population_before;
  {
    AuthGateway gateway(config);
    for (int user = 10; user < 14; ++user) {
      gateway.contribute(user, kStationary,
                         vectors_for(user, 12, 400 + user));
    }
    for (int user = 10; user < 14; ++user) {
      (void)gateway.enroll(user, positives_for(user, 500 + user),
                           600 + user, /*contribute_positives=*/false);
    }
    // A drift retrain bumps user 10 to version 2 before the crash.
    gateway.report_drift(10, positives_for(10, 700), 701).get();
    gateway.wait_idle();
    EXPECT_EQ(gateway.model_version(10), 2);
    population_before = core::serialize_population(*gateway.store().snapshot());
  }  // crash

  AuthGateway restarted(config);
  EXPECT_EQ(restarted.stats().recovered_users, 4u);
  EXPECT_EQ(restarted.stats().enrolled_users, 4u);
  EXPECT_EQ(restarted.model_version(10), 2);
  EXPECT_EQ(restarted.model_version(13), 1);
  EXPECT_GT(restarted.population_recovery().snapshot_vectors +
                restarted.population_recovery().replayed_vectors,
            0u);
  // The anonymized population came back bit-identically.
  EXPECT_EQ(core::serialize_population(*restarted.store().snapshot()),
            population_before);

  // Scoring works without re-enrollment (bundle reloaded through the cache).
  const auto decisions = restarted.score_batch(
      11, kStationary, positives_for(11, 511)[kStationary]);
  EXPECT_FALSE(decisions.empty());

  // Re-enrollment continues the version sequence instead of colliding.
  const auto model = restarted.enroll(10, positives_for(10, 800), 801,
                                      /*contribute_positives=*/false);
  EXPECT_EQ(model->version(), 3);
  EXPECT_EQ(restarted.model_version(10), 3);
}

TEST(GatewayRecovery, StrayAndCorruptBundlesAreSkippedNotFatal) {
  ScratchDir models("gw_stray");
  GatewayConfig config;
  config.shards = 2;
  config.model_dir = models.str();

  {
    AuthGateway gateway(config);
    gateway.contribute(99, kStationary, vectors_for(99, 12, 900));
    (void)gateway.enroll(1, positives_for(1, 901), 902,
                         /*contribute_positives=*/false);
  }
  // A torn install temp file, an unrelated file, and a corrupt bundle.
  std::ofstream(models.path / "user_7.symd.tmp") << "partial";
  std::ofstream(models.path / "notes.txt") << "unrelated";
  std::ofstream(models.path / "user_8.symd") << "garbage-not-a-bundle";

  AuthGateway restarted(config);
  EXPECT_EQ(restarted.stats().recovered_users, 1u);
  EXPECT_EQ(restarted.model_version(1), 1);
  EXPECT_EQ(restarted.model_version(8), 0);
}

}  // namespace
}  // namespace sy::serve
