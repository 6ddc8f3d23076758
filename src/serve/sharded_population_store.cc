#include "serve/sharded_population_store.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "obs/span.h"
#include "serve/shard_snapshot.h"
#include "util/logging.h"
#include "util/rng.h"

namespace sy::serve {

ShardedPopulationStore::ShardedPopulationStore(std::size_t shards,
                                               obs::Registry* registry)
    : own_registry_(registry == nullptr ? std::make_unique<obs::Registry>()
                                        : nullptr),
      registry_(registry != nullptr ? registry : own_registry_.get()),
      contributions_(&registry_->counter("store.contributions")),
      snapshot_rebuilds_(&registry_->counter("store.snapshot_rebuilds")),
      snapshot_reuses_(&registry_->counter("store.snapshot_reuses")),
      snapshot_buckets_copied_(
          &registry_->counter("store.snapshot_buckets_copied")),
      snapshot_buckets_shared_(
          &registry_->counter("store.snapshot_buckets_shared")),
      log_records_(&registry_->counter("store.log_records")),
      log_compactions_(&registry_->counter("store.log_compactions")),
      log_deferred_(&registry_->counter("store.log_deferred")),
      deferred_flushed_(&registry_->counter("store.deferred_flushed")),
      snapshot_rebuild_ns_(&registry_->histogram("store.snapshot_rebuild_ns")),
      log_append_ns_(&registry_->histogram("store.log_append_ns")),
      log_fsync_ns_(&registry_->histogram("store.log_fsync_ns")),
      recovery_replay_ns_(&registry_->histogram("store.recovery_replay_ns")) {
  if (shards == 0) {
    throw std::invalid_argument(
        "ShardedPopulationStore: shard count must be positive");
  }
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  cached_versions_.assign(shards, 0);
}

std::size_t ShardedPopulationStore::shard_of(int contributor_token) const {
  // splitmix64 spreads adjacent tokens (the common enrollment pattern)
  // uniformly across shards.
  const auto h =
      util::splitmix64(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(contributor_token)));
  return static_cast<std::size_t>(h % shards_.size());
}

void ShardedPopulationStore::compact_shard_locked(std::size_t s) {
  Shard& shard = *shards_[s];
  if (!shard.log) return;
  const std::uint64_t folded = shard.records_since_snapshot;
  // Snapshot first, truncate second: a crash in between leaves the log's
  // records with seq <= the snapshot's last_seq, which the next recovery
  // skips — nothing is ever applied twice.
  write_shard_snapshot(*persist_.volume, snapshot_path_for(persist_.dir, s), s,
                       shards_.size(), shard.next_seq - 1, shard.data);
  shard.log->reset();
  shard.records_since_snapshot = 0;
  shard.records_since_sync = 0;
  // The snapshot's last_seq covers every deferred record's seq, so the
  // degraded backlog (and any torn log tail the dirty flag guarded against)
  // is healed as a side effect of any successful compaction.
  if (shard.deferred > 0) {
    deferred_flushed_->inc(shard.deferred);
    shard.deferred = 0;
  }
  shard.log_dirty = false;
  log_compactions_->inc();
  util::log_debug_kv("shard log compacted into snapshot",
                     {{"shard", s},
                      {"records", folded},
                      {"last_seq", shard.next_seq - 1},
                      {"dir", persist_.dir}});
}

void ShardedPopulationStore::contribute(
    int contributor_token, sensors::DetectedContext context,
    const std::vector<std::vector<double>>& vectors) {
  const std::size_t s = shard_of(contributor_token);
  Shard& shard = *shards_[s];
  std::lock_guard<std::mutex> lock(shard.mutex);
  // One immutable block per contribution: every snapshot that includes it
  // shares the block, so no rebuild ever copies these vectors again.
  shard.data[context].append_block(
      core::make_vector_block(contributor_token, vectors));
  ++shard.version;
  contributions_->inc();

  if (shard.log) {
    persist_contribution_locked(s, contributor_token, context, vectors);
  }
}

void ShardedPopulationStore::persist_contribution_locked(
    std::size_t s, int contributor_token, sensors::DetectedContext context,
    const std::vector<std::vector<double>>& vectors) {
  Shard& shard = *shards_[s];
  CircuitBreaker* breaker = persist_.breaker;
  // Defer: the contribution is already visible in shard.data (and to
  // training snapshots); it consumes a seq number so the healing snapshot's
  // last_seq covers it, but nothing touches the failing disk. NOTE the
  // availability/durability trade: a hard crash while degraded loses the
  // deferred records — docs/ROBUSTNESS.md spells out the contract.
  const auto defer = [&] {
    ++shard.next_seq;
    ++shard.deferred;
    log_deferred_->inc();
  };
  if (breaker != nullptr && !breaker->allow()) {
    defer();
    return;
  }
  if (shard.log_dirty || shard.deferred > 0) {
    // Recovery (or the breaker's half-open probe): fold the full in-memory
    // shard — deferred backlog and this contribution included — into a
    // fresh snapshot instead of appending. Appending would be wrong twice
    // over: a dirty log may end in torn bytes a mid-log reader chokes on,
    // and replay order would interleave backlog behind newer records.
    try {
      compact_shard_locked(s);
      if (breaker != nullptr) breaker->on_success();
    } catch (const std::exception& e) {
      if (breaker == nullptr) throw;
      breaker->on_failure();
      defer();
      util::log_warn_kv("shard heal failed; contribution deferred",
                        {{"shard", s}, {"error", e.what()}});
    }
    return;
  }
  // Healthy path. Durable before visible-to-the-next-snapshot is not
  // required (the paper's population is advisory training data), but
  // append-before-return means a crash loses at most the contribution that
  // raced it. Transient failures retry with deterministic jitter before the
  // breaker hears about them.
  const std::uint64_t seq = shard.next_seq++;
  try {
    obs::Span append_span(log_append_ns_);
    util::Rng jitter = util::Rng(persist_.io_retry_seed)
                           .fork((static_cast<std::uint64_t>(s) << 32) ^
                                 shard.retry_draws++);
    retry_io(
        [&] { shard.log->append(seq, contributor_token, context, vectors); },
        persist_.io_retry, jitter,
        [this](std::uint64_t ns) { persist_.volume->sleep(ns); });
  } catch (const IoError& e) {
    if (breaker == nullptr) throw;  // no degraded mode configured: fail loud
    breaker->on_failure();
    // The interrupted append may have left torn bytes; no further appends
    // until a compaction resets the log.
    shard.log_dirty = true;
    ++shard.deferred;
    log_deferred_->inc();
    util::log_warn_kv("shard log append failed; contribution deferred",
                      {{"shard", s}, {"error", e.what()}});
    return;
  }
  if (breaker != nullptr) breaker->on_success();
  log_records_->inc();
  ++shard.records_since_snapshot;
  ++shard.records_since_sync;
  if (persist_.sync_every != 0 &&
      shard.records_since_sync >= persist_.sync_every) {
    try {
      obs::Span fsync_span(log_fsync_ns_);
      shard.log->sync();
      shard.records_since_sync = 0;
    } catch (const IoError& e) {
      if (breaker == nullptr) throw;
      // The record reached the file (append succeeded); only power-loss
      // durability is pending, and the next cadence point retries the
      // fsync. Still a failure signal for the breaker.
      breaker->on_failure();
      util::log_warn_kv("shard log fsync failed; will retry on next record",
                        {{"shard", s}, {"error", e.what()}});
    }
  }
  if (persist_.compact_threshold != 0 &&
      shard.records_since_snapshot >= persist_.compact_threshold) {
    try {
      compact_shard_locked(s);
    } catch (const std::exception& e) {
      if (breaker == nullptr) throw;
      // The log still holds every record (compaction is snapshot-then-
      // truncate, and the snapshot publish is atomic), so nothing is lost;
      // the threshold stays exceeded and the next contribution retries.
      breaker->on_failure();
      util::log_warn_kv("shard compaction failed; will retry",
                        {{"shard", s}, {"error", e.what()}});
    }
  }
}

std::uint64_t ShardedPopulationStore::flush_deferred() {
  if (!persistent()) return 0;
  std::uint64_t flushed = 0;
  CircuitBreaker* breaker = persist_.breaker;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s]->mutex);
    Shard& shard = *shards_[s];
    if (!shard.log || (shard.deferred == 0 && !shard.log_dirty)) continue;
    // allow() is side-effect-free while closed; while open it hands this
    // call the half-open probe exactly when the cooldown has elapsed.
    if (breaker != nullptr && !breaker->allow()) break;
    try {
      const std::uint64_t backlog = shard.deferred;
      compact_shard_locked(s);
      flushed += backlog;
      if (breaker != nullptr) breaker->on_success();
    } catch (const std::exception& e) {
      if (breaker == nullptr) throw;
      breaker->on_failure();
      util::log_warn_kv("deferred flush failed; volume still degraded",
                        {{"shard", s}, {"error", e.what()}});
      break;
    }
  }
  return flushed;
}

std::uint64_t ShardedPopulationStore::deferred_records() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->deferred;
  }
  return total;
}

RecoveryStats ShardedPopulationStore::attach_persistence(
    const PersistenceOptions& options) {
  if (options.dir.empty()) {
    throw std::invalid_argument(
        "ShardedPopulationStore: persistence dir must be non-empty");
  }
  if (persistent_.exchange(true, std::memory_order_acq_rel)) {
    throw std::logic_error(
        "ShardedPopulationStore: persistence already attached");
  }
  // Timed by hand rather than with an obs::Span so a failed attach (which
  // rolls back and rethrows) records nothing.
  const auto replay_start = std::chrono::steady_clock::now();
  // Options are published before any shard's log exists; contribute() only
  // reads them after observing shard.log under that shard's mutex, which
  // attach_persistence still holds when it installs the log.
  persist_ = options;
  if (!persist_.volume) persist_.volume = std::make_shared<FileVolume>();
  Volume& volume = *persist_.volume;

  // Phase A — stage: read every shard's snapshot+log from disk WITHOUT
  // touching the in-memory shards. All corruption errors (the documented
  // repair-and-retry flow) surface here, where rollback is trivial because
  // nothing was mutated.
  RecoveryStats recovered;
  std::vector<StagedShard> staged(shards_.size());
  try {
    volume.make_dirs(options.dir);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      StagedShard& stage = staged[s];

      // 1. Snapshot (the shard state as of the last compaction), if any.
      std::uint64_t last_seq = 0;
      if (auto snap = load_shard_snapshot(
              volume, snapshot_path_for(options.dir, s), s, shards_.size())) {
        stage.segment = std::move(snap->segment);
        last_seq = snap->last_seq;
        ++recovered.shards_with_snapshot;
        for (const auto& [context, bucket] : stage.segment) {
          recovered.snapshot_vectors += bucket.size();
        }
      }

      // 2. Replay the delta log in append order, skipping records the
      // snapshot already folded in.
      auto replay =
          ShardLog::replay(volume, ShardLog::path_for(options.dir, s), s);
      if (replay.dropped_torn_tail) ++recovered.torn_tails_dropped;
      stage.max_seq = last_seq;
      for (auto& record : replay.records) {
        if (record.seq <= last_seq) continue;
        stage.max_seq = record.seq;  // replay() enforces monotonicity
        auto& bucket = stage.segment[record.context];
        ++recovered.replayed_records;
        recovered.replayed_vectors += record.vectors.size();
        // One block per replayed record — the same block granularity the
        // original contribute() produced.
        auto block = std::make_shared<std::vector<core::StoredVector>>();
        block->reserve(record.vectors.size());
        for (auto& v : record.vectors) {
          block->push_back({record.contributor, std::move(v)});
        }
        bucket.append_block(std::move(block));
      }
    }
  } catch (...) {
    persistent_.store(false, std::memory_order_release);
    throw;
  }

  // Phase B — install, shard by shard under that shard's mutex. An I/O
  // failure here (log open, snapshot write) rolls every mutated shard back
  // to its exact pre-attach in-memory state and detaches, so the store is
  // never left half-persistent. The disk stays valid for a FRESH store to
  // recover; see the header for why re-attaching this instance after an
  // I/O failure is not supported (already-compacted shards may have folded
  // raced-in live contributions into their snapshots).
  std::size_t installed = 0;
  try {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      install_staged_shard(s, staged[s]);
      // From here the shard counts as fully installed: a compaction
      // failure below must roll it back too.
      ++installed;
      std::lock_guard<std::mutex> lock(shards_[s]->mutex);
      // Canonicalize: fold everything recovered (plus raced-in writes)
      // into a fresh snapshot and truncate the log. This also discards any
      // torn tail bytes the crash left, so new appends never follow
      // garbage.
      compact_shard_locked(s);
    }
  } catch (...) {
    rollback_installed_shards(staged, installed);
    persistent_.store(false, std::memory_order_release);
    throw;
  }
  recovery_replay_ns_->record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - replay_start)
          .count()));
  if (recovered.replayed_records > 0 || recovered.shards_with_snapshot > 0) {
    util::log_info_kv("population store recovered from disk",
                      {{"dir", options.dir},
                       {"shards_with_snapshot", recovered.shards_with_snapshot},
                       {"snapshot_vectors", recovered.snapshot_vectors},
                       {"replayed_records", recovered.replayed_records},
                       {"torn_tails", recovered.torn_tails_dropped}});
  }
  return recovered;
}

void ShardedPopulationStore::install_staged_shard(std::size_t s,
                                                  StagedShard& stage) {
  Shard& shard = *shards_[s];
  const std::string log_path = ShardLog::path_for(persist_.dir, s);
  std::lock_guard<std::mutex> lock(shard.mutex);

  // Open the log FIRST: it is the only fallible step, and it must fail
  // before the shard is touched so rollback never sees a half-mutated
  // shard that was not counted as installed.
  auto log = std::make_unique<ShardLog>(log_path, s,
                                        persist_.volume->open_log(log_path));

  // Remember what this install prepends (and which contexts already
  // existed live) so a later shard's failure can undo it exactly. The
  // prefix is counted in BLOCKS: the recovered segment's buckets are block
  // lists, and rollback drops exactly that many.
  core::PopulationStore segment = std::move(stage.segment);
  for (const auto& [context, bucket] : segment) {
    stage.recovered_prefix[context] = bucket.block_count();
  }
  // Contributions that raced in before this shard was installed stay,
  // ordered after the recovered vectors (they happened after the crash).
  // append() shares their blocks — nothing is re-copied.
  for (auto& [context, bucket] : shard.data) {
    stage.live_contexts.insert(context);
    segment[context].append(bucket);
  }
  shard.data = std::move(segment);
  ++shard.version;
  shard.next_seq = stage.max_seq + 1;
  shard.log = std::move(log);
}

void ShardedPopulationStore::rollback_installed_shards(
    const std::vector<StagedShard>& staged, std::size_t installed) {
  for (std::size_t s = 0; s < installed; ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [context, prefix] : staged[s].recovered_prefix) {
      const auto it = shard.data.find(context);
      if (it == shard.data.end()) continue;
      auto& bucket = it->second;
      bucket.erase_block_prefix(std::min(prefix, bucket.block_count()));
      // A context that only existed on disk vanishes again; one the live
      // store already had (even as an empty bucket) keeps its key.
      if (bucket.empty() && staged[s].live_contexts.count(context) == 0) {
        shard.data.erase(it);
      }
    }
    shard.log.reset();
    shard.records_since_snapshot = 0;
    shard.records_since_sync = 0;
    ++shard.version;
  }
  // Shards never reached keep no log either; nothing to undo there.
  //
  // Rollback can ERASE a context key (one that only existed on disk), the
  // single mutation the snapshot cache's handle-identity tracking cannot
  // observe — the capture pass only visits keys still present. Dropping the
  // whole cache forces the next snapshot to re-capture from scratch; this
  // path only runs on an attach-time I/O failure, never in steady state.
  invalidate_snapshot_cache();
}

void ShardedPopulationStore::invalidate_snapshot_cache() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  cached_.reset();
  cached_segments_.clear();
}

void ShardedPopulationStore::checkpoint() {
  if (!persistent()) return;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s]->mutex);
    compact_shard_locked(s);
  }
}

std::shared_ptr<const core::PopulationStore> ShardedPopulationStore::snapshot()
    const {
  std::lock_guard<std::mutex> cache_lock(snapshot_mutex_);

  // Cheap staleness probe: one integer compare per shard, no allocation —
  // the steady-state reuse hit costs what it did before rebuilds became
  // incremental. Contributions racing past the probe are picked up by the
  // next snapshot — exactly the semantics of the single-map store, where a
  // snapshot reflects contributions that happened-before it.
  std::vector<std::size_t> stale_shards;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s]->mutex);
    if (cached_ == nullptr || shards_[s]->version != cached_versions_[s]) {
      stale_shards.push_back(s);
    }
  }
  if (cached_ != nullptr && stale_shards.empty()) {
    snapshot_reuses_->inc();
    return cached_;
  }

  // Only real merge passes are timed — a reuse hit above costs a probe loop
  // and would drown the rebuild distribution in near-zero samples.
  obs::Span rebuild_span(snapshot_rebuild_ns_);

  // Re-capture every stale shard under ONE mutex acquisition: each of its
  // buckets is re-shared (a handle copy — block pointers, never payloads),
  // so the captured view of a shard is a consistent point in time, the same
  // intra-shard atomicity the full re-merge had. Copy-on-write makes handle
  // identity a sound change detector: any mutation of a shard bucket whose
  // list a capture still shares must clone the list first, so an unchanged
  // handle proves unchanged content. Fresh shards are not even locked.
  std::set<sensors::DetectedContext> changed;
  for (const std::size_t s : stale_shards) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [context, bucket] : shard.data) {
      auto [entry, inserted] = cached_segments_.try_emplace(context);
      auto& segments = entry->second;
      if (inserted) segments.resize(shards_.size());
      core::PopulationBucket& slot = segments[s];
      const bool unchanged =
          !inserted && ((slot.empty() && bucket.empty()) ||
                        slot.shares_storage_with(bucket));
      if (unchanged) continue;
      slot = bucket;
      changed.insert(context);
    }
    cached_versions_[s] = shard.version;
  }

  // Assemble: a context none of the re-captured shards touched reuses the
  // previous merged bucket wholesale (one pointer copy); a changed context
  // re-concatenates its captured per-shard handles in shard-index order —
  // the deterministic merge layout — sharing every block.
  auto merged = std::make_shared<core::PopulationStore>();
  std::uint64_t copied = 0;
  std::uint64_t reused = 0;
  for (const auto& [context, segments] : cached_segments_) {
    if (cached_ != nullptr && changed.count(context) == 0) {
      (*merged)[context] = cached_->at(context);
      ++reused;
      continue;
    }
    auto& bucket = (*merged)[context];
    for (const auto& segment : segments) bucket.append(segment);
    ++copied;
  }
  cached_ = std::move(merged);
  snapshot_rebuilds_->inc();
  snapshot_buckets_copied_->inc(copied);
  snapshot_buckets_shared_->inc(reused);
  return cached_;
}

std::size_t ShardedPopulationStore::store_size(
    sensors::DetectedContext context) const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    const auto it = shard->data.find(context);
    if (it != shard->data.end()) total += it->second.size();
  }
  return total;
}

std::size_t ShardedPopulationStore::shard_size(
    std::size_t shard, sensors::DetectedContext context) const {
  const Shard& s = *shards_.at(shard);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.data.find(context);
  return it == s.data.end() ? 0 : it->second.size();
}

ShardedPopulationStore::Stats ShardedPopulationStore::stats() const {
  Stats out;
  {
    // The snapshot-cache counters are only ever written under
    // snapshot_mutex_; reading them under it too means the group is a
    // consistent point-in-time view — a counted rebuild always comes with
    // its bucket tallies (previously each field was read independently, so
    // a stats() racing a rebuild could see the increment but not the
    // tallies, or vice versa).
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    out.snapshot_rebuilds = snapshot_rebuilds_->value();
    out.snapshot_reuses = snapshot_reuses_->value();
    out.snapshot_buckets_copied = snapshot_buckets_copied_->value();
    out.snapshot_buckets_shared = snapshot_buckets_shared_->value();
  }
  out.contributions = contributions_->value();
  out.log_records = log_records_->value();
  out.log_compactions = log_compactions_->value();
  out.log_deferred = log_deferred_->value();
  out.deferred_flushed = deferred_flushed_->value();
  return out;
}

}  // namespace sy::serve
