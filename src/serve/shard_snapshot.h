/// \file
/// Versioned, digest-protected snapshot of one shard's PopulationStore
/// segment (ModelStore-style framing):
///
///   [magic "SYPS"] [format u32] [shard u32] [shard_count u32]
///   [last_seq u64] [population segment, core/population_codec encoding]
///   [SHA-256 over everything above, 32 bytes]
///
/// `last_seq` is the highest ShardLog sequence number folded into the
/// snapshot: recovery replays only log records with seq > last_seq, so a
/// crash landing between "snapshot renamed into place" and "log truncated"
/// never applies a record twice. Writes are write-temp-then-rename, so a
/// reader (or a crash) sees the old snapshot or the new one, never a torn
/// one — which is why any integrity failure on load is corruption
/// (ModelCorruptError naming the path and shard), not a tolerable tear.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/auth_server.h"
#include "serve/volume.h"

namespace sy::serve {

struct ShardSnapshot {
  std::uint64_t last_seq{0};
  core::PopulationStore segment;
};

/// Snapshot file name for shard `shard` under `dir`.
std::string snapshot_path_for(const std::string& dir, std::size_t shard);

/// Serializes the snapshot and publishes it on `volume` with a durable
/// write_atomic. Takes the segment by reference so a compaction under the
/// shard mutex never copies the whole shard just to persist it.
void write_shard_snapshot(Volume& volume, const std::string& path,
                          std::size_t shard,
                          std::size_t shard_count, std::uint64_t last_seq,
                          const core::PopulationStore& segment);

/// Loads and verifies a snapshot from `volume`. Returns nullopt when `path`
/// does not exist (a shard that never checkpointed). Throws core::ModelCorruptError (with
/// path and shard in the message) on any integrity or framing failure, and
/// std::invalid_argument when the file belongs to a different shard layout
/// (shard index or shard count mismatch — re-sharding on recovery is a
/// ROADMAP follow-on, not a silent reinterpretation).
std::optional<ShardSnapshot> load_shard_snapshot(Volume& volume,
                                                 const std::string& path,
                                                 std::size_t shard,
                                                 std::size_t shard_count);

}  // namespace sy::serve
