/// \file
/// The storage seam of the serving stack: every byte the gateway persists
/// (shard logs, shard snapshots, model bundles) and every backoff sleep goes
/// through one serve::Volume.
///
/// Three implementations:
///
///   FileVolume   — POSIX files. Every failure throws serve::IoError carrying
///                  the errno, so retry and the circuit breaker can split
///                  transient faults (EIO, ENOSPC) from misconfiguration
///                  (ENOENT, EACCES, EROFS).
///   MemVolume    — in-memory files that remember what was appended apart
///                  from what was synced; crash() keeps only the synced
///                  image. Crash-recovery tests tear tails and flip bits by
///                  editing the stored bytes directly.
///   ChaosVolume  — a decorator over any Volume that injects errors, stalls
///                  and dropped syncs per an armed FaultPlan, into log
///                  appends, log syncs and atomic writes alike.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/resilience.h"

namespace sy::serve {

/// Append-only byte sink behind one shard log (serve::ShardLog).
///
/// Model: append() hands bytes to the OS (a later read sees them even after
/// the process is killed); sync() makes everything appended so far survive
/// power loss; reset() truncates the log to empty, durably.
class LogSink {
 public:
  virtual ~LogSink() = default;

  virtual void append(const std::uint8_t* data, std::size_t len) = 0;
  virtual void sync() = 0;
  virtual void reset() = 0;
};

/// Every persistence operation the serving stack performs. Implementations
/// are thread-safe; a Volume must outlive the log sinks it opens.
class Volume {
 public:
  virtual ~Volume() = default;

  /// Opens (creating if absent) the append-only log at `path`.
  virtual std::unique_ptr<LogSink> open_log(const std::string& path) = 0;
  /// Replaces `path` atomically: a reader, or a crash, sees the old bytes or
  /// the new ones, never a mix. With `durable` the new bytes and the rename
  /// also survive power loss (data and directory fsync); without it a crash
  /// may bring the old file back.
  virtual void write_atomic(const std::string& path,
                            const std::vector<std::uint8_t>& bytes,
                            bool durable) = 0;
  /// The file's first `max_bytes` bytes (all of them by default), or
  /// nullopt when `path` does not exist.
  virtual std::optional<std::vector<std::uint8_t>> read(
      const std::string& path, std::size_t max_bytes = SIZE_MAX) = 0;
  /// Names (not paths) of the files directly under `dir`, in no particular
  /// order; empty when `dir` does not exist.
  virtual std::vector<std::string> list(const std::string& dir) = 0;
  /// Creates `dir` and its missing parents.
  virtual void make_dirs(const std::string& dir) = 0;
  /// Blocks for `ns` nanoseconds: retry backoff and injected stalls.
  virtual void sleep(std::uint64_t ns) = 0;
};

/// POSIX volume. Logs append with O_APPEND and fsync on sync();
/// write_atomic writes a ".tmp" sibling and renames it over `path`.
class FileVolume : public Volume {
 public:
  std::unique_ptr<LogSink> open_log(const std::string& path) override;
  void write_atomic(const std::string& path,
                    const std::vector<std::uint8_t>& bytes,
                    bool durable) override;
  std::optional<std::vector<std::uint8_t>> read(
      const std::string& path, std::size_t max_bytes = SIZE_MAX) override;
  std::vector<std::string> list(const std::string& dir) override;
  void make_dirs(const std::string& dir) override;
  /// A real thread sleep.
  void sleep(std::uint64_t ns) override;
};

/// In-memory volume for crash-recovery tests. Each file holds the bytes a
/// read sees now and, separately, the image that would survive power loss:
/// a log's synced prefix, or the last durable write_atomic. Directories are
/// implicit (make_dirs does nothing) and sleep() returns at once.
class MemVolume final : public Volume {
 public:
  std::unique_ptr<LogSink> open_log(const std::string& path) override;
  void write_atomic(const std::string& path,
                    const std::vector<std::uint8_t>& bytes,
                    bool durable) override;
  std::optional<std::vector<std::uint8_t>> read(
      const std::string& path, std::size_t max_bytes = SIZE_MAX) override;
  std::vector<std::string> list(const std::string& dir) override;
  void make_dirs(const std::string& dir) override;
  void sleep(std::uint64_t ns) override;

  /// Power loss: every file reverts to its durable image, and files that
  /// never had one disappear. Sinks opened before the crash must not be used
  /// after it.
  void crash();
  /// The stored bytes of `path`, for tests to tear or corrupt in place.
  /// Throws std::out_of_range when the file does not exist. Not
  /// synchronized: call only while no other thread uses the volume.
  std::vector<std::uint8_t>& bytes(const std::string& path);

 private:
  class Sink;
  struct File {
    std::vector<std::uint8_t> data;
    /// What survives crash(); nullopt = the file itself would be lost.
    std::optional<std::vector<std::uint8_t>> durable;
  };

  std::mutex mutex_;
  std::map<std::string, File> files_;
};

/// One storage fault plan, armed on a ChaosVolume. Ops are log appends, log
/// syncs and write_atomic calls, counted from arming.
struct FaultPlan {
  enum class Kind {
    kNone,
    kErrorOps,     ///< ops in the window throw IoError(EIO)
    kSlowOps,      ///< ops in the window stall for delay_ns, then complete
    kDropSyncOps,  ///< syncs in the window are acknowledged but skipped
  };
  Kind kind{Kind::kNone};
  /// First affected op index, counted from arming.
  std::uint64_t at{0};
  /// Window length in ops after `at` (0 = until disarmed).
  std::uint64_t count{0};
  /// kSlowOps only: injected stall per op.
  std::uint64_t delay_ns{0};
};

/// Parses a fault plan spec:
///   "error[@AT[+COUNT]]"            kErrorOps
///   "slow[@AT[+COUNT]]:DELAY_US"    kSlowOps
///   "dropsync[@AT[+COUNT]]"         kDropSyncOps
/// AT, COUNT and DELAY_US are unsigned decimal numbers with no sign,
/// whitespace or suffix. Throws std::invalid_argument on a malformed spec,
/// and on a DELAY_US whose nanosecond value does not fit 64 bits.
FaultPlan parse_fault_plan(const std::string& spec);

/// Chaos decorator: delegates to `inner` but consults the armed FaultPlan
/// before every log append, log sync and write_atomic. One ChaosVolume under
/// the whole gateway models "the disk went bad": the op window is global
/// across shard logs, snapshots and bundles, and a fault in only one writer
/// would let compaction heal around it. A dropped sync on write_atomic
/// writes without durability. Log reset, read, list and make_dirs always
/// pass through. Thread-safe; arm/disarm may run while I/O is in flight.
class ChaosVolume final : public Volume {
 public:
  /// `sleep` serves both injected stalls and sleep(); empty = inner's sleep.
  explicit ChaosVolume(std::shared_ptr<Volume> inner, SleepFn sleep = {});

  /// Arms `plan`; its op window starts at this call. Re-arming replaces the
  /// previous plan.
  void arm(FaultPlan plan);
  /// Stops injecting; op counting continues.
  void disarm();

  struct Stats {
    std::uint64_t ops{0};              ///< appends + syncs + atomic writes
    std::uint64_t injected_errors{0};  ///< ops failed with IoError
    std::uint64_t injected_delays{0};  ///< ops stalled
    std::uint64_t dropped_syncs{0};    ///< syncs silently skipped
  };
  Stats stats() const;

  std::unique_ptr<LogSink> open_log(const std::string& path) override;
  void write_atomic(const std::string& path,
                    const std::vector<std::uint8_t>& bytes,
                    bool durable) override;
  std::optional<std::vector<std::uint8_t>> read(
      const std::string& path, std::size_t max_bytes = SIZE_MAX) override;
  std::vector<std::string> list(const std::string& dir) override;
  void make_dirs(const std::string& dir) override;
  void sleep(std::uint64_t ns) override;

 private:
  class Sink;
  /// Counts one op and applies the armed fault to it: throws
  /// IoError(`op`, `path`, EIO) or stalls. Returns false when the op's sync
  /// (`has_sync`) is to be dropped.
  bool pass(bool has_sync, const char* op, const std::string& path);

  std::shared_ptr<Volume> inner_;
  SleepFn sleep_;

  mutable std::mutex mutex_;
  FaultPlan plan_{};
  bool armed_{false};
  std::uint64_t armed_at_op_{0};
  Stats stats_{};  // stats_.ops is also the op index
};

}  // namespace sy::serve
