#include "serve/volume.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

namespace sy::serve {

namespace {

[[noreturn]] void throw_io(const std::string& op, const std::string& path) {
  // Capture errno before anything else can clobber it; the typed error is
  // what lets the breaker split transient (ENOSPC, EIO, ...) from fatal.
  throw IoError(op, path, errno);
}

/// Owns one file descriptor.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  /// Closes now and reports failure: deferred write errors surface here.
  void close(const std::string& path) {
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) throw_io("close", path);
  }

 private:
  int fd_;
};

void write_all(int fd, const std::uint8_t* data, std::size_t len,
               const std::string& path) {
  while (len > 0) {
    const ::ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_io("write", path);
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// O_APPEND writes, fsync() on sync(), ftruncate() + fsync() on reset().
class FileLogSink final : public LogSink {
 public:
  explicit FileLogSink(const std::string& path)
      : path_(path),
        fd_(::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                   0644)) {
    if (fd_.get() < 0) throw_io("open", path_);
  }

  void append(const std::uint8_t* data, std::size_t len) override {
    write_all(fd_.get(), data, len, path_);
  }
  void sync() override {
    if (::fsync(fd_.get()) != 0) throw_io("fsync", path_);
  }
  void reset() override {
    if (::ftruncate(fd_.get(), 0) != 0) throw_io("ftruncate", path_);
    sync();
  }

 private:
  std::string path_;
  Fd fd_;
};

/// True when op index `op` (relative to arming) is inside the plan's window.
bool in_window(const FaultPlan& plan, std::uint64_t op) {
  if (op < plan.at) return false;
  return plan.count == 0 || op - plan.at < plan.count;
}

/// Strict unsigned decimal: std::from_chars takes no sign, whitespace or
/// suffix, and anything it leaves unparsed is rejected.
std::uint64_t parse_number(const std::string& text, const std::string& spec) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("parse_fault_plan: value out of range in '" +
                                spec + "'");
  }
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("parse_fault_plan: malformed spec '" + spec +
                                "'");
  }
  return value;
}

}  // namespace

// --- FileVolume ------------------------------------------------------------

std::unique_ptr<LogSink> FileVolume::open_log(const std::string& path) {
  return std::make_unique<FileLogSink>(path);
}

void FileVolume::write_atomic(const std::string& path,
                              const std::vector<std::uint8_t>& bytes,
                              bool durable) {
  const std::string tmp = path + ".tmp";
  Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  if (fd.get() < 0) throw_io("open", tmp);
  write_all(fd.get(), bytes.data(), bytes.size(), tmp);
  // Data before rename: a snapshot's caller truncates the shard log right
  // after this returns, and a truncate that reached the disk before the
  // snapshot's data blocks would lose every record the snapshot absorbed.
  if (durable && ::fsync(fd.get()) != 0) throw_io("fsync", tmp);
  fd.close(tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0) throw_io("rename", path);
  if (!durable) return;
  // fsync the directory so the rename itself survives power loss.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const std::string dir_name = dir.empty() ? "." : dir;
  Fd dir_fd(::open(dir_name.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (dir_fd.get() < 0) throw_io("open directory", dir_name);
  if (::fsync(dir_fd.get()) != 0) throw_io("fsync directory", dir_name);
}

std::optional<std::vector<std::uint8_t>> FileVolume::read(
    const std::string& path, std::size_t max_bytes) {
  Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) {
    if (errno == ENOENT || errno == ENOTDIR) return std::nullopt;
    throw_io("open", path);
  }
  struct ::stat st {};
  if (::fstat(fd.get(), &st) != 0) throw_io("fstat", path);
  std::vector<std::uint8_t> out(
      std::min(static_cast<std::size_t>(st.st_size), max_bytes));
  std::size_t got = 0;
  while (got < out.size()) {
    const ::ssize_t n = ::read(fd.get(), out.data() + got, out.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_io("read", path);
    }
    if (n == 0) break;  // the file shrank since fstat
    got += static_cast<std::size_t>(n);
  }
  out.resize(got);
  return out;
}

std::vector<std::string> FileVolume::list(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    std::error_code type_ec;
    if (it->is_regular_file(type_ec)) {
      names.push_back(it->path().filename().string());
    }
  }
  if (ec && ec != std::errc::no_such_file_or_directory) {
    throw IoError("list", dir, ec.value());
  }
  return names;
}

void FileVolume::make_dirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw IoError("mkdir", dir, ec.value());
}

void FileVolume::sleep(std::uint64_t ns) {
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<std::int64_t>(ns)));
}

// --- MemVolume -------------------------------------------------------------

class MemVolume::Sink final : public LogSink {
 public:
  Sink(MemVolume& volume, std::string path)
      : volume_(volume), path_(std::move(path)) {}

  void append(const std::uint8_t* data, std::size_t len) override {
    std::lock_guard<std::mutex> lock(volume_.mutex_);
    auto& file = volume_.files_[path_];
    file.data.insert(file.data.end(), data, data + len);
  }
  void sync() override {
    std::lock_guard<std::mutex> lock(volume_.mutex_);
    auto& file = volume_.files_[path_];
    file.durable = file.data;
  }
  void reset() override {
    std::lock_guard<std::mutex> lock(volume_.mutex_);
    auto& file = volume_.files_[path_];
    file.data.clear();
    file.durable.emplace();
  }

 private:
  MemVolume& volume_;
  std::string path_;
};

std::unique_ptr<LogSink> MemVolume::open_log(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    files_.try_emplace(path);
  }
  return std::make_unique<Sink>(*this, path);
}

void MemVolume::write_atomic(const std::string& path,
                             const std::vector<std::uint8_t>& bytes,
                             bool durable) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& file = files_[path];
  file.data = bytes;
  // Not durable: a crash brings back the previous durable image, or loses
  // the file if it never had one.
  if (durable) file.durable = bytes;
}

std::optional<std::vector<std::uint8_t>> MemVolume::read(
    const std::string& path, std::size_t max_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  const auto& data = it->second.data;
  return std::vector<std::uint8_t>(
      data.begin(),
      data.begin() + static_cast<std::ptrdiff_t>(
                         std::min(data.size(), max_bytes)));
}

std::vector<std::string> MemVolume::list(const std::string& dir) {
  const std::filesystem::path parent(dir);
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [path, file] : files_) {
    const std::filesystem::path p(path);
    if (p.parent_path() == parent) names.push_back(p.filename().string());
  }
  return names;
}

void MemVolume::make_dirs(const std::string&) {}

void MemVolume::sleep(std::uint64_t) {}

void MemVolume::crash() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = files_.begin(); it != files_.end();) {
    if (!it->second.durable) {
      it = files_.erase(it);
      continue;
    }
    it->second.data = *it->second.durable;
    ++it;
  }
}

std::vector<std::uint8_t>& MemVolume::bytes(const std::string& path) {
  return files_.at(path).data;
}

// --- ChaosVolume -----------------------------------------------------------

class ChaosVolume::Sink final : public LogSink {
 public:
  Sink(ChaosVolume& chaos, std::unique_ptr<LogSink> inner, std::string path)
      : chaos_(chaos), inner_(std::move(inner)), path_(std::move(path)) {}

  void append(const std::uint8_t* data, std::size_t len) override {
    chaos_.pass(/*has_sync=*/false, "append(chaos)", path_);
    inner_->append(data, len);
  }
  void sync() override {
    if (chaos_.pass(/*has_sync=*/true, "fsync(chaos)", path_)) inner_->sync();
  }
  // Compaction only truncates after its snapshot is safely renamed into
  // place, so faulting the truncate would test the wrong invariant.
  void reset() override { inner_->reset(); }

 private:
  ChaosVolume& chaos_;
  std::unique_ptr<LogSink> inner_;
  std::string path_;
};

ChaosVolume::ChaosVolume(std::shared_ptr<Volume> inner, SleepFn sleep)
    : inner_(std::move(inner)), sleep_(std::move(sleep)) {}

void ChaosVolume::arm(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_ = plan;
  armed_ = true;
  armed_at_op_ = stats_.ops;
}

void ChaosVolume::disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_ = false;
}

ChaosVolume::Stats ChaosVolume::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool ChaosVolume::pass(bool has_sync, const char* op,
                       const std::string& path) {
  std::uint64_t delay_ns = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t index = stats_.ops++;
    if (!armed_ || !in_window(plan_, index - armed_at_op_)) return true;
    switch (plan_.kind) {
      case FaultPlan::Kind::kErrorOps:
        ++stats_.injected_errors;
        throw IoError(op, path, EIO);
      case FaultPlan::Kind::kSlowOps:
        ++stats_.injected_delays;
        delay_ns = plan_.delay_ns;
        break;
      case FaultPlan::Kind::kDropSyncOps:
        if (!has_sync) return true;
        ++stats_.dropped_syncs;
        return false;
      case FaultPlan::Kind::kNone:
        return true;
    }
  }
  sleep(delay_ns);  // outside the lock: other shards keep going
  return true;
}

std::unique_ptr<LogSink> ChaosVolume::open_log(const std::string& path) {
  return std::make_unique<Sink>(*this, inner_->open_log(path), path);
}

void ChaosVolume::write_atomic(const std::string& path,
                               const std::vector<std::uint8_t>& bytes,
                               bool durable) {
  const bool synced = pass(durable, "write_atomic(chaos)", path);
  inner_->write_atomic(path, bytes, durable && synced);
}

std::optional<std::vector<std::uint8_t>> ChaosVolume::read(
    const std::string& path, std::size_t max_bytes) {
  return inner_->read(path, max_bytes);
}

std::vector<std::string> ChaosVolume::list(const std::string& dir) {
  return inner_->list(dir);
}

void ChaosVolume::make_dirs(const std::string& dir) { inner_->make_dirs(dir); }

void ChaosVolume::sleep(std::uint64_t ns) {
  if (sleep_) {
    sleep_(ns);
  } else {
    inner_->sleep(ns);
  }
}

// --- Fault-plan grammar ----------------------------------------------------

FaultPlan parse_fault_plan(const std::string& spec) {
  // KIND[@AT[+COUNT]][:DELAY_US] — see the header for the grammar.
  FaultPlan plan;
  std::string head = spec;
  std::optional<std::string> delay_part;
  std::optional<std::string> window_part;
  if (const auto colon = head.find(':'); colon != std::string::npos) {
    delay_part = head.substr(colon + 1);
    head.resize(colon);
  }
  if (const auto at = head.find('@'); at != std::string::npos) {
    window_part = head.substr(at + 1);
    head.resize(at);
  }
  if (head == "error") {
    plan.kind = FaultPlan::Kind::kErrorOps;
  } else if (head == "slow") {
    plan.kind = FaultPlan::Kind::kSlowOps;
  } else if (head == "dropsync") {
    plan.kind = FaultPlan::Kind::kDropSyncOps;
  } else {
    throw std::invalid_argument("parse_fault_plan: unknown kind '" + head +
                                "' in spec '" + spec +
                                "' (want error|slow|dropsync)");
  }
  if (window_part) {
    const auto plus = window_part->find('+');
    plan.at = parse_number(window_part->substr(0, plus), spec);
    if (plus != std::string::npos) {
      plan.count = parse_number(window_part->substr(plus + 1), spec);
    }
  }
  if (delay_part) {
    if (plan.kind != FaultPlan::Kind::kSlowOps) {
      throw std::invalid_argument(
          "parse_fault_plan: a delay only applies to 'slow' in '" + spec +
          "'");
    }
    const std::uint64_t delay_us = parse_number(*delay_part, spec);
    if (delay_us > std::numeric_limits<std::uint64_t>::max() / 1000) {
      throw std::invalid_argument("parse_fault_plan: delay out of range in '" +
                                  spec + "'");
    }
    plan.delay_ns = delay_us * 1000;
  }
  if (plan.kind == FaultPlan::Kind::kSlowOps && plan.delay_ns == 0) {
    throw std::invalid_argument(
        "parse_fault_plan: 'slow' needs a :DELAY_US suffix in '" + spec +
        "'");
  }
  return plan;
}

}  // namespace sy::serve
