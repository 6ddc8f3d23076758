/// \file
/// Overload protection and graceful-degradation primitives for the gateway.
///
/// Four pieces, composable and individually testable:
///
///   IoError         — typed storage failure (errno + path + op) thrown by
///                     serve::FileVolume and friends, with a transient()/fatal
///                     classification the breaker and retry layer key off.
///   BackoffPolicy   — exponential backoff with deterministic jitter drawn
///                     from util::Rng; retry_io() wraps a storage operation
///                     and retries only transient failures.
///   CircuitBreaker  — closed → open (consecutive-failure threshold) →
///                     half-open (single probe after a cooldown) → closed.
///                     While non-closed the gateway runs *degraded*: scoring
///                     continues from cached/in-memory models, persistence
///                     work is deferred and replayed on recovery.
///   AdmissionGate   — bounded-concurrency scoring admission with
///                     deadline-aware shedding: a request that cannot start
///                     (gate saturated) or cannot finish in budget (deadline
///                     already past, or the service-time estimate overruns
///                     it) is rejected with a typed OverloadError instead of
///                     queuing unboundedly.
///
/// Time is injectable everywhere (ClockFn): production uses the steady
/// clock, tests drive util::SimClock through a lambda so every state
/// transition is deterministic. Sleeps are injected the same way (tests pass
/// a recorder, the gateway its serve::Volume), so backoff tests never
/// actually block.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/registry.h"
#include "util/rng.h"

namespace sy::serve {

/// Why an admission-controlled request was rejected.
enum class OverloadReason {
  kSaturated,  ///< the gate's concurrency bound (or queue cap) is full
  kDeadline,   ///< the request cannot finish inside its deadline budget
};

/// Typed load-shed rejection. Callers distinguish "server full, retry with
/// backoff" (kSaturated) from "your budget is unmeetable" (kDeadline).
class OverloadError : public std::runtime_error {
 public:
  OverloadError(OverloadReason reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}
  OverloadReason reason() const { return reason_; }

 private:
  OverloadReason reason_;
};

/// Typed storage failure: which operation, on which path, with which errno.
/// Derives std::runtime_error so pre-existing catch sites keep working; new
/// code switches on transient() to decide between retry/degrade (disk may
/// clear: ENOSPC, EIO, EAGAIN, ...) and fail-fast (configuration is wrong:
/// EACCES, EROFS, EBADF, ...).
class IoError : public std::runtime_error {
 public:
  IoError(std::string op, std::string path, int error_number);

  const std::string& op() const { return op_; }
  const std::string& path() const { return path_; }
  int error_number() const { return error_number_; }
  /// True for failures that retry/backoff or a breaker cooldown can outwait.
  bool transient() const;

 private:
  std::string op_;
  std::string path_;
  int error_number_;
};

/// Monotonic nanosecond clock, injectable for tests (util::SimClock wraps
/// trivially: `[&clock] { return clock.now_ns(); }`).
using ClockFn = std::function<std::int64_t()>;
/// The production clock: std::chrono::steady_clock in ns.
ClockFn steady_clock_fn();

/// Blocking sleep, injectable so backoff tests record delays instead of
/// waiting them out. Production callers sleep through their serve::Volume.
using SleepFn = std::function<void(std::uint64_t delay_ns)>;

/// Exponential backoff schedule with deterministic jitter.
struct BackoffPolicy {
  /// Total tries including the first (1 = no retry).
  std::size_t max_attempts{3};
  std::uint64_t base_delay_ns{1'000'000};   // 1 ms before the first retry
  std::uint64_t max_delay_ns{100'000'000};  // cap per-retry delay at 100 ms
  double multiplier{2.0};
  /// Fraction of the nominal delay randomized away (0 = none, 0.5 = the
  /// jittered delay lands in (0.5x, 1.0x] of nominal). Jitter decorrelates
  /// retry storms across shards; drawing it from util::Rng keeps runs
  /// reproducible under a fixed seed.
  double jitter{0.5};
};

/// Delay before retry number `attempt` (0-based): nominal
/// min(max_delay_ns, base * multiplier^attempt), minus a jitter fraction
/// drawn deterministically from `rng`.
std::uint64_t backoff_delay_ns(const BackoffPolicy& policy,
                               std::size_t attempt, util::Rng& rng);

/// Runs `op`, retrying *transient* IoError up to policy.max_attempts total
/// tries with jittered exponential backoff (through `sleep`) between them.
/// Non-transient IoError and every other exception type propagate
/// immediately (retrying a permissions error just burns the budget); the
/// last transient failure propagates once attempts are exhausted.
void retry_io(const std::function<void()>& op, const BackoffPolicy& policy,
              util::Rng& rng, const SleepFn& sleep);

/// CircuitBreaker thresholds.
struct BreakerConfig {
  /// Consecutive failures that trip closed → open.
  std::size_t failure_threshold{3};
  /// Open-state dwell before the half-open probe is allowed out.
  std::uint64_t cooldown_ns{500'000'000};
};

/// Classic three-state circuit breaker, thread-safe.
///
///   closed    — all work allowed; consecutive failures counted.
///   open      — allow() is false: callers defer instead of touching the
///               failing dependency. After cooldown_ns, the next allow()
///               becomes the single half-open probe.
///   half-open — one probe in flight; its success closes the breaker (and
///               fires the transition hook so deferred work replays), its
///               failure re-opens with a fresh cooldown.
///
/// Metrics (when a registry is given): `<name>.state` gauge (0 closed,
/// 1 open, 2 half-open), `<name>.opens` counter. Cumulative non-closed time
/// is exposed via degraded_ns() for the gateway's degraded-seconds gauge.
class CircuitBreaker {
 public:
  enum class State { kClosed = 0, kOpen = 1, kHalfOpen = 2 };
  /// Invoked outside the breaker mutex after every state change. With
  /// concurrent callers, hooks can run concurrently and (rarely) out of
  /// order; replay logic must tolerate both (idempotent flush).
  using TransitionFn = std::function<void(State from, State to)>;

  explicit CircuitBreaker(BreakerConfig config = {}, ClockFn clock = {},
                          obs::Registry* registry = nullptr,
                          const std::string& name = "breaker");

  /// True when the caller may attempt the protected operation now. In the
  /// open state this flips to half-open (and returns true exactly once)
  /// after the cooldown elapses.
  bool allow();
  /// Reports the protected operation's outcome. Successes reset the failure
  /// run (and close a half-open breaker); failures count toward the
  /// threshold (and re-open a half-open breaker).
  void on_success();
  void on_failure();

  State state() const;
  std::uint64_t opens() const;
  /// Cumulative nanoseconds spent non-closed, including the current episode.
  std::uint64_t degraded_ns() const;
  void set_transition_hook(TransitionFn hook);

 private:
  /// Returns the hook to invoke after unlocking (or nullptr). Caller holds
  /// mutex_.
  void transition_locked(State to, std::int64_t now);

  BreakerConfig config_;
  ClockFn clock_;
  TransitionFn hook_;

  mutable std::mutex mutex_;
  State state_{State::kClosed};
  std::size_t consecutive_failures_{0};
  std::int64_t opened_at_ns_{0};
  std::uint64_t opens_count_{0};
  std::uint64_t degraded_accum_ns_{0};
  std::int64_t degraded_since_ns_{0};  // valid while state_ != kClosed

  obs::Gauge* state_gauge_{nullptr};
  obs::Counter* opens_{nullptr};
};

/// AdmissionGate bounds.
struct AdmissionConfig {
  /// Concurrent admitted requests (0 = unbounded; deadline shedding still
  /// applies when a request carries one).
  std::size_t max_concurrent{0};
  /// EWMA weight for the per-request service-time estimate that powers the
  /// "cannot finish in budget" check.
  double service_ewma_alpha{0.2};
};

/// Reject-not-queue admission control for the scoring path. A request is
/// admitted iff a concurrency slot is free AND its deadline (if any) is
/// still meetable — now + estimated service time must not overrun it.
/// Rejections throw OverloadError; admitted requests hold an RAII Ticket
/// whose destruction frees the slot and feeds the service-time EWMA.
///
/// Metrics (when a registry is given): `<prefix>.admitted`,
/// `<prefix>.shed_saturated`, `<prefix>.shed_deadline` counters and a
/// `<prefix>.inflight` gauge.
class AdmissionGate {
 public:
  explicit AdmissionGate(AdmissionConfig config = {}, ClockFn clock = {},
                         obs::Registry* registry = nullptr,
                         const std::string& prefix = "admission");

  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept;
    Ticket& operator=(Ticket&& other) noexcept;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket();

   private:
    friend class AdmissionGate;
    Ticket(AdmissionGate* gate, std::int64_t start_ns)
        : gate_(gate), start_ns_(start_ns) {}
    AdmissionGate* gate_{nullptr};
    std::int64_t start_ns_{0};
  };

  /// `deadline_ns` is absolute, on this gate's clock. Throws OverloadError
  /// (kSaturated / kDeadline) instead of queuing.
  Ticket admit(std::optional<std::int64_t> deadline_ns = std::nullopt);

  std::size_t inflight() const;
  std::uint64_t admitted() const;
  std::uint64_t shed_saturated() const;
  std::uint64_t shed_deadline() const;
  /// Current EWMA of observed service time (0 until the first completion).
  std::uint64_t estimated_service_ns() const;

 private:
  void release(std::int64_t start_ns);

  AdmissionConfig config_;
  ClockFn clock_;

  mutable std::mutex mutex_;
  std::size_t inflight_{0};
  std::uint64_t admitted_count_{0};
  std::uint64_t shed_saturated_count_{0};
  std::uint64_t shed_deadline_count_{0};
  double service_ewma_ns_{0.0};

  obs::Counter* admitted_metric_{nullptr};
  obs::Counter* shed_saturated_metric_{nullptr};
  obs::Counter* shed_deadline_metric_{nullptr};
  obs::Gauge* inflight_gauge_{nullptr};
};

}  // namespace sy::serve
