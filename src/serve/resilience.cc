#include "serve/resilience.h"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

namespace sy::serve {

namespace {

std::string io_what(const std::string& op, const std::string& path, int err) {
  return "IoError: " + op + " failed for " + path + ": " +
         std::strerror(err) + " (errno " + std::to_string(err) + ")";
}

}  // namespace

IoError::IoError(std::string op, std::string path, int error_number)
    : std::runtime_error(io_what(op, path, error_number)),
      op_(std::move(op)),
      path_(std::move(path)),
      error_number_(error_number) {}

bool IoError::transient() const {
  switch (error_number_) {
    // Conditions a retry, a breaker cooldown, or an operator freeing disk
    // space can clear. ENOSPC and EIO are the chaos harness's bread and
    // butter: both have recovered-in-place semantics on real fleets.
    case EAGAIN:
    case EINTR:
    case EBUSY:
    case ENOSPC:
    case EIO:
    case ETIMEDOUT:
#ifdef EDQUOT
    case EDQUOT:
#endif
      return true;
    default:
      // Misconfiguration (EACCES, EROFS, ENOENT on the directory, EBADF...)
      // does not heal by waiting; fail fast so the operator sees it.
      return false;
  }
}

ClockFn steady_clock_fn() {
  return [] {
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
}

std::uint64_t backoff_delay_ns(const BackoffPolicy& policy,
                               std::size_t attempt, util::Rng& rng) {
  double nominal = static_cast<double>(policy.base_delay_ns) *
                   std::pow(policy.multiplier, static_cast<double>(attempt));
  nominal = std::min(nominal, static_cast<double>(policy.max_delay_ns));
  // Subtractive jitter keeps the delay under the nominal cap: jittered in
  // (nominal * (1 - jitter), nominal]. rng.uniform() is in [0, 1), so the
  // full nominal delay is attainable and zero never is (for jitter < 1).
  const double jittered = nominal * (1.0 - policy.jitter * rng.uniform());
  return static_cast<std::uint64_t>(jittered);
}

void retry_io(const std::function<void()>& op, const BackoffPolicy& policy,
              util::Rng& rng, const SleepFn& sleep) {
  const std::size_t attempts = policy.max_attempts == 0 ? 1
                                                        : policy.max_attempts;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      op();
      return;
    } catch (const IoError& e) {
      if (!e.transient() || attempt + 1 >= attempts) throw;
    }
    sleep(backoff_delay_ns(policy, attempt, rng));
  }
}

CircuitBreaker::CircuitBreaker(BreakerConfig config, ClockFn clock,
                               obs::Registry* registry,
                               const std::string& name)
    : config_(config),
      clock_(clock ? std::move(clock) : steady_clock_fn()) {
  if (registry != nullptr) {
    state_gauge_ = &registry->gauge(name + ".state");
    opens_ = &registry->counter(name + ".opens");
  }
}

void CircuitBreaker::transition_locked(State to, std::int64_t now) {
  if (state_ == to) return;
  if (state_ == State::kClosed) {
    degraded_since_ns_ = now;  // leaving closed starts a degraded episode
  } else if (to == State::kClosed) {
    degraded_accum_ns_ +=
        static_cast<std::uint64_t>(now - degraded_since_ns_);
  }
  state_ = to;
  if (state_gauge_ != nullptr) {
    state_gauge_->set(static_cast<std::int64_t>(to));
  }
  if (to == State::kOpen) {
    opened_at_ns_ = now;
    ++opens_count_;
    if (opens_ != nullptr) opens_->inc();
  }
}

bool CircuitBreaker::allow() {
  State from = State::kClosed;
  State to = State::kClosed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    switch (state_) {
      case State::kClosed:
        return true;
      case State::kOpen: {
        const std::int64_t now = clock_();
        if (now - opened_at_ns_ <
            static_cast<std::int64_t>(config_.cooldown_ns)) {
          return false;
        }
        // Cooldown elapsed: this caller becomes the single half-open probe.
        from = state_;
        transition_locked(State::kHalfOpen, now);
        to = state_;
        break;
      }
      case State::kHalfOpen:
        return false;  // a probe is already out
    }
  }
  if (hook_) hook_(from, to);
  return true;
}

void CircuitBreaker::on_success() {
  State from = State::kClosed;
  State to = State::kClosed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    consecutive_failures_ = 0;
    if (state_ == State::kClosed) return;
    // A half-open probe succeeded (or a straggler from before the open
    // proved the dependency healthy): close and end the degraded episode.
    from = state_;
    transition_locked(State::kClosed, clock_());
    to = state_;
  }
  if (hook_) hook_(from, to);
}

void CircuitBreaker::on_failure() {
  State from = State::kClosed;
  State to = State::kClosed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    switch (state_) {
      case State::kClosed:
        if (++consecutive_failures_ < config_.failure_threshold) return;
        from = state_;
        transition_locked(State::kOpen, clock_());
        to = state_;
        break;
      case State::kHalfOpen:
        // The probe failed: re-open with a fresh cooldown.
        from = state_;
        transition_locked(State::kOpen, clock_());
        to = state_;
        break;
      case State::kOpen:
        return;  // stragglers do not extend the cooldown
    }
  }
  if (hook_) hook_(from, to);
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

std::uint64_t CircuitBreaker::opens() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return opens_count_;
}

std::uint64_t CircuitBreaker::degraded_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = degraded_accum_ns_;
  if (state_ != State::kClosed) {
    total += static_cast<std::uint64_t>(clock_() - degraded_since_ns_);
  }
  return total;
}

void CircuitBreaker::set_transition_hook(TransitionFn hook) {
  // Install before the breaker sees traffic (gateway constructor order);
  // not synchronized against in-flight transitions.
  hook_ = std::move(hook);
}

AdmissionGate::AdmissionGate(AdmissionConfig config, ClockFn clock,
                             obs::Registry* registry,
                             const std::string& prefix)
    : config_(config), clock_(clock ? std::move(clock) : steady_clock_fn()) {
  if (registry != nullptr) {
    admitted_metric_ = &registry->counter(prefix + ".admitted");
    shed_saturated_metric_ = &registry->counter(prefix + ".shed_saturated");
    shed_deadline_metric_ = &registry->counter(prefix + ".shed_deadline");
    inflight_gauge_ = &registry->gauge(prefix + ".inflight");
  }
}

AdmissionGate::Ticket::Ticket(Ticket&& other) noexcept
    : gate_(other.gate_), start_ns_(other.start_ns_) {
  other.gate_ = nullptr;
}

AdmissionGate::Ticket& AdmissionGate::Ticket::operator=(
    Ticket&& other) noexcept {
  if (this != &other) {
    if (gate_ != nullptr) gate_->release(start_ns_);
    gate_ = other.gate_;
    start_ns_ = other.start_ns_;
    other.gate_ = nullptr;
  }
  return *this;
}

AdmissionGate::Ticket::~Ticket() {
  if (gate_ != nullptr) gate_->release(start_ns_);
}

AdmissionGate::Ticket AdmissionGate::admit(
    std::optional<std::int64_t> deadline_ns) {
  const std::int64_t now = clock_();
  std::lock_guard<std::mutex> lock(mutex_);
  if (deadline_ns.has_value()) {
    // Shed work that cannot finish in budget: already expired, or the
    // current service-time estimate overruns what is left. Rejecting now is
    // strictly better than finishing late — the phone has already fallen
    // back to explicit auth.
    const std::int64_t budget = *deadline_ns - now;
    if (budget <= 0 ||
        static_cast<double>(budget) < service_ewma_ns_) {
      ++shed_deadline_count_;
      if (shed_deadline_metric_ != nullptr) shed_deadline_metric_->inc();
      throw OverloadError(OverloadReason::kDeadline,
                          "AdmissionGate: deadline unmeetable (budget " +
                              std::to_string(budget) + " ns, estimate " +
                              std::to_string(static_cast<std::int64_t>(
                                  service_ewma_ns_)) +
                              " ns)");
    }
  }
  if (config_.max_concurrent != 0 && inflight_ >= config_.max_concurrent) {
    ++shed_saturated_count_;
    if (shed_saturated_metric_ != nullptr) shed_saturated_metric_->inc();
    throw OverloadError(OverloadReason::kSaturated,
                        "AdmissionGate: saturated (" +
                            std::to_string(inflight_) + "/" +
                            std::to_string(config_.max_concurrent) +
                            " in flight)");
  }
  ++inflight_;
  ++admitted_count_;
  if (admitted_metric_ != nullptr) admitted_metric_->inc();
  if (inflight_gauge_ != nullptr) {
    inflight_gauge_->set(static_cast<std::int64_t>(inflight_));
  }
  return Ticket(this, now);
}

void AdmissionGate::release(std::int64_t start_ns) {
  const std::int64_t now = clock_();
  std::lock_guard<std::mutex> lock(mutex_);
  if (inflight_ > 0) --inflight_;
  if (inflight_gauge_ != nullptr) {
    inflight_gauge_->set(static_cast<std::int64_t>(inflight_));
  }
  const double observed = static_cast<double>(now - start_ns);
  if (observed >= 0.0) {
    service_ewma_ns_ = service_ewma_ns_ == 0.0
                           ? observed
                           : (1.0 - config_.service_ewma_alpha) *
                                     service_ewma_ns_ +
                                 config_.service_ewma_alpha * observed;
  }
}

std::size_t AdmissionGate::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_;
}

std::uint64_t AdmissionGate::admitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return admitted_count_;
}

std::uint64_t AdmissionGate::shed_saturated() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_saturated_count_;
}

std::uint64_t AdmissionGate::shed_deadline() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_deadline_count_;
}

std::uint64_t AdmissionGate::estimated_service_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::uint64_t>(service_ewma_ns_);
}

}  // namespace sy::serve
