// Shared pieces of the ledger benchmark: run options, the report a workload
// fills in, the span recorder, and the load generator.
//
// The benchmark measures the system only through its public entry points
// (features::FeatureExtractor, context::ContextDetector, core::ModelStore,
// core::train_user_from_store, serve::AuthGateway). Every span is recorded
// here, around those calls; nothing under src/ is instrumented for it.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ledger {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace{false};
  /// Fewer users and tokens, for checking the metric names quickly.
  bool smoke{false};
  /// Scratch directory for model bundles and population logs; removed when
  /// the run ends.
  std::string work_dir;
  /// Where a traced run writes spans_<workload>.json.
  std::string spans_dir;
  /// Generator threads and gateway pool size (nproc).
  unsigned threads{1};
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// What one run prints as its last line.
struct Report {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a correctness check; a failed one makes the run exit non-zero.
  void check(bool ok, const std::string& what);
};

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double percentile(std::vector<double>& values, double p);

/// The highest of p99/p95/p90/p50 that leaves at least ten samples beyond it.
double tail_percentile(std::size_t samples);

// --- Spans -----------------------------------------------------------------

/// Span names. The first five are request roots, one per operation kind; the
/// rest are the layers a root's time is split into.
enum class SpanName : std::uint8_t {
  kWindow,
  kScore,
  kEnroll,
  kDrift,
  kContribute,
  kGenWait,   ///< open loop: from the due time until a generator thread began
  kFeatures,  ///< FeatureExtractor::auth_vectors
  kContext,   ///< ContextDetector::detect
  kGateway,   ///< AuthGateway::score_batch / enroll / report_drift / contribute
};
inline constexpr std::size_t kSpanNames = 9;
const char* span_name(SpanName name);

struct SpanRecord {
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint64_t request{0};
  std::int32_t parent{-1};  ///< index in the same thread's buffer; -1 = root
  SpanName name{SpanName::kWindow};
};

/// In-memory span store: one buffer per generator thread, so recording never
/// takes a lock.
class Tracer {
 public:
  explicit Tracer(unsigned threads) : buffers_(threads) {}

  std::vector<SpanRecord>& buffer(unsigned thread) { return buffers_[thread]; }

  struct Totals {
    /// Self time per span name: its duration minus what its children cover.
    std::array<double, kSpanNames> self_ns{};
    /// Summed duration of every root span (the end-to-end time).
    double root_ns{0.0};
  };
  Totals totals() const;

  /// Writes every span as [name, start_ns, end_ns, parent, request]; parent
  /// is a global span index (-1 for roots).
  void write_json(const std::string& path, const std::string& workload) const;

 private:
  std::vector<std::vector<SpanRecord>> buffers_;
};

/// Handed to each operation: opens child spans under the operation's root
/// when tracing, and does nothing (not even a clock read) otherwise.
class OpContext {
 public:
  class Span {
   public:
    Span(OpContext& ctx, SpanName name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    OpContext& ctx_;
    SpanName name_;
    std::int64_t start_{0};
  };

  OpContext(std::vector<SpanRecord>* buffer, unsigned thread)
      : buffer_(buffer), thread_(thread) {}

  Span span(SpanName name) { return Span(*this, name); }
  /// Names the root span of the current operation (its kind).
  void set_kind(SpanName kind);
  unsigned thread() const { return thread_; }

 private:
  friend class Span;
  friend struct PhaseRunner;
  std::vector<SpanRecord>* buffer_;
  unsigned thread_;
  std::uint64_t request_{0};
  std::int32_t root_{-1};
};

// --- Load generation -------------------------------------------------------

/// One measured phase. Open loop when `due_ns` is non-empty: operation i is
/// due `due_ns[i]` ns after the phase starts, a thread takes the next
/// operation, sleeps until it is due, and its latency counts from the due
/// time. Closed loop otherwise: `clients` threads run the operations back to
/// back.
struct Phase {
  std::size_t ops{0};
  unsigned clients{1};
  std::vector<std::int64_t> due_ns;
};

struct PhaseResult {
  std::vector<double> latency_ms;  ///< per operation, index = operation
  std::vector<double> late_ms;     ///< open loop: start minus due time
  double wall_s{0.0};
  double busy_s{0.0};  ///< summed time threads spent inside operations
  std::uint64_t failed{0};
  std::size_t inflight_max{0};
};

/// Runs an operation: returns false (or throws) when it failed.
using OpFn = std::function<bool(std::size_t op, OpContext& ctx)>;

/// Runs the phase with `tracer` (nullable) recording one root span per
/// operation plus whatever child spans the operation opens.
PhaseResult run_phase(const Phase& phase, Tracer* tracer, const OpFn& op);

/// Poisson arrival offsets (ns) at `rate` per second over `seconds`.
std::vector<std::int64_t> poisson_schedule(double rate, double seconds,
                                           std::uint64_t seed);

// --- Workloads -------------------------------------------------------------

/// Runs one workload end to end (inputs, set-up, measurement, checks) and
/// fills the report with the end-to-end metrics, or with the per-layer
/// metrics when options.trace is set.
Report run_workload(const Options& options);

}  // namespace ledger
