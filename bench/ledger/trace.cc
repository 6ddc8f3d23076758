// Span recording, load generation and the statistics helpers.
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "ledger.h"
#include "util/rng.h"

namespace ledger {

void Report::check(bool ok, const std::string& what) {
  std::fprintf(stderr, "check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) correct = false;
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double tail_percentile(std::size_t samples) {
  for (const double p : {0.99, 0.95, 0.90}) {
    if (static_cast<double>(samples) * (1.0 - p) >= 10.0) return p;
  }
  return 0.5;
}

const char* span_name(SpanName name) {
  static constexpr std::array<const char*, kSpanNames> kNames = {
      "window", "score",    "enroll",  "drift",  "contribute",
      "gen.wait", "features", "context", "gateway"};
  return kNames[static_cast<std::size_t>(name)];
}

Tracer::Totals Tracer::totals() const {
  Totals out;
  for (const auto& buffer : buffers_) {
    std::vector<std::int64_t> covered(buffer.size(), 0);
    for (const SpanRecord& span : buffer) {
      if (span.parent >= 0) {
        covered[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      const SpanRecord& span = buffer[i];
      const auto duration = static_cast<double>(span.end_ns - span.start_ns);
      out.self_ns[static_cast<std::size_t>(span.name)] +=
          duration - static_cast<double>(covered[i]);
      if (span.parent < 0) out.root_ns += duration;
    }
  }
  return out;
}

void Tracer::write_json(const std::string& path,
                        const std::string& workload) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::int64_t origin = INT64_MAX;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : buffer) {
      origin = std::min(origin, span.start_ns);
    }
  }
  out << "{\"workload\": \"" << workload << "\",\n \"names\": [";
  for (std::size_t n = 0; n < kSpanNames; ++n) {
    out << (n ? ", " : "") << '"' << span_name(static_cast<SpanName>(n))
        << '"';
  }
  out << "],\n \"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", "
         "\"request\"],\n \"spans\": [";
  std::int64_t base = 0;
  bool first = true;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : buffer) {
      out << (first ? "\n  [" : ",\n  [") << static_cast<int>(span.name)
          << ", " << span.start_ns - origin << ", " << span.end_ns - origin
          << ", " << (span.parent < 0 ? -1 : base + span.parent) << ", "
          << span.request << ']';
      first = false;
    }
    base += static_cast<std::int64_t>(buffer.size());
  }
  out << "\n ]}\n";
}

OpContext::Span::Span(OpContext& ctx, SpanName name) : ctx_(ctx), name_(name) {
  if (ctx_.buffer_ != nullptr) start_ = now_ns();
}

OpContext::Span::~Span() {
  if (ctx_.buffer_ == nullptr) return;
  ctx_.buffer_->push_back(
      SpanRecord{start_, now_ns(), ctx_.request_, ctx_.root_, name_});
}

void OpContext::set_kind(SpanName kind) {
  if (buffer_ != nullptr) {
    (*buffer_)[static_cast<std::size_t>(root_)].name = kind;
  }
}

namespace {

// Sleeps until `deadline` on the steady clock. The kernel's default 50 us
// timer slack would dwarf a 60 us operation, so the thread's slack is set
// to 1 ns and the last few microseconds are spun.
void sleep_until_ns(std::int64_t deadline) {
  constexpr std::int64_t kSpinNs = 20'000;
  const std::int64_t wake = deadline - kSpinNs;
  if (wake > now_ns()) {
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wake / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wake % 1'000'000'000);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
  }
  while (now_ns() < deadline) {
  }
}

}  // namespace

struct PhaseRunner {
  /// Counters the phase's threads share.
  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> inflight{0};
    std::atomic<std::size_t> inflight_max{0};
    std::atomic<std::int64_t> busy_ns{0};
    std::atomic<std::uint64_t> failed{0};
    std::mutex error_mutex;
  };

  static void worker(const Phase& phase, Tracer* tracer, const OpFn& op,
                     unsigned thread, std::int64_t t0, Shared& shared,
                     PhaseResult& result) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const bool open_loop = !phase.due_ns.empty();
    std::vector<SpanRecord>* buffer =
        tracer != nullptr ? &tracer->buffer(thread) : nullptr;
    OpContext ctx(buffer, thread);
    std::int64_t busy = 0;
    for (;;) {
      const std::size_t i = shared.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= phase.ops) break;
      std::int64_t due = 0;
      if (open_loop) {
        due = t0 + phase.due_ns[i];
        sleep_until_ns(due);
      }
      const std::int64_t start = now_ns();
      if (!open_loop) due = start;
      const std::size_t inflight = shared.inflight.fetch_add(1) + 1;
      std::size_t seen = shared.inflight_max.load();
      while (inflight > seen &&
             !shared.inflight_max.compare_exchange_weak(seen, inflight)) {
      }
      if (buffer != nullptr) {
        ctx.request_ = i;
        ctx.root_ = static_cast<std::int32_t>(buffer->size());
        buffer->push_back(SpanRecord{due, 0, i, -1, SpanName::kScore});
        if (open_loop) {
          buffer->push_back(
              SpanRecord{due, start, i, ctx.root_, SpanName::kGenWait});
        }
      }
      bool ok = false;
      try {
        ok = op(i, ctx);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(shared.error_mutex);
        std::fprintf(stderr, "operation %zu failed: %s\n", i, e.what());
      }
      const std::int64_t end = now_ns();
      shared.inflight.fetch_sub(1);
      if (buffer != nullptr) {
        (*buffer)[static_cast<std::size_t>(ctx.root_)].end_ns = end;
      }
      busy += end - start;
      result.latency_ms[i] = static_cast<double>(end - due) / 1e6;
      if (open_loop) result.late_ms[i] = static_cast<double>(start - due) / 1e6;
      if (!ok) shared.failed.fetch_add(1);
    }
    shared.busy_ns.fetch_add(busy);
  }
};

PhaseResult run_phase(const Phase& phase, Tracer* tracer, const OpFn& op) {
  if (!phase.due_ns.empty() && phase.due_ns.size() != phase.ops) {
    throw std::invalid_argument("run_phase: schedule length != ops");
  }
  PhaseResult result;
  result.latency_ms.assign(phase.ops, 0.0);
  if (!phase.due_ns.empty()) result.late_ms.assign(phase.ops, 0.0);

  PhaseRunner::Shared shared;
  const std::int64_t t0 = now_ns();
  {
    std::vector<std::jthread> threads;
    threads.reserve(phase.clients);
    for (unsigned t = 0; t < phase.clients; ++t) {
      threads.emplace_back([&, t] {
        PhaseRunner::worker(phase, tracer, op, t, t0, shared, result);
      });
    }
  }
  result.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  result.busy_s = static_cast<double>(shared.busy_ns.load()) / 1e9;
  result.inflight_max = shared.inflight_max.load();
  result.failed = shared.failed.load();
  return result;
}

std::vector<std::int64_t> poisson_schedule(double rate, double seconds,
                                           std::uint64_t seed) {
  sy::util::Rng rng(seed);
  std::vector<std::int64_t> due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  for (double t = rng.exponential(rate); t < seconds;
       t += rng.exponential(rate)) {
    due.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return due;
}

}  // namespace ledger
