// The four ledger workloads, their shared inputs and set-up, the correctness
// checks, and the per-layer replays of a traced run.
//
// Every model is trained the paper's way: exact KRR on N = 800 (400 of the
// user's own 28-dim phone+watch windows per context plus as many sampled
// impostor windows). Inputs come from the built-in simulator, seeded from
// --seed; the system receives only the generated windows.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>

#include "analysis/corpus.h"
#include "context/context_detector.h"
#include "core/auth_server.h"
#include "core/model_store.h"
#include "features/feature_extractor.h"
#include "ledger.h"
#include "sensors/device.h"
#include "serve/auth_gateway.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ledger {
namespace {

namespace fs = std::filesystem;
using sy::core::VectorsByContext;
using sy::sensors::DetectedContext;
using sy::sensors::UsageContext;
using Windows = std::vector<std::vector<double>>;

constexpr std::array<UsageContext, 2> kRawContexts = {
    UsageContext::kStationaryUse, UsageContext::kMoving};
// The paper's training size: 400 own windows per context, matched by as many
// sampled impostor windows (N = 800).
constexpr std::size_t kWindowsPerContext = 400;
constexpr std::size_t kBatchWindows = 4;  // feature windows per score request
constexpr std::size_t kBatchesPerCell = 8;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  return sy::util::splitmix64(seed ^ sy::util::splitmix64(stream));
}

double elapsed_s(std::int64_t since) {
  return static_cast<double>(now_ns() - since) / 1e9;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Inputs ----------------------------------------------------------------

/// One 6 s window of a held-out session, cut out as its own recordings.
struct RawWindow {
  sy::sensors::Recording phone;
  sy::sensors::Recording watch;
  std::size_t user{0};
  DetectedContext truth{DetectedContext::kStationary};
  /// The matching row of the whole session's auth_vectors.
  std::vector<double> expected;
};

struct Inputs {
  std::size_t users{0};
  /// Training windows per user (the enrollment upload and the population).
  std::vector<VectorsByContext> positives;
  /// Held-out feature windows per user: the traffic that gets scored.
  std::vector<VectorsByContext> heldout;
  /// Held-out sessions cut into one-window recordings.
  std::vector<RawWindow> raw;
  /// Context-detector training set: phone-only vectors with their contexts.
  Windows context_x;
  std::vector<UsageContext> context_y;
};

sy::sensors::Recording cut(const sy::sensors::Recording& rec,
                           std::size_t begin, std::size_t n) {
  const auto slice = [&](const sy::sensors::AxisTrace& trace) {
    sy::sensors::AxisTrace out;
    if (trace.size() < begin + n) return out;
    const auto b = static_cast<std::ptrdiff_t>(begin);
    const auto e = static_cast<std::ptrdiff_t>(begin + n);
    out.x.assign(trace.x.begin() + b, trace.x.begin() + e);
    out.y.assign(trace.y.begin() + b, trace.y.begin() + e);
    out.z.assign(trace.z.begin() + b, trace.z.begin() + e);
    return out;
  };
  sy::sensors::Recording out;
  out.device = rec.device;
  out.context = rec.context;
  out.sample_rate_hz = rec.sample_rate_hz;
  out.t0_seconds =
      rec.t0_seconds + static_cast<double>(begin) / rec.sample_rate_hz;
  out.accel = slice(rec.accel);
  out.gyro = slice(rec.gyro);
  out.mag = slice(rec.mag);
  out.orient = slice(rec.orient);
  if (rec.light.size() >= begin + n) {
    out.light.assign(rec.light.begin() + static_cast<std::ptrdiff_t>(begin),
                     rec.light.begin() + static_cast<std::ptrdiff_t>(begin + n));
  }
  return out;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

Inputs make_inputs(const Options& options, std::size_t users,
                   const sy::features::FeatureExtractor& extractor,
                   Report& report) {
  const std::int64_t t0 = now_ns();
  Inputs in;
  in.users = users;
  sy::analysis::CorpusOptions corpus_options;
  corpus_options.n_users = users;
  corpus_options.windows_per_context = kWindowsPerContext;
  corpus_options.seed = mix(options.seed, 1);
  const auto corpus = sy::analysis::Corpus::build(corpus_options);

  // The context detector is user-agnostic; a quarter of each cell trains it.
  const std::size_t context_rows = kWindowsPerContext / 4;
  in.positives.resize(users);
  for (std::size_t u = 0; u < users; ++u) {
    for (const auto& [context, matrix] : corpus.user(u).windows) {
      auto& out = in.positives[u][context];
      for (std::size_t r = 0; r < matrix.rows(); ++r) {
        const auto row = matrix.row(r);
        out.emplace_back(row.begin(), row.end());
        if (r < context_rows) {
          in.context_x.emplace_back(row.begin(), row.begin() + 14);
          in.context_y.push_back(context == DetectedContext::kMoving
                                     ? UsageContext::kMoving
                                     : UsageContext::kStationaryUse);
        }
      }
    }
  }

  // One held-out minute per user and context, with the watch stream carried
  // over the simulated Bluetooth link, as the phone would see it live.
  constexpr double kHeldoutSeconds = 60.0;
  const std::size_t window = extractor.config().window.window_samples();
  std::vector<std::vector<RawWindow>> cells(users * kRawContexts.size());
  sy::util::parallel_for(cells.size(), [&](std::size_t cell) {
    const std::size_t u = cell / kRawContexts.size();
    const UsageContext raw = kRawContexts[cell % kRawContexts.size()];
    sy::util::Rng rng(mix(options.seed, 1000 + cell));
    sy::sensors::CollectorOptions collect;
    collect.with_watch = true;
    collect.bluetooth = true;
    collect.synthesis.duration_seconds = kHeldoutSeconds;
    const auto session = sy::sensors::collect_session(
        corpus.population().user(u), raw, collect, rng);
    const auto vectors = extractor.auth_vectors(session.phone, &*session.watch);
    for (std::size_t k = 0; k < vectors.size(); ++k) {
      RawWindow w;
      w.phone = cut(session.phone, k * window, window);
      w.watch = cut(*session.watch, k * window, window);
      w.user = u;
      w.truth = sy::sensors::collapse_context(raw);
      w.expected = vectors[k];
      cells[cell].push_back(std::move(w));
    }
  });
  in.heldout.resize(users);
  for (auto& cell : cells) {
    for (auto& w : cell) {
      in.heldout[w.user][w.truth].push_back(w.expected);
      in.raw.push_back(std::move(w));
    }
  }

  // Cutting a window out of a session must not change its features: the
  // window path and the whole-session path have to agree bit for bit.
  std::size_t mismatched = 0;
  for (const RawWindow& w : in.raw) {
    const auto one = extractor.auth_vectors(w.phone, &w.watch);
    if (one.size() != 1 || !bitwise_equal(one[0], w.expected)) ++mismatched;
  }
  report.check(mismatched == 0 && !in.raw.empty(),
               "window features match whole-session rows bitwise (" +
                   std::to_string(in.raw.size() - mismatched) + "/" +
                   std::to_string(in.raw.size()) + ")");
  std::fprintf(stderr,
               "inputs: %zu users x %zu windows/context, %zu held-out windows "
               "in %.2f s\n",
               users, kWindowsPerContext, in.raw.size(), elapsed_s(t0));
  return in;
}

/// Four-window score requests cut from each user's held-out windows.
using Batches = std::vector<std::map<DetectedContext, std::vector<Windows>>>;

Batches make_batches(const Inputs& in) {
  Batches batches(in.users);
  for (std::size_t u = 0; u < in.users; ++u) {
    for (const auto& [context, windows] : in.heldout[u]) {
      auto& cell = batches[u][context];
      for (std::size_t b = 0; b < kBatchesPerCell; ++b) {
        Windows batch;
        for (std::size_t j = 0; j < kBatchWindows; ++j) {
          batch.push_back(windows[(b * kBatchWindows + j) % windows.size()]);
        }
        cell.push_back(std::move(batch));
      }
    }
  }
  return batches;
}

// --- Set-up ----------------------------------------------------------------

struct SetupSpec {
  std::size_t cache_mb{64};
  bool model_dir{false};
  bool persist_dir{false};
  /// Tokens enrolled during set-up; token t is backed by corpus user
  /// t % users.
  std::size_t tokens{0};
  bool detector{false};
};

/// The system under test in its serving state.
struct Deployment {
  std::unique_ptr<sy::util::ThreadPool> pool;
  sy::serve::GatewayConfig config;
  std::unique_ptr<sy::serve::AuthGateway> gateway;
  std::unique_ptr<sy::context::ContextDetector> detector;
  /// A few enrolled (token, user) pairs and their models, for the replays.
  std::vector<std::pair<int, std::size_t>> sample_tokens;
  std::vector<std::shared_ptr<const sy::core::AuthModel>> sample_models;
};

constexpr std::size_t kSampleTokens = 16;

std::unique_ptr<sy::context::ContextDetector> train_detector(
    const Inputs& in) {
  auto detector = std::make_unique<sy::context::ContextDetector>();
  detector->train(in.context_x, in.context_y);
  return detector;
}

std::unique_ptr<Deployment> set_up(const Options& options, const Inputs& in,
                                   const SetupSpec& spec) {
  auto d = std::make_unique<Deployment>();
  d->pool = std::make_unique<sy::util::ThreadPool>(options.threads);
  d->config.cache_bytes = spec.cache_mb << 20;
  const fs::path state = fs::path(options.work_dir) / "state";
  if (spec.model_dir) d->config.model_dir = (state / "models").string();
  if (spec.persist_dir) {
    d->config.persist_dir = (state / "population").string();
    d->config.persist_sync_every = 0;
  }
  d->gateway =
      std::make_unique<sy::serve::AuthGateway>(d->config, d->pool.get());
  if (spec.detector) d->detector = train_detector(in);

  // Contribute everyone first, then enroll: every model draws its impostors
  // from the whole population.
  for (std::size_t u = 0; u < in.users; ++u) {
    for (const auto& [context, vectors] : in.positives[u]) {
      d->gateway->contribute(static_cast<int>(u), context, vectors);
    }
  }
  std::vector<std::shared_ptr<const sy::core::AuthModel>> sample(
      std::min(spec.tokens, kSampleTokens));
  d->pool->parallel_for(spec.tokens, [&](std::size_t t) {
    auto model = d->gateway->enroll(static_cast<int>(t),
                                    in.positives[t % in.users],
                                    mix(options.seed, 20000 + t),
                                    /*contribute_positives=*/false);
    if (t < sample.size()) sample[t] = std::move(model);
  });
  for (std::size_t t = 0; t < sample.size(); ++t) {
    d->sample_tokens.emplace_back(static_cast<int>(t), t % in.users);
  }
  d->sample_models = std::move(sample);
  return d;
}

void tear_down(std::unique_ptr<Deployment>& d, const Options& options) {
  d.reset();
  std::error_code ec;
  fs::remove_all(fs::path(options.work_dir) / "state", ec);
}

// --- Workload interface --------------------------------------------------------

/// What a measurement hands back to drive().
struct Measured {
  std::vector<double> latency_ms;  ///< the workload's operation latencies
  double ops_per_s{0.0};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// Generator validity, from the latency phase.
  double utilization{0.0};
  std::size_t inflight_max{0};
  double late_ms_p99{0.0};
};

Measured from_phase(const PhaseResult& r, unsigned threads) {
  Measured m;
  m.latency_ms = r.latency_ms;
  m.attempted = r.latency_ms.size();
  m.failed = r.failed;
  m.utilization = r.busy_s / (r.wall_s * threads);
  m.inflight_max = r.inflight_max;
  std::vector<double> late = r.late_ms;
  m.late_ms_p99 = percentile(late, 0.99);
  return m;
}

class Workload {
 public:
  virtual ~Workload() = default;

  std::size_t users{32};
  SetupSpec setup;

  /// Builds the workload's request streams once the inputs exist.
  virtual void prepare(const Inputs&) {}
  /// Runs the measured phases against a fresh deployment.
  virtual Measured measure(const Inputs& in, Deployment& d,
                           Tracer* tracer) = 0;
  /// Correctness checks on what the measurement returned and left behind.
  virtual void verify(const Inputs& in, Deployment& d, const Measured& m,
                      Report& report) = 0;
  /// One gateway.score_batch call from the workload's own traffic mix,
  /// replayed by the traced run.
  virtual void score_probe(const Inputs& in, Deployment& d, std::size_t i) = 0;
};

// Calls `call(i)` for i in [0, samples), single-threaded, and returns the
// per-call times in microseconds.
template <typename F>
std::vector<double> replay(std::size_t samples, F&& call) {
  std::vector<double> us;
  us.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const std::int64_t start = now_ns();
    call(i);
    us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  return us;
}

std::uint64_t counter_delta(const sy::obs::Snapshot& after,
                            const sy::obs::Snapshot& before,
                            const std::string& name) {
  const auto a = after.counters.find(name);
  const auto b = before.counters.find(name);
  return (a == after.counters.end() ? 0 : a->second) -
         (b == before.counters.end() ? 0 : b->second);
}

double histogram_sum_delta(const sy::obs::Snapshot& after,
                           const sy::obs::Snapshot& before,
                           const std::string& name) {
  const auto a = after.histograms.find(name);
  const auto b = before.histograms.find(name);
  return static_cast<double>(
      (a == after.histograms.end() ? 0 : a->second.sum) -
      (b == before.histograms.end() ? 0 : b->second.sum));
}

/// Everything a traced run reports: span shares and registry counts over
/// the traced measurement, then replays of each layer's public call.
struct TracedRun {
  const Tracer& tracer;
  const Measured& untraced;
  const Measured& traced;
  const sy::obs::Snapshot& before;
  const sy::obs::Snapshot& after;
  std::uint64_t steals;
};

void emit_layers(const Options& options, const Inputs& in,
                 const sy::features::FeatureExtractor& extractor,
                 Workload& w, Deployment& d, const TracedRun& run,
                 Report& report) {
  const Tracer::Totals totals = run.tracer.totals();
  const double root = std::max(1.0, totals.root_ns);
  const auto self = [&](SpanName name) {
    return totals.self_ns[static_cast<std::size_t>(name)];
  };
  double root_self = 0.0;
  for (const SpanName name : {SpanName::kWindow, SpanName::kScore,
                              SpanName::kEnroll, SpanName::kDrift,
                              SpanName::kContribute}) {
    root_self += self(name);
  }
  report.add("features.share", self(SpanName::kFeatures) / root, "fraction");
  report.add("context.share", self(SpanName::kContext) / root, "fraction");
  report.add("gateway.share", self(SpanName::kGateway) / root, "fraction");
  report.add("gen.wait_share", self(SpanName::kGenWait) / root, "fraction");
  report.add("residual_frac", root_self / root, "fraction");
  std::vector<double> untraced = run.untraced.latency_ms;
  std::vector<double> traced = run.traced.latency_ms;
  report.add("trace_overhead_frac",
             percentile(traced, 0.5) /
                     std::max(1e-9, percentile(untraced, 0.5)) -
                 1.0,
             "fraction");
  report.add("gen.utilization", run.traced.utilization, "fraction");
  report.add("gen.inflight_max", static_cast<double>(run.traced.inflight_max),
             "count");
  for (const char* stage :
       {"cache_fetch", "feature_lookup", "kernel", "decision"}) {
    const std::string name = std::string("gateway.score.") + stage;
    report.add(name + "_share",
               histogram_sum_delta(run.after, run.before, name + "_ns") / root,
               "fraction");
  }

  const auto count = [&](const char* name) {
    return static_cast<double>(counter_delta(run.after, run.before, name));
  };
  const double hits = count("cache.hits");
  const double misses = count("cache.misses");
  report.add("cache.hit_rate",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "fraction");
  report.add("cache.misses", misses, "count");
  report.add("cache.evictions", count("cache.evictions"), "count");
  report.add("cache.loads", count("cache.loads"), "count");
  report.add("retrain.submitted", count("retrain.submitted"), "count");
  report.add("retrain.coalesced", count("retrain.coalesced"), "count");
  const auto hwm = run.after.gauges.find("retrain.queue_depth_hwm");
  report.add("retrain.queue_depth_hwm",
             hwm == run.after.gauges.end() ? 0.0
                                           : static_cast<double>(hwm->second),
             "count");
  report.add("store.snapshot_buckets_copied",
             count("store.snapshot_buckets_copied"), "count");
  report.add("store.log_records", count("store.log_records"), "count");
  report.add("pool.steals", static_cast<double>(run.steals), "count");

  // Replays: each layer's public call on this workload's own data, on one
  // thread, with nothing else running.
  const auto scaled = [&](std::size_t n) {
    return options.smoke ? std::max<std::size_t>(10, n / 10) : n;
  };
  sy::serve::AuthGateway& gateway = *d.gateway;
  auto features_us = replay(scaled(1000), [&](std::size_t i) {
    const RawWindow& rw = in.raw[i % in.raw.size()];
    if (extractor.auth_vectors(rw.phone, &rw.watch).size() != 1) {
      throw std::logic_error("auth_vectors: one window expected");
    }
  });
  report.add("features.auth_vectors_us_p50", percentile(features_us, 0.5),
             "us");
  report.add("features.auth_vectors_us_p99", percentile(features_us, 0.99),
             "us");

  const auto own_detector = d.detector ? nullptr : train_detector(in);
  const auto& detector = d.detector ? *d.detector : *own_detector;
  auto context_us = replay(scaled(1000), [&](std::size_t i) {
    const RawWindow& rw = in.raw[i % in.raw.size()];
    (void)detector.detect(std::span<const double>(rw.expected.data(), 14));
  });
  report.add("context.detect_us_p50", percentile(context_us, 0.5), "us");
  report.add("context.detect_us_p99", percentile(context_us, 0.99), "us");

  auto score_us = replay(scaled(1000),
                         [&](std::size_t i) { w.score_probe(in, d, i); });
  report.add("gateway.score_batch_us_p50", percentile(score_us, 0.5), "us");
  report.add("gateway.score_batch_us_p99", percentile(score_us, 0.99), "us");

  const std::string bundle =
      (fs::path(options.work_dir) / "replay.symd").string();
  std::vector<std::vector<std::uint8_t>> bytes(d.sample_models.size());
  auto serialize_us = replay(scaled(128), [&](std::size_t i) {
    const std::size_t k = i % bytes.size();
    bytes[k] = sy::core::ModelStore::serialize(*d.sample_models[k]);
  });
  auto save_us = replay(scaled(128), [&](std::size_t i) {
    sy::core::ModelStore::save_bytes(bytes[i % bytes.size()], bundle);
  });
  auto load_us = replay(scaled(128), [&](std::size_t) {
    (void)sy::core::ModelStore::load(bundle);
  });
  report.add("model_store.load_us_p50", percentile(load_us, 0.5), "us");
  report.add("model_store.load_us_p90", percentile(load_us, 0.9), "us");
  report.add("model_store.serialize_us_p50", percentile(serialize_us, 0.5),
             "us");
  report.add("model_store.save_us_p50", percentile(save_us, 0.5), "us");
  report.add("model_store.bundle_kb",
             static_cast<double>(bytes.front().size()) / 1024.0, "KB");

  const auto snapshot = gateway.store().snapshot();
  auto train_us = replay(scaled(16), [&](std::size_t i) {
    const auto& [token, user] = d.sample_tokens[i % d.sample_tokens.size()];
    sy::util::Rng rng(mix(options.seed, 30000 + i));
    (void)sy::core::train_user_from_store(*snapshot, d.config.training, token,
                                          in.positives[user], rng, 1);
  });
  report.add("train.train_user_ms_p50", percentile(train_us, 0.5) / 1e3,
             "ms");

  std::vector<double> contribute_us;
  auto snapshot_us = replay(scaled(64), [&](std::size_t i) {
    const DetectedContext context =
        i % 2 ? DetectedContext::kMoving : DetectedContext::kStationary;
    const std::int64_t start = now_ns();
    gateway.contribute(static_cast<int>(900000 + i), context,
                       in.positives[i % in.users].at(context));
    contribute_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    (void)gateway.store().snapshot();
  });
  // Each snapshot sample also covered its contribution; split the two.
  for (std::size_t i = 0; i < snapshot_us.size(); ++i) {
    snapshot_us[i] -= contribute_us[i];
  }
  report.add("store.contribute_us_p50", percentile(contribute_us, 0.5), "us");
  report.add("store.snapshot_us_p50", percentile(snapshot_us, 0.5), "us");

  gateway.wait_idle();
  auto retrain_us = replay(scaled(8), [&](std::size_t i) {
    const auto& [token, user] = d.sample_tokens[i % d.sample_tokens.size()];
    (void)gateway
        .report_drift(token, in.positives[user], mix(options.seed, 40000 + i))
        .get();
  });
  report.add("retrain.ms_p50", percentile(retrain_us, 0.5) / 1e3, "ms");
}

Report drive(const Options& options, Workload& w) {
  Report report;
  const sy::features::FeatureExtractor extractor{
      sy::features::FeatureConfig{}};
  const Inputs in =
      make_inputs(options, w.users, extractor, report);
  w.prepare(in);
  std::unique_ptr<Deployment> d;

  if (!options.trace) {
    // Set up three times and keep the last; the median is the set-up time.
    std::vector<double> setup_s;
    for (int rep = 0; rep < 3; ++rep) {
      tear_down(d, options);
      const std::int64_t start = now_ns();
      d = set_up(options, in, w.setup);
      setup_s.push_back(elapsed_s(start));
    }
    const Measured m = w.measure(in, *d, nullptr);
    w.verify(in, *d, m, report);
    report.attempted = m.attempted;
    report.failed = m.failed;
    std::vector<double> latency = m.latency_ms;
    const double tail = tail_percentile(latency.size());
    report.add("setup_s", median(setup_s), "s");
    report.add("op_ms_p50", percentile(latency, 0.5), "ms");
    report.add("op_ms_tail", percentile(latency, tail), "ms");
    report.add("ops_per_s", m.ops_per_s, "1/s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::fprintf(stderr,
                 "timing: %zu timed operations, op_ms_tail is p%g; set-up "
                 "%.3f / %.3f / %.3f s\n",
                 latency.size(), tail * 100.0, setup_s[0], setup_s[1],
                 setup_s[2]);
    std::fprintf(stderr,
                 "generator: utilisation %.3f, at most %zu in flight, p99 "
                 "%.3f ms late\n",
                 m.utilization, m.inflight_max, m.late_ms_p99);
    tear_down(d, options);
    return report;
  }

  // Traced run: an untraced measurement on one deployment is the overhead
  // baseline, then a fresh deployment is measured with spans on.
  d = set_up(options, in, w.setup);
  const Measured untraced = w.measure(in, *d, nullptr);
  tear_down(d, options);
  d = set_up(options, in, w.setup);
  Tracer tracer(options.threads);
  const sy::obs::Snapshot before = d->gateway->metrics().snapshot();
  const std::uint64_t steals_before = d->pool->stats().stolen;
  const Measured traced = w.measure(in, *d, &tracer);
  d->gateway->wait_idle();
  const sy::obs::Snapshot after = d->gateway->metrics().snapshot();
  const TracedRun run{tracer, untraced, traced, before, after,
                      d->pool->stats().stolen - steals_before};
  w.verify(in, *d, traced, report);
  report.attempted = traced.attempted;
  report.failed = traced.failed;
  emit_layers(options, in, extractor, w, *d, run, report);
  fs::create_directories(options.spans_dir);
  const std::string spans =
      (fs::path(options.spans_dir) / ("spans_" + options.workload + ".json"))
          .string();
  tracer.write_json(spans, options.workload);
  std::fprintf(stderr, "trace: spans written to %s\n", spans.c_str());
  tear_down(d, options);
  return report;
}

// --- Shared traffic ------------------------------------------------------------

/// One score request: a token's four held-out windows in one context.
struct ScoreRequest {
  int token{0};
  std::size_t user{0};
  DetectedContext context{DetectedContext::kStationary};
  std::size_t batch{0};
};

/// Skewed token popularity: 80% of requests go to the first 10% of tokens,
/// so the hot set fits a cache that the whole population does not.
std::vector<ScoreRequest> draw_requests(std::size_t n, std::size_t tokens,
                                        std::size_t users,
                                        std::uint64_t seed) {
  sy::util::Rng rng(seed);
  const auto hot = static_cast<int>(std::max<std::size_t>(1, tokens / 10));
  std::vector<ScoreRequest> out(n);
  for (auto& r : out) {
    const int span = rng.uniform() < 0.8 ? hot : static_cast<int>(tokens);
    r.token = rng.uniform_int(0, span - 1);
    r.user = static_cast<std::size_t>(r.token) % users;
    r.context = rng.uniform() < 0.5 ? DetectedContext::kStationary
                                    : DetectedContext::kMoving;
    r.batch = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(kBatchesPerCell) - 1));
  }
  return out;
}

/// Scores one request; returns the accepted-window count, or -1 when the
/// response has the wrong length.
int score(Deployment& d, const Batches& batches, const ScoreRequest& r) {
  const Windows& windows = batches[r.user].at(r.context)[r.batch];
  const auto decisions = d.gateway->score_batch(r.token, r.context, windows);
  if (decisions.size() != windows.size()) return -1;
  int accepted = 0;
  for (const auto& decision : decisions) accepted += decision.accepted ? 1 : 0;
  return accepted;
}

/// Accepted windows per operation, written by the generator threads (one
/// slot each, so no synchronisation).
struct Tally {
  std::vector<std::uint8_t> accepted;
  std::vector<std::uint8_t> scored;

  void reset(std::size_t n) {
    accepted.assign(n, 0);
    scored.assign(n, 0);
  }
  double accept_rate() const {
    const double a = std::accumulate(accepted.begin(), accepted.end(), 0.0);
    const double s = std::accumulate(scored.begin(), scored.end(), 0.0);
    return s > 0 ? a / s : 0.0;
  }
};

/// Minimum share of genuine windows a scoring workload must accept, and the
/// most a window_stream impostor/owner may be wrongly accepted/rejected.
/// Set from the measured rates with margin.
constexpr double kMinGenuineAccept = 0.80;
constexpr double kMaxFar = 0.12;
constexpr double kMaxFrr = 0.15;

// --- window_stream ---------------------------------------------------------------

// The §V-H on-phone path, one raw window at a time: features, context
// detection, then a one-window score. The only workload where signal,
// features and context do any work; its cache always hits.
class WindowStream final : public Workload {
 public:
  explicit WindowStream(const Options& options) {
    users = 16;
    setup.tokens = users;
    setup.detector = true;
    ops_ = static_cast<std::size_t>(options.seconds * kWindowsPerSecond) + 1;
  }

  Measured measure(const Inputs& in, Deployment& d, Tracer* tracer) override {
    accepted_.assign(ops_, 0);
    genuine_.assign(ops_, 0);
    context_right_.assign(ops_, 0);
    const PhaseResult r = run_phase(
        Phase{ops_, 1, {}}, tracer, [&](std::size_t i, OpContext& ctx) {
          ctx.set_kind(SpanName::kWindow);
          const RawWindow& rw = in.raw[i % in.raw.size()];
          const std::size_t claimed = claim(i, in.raw.size(), rw.user);
          Windows features;
          {
            const auto span = ctx.span(SpanName::kFeatures);
            features = extractor_.auth_vectors(rw.phone, &rw.watch);
          }
          DetectedContext context{};
          {
            const auto span = ctx.span(SpanName::kContext);
            context = d.detector->detect(
                std::span<const double>(features.front().data(), 14));
          }
          std::vector<sy::core::AuthDecision> decisions;
          {
            const auto span = ctx.span(SpanName::kGateway);
            decisions = d.gateway->score_batch(static_cast<int>(claimed),
                                               context, features);
          }
          genuine_[i] = claimed == rw.user ? 1 : 0;
          accepted_[i] = decisions.size() == 1 && decisions[0].accepted;
          context_right_[i] = context == rw.truth ? 1 : 0;
          return decisions.size() == 1;
        });
    Measured m = from_phase(r, 1);
    m.ops_per_s = static_cast<double>(ops_) / r.wall_s;
    return m;
  }

  void verify(const Inputs&, Deployment&, const Measured& m,
              Report& report) override {
    double genuine = 0, impostor = 0, false_accept = 0, false_reject = 0;
    for (std::size_t i = 0; i < ops_; ++i) {
      if (genuine_[i]) {
        ++genuine;
        false_reject += accepted_[i] ? 0 : 1;
      } else {
        ++impostor;
        false_accept += accepted_[i] ? 1 : 0;
      }
    }
    const double far = false_accept / std::max(1.0, impostor);
    const double frr = false_reject / std::max(1.0, genuine);
    const double context_accuracy =
        std::accumulate(context_right_.begin(), context_right_.end(), 0.0) /
        static_cast<double>(ops_);
    report.check(m.failed == 0, "every window got one decision");
    report.check(far <= kMaxFar, "FAR " + std::to_string(far) + " <= " +
                                     std::to_string(kMaxFar));
    report.check(frr <= kMaxFrr, "FRR " + std::to_string(frr) + " <= " +
                                     std::to_string(kMaxFrr));
    report.check(context_accuracy >= 0.9,
                 "context detected right on " +
                     std::to_string(context_accuracy) + " of windows");
  }

  void score_probe(const Inputs& in, Deployment& d, std::size_t i) override {
    const RawWindow& rw = in.raw[i % in.raw.size()];
    (void)d.gateway->score_batch(static_cast<int>(rw.user), rw.truth,
                                 Windows{rw.expected});
  }

 private:
  /// Closed-loop pace on the reference box; the count is fixed per second
  /// of --seconds so both sides of a comparison do the same work.
  static constexpr double kWindowsPerSecond = 5000.0;

  // Alternates owner and impostor claims, flipping the parity every pass
  // over the windows so each window is scored both ways.
  std::size_t claim(std::size_t i, std::size_t windows,
                    std::size_t owner) const {
    if ((i + i / windows) % 2 == 0) return owner;
    return (owner + 1 + (i / 2) % (users - 1)) % users;
  }

  sy::features::FeatureExtractor extractor_{};
  std::size_t ops_{0};
  std::vector<std::uint8_t> accepted_, genuine_, context_right_;
};

// --- score_cold --------------------------------------------------------------------

// Scoring with a cache that holds about a sixth of the models: the
// cold requests reload a bundle from disk (read, SHA-256, decode). Feature
// extraction is skipped; requests carry pre-computed windows.
class ScoreCold final : public Workload {
 public:
  explicit ScoreCold(const Options& options) : options_(options) {
    users = options.smoke ? 8 : 32;
    setup.tokens = options.smoke ? 32 : 256;
    setup.cache_mb = options.smoke ? 2 : 16;
    setup.model_dir = true;
  }

  void prepare(const Inputs& in) override {
    batches_ = make_batches(in);
    schedule_ = poisson_schedule(kRate, options_.seconds * kOpenShare,
                                 mix(options_.seed, 50));
    open_ = draw_requests(schedule_.size(), setup.tokens, users,
                          mix(options_.seed, 51));
    capacity_ = draw_requests(
        static_cast<std::size_t>(kCapacityPerSecond * options_.seconds *
                                 (1.0 - kOpenShare)) + 1,
        setup.tokens, users, mix(options_.seed, 52));
    warmup_ = draw_requests(kWarmup, setup.tokens, users,
                            mix(options_.seed, 53));
  }

  Measured measure(const Inputs&, Deployment& d, Tracer* tracer) override {
    // Enrollment leaves the last-enrolled models cached, not the hot set;
    // settle the LRU on the request mix before anything is timed.
    (void)run_phase(Phase{warmup_.size(), options_.threads, {}}, nullptr,
                    [&](std::size_t i, OpContext&) {
                      return score(d, batches_, warmup_[i]) >= 0;
                    });
    tally_.reset(open_.size() + capacity_.size());
    const auto op = [&](const std::vector<ScoreRequest>& requests,
                        std::size_t offset) {
      return [&, offset](std::size_t i, OpContext& ctx) {
        ctx.set_kind(SpanName::kScore);
        int accepted = 0;
        {
          const auto span = ctx.span(SpanName::kGateway);
          accepted = score(d, batches_, requests[i]);
        }
        tally_.accepted[offset + i] =
            static_cast<std::uint8_t>(std::max(0, accepted));
        tally_.scored[offset + i] = kBatchWindows;
        return accepted >= 0;
      };
    };
    const PhaseResult open = run_phase(
        Phase{open_.size(), options_.threads, schedule_}, tracer, op(open_, 0));
    const PhaseResult cap =
        run_phase(Phase{capacity_.size(), options_.threads, {}}, tracer,
                  op(capacity_, open_.size()));
    Measured m = from_phase(open, options_.threads);
    m.ops_per_s = static_cast<double>(capacity_.size()) / cap.wall_s;
    m.attempted += capacity_.size();
    m.failed += cap.failed;
    return m;
  }

  void verify(const Inputs&, Deployment&, const Measured& m,
              Report& report) override {
    report.check(m.failed == 0, "every request got four decisions");
    report.check(tally_.accept_rate() >= kMinGenuineAccept,
                 "genuine accept rate " + std::to_string(tally_.accept_rate()));
  }

  void score_probe(const Inputs&, Deployment& d, std::size_t i) override {
    (void)score(d, batches_, capacity_[i % capacity_.size()]);
  }

 private:
  /// About a quarter of the capacity measured on the reference box, so the
  /// p99 is service time and not a growing queue.
  static constexpr double kRate = 2500.0;
  static constexpr double kCapacityPerSecond = 9000.0;
  static constexpr double kOpenShare = 0.6;
  static constexpr std::size_t kWarmup = 2000;

  const Options& options_;
  Batches batches_;
  std::vector<std::int64_t> schedule_;
  std::vector<ScoreRequest> open_, capacity_, warmup_;
  Tally tally_;
};

// --- enroll_burst ------------------------------------------------------------------

// The cloud training path under four concurrent clients: snapshot,
// impostor scan over the whole population, Gram, Cholesky, serialize with
// SHA-256, bundle write and log append. Every enrollee's windows join the
// population, so it grows through the run. Scoring is skipped.
class EnrollBurst final : public Workload {
 public:
  explicit EnrollBurst(const Options& options) : options_(options) {
    users = options.smoke ? 8 : 32;
    // The gateway already serves the corpus users when the burst begins.
    setup.tokens = users;
    setup.model_dir = true;
    setup.persist_dir = true;
    ops_ = static_cast<std::size_t>(options.seconds * kEnrollsPerSecond) + 1;
  }

  void prepare(const Inputs& in) override { batches_ = make_batches(in); }

  Measured measure(const Inputs& in, Deployment& d, Tracer* tracer) override {
    versions_.assign(ops_, 0);
    std::vector<std::shared_ptr<const sy::core::AuthModel>> sample(
        std::min(ops_, kSampleTokens));
    const PhaseResult r = run_phase(
        Phase{ops_, options_.threads, {}}, tracer,
        [&](std::size_t i, OpContext& ctx) {
          ctx.set_kind(SpanName::kEnroll);
          std::shared_ptr<const sy::core::AuthModel> model;
          {
            const auto span = ctx.span(SpanName::kGateway);
            model = d.gateway->enroll(token(i), in.positives[i % users],
                                      mix(options_.seed, 60000 + i),
                                      /*contribute_positives=*/true);
          }
          versions_[i] = model->version();
          if (i < sample.size()) sample[i] = model;
          return true;
        });
    // The replays and checks sample the burst's enrollees, not set-up's.
    d.sample_tokens.clear();
    for (std::size_t i = 0; i < sample.size(); ++i) {
      d.sample_tokens.emplace_back(token(i), i % users);
    }
    d.sample_models = std::move(sample);
    Measured m = from_phase(r, options_.threads);
    m.ops_per_s = static_cast<double>(ops_) / r.wall_s;
    return m;
  }

  void verify(const Inputs& in, Deployment& d, const Measured& m,
              Report& report) override {
    bool all_v1 = m.failed == 0;
    for (std::size_t i = 0; i < ops_; ++i) {
      all_v1 = all_v1 && versions_[i] == 1 &&
               d.gateway->model_version(token(i)) == 1;
    }
    report.check(all_v1, "every enrolled token is at version 1");
    std::size_t contexts = 0;
    for (const auto& p : in.positives) contexts += p.size();
    const auto contributions = d.gateway->stats().store.contributions;
    report.check(contributions == contexts + 2 * ops_,
                 "store.contributions " + std::to_string(contributions) +
                     " == " + std::to_string(contexts) + " + 2 x " +
                     std::to_string(ops_));
    Tally tally;
    tally.reset(d.sample_tokens.size() * 2);
    for (std::size_t k = 0; k < d.sample_tokens.size(); ++k) {
      const auto [tok, user] = d.sample_tokens[k];
      for (std::size_t c = 0; c < 2; ++c) {
        const ScoreRequest r{tok, user,
                             c ? DetectedContext::kMoving
                               : DetectedContext::kStationary,
                             k % kBatchesPerCell};
        tally.accepted[2 * k + c] =
            static_cast<std::uint8_t>(std::max(0, score(d, batches_, r)));
        tally.scored[2 * k + c] = kBatchWindows;
      }
    }
    report.check(tally.accept_rate() >= kMinGenuineAccept,
                 "sampled enrollees accept their own held-out windows at " +
                     std::to_string(tally.accept_rate()));
  }

  void score_probe(const Inputs&, Deployment& d, std::size_t i) override {
    const auto [tok, user] = d.sample_tokens[i % d.sample_tokens.size()];
    (void)score(d, batches_,
                ScoreRequest{tok, user,
                             i % 2 ? DetectedContext::kMoving
                                   : DetectedContext::kStationary,
                             i % kBatchesPerCell});
  }

 private:
  static constexpr double kEnrollsPerSecond = 40.0;
  static int token(std::size_t i) { return 100000 + static_cast<int>(i); }

  const Options& options_;
  std::size_t ops_{0};
  Batches batches_;
  std::vector<int> versions_;
};

// --- drift_mixed -------------------------------------------------------------------

// Scoring with every model resident while drift retrains and contributions
// write. Half the cores score in a closed loop; the retrain pool has the
// other half. A change that speeds training up by taking cores or install
// locks shows here as a rise in score tail latency. The all-hits partner of
// score_cold: ModelStore::load is never called.
//
// The scoring clients run back to back rather than on an arrival schedule:
// at about 60 us per request, an open loop on the reference box measured
// the generator threads' wake-up and stall jitter (its p50 and p99 spread
// by more than a quarter between runs), not the gateway.
class DriftMixed final : public Workload {
 public:
  explicit DriftMixed(const Options& options) : options_(options) {
    users = options.smoke ? 8 : 32;
    setup.tokens = options.smoke ? 32 : 256;
    setup.cache_mb = 512;
    setup.model_dir = true;
  }

  void prepare(const Inputs& in) override {
    batches_ = make_batches(in);
    // One drift report per 10,000 score requests and one contribution per
    // 200, drawn in a seeded order. With two clients that is about three
    // retrains a second: one runs during roughly a sixth of the scoring, so
    // the interference lands in the tail, not in the median.
    const auto ops = static_cast<std::size_t>(
        kMixedPerSecond * options_.seconds * kMixedShare) + 1;
    sy::util::Rng rng(mix(options_.seed, 70));
    std::array<std::size_t, 3> counts{};
    for (std::size_t i = 0; i < ops; ++i) {
      const double u = rng.uniform();
      const Kind kind = u < 0.0001   ? Kind::kDrift
                        : u < 0.0051 ? Kind::kContribute
                                     : Kind::kScore;
      kinds_.push_back(kind);
      index_.push_back(counts[static_cast<std::size_t>(kind)]++);
    }
    const auto n = [&](Kind k) { return counts[static_cast<std::size_t>(k)]; };
    scores_ = draw_requests(n(Kind::kScore), setup.tokens, users,
                            mix(options_.seed, 73));
    for (std::size_t k = 0; k < n(Kind::kDrift); ++k) {
      const int tok = rng.uniform_int(0, static_cast<int>(setup.tokens) - 1);
      drifts_.push_back({tok, static_cast<std::size_t>(tok) % users});
    }
    for (std::size_t k = 0; k < n(Kind::kContribute); ++k) {
      contributes_.push_back(
          {200000 + static_cast<int>(k),
           static_cast<std::size_t>(
               rng.uniform_int(0, static_cast<int>(users) - 1)),
           rng.uniform() < 0.5 ? DetectedContext::kStationary
                               : DetectedContext::kMoving,
           0});
    }
    // A contribution is ten of the user's training windows: contributing
    // the held-out windows would teach retrained models to reject exactly
    // the windows that are scored.
    contribution_.resize(users);
    for (std::size_t u = 0; u < users; ++u) {
      for (const auto& [context, windows] : in.positives[u]) {
        contribution_[u][context].assign(windows.begin(),
                                         windows.begin() + 10);
      }
    }
    capacity_ = draw_requests(
        static_cast<std::size_t>(kCapacityPerSecond * options_.seconds *
                                 (1.0 - kMixedShare)) + 1,
        setup.tokens, users, mix(options_.seed, 75));
  }

  Measured measure(const Inputs& in, Deployment& d, Tracer* tracer) override {
    std::vector<VectorsByContext> uploads;
    for (const auto& [tok, user] : drifts_) uploads.push_back(in.positives[user]);
    retrain_ms_.assign(drifts_.size(), 0.0);
    live_at_submit_.assign(drifts_.size(), 0);
    retrain_version_.assign(drifts_.size(), 0);
    retrain_ok_.assign(drifts_.size(), 0);
    tally_.reset(scores_.size() + capacity_.size());

    // Each client polls the retrains it submitted before its next
    // operation, so completion is seen within one request's time.
    struct Pending {
      std::int64_t submitted;
      std::size_t drift;
      std::shared_future<sy::core::AuthModel> future;
    };
    std::vector<std::vector<Pending>> pending(options_.threads);
    const auto settle = [&](std::vector<Pending>& list, bool wait) {
      for (auto it = list.begin(); it != list.end();) {
        if (!wait && it->future.wait_for(std::chrono::seconds(0)) !=
                         std::future_status::ready) {
          ++it;
          continue;
        }
        it->future.wait();
        retrain_ms_[it->drift] =
            static_cast<double>(now_ns() - it->submitted) / 1e6;
        try {
          retrain_version_[it->drift] = it->future.get().version();
          retrain_ok_[it->drift] = 1;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "retrain failed: %s\n", e.what());
        }
        it = list.erase(it);
      }
    };

    const unsigned clients = std::max(1u, options_.threads / 2);
    const PhaseResult mixed = run_phase(
        Phase{kinds_.size(), clients, {}}, tracer,
        [&](std::size_t i, OpContext& ctx) {
          settle(pending[ctx.thread()], false);
          const std::size_t k = index_[i];
          switch (kinds_[i]) {
            case Kind::kScore: {
              ctx.set_kind(SpanName::kScore);
              int accepted = 0;
              {
                const auto span = ctx.span(SpanName::kGateway);
                accepted = score(d, batches_, scores_[k]);
              }
              tally_.accepted[k] = static_cast<std::uint8_t>(std::max(0, accepted));
              tally_.scored[k] = kBatchWindows;
              return accepted >= 0;
            }
            case Kind::kDrift: {
              ctx.set_kind(SpanName::kDrift);
              live_at_submit_[k] = d.gateway->model_version(drifts_[k].first);
              const std::int64_t submitted = now_ns();
              const auto span = ctx.span(SpanName::kGateway);
              pending[ctx.thread()].push_back(
                  {submitted, k,
                   d.gateway->report_drift(drifts_[k].first,
                                           std::move(uploads[k]),
                                           mix(options_.seed, 80000 + k))});
              return true;
            }
            case Kind::kContribute: {
              ctx.set_kind(SpanName::kContribute);
              const ScoreRequest& c = contributes_[k];
              const auto span = ctx.span(SpanName::kGateway);
              d.gateway->contribute(c.token, c.context,
                                    contribution_[c.user].at(c.context));
              return true;
            }
          }
          return false;
        });
    for (auto& list : pending) settle(list, true);
    d.gateway->wait_idle();

    const PhaseResult cap = run_phase(
        Phase{capacity_.size(), options_.threads, {}}, tracer,
        [&](std::size_t i, OpContext& ctx) {
          ctx.set_kind(SpanName::kScore);
          int accepted = 0;
          {
            const auto span = ctx.span(SpanName::kGateway);
            accepted = score(d, batches_, capacity_[i]);
          }
          tally_.accepted[scores_.size() + i] =
              static_cast<std::uint8_t>(std::max(0, accepted));
          tally_.scored[scores_.size() + i] = kBatchWindows;
          return accepted >= 0;
        });

    Measured m = from_phase(mixed, clients);
    m.latency_ms.clear();
    for (std::size_t i = 0; i < kinds_.size(); ++i) {
      if (kinds_[i] == Kind::kScore) m.latency_ms.push_back(mixed.latency_ms[i]);
    }
    m.ops_per_s = static_cast<double>(capacity_.size()) / cap.wall_s;
    m.attempted += capacity_.size();
    m.failed += cap.failed;
    for (const auto ok : retrain_ok_) m.failed += ok ? 0 : 1;
    std::vector<double> retrain = retrain_ms_;
    std::fprintf(stderr,
                 "retrains: %zu submitted, submit to live p50 %.1f ms, p90 "
                 "%.1f ms\n",
                 retrain.size(), percentile(retrain, 0.5),
                 percentile(retrain, 0.9));
    return m;
  }

  void verify(const Inputs&, Deployment& d, const Measured& m,
              Report& report) override {
    const auto q = d.gateway->stats().queue;
    report.check(m.failed == 0, "every request and retrain succeeded");
    report.check(q.failed == 0 && q.shed == 0,
                 "retrain.failed == 0 and nothing shed");
    report.check(q.completed == q.submitted - q.coalesced,
                 "retrain.completed " + std::to_string(q.completed) +
                     " == submitted " + std::to_string(q.submitted) +
                     " - coalesced " + std::to_string(q.coalesced));
    // Versions only grow: each retrain trains a version newer than the one
    // live when it was submitted; per token, in submission order, no retrain
    // is older than the one before; and the live model is the newest.
    std::map<int, int> last;
    bool increasing = true;
    for (std::size_t k = 0; k < drifts_.size(); ++k) {
      int& seen = last[drifts_[k].first];
      increasing = increasing && retrain_version_[k] > live_at_submit_[k] &&
                   retrain_version_[k] >= seen;
      seen = std::max(seen, retrain_version_[k]);
    }
    for (const auto& [tok, version] : last) {
      increasing = increasing && d.gateway->model_version(tok) >= version;
    }
    report.check(increasing, "model versions only increase");
    report.check(tally_.accept_rate() >= kMinGenuineAccept,
                 "genuine accept rate " + std::to_string(tally_.accept_rate()));
  }

  void score_probe(const Inputs&, Deployment& d, std::size_t i) override {
    (void)score(d, batches_, capacity_[i % capacity_.size()]);
  }

 private:
  enum class Kind : std::uint8_t { kScore, kDrift, kContribute };
  /// Closed-loop paces on the reference box: two clients with the retrain
  /// load, and four clients scoring alone.
  static constexpr double kMixedPerSecond = 30000.0;
  static constexpr double kCapacityPerSecond = 50000.0;
  static constexpr double kMixedShare = 0.6;

  const Options& options_;
  std::vector<Kind> kinds_;
  std::vector<std::size_t> index_;  ///< position within the kind's own list
  std::vector<ScoreRequest> scores_, capacity_, contributes_;
  std::vector<std::pair<int, std::size_t>> drifts_;  ///< (token, user)
  std::vector<std::map<DetectedContext, Windows>> contribution_;
  Batches batches_;
  Tally tally_;
  std::vector<double> retrain_ms_;
  std::vector<int> live_at_submit_, retrain_version_;
  std::vector<std::uint8_t> retrain_ok_;
};

}  // namespace

Report run_workload(const Options& options) {
  std::unique_ptr<Workload> w;
  if (options.workload == "window_stream") {
    w = std::make_unique<WindowStream>(options);
  } else if (options.workload == "score_cold") {
    w = std::make_unique<ScoreCold>(options);
  } else if (options.workload == "enroll_burst") {
    w = std::make_unique<EnrollBurst>(options);
  } else if (options.workload == "drift_mixed") {
    w = std::make_unique<DriftMixed>(options);
  } else {
    throw std::invalid_argument("unknown workload " + options.workload);
  }
  return drive(options, *w);
}


}  // namespace ledger
