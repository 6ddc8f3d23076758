// Population-scale serving load on serve::AuthGateway: enroll a large
// synthetic population (default 100k users), then drive a Poisson-arrival
// scoring load with a skewed (hot-set) user popularity, occasional drift
// reports feeding the async RetrainQueue, and a bounded ModelCache backed by
// persisted ModelStore bundles — far more users than fit in the cache.
//
// Flags (also settable via SY_<KEY> env, see util/args.h):
//   --users=N --contributors=N --windows=N --dim=N --events=N
//   --shards=N --threads=N --cache-mb=N --rate=HZ --drift-prob=P
//   --hot-fraction=P --hot-mass=P --seed=N --model-dir=PATH --keep-models
//   --backend=scalar|avx2|avx512|auto (num:: dispatch path; default process-wide)
//   --mode=exact|nystrom|rff (KRR training mode for enrollment and drift
//     retrains; recorded as "training_mode" in the JSON summary so
//     bench_compare.py refuses to diff runs of different modes)
//   --persist-dir=PATH (population snapshot+log durability; after the run
//     the gateway is destroyed and reconstructed so the JSON summary records
//     restart-recovery timing) --persist-sync=N (fsync cadence, 0 = only at
//     compaction) --recover-only (skip the load: just recover from
//     --persist-dir/--model-dir and report — the CI crash/restart step runs
//     this after SIGKILLing a mid-run instance)
//   --enroll-heavy (standalone preset: alternating contribute/snapshot on a
//     ShardedPopulationStore — the per-enroll pattern that used to be
//     O(users²). Measures the incremental rebuild against a sampled
//     estimate of the pre-incremental full re-merge and gates on >= 10x
//     plus buckets-copied-per-rebuild tracking the per-iteration delta)
//   --deadline-ms=D (score through score_batch_within with a D ms budget:
//     requests the admission gate cannot serve in time shed with a typed
//     OverloadError instead of queuing) --max-concurrent=N (admission bound
//     on concurrent scoring; 0 = unbounded)
//   --smoke (tiny preset for CI) --json=PATH (machine-readable summary)
//   --metrics-table (print the gateway's obs registry as fixed-width tables)
//   --metrics-flush-ms=N (run an obs::PeriodicFlusher during the scoring
//     phase, rendering a live metrics table to stderr every N ms)
//
// Latency percentiles come from the gateway's own obs histograms
// (gateway.score_ns / gateway.enroll_ns), not a bench-side timing vector:
// the artifact reports what the serving stack measured about itself, and the
// full registry snapshot is embedded in the JSON under "metrics".
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "num/backend.h"
#include "obs/flusher.h"
#include "obs/registry.h"
#include "serve/auth_gateway.h"
#include "serve/resilience.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace sy;

namespace {

std::vector<std::vector<double>> user_windows(int user, std::size_t n,
                                              std::size_t dim,
                                              std::uint64_t seed) {
  // Per-user Gaussian cloud around a stable per-user center: enough
  // structure for KRR to separate users, cheap enough for 100k of them.
  util::Rng center_rng(9000 + static_cast<std::uint64_t>(user));
  std::vector<double> center(dim);
  for (auto& c : center) c = center_rng.uniform(-2.0, 2.0);
  util::Rng rng(seed);
  std::vector<std::vector<double>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> v(dim);
    for (std::size_t d = 0; d < dim; ++d) v[d] = rng.gaussian(center[d], 0.6);
    out.push_back(std::move(v));
  }
  return out;
}

// Histogram percentiles are nanoseconds; the artifact reports milliseconds.
double hist_ms(const obs::Snapshot& metrics, const std::string& name,
               double p) {
  const auto it = metrics.histograms.find(name);
  if (it == metrics.histograms.end()) return 0.0;
  return static_cast<double>(it->second.percentile(p)) / 1e6;
}

double hist_max_ms(const obs::Snapshot& metrics, const std::string& name) {
  const auto it = metrics.histograms.find(name);
  if (it == metrics.histograms.end()) return 0.0;
  return static_cast<double>(it->second.max) / 1e6;
}

// --enroll-heavy: the pathological pre-incremental pattern — every user
// contributes and the merged snapshot is taken right after (what per-enroll
// contribution does at the gateway). Rebuild work must track the delta (one
// contribution => one re-merged bucket) and beat a full deep re-merge by
// >= 10x end to end. Returns the process exit code.
int run_enroll_heavy(std::size_t n_users, std::size_t windows, std::size_t dim,
                     std::size_t shards, std::uint64_t seed,
                     const std::string& backend,
                     const std::string& json_path) {
  constexpr std::size_t kContexts = 2;  // kStationary / kMoving
  serve::ShardedPopulationStore store(shards);

  std::printf(
      "enroll-heavy — %zu users x %zu vectors x %zu dims over %zu shards, "
      "%zu contexts, alternating contribute/snapshot\n",
      n_users, windows, dim, shards, kContexts);

  // The pre-incremental rebuild deep-copied every stored vector into a
  // fresh map. Re-timing that exact work on sampled iterations (cost grows
  // linearly with the store, so evenly spaced samples scale to the total)
  // gives the baseline without keeping the old code around.
  const std::size_t sample_every = std::max<std::size_t>(1, n_users / 64);
  double incremental_s = 0.0;
  double full_estimate_s = 0.0;
  std::size_t deep_sink = 0;
  std::uint64_t max_copied_per_rebuild = 0;
  auto prev = store.stats();
  util::Stopwatch timer;
  for (std::size_t u = 0; u < n_users; ++u) {
    const auto context = u % kContexts == 0
                             ? sensors::DetectedContext::kStationary
                             : sensors::DetectedContext::kMoving;
    const auto vectors =
        user_windows(static_cast<int>(u), windows, dim, seed + 13 * u);
    timer.reset();
    store.contribute(static_cast<int>(u), context, vectors);
    const auto snapshot = store.snapshot();
    incremental_s += timer.elapsed_seconds();

    const auto now = store.stats();
    max_copied_per_rebuild =
        std::max(max_copied_per_rebuild,
                 now.snapshot_buckets_copied - prev.snapshot_buckets_copied);
    prev = now;

    if (u % sample_every == 0) {
      timer.reset();
      std::map<sensors::DetectedContext, std::vector<core::StoredVector>>
          deep;
      for (const auto& [ctx, bucket] : *snapshot) {
        auto& out = deep[ctx];
        out.reserve(bucket.size());
        for (const auto& sv : bucket) out.push_back(sv);
        deep_sink += out.size();
      }
      full_estimate_s +=
          timer.elapsed_seconds() * static_cast<double>(sample_every);
    }
  }

  const auto stats = store.stats();
  const double copied_avg =
      static_cast<double>(stats.snapshot_buckets_copied) /
      static_cast<double>(std::max<std::uint64_t>(1, stats.snapshot_rebuilds));
  const double speedup =
      incremental_s > 0.0 ? full_estimate_s / incremental_s : 0.0;
  std::printf(
      "rebuilds:   %llu (%llu buckets copied, %llu shared; avg %.2f, max "
      "%llu copied per rebuild)\n",
      static_cast<unsigned long long>(stats.snapshot_rebuilds),
      static_cast<unsigned long long>(stats.snapshot_buckets_copied),
      static_cast<unsigned long long>(stats.snapshot_buckets_shared),
      copied_avg, static_cast<unsigned long long>(max_copied_per_rebuild));
  std::printf(
      "wall-clock: incremental %.3f s vs full re-merge %.3f s (estimated; "
      "%zu elements deep-copied across samples) — %.1fx\n",
      incremental_s, full_estimate_s, deep_sink, speedup);

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::fprintf(stderr, "bench_serving: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    json << "{\n"
         << "  \"bench\": \"bench_serving\",\n"
         << "  \"mode\": \"enroll-heavy\",\n"
         << "  \"backend\": \"" << backend << "\",\n"
         << "  \"enroll_heavy\": {\"users\": " << n_users
         << ", \"contexts\": " << kContexts
         << ", \"vectors_per_contribution\": " << windows
         << ", \"shards\": " << shards
         << ",\n    \"incremental_seconds\": " << incremental_s
         << ", \"full_remerge_seconds_estimated\": " << full_estimate_s
         << ", \"speedup_vs_full_remerge\": " << speedup
         << ",\n    \"rebuilds\": " << stats.snapshot_rebuilds
         << ", \"buckets_copied\": " << stats.snapshot_buckets_copied
         << ", \"buckets_shared\": " << stats.snapshot_buckets_shared
         << ", \"buckets_copied_per_rebuild_avg\": " << copied_avg
         << ", \"buckets_copied_per_rebuild_max\": " << max_copied_per_rebuild
         << "}\n"
         << "}\n";
    std::printf("json:       wrote %s\n", json_path.c_str());
  }

  // Gates. One contribution lands between consecutive snapshots, so every
  // rebuild must re-merge exactly one bucket — a max above 1 means rebuild
  // work scales with something other than the delta.
  if (max_copied_per_rebuild > 1) {
    std::printf(
        "FAIL: a rebuild copied %llu buckets for a 1-contribution delta\n",
        static_cast<unsigned long long>(max_copied_per_rebuild));
    return 1;
  }
  if (speedup < 10.0) {
    std::printf("FAIL: incremental rebuild only %.1fx over full re-merge "
                "(gate: 10x)\n",
                speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int run(int argc, char** argv);

int main(int argc, char** argv) {
  // Line-buffer even when redirected: the CI crash/recovery step tails the
  // log to decide when to SIGKILL a mid-run instance, so phase markers must
  // appear as they happen, not at exit.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serving: %s\n", e.what());
    return 1;
  }
}

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bool smoke = args.get_flag("smoke");

  const auto n_users = static_cast<std::size_t>(
      args.get_int("users", smoke ? 2000 : 100000));
  const auto n_contributors = static_cast<std::size_t>(
      args.get_int("contributors", smoke ? 200 : 1000));
  const auto windows = static_cast<std::size_t>(args.get_int("windows", 8));
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 14));
  const auto events = static_cast<std::size_t>(
      args.get_int("events", smoke ? 5000 : 200000));
  const auto shards = static_cast<std::size_t>(args.get_int("shards", 64));
  const auto threads = static_cast<unsigned>(args.get_int("threads", 0));
  const auto cache_mb = static_cast<std::size_t>(
      args.get_int("cache-mb", smoke ? 2 : 64));
  const double rate_hz = args.get_double("rate", 2000.0);
  const double drift_prob = args.get_double("drift-prob", 0.0005);
  const double hot_fraction = args.get_double("hot-fraction", 0.1);
  const double hot_mass = args.get_double("hot-mass", 0.8);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));
  const std::string json_path = args.get("json", "");
  const std::string persist_dir = args.get("persist-dir", "");
  const auto persist_sync =
      static_cast<std::size_t>(args.get_int("persist-sync", 0));
  const bool recover_only = args.get_flag("recover-only");
  if (recover_only && persist_dir.empty()) {
    std::fprintf(stderr, "bench_serving: --recover-only needs --persist-dir\n");
    return 1;
  }
  const double deadline_ms = args.get_double("deadline-ms", 0.0);
  const auto max_concurrent =
      static_cast<std::size_t>(args.get_int("max-concurrent", 0));

  const std::string backend_flag = args.get("backend", "");
  if (!backend_flag.empty()) {
    const auto parsed = num::parse_backend(backend_flag);
    if (!parsed) {
      std::fprintf(stderr, "bench_serving: unknown --backend=%s\n",
                   backend_flag.c_str());
      return 1;
    }
    // set_backend throws when the CPU cannot run the requested backend;
    // run() is wrapped in a try/catch in main that prints and exits 1.
    num::set_backend(*parsed);
  }
  const std::string backend{num::backend_name(num::active_backend())};

  const std::string mode_flag = args.get("mode", "exact");
  const auto training_mode = ml::parse_training_mode(mode_flag);
  if (!training_mode) {
    std::fprintf(stderr, "bench_serving: unknown --mode=%s\n",
                 mode_flag.c_str());
    return 1;
  }
  const std::string training_mode_name = ml::to_string(*training_mode);

  if (args.get_flag("enroll-heavy")) {
    // Standalone store-level preset; --users re-defaults to the gate's 10k.
    const auto eh_users = static_cast<std::size_t>(
        args.get_int("users", smoke ? 2000 : 10000));
    return run_enroll_heavy(eh_users, windows, dim, shards, seed, backend,
                            json_path);
  }

  std::string model_dir = args.get("model-dir", "");
  const bool own_model_dir = model_dir.empty();
  if (own_model_dir) {
    model_dir = (std::filesystem::temp_directory_path() /
                 ("sy_bench_serving_" + std::to_string(seed)))
                    .string();
  }
  std::filesystem::create_directories(model_dir);
  // Remove an owned temp dir on EVERY exit path (including early failure
  // returns and exceptions) — a failed 100k-user run must not leave
  // gigabytes of bundles behind.
  struct DirCleanup {
    std::string dir;
    bool active;
    ~DirCleanup() {
      if (!active) return;
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{model_dir, own_model_dir && !args.get_flag("keep-models")};

  util::ThreadPool pool(threads);
  serve::GatewayConfig config;
  config.shards = shards;
  config.cache_bytes = cache_mb << 20;
  config.model_dir = model_dir;
  config.persist_dir = persist_dir;
  config.persist_sync_every = persist_sync;
  config.training.krr.mode = *training_mode;
  config.admission.max_concurrent = max_concurrent;

  // In an optional so the persistence path can destroy and reconstruct the
  // gateway to measure restart recovery in-process.
  util::Stopwatch construct_timer;
  std::optional<serve::AuthGateway> gateway;
  gateway.emplace(config, &pool);
  const double startup_recover_s = construct_timer.elapsed_seconds();

  if (recover_only) {
    const auto stats = gateway->stats();
    const auto& pop = gateway->population_recovery();
    const auto recovered_vectors =
        pop.snapshot_vectors + pop.replayed_vectors;
    std::printf(
        "recover-only: %zu users, %llu population vectors (%llu replayed "
        "log records, %zu torn tails dropped) in %.3f s\n",
        stats.recovered_users,
        static_cast<unsigned long long>(recovered_vectors),
        static_cast<unsigned long long>(pop.replayed_records),
        pop.torn_tails_dropped, startup_recover_s);
    // Self-check: a recovered user's bundle actually scores.
    if (stats.recovered_users > 0) {
      const auto own = gateway->score_batch(
          0, sensors::DetectedContext::kStationary,
          user_windows(0, 10, dim, seed + 99));
      std::size_t accepted = 0;
      for (const auto& d : own) accepted += d.accepted ? 1u : 0u;
      std::printf("recover-only: user 0 accepts %zu/10 own windows\n",
                  accepted);
    }
    if (!json_path.empty()) {
      std::ofstream json(json_path);
      if (!json) {
        std::fprintf(stderr, "bench_serving: cannot write %s\n",
                     json_path.c_str());
        return 1;
      }
      json << "{\n"
           << "  \"bench\": \"bench_serving\",\n"
           << "  \"mode\": \"recover-only\",\n"
           << "  \"backend\": \"" << backend << "\",\n"
           << "  \"training_mode\": \"" << training_mode_name << "\",\n"
           << "  \"recovery\": {\"seconds\": " << startup_recover_s
           << ", \"recovered_users\": " << stats.recovered_users
           << ", \"recovered_vectors\": " << recovered_vectors
           << ", \"replayed_records\": " << pop.replayed_records
           << ", \"torn_tails_dropped\": " << pop.torn_tails_dropped
           << "},\n"
           << "  \"metrics\":\n"
           << obs::to_json(gateway->metrics().snapshot(), 2) << "\n"
           << "}\n";
      std::printf("json:       wrote %s\n", json_path.c_str());
    }
    return stats.recovered_users > 0 ? 0 : 1;
  }

  std::printf(
      "bench_serving — %zu users (%zu contributors) x %zu windows x %zu dims, "
      "%zu shards, %u pool workers, %zu MB cache, %s kernels, %s training\n",
      n_users, n_contributors, windows, dim, shards, pool.size(), cache_mb,
      backend.c_str(), training_mode_name.c_str());

  // --- Phase 1: population contribution (concurrent, sharded) -------------
  util::Stopwatch timer;
  pool.parallel_for(n_contributors, [&](std::size_t u) {
    gateway->contribute(static_cast<int>(u),
                       sensors::DetectedContext::kStationary,
                       user_windows(static_cast<int>(u), windows, dim,
                                    seed + 13 * u));
  });
  const double contribute_s = timer.elapsed_seconds();

  // --- Phase 2: mass enrollment (one snapshot, trained in parallel) -------
  timer.reset();
  pool.parallel_for(n_users, [&](std::size_t u) {
    core::VectorsByContext positives;
    positives[sensors::DetectedContext::kStationary] =
        user_windows(static_cast<int>(u), windows, dim, seed + 13 * u);
    // Contributors already fed the anonymized store in phase 1.
    (void)gateway->enroll(static_cast<int>(u), positives, seed + 17 * u + 1,
                         /*contribute_positives=*/false);
  });
  const double enroll_s = timer.elapsed_seconds();
  std::printf("contribute: %.2f s   enroll: %.2f s (%.0f users/s)\n",
              contribute_s, enroll_s,
              static_cast<double>(n_users) / enroll_s);

  // Self-check: an enrolled user's own windows are overwhelmingly accepted.
  {
    const auto own = gateway->score_batch(
        0, sensors::DetectedContext::kStationary,
        user_windows(0, 50, dim, seed + 99));
    std::size_t accepted = 0;
    for (const auto& d : own) accepted += d.accepted ? 1u : 0u;
    std::printf("self-check: owner accept rate %.0f%%\n",
                100.0 * static_cast<double>(accepted) / 50.0);
    if (accepted < 35) {
      std::printf("FAIL: enrolled model does not accept its own user\n");
      return 1;
    }
  }

  // --- Phase 3: Poisson-arrival scoring load ------------------------------
  // Arrival sequence drawn up front (one RNG => deterministic): exponential
  // interarrivals at `rate`, user popularity skewed so `hot_mass` of the
  // traffic hits the first `hot_fraction` of users — the regime where an
  // LRU cache earns its keep.
  struct Event {
    int user;
    bool drift;
  };
  std::vector<Event> arrivals(events);
  double sim_clock_s = 0.0;
  {
    util::Rng rng(seed + 1000003);
    const auto hot_users = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(n_users) *
                                    hot_fraction));
    for (auto& event : arrivals) {
      sim_clock_s += rng.exponential(rate_hz);
      const bool hot = rng.uniform() < hot_mass;
      const auto span = hot ? hot_users : n_users;
      event.user = static_cast<int>(rng.uniform_int(
          0, static_cast<int>(span) - 1));
      event.drift = rng.uniform() < drift_prob;
    }
  }

  // Live metrics export while the load runs, when asked: every period the
  // flusher snapshots the gateway registry and renders it to stderr. Must be
  // torn down before the gateway (phase 4 reconstructs it).
  const auto metrics_flush_ms = args.get_int("metrics-flush-ms", 0);
  std::optional<obs::PeriodicFlusher> flusher;
  if (metrics_flush_ms > 0) {
    flusher.emplace(gateway->metrics(),
                    std::chrono::milliseconds(metrics_flush_ms),
                    [](const obs::Snapshot& snap) {
                      std::fputs(obs::render_table(snap).c_str(), stderr);
                    });
  }

  constexpr std::size_t kEventWindows = 4;
  std::vector<std::uint8_t> accepted_flags(events, 0);
  std::atomic<std::uint64_t> shed_requests{0};
  timer.reset();
  pool.parallel_for(events, [&](std::size_t i) {
    const Event& event = arrivals[i];
    // Synthetic payloads are generated up front; the per-request latency in
    // the JSON artifact comes from the gateway's own gateway.score_ns
    // histogram, which times score_batch() and nothing else — not the
    // benchmark's RNG work, not the drift submit.
    core::VectorsByContext drift_upload;
    if (event.drift) {
      drift_upload[sensors::DetectedContext::kStationary] =
          user_windows(event.user, windows, dim, seed + 31 * i);
    }
    const auto score_windows =
        user_windows(event.user, kEventWindows, dim, seed + 41 * i);

    if (event.drift) {
      // Fire-and-forget: the completion future is the RetrainQueue's
      // concern; scoring continues on the old model.
      (void)gateway->report_drift(event.user, std::move(drift_upload),
                                 seed + 37 * i);
    }
    try {
      const auto decisions =
          deadline_ms > 0.0
              ? gateway->score_batch_within(
                    event.user, sensors::DetectedContext::kStationary,
                    score_windows,
                    gateway->now_ns() +
                        static_cast<std::int64_t>(deadline_ms * 1e6))
              : gateway->score_batch(event.user,
                                     sensors::DetectedContext::kStationary,
                                     score_windows);
      std::size_t ok = 0;
      for (const auto& d : decisions) ok += d.accepted ? 1u : 0u;
      accepted_flags[i] = ok >= kEventWindows / 2 ? 1 : 0;
    } catch (const serve::OverloadError&) {
      // Admission control turned the request away (saturated or past its
      // deadline budget) — by design, instead of queuing.
      shed_requests.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const double score_s = timer.elapsed_seconds();
  gateway->wait_idle();  // drain in-flight drift retrains
  const double drain_s = timer.elapsed_seconds() - score_s;
  if (flusher.has_value()) {
    flusher->stop();  // final flush, then detach from the registry
    std::printf("metrics:    %llu periodic flushes\n",
                static_cast<unsigned long long>(flusher->flushes()));
    flusher.reset();
  }

  // --- Phase 4 (persistence only): restart recovery -----------------------
  // Destroy the gateway and build a fresh one against the same directories:
  // the reconstruction replays shard snapshots + logs and rescans the
  // bundle headers — the cold-start cost a real crash would pay. Stats and
  // the metrics snapshot are captured FIRST: the registry dies with the
  // gateway.
  const auto stats = gateway->stats();
  const obs::Snapshot metrics = gateway->metrics().snapshot();
  const double degraded_s =
      static_cast<double>(gateway->persistence_breaker().degraded_ns()) / 1e9;
  double recover_s = 0.0;
  std::size_t recovered_users = 0;
  std::uint64_t recovered_vectors = 0;
  std::uint64_t replayed_records = 0;
  if (!persist_dir.empty()) {
    gateway.reset();
    util::Stopwatch recover_timer;
    gateway.emplace(config, &pool);
    recover_s = recover_timer.elapsed_seconds();
    const auto restarted = gateway->stats();
    const auto& pop = gateway->population_recovery();
    recovered_users = restarted.recovered_users;
    recovered_vectors = pop.snapshot_vectors + pop.replayed_vectors;
    replayed_records = pop.replayed_records;
    std::printf(
        "recovery:   restart recovered %zu users, %llu population vectors "
        "(%llu replayed log records) in %.3f s\n",
        recovered_users, static_cast<unsigned long long>(recovered_vectors),
        static_cast<unsigned long long>(replayed_records), recover_s);
  }
  // Score/enroll percentiles from the gateway's own histograms (zero when
  // instrumentation is compiled out or disabled via SY_OBS_OFF).
  const double p50 = hist_ms(metrics, "gateway.score_ns", 0.50);
  const double p95 = hist_ms(metrics, "gateway.score_ns", 0.95);
  const double p99 = hist_ms(metrics, "gateway.score_ns", 0.99);
  const double lat_max = hist_max_ms(metrics, "gateway.score_ns");
  const double enroll_p50 = hist_ms(metrics, "gateway.enroll_ns", 0.50);
  const double enroll_p95 = hist_ms(metrics, "gateway.enroll_ns", 0.95);
  const double enroll_p99 = hist_ms(metrics, "gateway.enroll_ns", 0.99);
  const double enroll_max = hist_max_ms(metrics, "gateway.enroll_ns");
  const double events_per_s = static_cast<double>(events) / score_s;
  const double hit_rate =
      static_cast<double>(stats.cache.hits) /
      static_cast<double>(std::max<std::uint64_t>(
          1, stats.cache.hits + stats.cache.misses));
  std::size_t accepted_events = 0;
  for (const auto flag : accepted_flags) accepted_events += flag;

  std::printf(
      "scoring:    %zu events in %.2f s (%.0f events/s, offered %.0f/s over "
      "%.1f s simulated)\n",
      events, score_s, events_per_s, rate_hz, sim_clock_s);
  std::printf(
      "latency:    score p50 %.3f ms   p95 %.3f ms   p99 %.3f ms   "
      "(enroll p50 %.3f ms p99 %.3f ms)\n",
      p50, p95, p99, enroll_p50, enroll_p99);
  std::printf("accepted:   %.1f%% of events\n",
              100.0 * static_cast<double>(accepted_events) /
                  static_cast<double>(events));
  std::printf(
      "cache:      %llu hits / %llu misses (%.1f%% hit), %llu evictions, "
      "%llu reloads, %zu resident (%zu KB)\n",
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.misses), 100.0 * hit_rate,
      static_cast<unsigned long long>(stats.cache.evictions),
      static_cast<unsigned long long>(stats.cache.loads), stats.cache.entries,
      stats.cache.bytes >> 10);
  std::printf(
      "retrains:   %llu reported, %llu coalesced, %llu completed "
      "(drained in %.2f s)\n",
      static_cast<unsigned long long>(stats.queue.submitted),
      static_cast<unsigned long long>(stats.queue.coalesced),
      static_cast<unsigned long long>(stats.queue.completed), drain_s);
  std::printf("store:      %llu contributions, %llu snapshot rebuilds\n",
              static_cast<unsigned long long>(stats.store.contributions),
              static_cast<unsigned long long>(stats.store.snapshot_rebuilds));
  if (max_concurrent > 0 || deadline_ms > 0.0) {
    const auto breaker_opens = [&metrics] {
      const auto it = metrics.counters.find("gateway.breaker.opens");
      return it == metrics.counters.end() ? std::uint64_t{0} : it->second;
    }();
    std::printf(
        "resilience: %llu shed (degraded %.3f s, %llu breaker opens)\n",
        static_cast<unsigned long long>(shed_requests.load()), degraded_s, static_cast<unsigned long long>(breaker_opens));
  }

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::fprintf(stderr, "bench_serving: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    json << "{\n"
         << "  \"bench\": \"bench_serving\",\n"
         << "  \"backend\": \"" << backend << "\",\n"
         << "  \"training_mode\": \"" << training_mode_name << "\",\n"
         << "  \"users\": " << n_users << ",\n"
         << "  \"contributors\": " << n_contributors << ",\n"
         << "  \"events\": " << events << ",\n"
         << "  \"shards\": " << shards << ",\n"
         << "  \"threads\": " << pool.size() << ",\n"
         << "  \"cache_mb\": " << cache_mb << ",\n"
         << "  \"enroll_seconds\": " << enroll_s << ",\n"
         << "  \"enroll_users_per_second\": "
         << static_cast<double>(n_users) / enroll_s << ",\n"
         << "  \"score_seconds\": " << score_s << ",\n"
         << "  \"events_per_second\": " << events_per_s << ",\n"
         << "  \"shed_requests\": " << shed_requests.load() << ",\n"
         << "  \"degraded_seconds\": " << degraded_s << ",\n"
         << "  \"latency_ms\": {\"p50\": " << p50 << ", \"p95\": " << p95
         << ", \"p99\": " << p99 << ", \"max\": " << lat_max << "},\n"
         << "  \"enroll_latency_ms\": {\"p50\": " << enroll_p50
         << ", \"p95\": " << enroll_p95 << ", \"p99\": " << enroll_p99
         << ", \"max\": " << enroll_max << "},\n"
         << "  \"cache\": {\"hits\": " << stats.cache.hits
         << ", \"misses\": " << stats.cache.misses
         << ", \"evictions\": " << stats.cache.evictions
         << ", \"loads\": " << stats.cache.loads
         << ", \"hit_rate\": " << hit_rate << "},\n"
         << "  \"retrains\": {\"submitted\": " << stats.queue.submitted
         << ", \"coalesced\": " << stats.queue.coalesced
         << ", \"completed\": " << stats.queue.completed
         << ", \"failed\": " << stats.queue.failed << "},\n"
         << "  \"store\": {\"contributions\": " << stats.store.contributions
         << ", \"snapshot_rebuilds\": " << stats.store.snapshot_rebuilds
         << ", \"log_records\": " << stats.store.log_records
         << ", \"log_compactions\": " << stats.store.log_compactions
         << "},\n"
         << "  \"persist\": {\"enabled\": "
         << (persist_dir.empty() ? "false" : "true")
         << ", \"recovery_seconds\": " << recover_s
         << ", \"recovered_users\": " << recovered_users
         << ", \"recovered_vectors\": " << recovered_vectors
         << ", \"replayed_records\": " << replayed_records << "},\n"
         << "  \"metrics\":\n"
         << obs::to_json(metrics, 2) << "\n"
         << "}\n";
    std::printf("json:       wrote %s\n", json_path.c_str());
  }

  if (args.get_flag("metrics-table")) {
    std::fputs(obs::render_table(metrics).c_str(), stdout);
  }

  // Regression gates for CI: every event must have been served, drift
  // retrains must all have completed (none stuck, none failed), and a
  // persistent run must recover every enrolled user after the restart.
  if (stats.queue.failed != 0) {
    std::printf("FAIL: %llu retrain jobs failed\n",
                static_cast<unsigned long long>(stats.queue.failed));
    return 1;
  }
  if (!persist_dir.empty() && recovered_users != n_users) {
    std::printf("FAIL: restart recovered %zu of %zu users\n", recovered_users,
                n_users);
    return 1;
  }
  return 0;
}
