// Micro benchmarks for §V-H: the on-phone pipeline cost.
//
// The paper reports < 21 ms end-to-end (context detection + authentication)
// per 6 s window, 0.065 s training, ~3 MB memory. These benchmarks measure
// our feature extraction (one repeated window, and distinct windows cycled
// the way the ledger's window_stream replays them), the FFTs, context
// detection and decision latency, and print a memory budget for the
// resident model state.
#include <benchmark/benchmark.h>

#include <complex>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "context/context_detector.h"
#include "core/auth_model.h"
#include "core/model_store.h"
#include "features/feature_extractor.h"
#include "ml/dataset.h"
#include "sensors/device.h"
#include "sensors/population.h"
#include "signal/dft.h"
#include "util/rng.h"

using namespace sy;

namespace {

// Samples [begin, begin + n) of a recording's accelerometer and gyroscope,
// the streams auth_vectors reads.
sensors::Recording cut(const sensors::Recording& rec, std::size_t begin,
                       std::size_t n) {
  const auto slice = [&](const sensors::AxisTrace& trace) {
    sensors::AxisTrace out;
    const auto b = static_cast<std::ptrdiff_t>(begin);
    const auto e = static_cast<std::ptrdiff_t>(begin + n);
    out.x.assign(trace.x.begin() + b, trace.x.begin() + e);
    out.y.assign(trace.y.begin() + b, trace.y.begin() + e);
    out.z.assign(trace.z.begin() + b, trace.z.begin() + e);
    return out;
  };
  sensors::Recording out;
  out.sample_rate_hz = rec.sample_rate_hz;
  out.accel = slice(rec.accel);
  out.gyro = slice(rec.gyro);
  return out;
}

struct PipelineFixture {
  sensors::Population pop = sensors::Population::generate(4, 51);
  features::FeatureExtractor extractor{features::FeatureConfig{}};
  sensors::CollectedSession session;      // 60 s: the model inputs
  sensors::CollectedSession one_window;  // 6 s: exactly one auth window
  context::ContextDetector detector;
  core::AuthModel model;
  std::vector<double> window28;
  // One-window phone+watch recordings cut from held-out minutes.
  std::vector<std::pair<sensors::Recording, sensors::Recording>> distinct;

  PipelineFixture() {
    util::Rng rng(52);
    sensors::CollectorOptions collect;
    collect.with_watch = true;
    collect.bluetooth = false;
    collect.synthesis.duration_seconds = 60.0;
    session = sensors::collect_session(
        pop.user(0), sensors::UsageContext::kMoving, collect, rng);

    // Context detector from the other users.
    std::vector<std::vector<double>> ctx_x;
    std::vector<sensors::UsageContext> ctx_y;
    for (std::size_t u = 1; u < pop.size(); ++u) {
      for (const auto context : {sensors::UsageContext::kStationaryUse,
                                 sensors::UsageContext::kMoving}) {
        const auto s =
            sensors::collect_session(pop.user(u), context, collect, rng);
        for (auto& v : extractor.context_vectors(s.phone)) {
          ctx_x.push_back(std::move(v));
          ctx_y.push_back(context);
        }
      }
    }
    detector.train(ctx_x, ctx_y);

    // One per-context KRR model at the paper's N=800.
    ml::Dataset train;
    std::vector<double> x(28);
    for (int i = 0; i < 400; ++i) {
      for (auto& v : x) v = rng.gaussian(1.0, 1.0);
      train.add(x, +1);
      for (auto& v : x) v = rng.gaussian(-1.0, 1.0);
      train.add(x, -1);
    }
    ml::StandardScaler scaler;
    scaler.fit(train.x);
    ml::KrrClassifier krr{ml::KrrConfig{}};
    const auto scaled = scaler.transform(train);
    krr.fit(scaled.x, scaled.y);
    model = core::AuthModel(0, 1);
    model.set_context_model(sensors::DetectedContext::kMoving,
                            core::ContextModel(scaler, krr));
    model.set_context_model(sensors::DetectedContext::kStationary,
                            core::ContextModel(scaler, std::move(krr)));

    window28 = extractor.auth_vectors(session.phone, &*session.watch)[0];

    // Drawn last, from its own seed, so the inputs above do not change.
    util::Rng window_rng(53);
    collect.synthesis.duration_seconds = 6.0;
    one_window = sensors::collect_session(
        pop.user(0), sensors::UsageContext::kMoving, collect, window_rng);
    if (extractor.auth_vectors(one_window.phone, &*one_window.watch).size() !=
        1) {
      std::fprintf(stderr, "6 s session does not yield exactly one window\n");
      std::abort();
    }

    // Held-out minutes from their own seed, drawn after everything above:
    // every user in both raw contexts, cut into 6 s windows.
    util::Rng heldout_rng(55);
    collect.bluetooth = true;
    collect.synthesis.duration_seconds = 60.0;
    const std::size_t w = extractor.config().window.window_samples();
    for (std::size_t u = 0; u < pop.size(); ++u) {
      for (const auto context : {sensors::UsageContext::kStationaryUse,
                                 sensors::UsageContext::kMoving}) {
        const auto s = sensors::collect_session(pop.user(u), context, collect,
                                                heldout_rng);
        const std::size_t n =
            extractor.auth_vectors(s.phone, &*s.watch).size();
        for (std::size_t k = 0; k < n; ++k) {
          distinct.emplace_back(cut(s.phone, k * w, w),
                                cut(*s.watch, k * w, w));
          const auto& [phone, watch] = distinct.back();
          if (extractor.auth_vectors(phone, &watch).size() != 1) {
            std::fprintf(stderr, "a cut window does not yield one vector\n");
            std::abort();
          }
        }
      }
    }
    if (distinct.size() < 64) {
      std::fprintf(stderr, "only %zu distinct windows\n", distinct.size());
      std::abort();
    }
  }
};

PipelineFixture& fixture() {
  static PipelineFixture f;
  return f;
}

// Feature extraction for one 6 s window (both devices, Eq. 4): a 6 s
// session that yields exactly one 28-dim vector.
void BM_FeatureExtraction6sWindow(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.extractor.auth_vectors(f.one_window.phone, &*f.one_window.watch));
  }
}
BENCHMARK(BM_FeatureExtraction6sWindow)->Unit(benchmark::kMicrosecond);

// The same extraction over distinct windows (80 here: 4 users x 2 contexts
// x one held-out minute), cycled like the ledger's window_stream replay.
// Unlike the repeated window above, it is not helped by branch history
// learned on one input (libm's hypot branches on its arguments) or by
// inputs that stay in cache.
void BM_FeatureExtractionDistinctWindows(benchmark::State& state) {
  auto& f = fixture();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [phone, watch] = f.distinct[i];
    benchmark::DoNotOptimize(f.extractor.auth_vectors(phone, &watch));
    i = i + 1 == f.distinct.size() ? 0 : i + 1;
  }
}
BENCHMARK(BM_FeatureExtractionDistinctWindows)->Unit(benchmark::kMicrosecond);

// One 512-point FFT: a 300-sample window zero-padded to 512, the transform
// each stream of a window runs (four per phone+watch window). The copy of
// the 8 KiB input is inside the timed loop.
void BM_Fft512(benchmark::State& state) {
  util::Rng rng(54);
  std::vector<std::complex<double>> input(512);
  for (std::size_t i = 0; i < 300; ++i) input[i] = {rng.gaussian(), 0.0};
  std::vector<std::complex<double>> buf(input.size());
  for (auto _ : state) {
    buf = input;
    signal::fft_radix2(buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_Fft512)->Unit(benchmark::kMicrosecond);

// Four 512-point FFTs in lockstep: a phone+watch window's four streams,
// each a 300-sample window zero-padded to 512, as the feature extractor
// runs them. The copy of the 32 KiB input is inside the timed loop.
void BM_Fft512Lanes4(benchmark::State& state) {
  util::Rng rng(56);
  std::vector<double> input(2 * 4 * 512, 0.0);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t l = 0; l < 4; ++l) input[8 * i + l] = rng.gaussian();
  }
  std::vector<double> buf(input.size());
  for (auto _ : state) {
    buf = input;
    signal::fft_radix2_lanes<4>(buf);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Fft512Lanes4)->Unit(benchmark::kMicrosecond);

// Context detection per window (paper: < 3 ms).
void BM_ContextDetection(benchmark::State& state) {
  auto& f = fixture();
  const std::span<const double> phone(f.window28.data(), 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.detector.detect(phone));
  }
}
BENCHMARK(BM_ContextDetection)->Unit(benchmark::kMicrosecond);

// Authentication decision per window at N=800 (paper: 18 ms).
void BM_AuthDecision(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.model.score(sensors::DetectedContext::kMoving, f.window28));
  }
}
BENCHMARK(BM_AuthDecision)->Unit(benchmark::kMicrosecond);

// End-to-end: context detection + model selection + decision (paper: <21 ms).
void BM_EndToEndWindow(benchmark::State& state) {
  auto& f = fixture();
  const std::span<const double> phone(f.window28.data(), 14);
  for (auto _ : state) {
    const auto context = f.detector.detect(phone);
    benchmark::DoNotOptimize(f.model.score(context, f.window28));
  }
}
BENCHMARK(BM_EndToEndWindow)->Unit(benchmark::kMicrosecond);

// Signal synthesis throughput (substrate cost, not a paper number).
void BM_SynthesizeOneMinuteSession(benchmark::State& state) {
  auto& f = fixture();
  util::Rng rng(99);
  sensors::CollectorOptions collect;
  collect.with_watch = true;
  collect.bluetooth = true;
  collect.synthesis.duration_seconds = 60.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sensors::collect_session(
        f.pop.user(0), sensors::UsageContext::kMoving, collect, rng));
  }
}
BENCHMARK(BM_SynthesizeOneMinuteSession)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Memory budget of the resident state (paper §V-H2 reports ~3 MB).
  {
    auto& f = fixture();
    const auto bytes = core::ModelStore::serialize(f.model);
    const std::size_t buffer_bytes =
        300 /*samples*/ * 4 /*streams*/ * 3 /*axes*/ * sizeof(double);
    std::printf(
        "Resident memory budget: model bundle %.1f KB + 6 s raw buffer "
        "%.1f KB (paper ~3 MB including runtime)\n\n",
        static_cast<double>(bytes.size()) / 1024.0,
        static_cast<double>(buffer_bytes) / 1024.0);
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
