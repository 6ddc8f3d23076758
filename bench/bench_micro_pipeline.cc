// Micro benchmarks for §V-H: the on-phone pipeline cost.
//
// The paper reports < 21 ms end-to-end (context detection + authentication)
// per 6 s window, 0.065 s training, ~3 MB memory. These benchmarks measure
// our feature extraction, one FFT, context detection and decision latency,
// and print a memory budget for the resident model state.
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

struct PipelineFixture {
  sensors::Population pop = sensors::Population::generate(4, 51);
  features::FeatureExtractor extractor{features::FeatureConfig{}};
  sensors::CollectedSession session;      // 60 s: the model inputs
  sensors::CollectedSession one_window;  // 6 s: exactly one auth window
  context::ContextDetector detector;
  core::AuthModel model;
  std::vector<double> window28;

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
