#include "features/feature_extractor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <string>
#include <thread>

#include "sensors/motion_model.h"
#include "sensors/population.h"
#include "signal/dft.h"
#include "signal/spectrum.h"
#include "signal/stats.h"

namespace sy::features {
namespace {

using std::numbers::pi;

std::vector<double> tone(std::size_t n, double freq, double rate, double amp,
                         double offset) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = offset + amp * std::sin(2.0 * pi * freq * static_cast<double>(i) / rate);
  }
  return x;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// --- Frozen per-stream extractor -------------------------------------------
//
// A copy of the extractor as it was before windows were extracted four at a
// time: one window at a time through the library's pinned RunningStats,
// magnitude_spectrum and find_peaks. The library must keep its bits.

StreamFeatures frozen_window_features(const FeatureConfig& config,
                                      std::span<const double> window) {
  StreamFeatures f;
  signal::RunningStats stats;
  for (const double v : window) stats.add(v);
  f.mean = stats.mean();
  f.var = stats.variance();
  f.max = stats.max();
  f.min = stats.min();
  f.ran = stats.range();

  std::vector<double> buf;
  buf.reserve(window.size());
  const double dc = config.remove_dc ? f.mean : 0.0;
  for (const double v : window) buf.push_back(v - dc);

  std::size_t padded = buf.size();
  if (config.pad_to_pow2 && !signal::is_power_of_two(padded)) {
    std::size_t p = 1;
    while (p < buf.size()) p <<= 1;
    padded = p;
    buf.resize(padded, 0.0);
  }

  const auto mag = signal::magnitude_spectrum(buf);
  auto peaks = signal::find_peaks(mag, padded, config.window.sample_rate_hz,
                                  config.peak_guard_hz);
  const double rescale =
      static_cast<double>(padded) / static_cast<double>(window.size());
  f.peak = peaks.peak_amplitude * rescale;
  f.peak_f = peaks.peak_frequency_hz;
  f.peak2 = peaks.peak2_amplitude * rescale;
  f.peak2_f = peaks.peak2_frequency_hz;
  return f;
}

std::vector<StreamFeatures> frozen_stream_features(
    const FeatureConfig& config, std::span<const double> samples) {
  const std::size_t w = config.window.window_samples();
  const std::size_t h = config.window.hop_samples();
  std::vector<StreamFeatures> out;
  if (samples.size() < w) return out;
  for (std::size_t start = 0; start + w <= samples.size(); start += h) {
    out.push_back(frozen_window_features(config, samples.subspan(start, w)));
  }
  return out;
}

std::vector<std::vector<double>> frozen_auth_vectors(
    const FeatureConfig& config, const sensors::Recording& phone,
    const sensors::Recording* watch) {
  std::vector<std::vector<StreamFeatures>> streams;
  streams.push_back(frozen_stream_features(config, phone.accel.magnitude()));
  streams.push_back(frozen_stream_features(config, phone.gyro.magnitude()));
  if (watch != nullptr) {
    streams.push_back(frozen_stream_features(config, watch->accel.magnitude()));
    streams.push_back(frozen_stream_features(config, watch->gyro.magnitude()));
  }
  std::size_t n = std::numeric_limits<std::size_t>::max();
  for (const auto& s : streams) n = std::min(n, s.size());
  std::vector<std::vector<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    for (const auto& s : streams) {
      for (const FeatureId id : kSelectedFeatures) {
        out[k].push_back(s[k].get(id));
      }
    }
  }
  return out;
}

// Counts features that differ from the frozen copy in any bit.
std::size_t feature_bit_mismatches(const std::vector<StreamFeatures>& got,
                                   const std::vector<StreamFeatures>& want) {
  EXPECT_EQ(got.size(), want.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    for (const FeatureId id : kAllFeatures) {
      if (bits(got[i].get(id)) != bits(want[i].get(id))) ++bad;
    }
  }
  return bad;
}

std::size_t row_bit_mismatches(const std::vector<std::vector<double>>& got,
                               const std::vector<std::vector<double>>& want) {
  EXPECT_EQ(got.size(), want.size());
  std::size_t bad = 0;
  for (std::size_t k = 0; k < std::min(got.size(), want.size()); ++k) {
    EXPECT_EQ(got[k].size(), want[k].size());
    for (std::size_t j = 0; j < std::min(got[k].size(), want[k].size()); ++j) {
      if (bits(got[k][j]) != bits(want[k][j])) ++bad;
    }
  }
  return bad;
}

// Phone+watch sessions of 6-45 s: with the default window they leave one,
// two, three and seven windows, so every spare-lane count occurs.
std::vector<sensors::DevicePair> pin_sessions() {
  std::vector<sensors::DevicePair> out;
  util::Rng rng(34);
  for (int u = 0; u < 2; ++u) {
    const sensors::UserProfile user = sensors::UserProfile::sample(u, rng);
    for (const auto context :
         {sensors::UsageContext::kMoving, sensors::UsageContext::kStationaryUse,
          sensors::UsageContext::kOnTable}) {
      for (const double seconds : {6.0, 12.0, 18.0, 45.0}) {
        const auto env = sensors::SessionEnvironment::sample(context, rng);
        sensors::SynthesisOptions options;
        options.duration_seconds = seconds;
        out.push_back(
            sensors::synthesize_session(user, context, env, options, rng));
      }
    }
  }
  return out;
}

std::vector<std::pair<std::string, FeatureConfig>> pin_configs() {
  std::vector<std::pair<std::string, FeatureConfig>> out;
  out.emplace_back("default", FeatureConfig{});
  FeatureConfig c;
  c.window.window_seconds = c.window.hop_seconds = 512.0 / 50.0;
  out.emplace_back("512-sample window", c);
  c = FeatureConfig{};
  c.window.hop_seconds = 2.0;
  out.emplace_back("overlapping hop", c);
  c = FeatureConfig{};
  c.remove_dc = false;
  c.window.hop_seconds = 4.0;
  out.emplace_back("no DC removal, overlapping hop", c);
  c = FeatureConfig{};
  c.peak_guard_hz = 0.0;
  out.emplace_back("no guard band", c);
  c = FeatureConfig{};
  c.pad_to_pow2 = false;
  out.emplace_back("unpadded 300 samples", c);
  return out;
}

TEST(FeaturesBitwise, EveryEntryPointMatchesFrozenPerStreamExtractor) {
  const auto sessions = pin_sessions();
  for (const auto& [name, config] : pin_configs()) {
    const FeatureExtractor extractor(config);
    std::size_t rows = 0;
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      const auto& pair = sessions[s];
      const std::string label = name + ", session " + std::to_string(s);
      const auto combined = extractor.auth_vectors(pair.phone, &pair.watch);
      EXPECT_EQ(row_bit_mismatches(
                    combined,
                    frozen_auth_vectors(config, pair.phone, &pair.watch)),
                0u)
          << label;
      const auto phone_only = frozen_auth_vectors(config, pair.phone, nullptr);
      EXPECT_EQ(row_bit_mismatches(extractor.auth_vectors(pair.phone, nullptr),
                                   phone_only),
                0u)
          << label;
      EXPECT_EQ(row_bit_mismatches(extractor.context_vectors(pair.phone),
                                   phone_only),
                0u)
          << label;
      rows += combined.size();

      for (const auto* trace : {&pair.phone.accel, &pair.phone.gyro,
                                &pair.watch.accel, &pair.watch.gyro}) {
        const auto samples = trace->magnitude();
        EXPECT_EQ(feature_bit_mismatches(
                      extractor.stream_features(samples),
                      frozen_stream_features(config, samples)),
                  0u)
            << label;
        const std::size_t w = config.window.window_samples();
        for (std::size_t start = 0; start + w <= samples.size();
             start += 7 * w / 3) {
          const std::span<const double> window(samples.data() + start, w);
          EXPECT_EQ(feature_bit_mismatches(
                        {extractor.window_features(window)},
                        {frozen_window_features(config, window)}),
                    0u)
              << label << ", window at " << start;
        }
      }
    }
    EXPECT_GT(rows, 0u) << name;
  }
}

TEST(FeaturesBitwise, ConcurrentCallersMatchSequentialRows) {
  // Four threads extract the same sessions at once, each in its own order;
  // the thread_local scratch must keep every row's bits.
  const auto sessions = pin_sessions();
  const FeatureExtractor extractor{FeatureConfig{}};
  std::vector<std::vector<std::vector<double>>> sequential;
  for (const auto& pair : sessions) {
    sequential.push_back(extractor.auth_vectors(pair.phone, &pair.watch));
  }
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::vector<std::vector<double>>>> got(
      kThreads, std::vector<std::vector<std::vector<double>>>(sessions.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t i = 0; i < sessions.size(); ++i) {
          // A rotation per thread, reversed on odd threads.
          const std::size_t n = sessions.size();
          std::size_t s = (i + t * n / kThreads) % n;
          if (t % 2 == 1) s = sessions.size() - 1 - s;
          got[t][s] = extractor.auth_vectors(sessions[s].phone,
                                             &sessions[s].watch);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      EXPECT_EQ(row_bit_mismatches(got[t][s], sequential[s]), 0u)
          << "thread " << t << ", session " << s;
    }
  }
}

TEST(FeatureNames, AllDistinct) {
  std::set<std::string> names;
  for (const FeatureId id : kAllFeatures) names.insert(feature_name(id));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kFeatureCount));
}

TEST(SelectedFeatures, MatchPaperEq2) {
  // 4 time-domain + 3 frequency-domain; Ran and Peak2 f excluded.
  ASSERT_EQ(kSelectedFeatures.size(), 7u);
  for (const FeatureId id : kSelectedFeatures) {
    EXPECT_NE(id, FeatureId::kRan);
    EXPECT_NE(id, FeatureId::kPeak2F);
  }
}

TEST(WindowFeatures, TimeDomainOnKnownTone) {
  FeatureConfig config;
  const FeatureExtractor extractor(config);
  // 300-sample window at 50 Hz: tone at exactly 2 Hz, amplitude 1.5, offset 9.
  const auto window = tone(300, 2.0, 50.0, 1.5, 9.0);
  const auto f = extractor.window_features(window);
  EXPECT_NEAR(f.mean, 9.0, 1e-9);
  EXPECT_NEAR(f.var, 1.5 * 1.5 / 2.0, 1e-6);  // A^2/2 over whole cycles
  // The sampling grid does not hit the exact crest/trough (25 samples per
  // cycle), so max/min are within one sample step of the envelope.
  EXPECT_NEAR(f.max, 10.5, 0.02);
  EXPECT_NEAR(f.min, 7.5, 0.02);
  EXPECT_NEAR(f.ran, 3.0, 0.04);
}

TEST(WindowFeatures, FrequencyDomainOnKnownTone) {
  FeatureConfig config;
  const FeatureExtractor extractor(config);
  const auto window = tone(300, 2.0, 50.0, 1.5, 9.0);
  const auto f = extractor.window_features(window);
  // 2 Hz tone: padded to 512 bins -> resolution 0.0977 Hz.
  EXPECT_NEAR(f.peak_f, 2.0, 0.1);
  EXPECT_NEAR(f.peak, 1.5, 0.25);  // leakage tolerated
  EXPECT_LT(f.peak2, f.peak);      // secondary below main
}

TEST(WindowFeatures, PadVsNoPadAgreeOnBinAlignedTone) {
  FeatureConfig padded;
  padded.pad_to_pow2 = true;
  FeatureConfig direct;
  direct.pad_to_pow2 = false;
  const FeatureExtractor a(padded), b(direct);
  // Tone aligned to both grids: 300 samples, 50 Hz, 1 Hz = bin 6 (300) and
  // close to bin 10.24 (512)... use 2.0833 Hz = bin 12.5? Use 50/300*12=2Hz
  // aligned for direct; padded peak frequency within one padded bin.
  const auto window = tone(300, 2.0, 50.0, 1.0, 0.0);
  const auto fa = a.window_features(window);
  const auto fb = b.window_features(window);
  EXPECT_NEAR(fa.peak_f, fb.peak_f, 0.1);
  EXPECT_NEAR(fa.mean, fb.mean, 1e-12);
  EXPECT_NEAR(fa.var, fb.var, 1e-12);
}

TEST(StreamFeatures, WindowCount) {
  FeatureConfig config;  // 6 s windows, 6 s hop @50 Hz = 300 samples
  const FeatureExtractor extractor(config);
  const auto samples = tone(1000, 2.0, 50.0, 1.0, 0.0);
  const auto features = extractor.stream_features(samples);
  EXPECT_EQ(features.size(), 3u);
}

TEST(AuthVectors, DimensionsMatchEq3AndEq4) {
  util::Rng rng(31);
  const sensors::UserProfile user = sensors::UserProfile::sample(0, rng);
  const auto env =
      sensors::SessionEnvironment::sample(sensors::UsageContext::kMoving, rng);
  sensors::SynthesisOptions options;
  options.duration_seconds = 30.0;
  const auto pair = sensors::synthesize_session(
      user, sensors::UsageContext::kMoving, env, options, rng);

  const FeatureExtractor extractor{FeatureConfig{}};
  const auto phone_only = extractor.auth_vectors(pair.phone, nullptr);
  ASSERT_EQ(phone_only.size(), 5u);  // 30 s / 6 s
  EXPECT_EQ(phone_only[0].size(), 14u);

  const auto combined = extractor.auth_vectors(pair.phone, &pair.watch);
  ASSERT_EQ(combined.size(), 5u);
  EXPECT_EQ(combined[0].size(), 28u);

  // Phone block identical in both assemblies (Eq. 4 concatenation).
  for (std::size_t k = 0; k < combined.size(); ++k) {
    for (std::size_t j = 0; j < 14; ++j) {
      EXPECT_EQ(bits(combined[k][j]), bits(phone_only[k][j]));
    }
  }
  EXPECT_EQ(FeatureExtractor::auth_dim(false), 14u);
  EXPECT_EQ(FeatureExtractor::auth_dim(true), 28u);
}

TEST(ContextVectors, AlwaysPhoneOnly) {
  util::Rng rng(32);
  const sensors::UserProfile user = sensors::UserProfile::sample(0, rng);
  const auto env = sensors::SessionEnvironment::sample(
      sensors::UsageContext::kStationaryUse, rng);
  sensors::SynthesisOptions options;
  options.duration_seconds = 12.0;
  const auto pair = sensors::synthesize_session(
      user, sensors::UsageContext::kStationaryUse, env, options, rng);
  const FeatureExtractor extractor{FeatureConfig{}};
  const auto vectors = extractor.context_vectors(pair.phone);
  ASSERT_EQ(vectors.size(), 2u);
  EXPECT_EQ(vectors[0].size(), 14u);
}

TEST(AuthVectors, SelectedFeatureOrderIsStable) {
  // The vector layout is [acc:mean,var,max,min,peak,peak_f,peak2, gyr:...]
  // per device. Verify the accel-mean slot by construction.
  util::Rng rng(33);
  const sensors::UserProfile user = sensors::UserProfile::sample(0, rng);
  const auto env =
      sensors::SessionEnvironment::sample(sensors::UsageContext::kMoving, rng);
  sensors::SynthesisOptions options;
  options.duration_seconds = 6.0;
  const auto pair = sensors::synthesize_session(
      user, sensors::UsageContext::kMoving, env, options, rng);

  const FeatureExtractor extractor{FeatureConfig{}};
  const auto vectors = extractor.auth_vectors(pair.phone, nullptr);
  ASSERT_EQ(vectors.size(), 1u);
  const auto accel_features =
      extractor.window_features(pair.phone.accel.magnitude());
  EXPECT_EQ(bits(vectors[0][0]), bits(accel_features.mean));
  EXPECT_EQ(bits(vectors[0][1]), bits(accel_features.var));
  EXPECT_EQ(bits(vectors[0][4]), bits(accel_features.peak));
  const auto gyro_features =
      extractor.window_features(pair.phone.gyro.magnitude());
  EXPECT_EQ(bits(vectors[0][7]), bits(gyro_features.mean));
}

TEST(FeatureExtractor, EmptyWindowConfigThrows) {
  FeatureConfig config;
  config.window.window_seconds = 0.0;
  EXPECT_THROW(FeatureExtractor{config}, std::invalid_argument);
}

TEST(FeatureExtractor, WindowOrHopBelowOneSampleThrows) {
  // A zero hop used to be accepted, and stream_features then divided by it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double hop : {0.0, 0.009, -6.0, nan}) {
    FeatureConfig config;
    config.window.hop_seconds = hop;
    EXPECT_THROW(FeatureExtractor{config}, std::invalid_argument) << hop;
  }
  for (const double window : {0.009, -6.0, nan, 1e300}) {
    FeatureConfig config;
    config.window.window_seconds = window;
    EXPECT_THROW(FeatureExtractor{config}, std::invalid_argument) << window;
  }
  for (const double rate : {0.0, -50.0, nan}) {
    FeatureConfig config;
    config.window.sample_rate_hz = rate;
    EXPECT_THROW(FeatureExtractor{config}, std::invalid_argument) << rate;
  }
  // Half a sample rounds to one: the smallest window and hop accepted.
  FeatureConfig config;
  config.window.window_seconds = config.window.hop_seconds = 0.01;
  const FeatureExtractor extractor(config);
  EXPECT_EQ(extractor.stream_features(std::vector<double>(5, 1.0)).size(), 5u);
}

TEST(StreamFeatures, GetCoversAllIds) {
  StreamFeatures f;
  f.mean = 1;
  f.var = 2;
  f.max = 3;
  f.min = 4;
  f.ran = 5;
  f.peak = 6;
  f.peak_f = 7;
  f.peak2 = 8;
  f.peak2_f = 9;
  double expected = 1.0;
  for (const FeatureId id : kAllFeatures) {
    EXPECT_DOUBLE_EQ(f.get(id), expected);
    expected += 1.0;
  }
}

}  // namespace
}  // namespace sy::features
