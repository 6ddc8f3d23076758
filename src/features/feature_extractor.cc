#include "features/feature_extractor.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "signal/dft.h"
#include "signal/spectrum.h"
#include "signal/stats.h"

namespace sy::features {

const char* feature_name(FeatureId id) {
  switch (id) {
    case FeatureId::kMean:
      return "Mean";
    case FeatureId::kVar:
      return "Var";
    case FeatureId::kMax:
      return "Max";
    case FeatureId::kMin:
      return "Min";
    case FeatureId::kRan:
      return "Ran";
    case FeatureId::kPeak:
      return "Peak";
    case FeatureId::kPeakF:
      return "Peak f";
    case FeatureId::kPeak2:
      return "Peak2";
    case FeatureId::kPeak2F:
      return "Peak2 f";
  }
  return "?";
}

double StreamFeatures::get(FeatureId id) const {
  switch (id) {
    case FeatureId::kMean:
      return mean;
    case FeatureId::kVar:
      return var;
    case FeatureId::kMax:
      return max;
    case FeatureId::kMin:
      return min;
    case FeatureId::kRan:
      return ran;
    case FeatureId::kPeak:
      return peak;
    case FeatureId::kPeakF:
      return peak_f;
    case FeatureId::kPeak2:
      return peak2;
    case FeatureId::kPeak2F:
      return peak2_f;
  }
  return 0.0;
}

namespace {

// Rejects a duration that rounds to no sample, and checks the double before
// WindowSpec casts it to size_t (a negative or too large value is UB there).
void check_samples(double seconds, double sample_rate_hz, const char* what) {
  const double samples = seconds * sample_rate_hz;
  if (!(samples >= 0.5 && samples < 0x1p63)) {
    throw std::invalid_argument(std::string("FeatureExtractor: ") + what +
                                " must span at least one sample");
  }
}

}  // namespace

FeatureExtractor::FeatureExtractor(FeatureConfig config) : config_(config) {
  const signal::WindowSpec& w = config_.window;
  if (!(w.sample_rate_hz > 0.0)) {
    throw std::invalid_argument(
        "FeatureExtractor: sample rate must be positive");
  }
  check_samples(w.window_seconds, w.sample_rate_hz, "window");
  check_samples(w.hop_seconds, w.sample_rate_hz, "hop");
}

std::array<StreamFeatures, FeatureExtractor::kLanes>
FeatureExtractor::lane_features(const Lanes& windows) const {
  const std::size_t len = windows[0].size();
  std::array<StreamFeatures, kLanes> out;

  // Time domain: four Welford chains advanced sample by sample, so their
  // serial divisions overlap.
  std::array<signal::RunningStats, kLanes> stats;
  for (std::size_t i = 0; i < len; ++i) {
    for (std::size_t l = 0; l < kLanes; ++l) stats[l].add(windows[l][i]);
  }
  std::array<double, kLanes> dc{};
  for (std::size_t l = 0; l < kLanes; ++l) {
    StreamFeatures& f = out[l];
    f.mean = stats[l].mean();
    f.var = stats[l].variance();
    f.max = stats[l].max();
    f.min = stats[l].min();
    f.ran = stats[l].range();
    if (config_.remove_dc) dc[l] = f.mean;
  }

  // Frequency domain. Optionally remove DC and zero-pad to a power of two.
  std::size_t padded = len;
  if (config_.pad_to_pow2 && !signal::is_power_of_two(padded)) {
    padded = std::bit_ceil(len);
  }
  const double rate = config_.window.sample_rate_hz;
  std::array<signal::SpectralPeaks, kLanes> peaks;
  if (signal::is_power_of_two(padded)) {
    // Element i of the lane buffer holds the four real parts of sample i,
    // then the four imaginary parts.
    thread_local std::vector<double> buf;
    buf.assign(2 * kLanes * padded, 0.0);
    for (std::size_t i = 0; i < len; ++i) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        buf[2 * kLanes * i + l] = windows[l][i] - dc[l];
      }
    }
    signal::fft_radix2_lanes<kLanes>(buf);
    peaks = signal::find_peaks_lanes<kLanes>(buf, rate, config_.peak_guard_hz);
  } else {
    // Only an unpadded window whose length is not a power of two: the
    // direct DFT has no lane form.
    std::vector<double> buf(len);
    for (std::size_t l = 0; l < kLanes; ++l) {
      for (std::size_t i = 0; i < len; ++i) buf[i] = windows[l][i] - dc[l];
      peaks[l] = signal::find_peaks(signal::magnitude_spectrum(buf), padded,
                                    rate, config_.peak_guard_hz);
    }
  }

  // Undo the amplitude dilution introduced by zero-padding (the DFT is
  // scaled by 1/padded while the energy came from len samples).
  const double rescale =
      static_cast<double>(padded) / static_cast<double>(len);
  for (std::size_t l = 0; l < kLanes; ++l) {
    out[l].peak = peaks[l].peak_amplitude * rescale;
    out[l].peak_f = peaks[l].peak_frequency_hz;
    out[l].peak2 = peaks[l].peak2_amplitude * rescale;
    out[l].peak2_f = peaks[l].peak2_frequency_hz;
  }
  return out;
}

std::vector<StreamFeatures> FeatureExtractor::features_of(
    std::span<const std::span<const double>> windows) const {
  std::vector<StreamFeatures> out;
  out.reserve(windows.size());
  for (std::size_t first = 0; first < windows.size(); first += kLanes) {
    // Spare lanes of the last group repeat its first window.
    Lanes lanes;
    for (std::size_t l = 0; l < kLanes; ++l) {
      lanes[l] = windows[first + l < windows.size() ? first + l : first];
    }
    const auto f = lane_features(lanes);
    const std::size_t live = std::min(kLanes, windows.size() - first);
    out.insert(out.end(), f.begin(), f.begin() + live);
  }
  return out;
}

StreamFeatures FeatureExtractor::window_features(
    std::span<const double> window) const {
  return features_of(std::span(&window, 1)).front();
}

std::vector<StreamFeatures> FeatureExtractor::stream_features(
    std::span<const double> samples) const {
  const std::size_t w = config_.window.window_samples();
  const std::size_t h = config_.window.hop_samples();
  std::vector<std::span<const double>> windows(
      signal::window_count(samples.size(), config_.window));
  for (std::size_t k = 0; k < windows.size(); ++k) {
    windows[k] = samples.subspan(k * h, w);
  }
  return features_of(windows);
}

void FeatureExtractor::append_selected(const StreamFeatures& f,
                                       std::vector<double>& out) const {
  for (const FeatureId id : kSelectedFeatures) out.push_back(f.get(id));
}

std::vector<std::vector<double>> FeatureExtractor::auth_vectors(
    const sensors::Recording& phone, const sensors::Recording* watch) const {
  std::vector<std::vector<double>> streams;
  streams.reserve(4);
  streams.push_back(phone.accel.magnitude());
  streams.push_back(phone.gyro.magnitude());
  if (watch != nullptr) {
    streams.push_back(watch->accel.magnitude());
    streams.push_back(watch->gyro.magnitude());
  }
  std::size_t n = std::numeric_limits<std::size_t>::max();
  for (const auto& s : streams) {
    n = std::min(n, signal::window_count(s.size(), config_.window));
  }

  // Window k of every stream, in vector order: with the watch, one group
  // of lanes is one window's four streams.
  const std::size_t w = config_.window.window_samples();
  const std::size_t h = config_.window.hop_samples();
  std::vector<std::span<const double>> windows;
  windows.reserve(n * streams.size());
  for (std::size_t k = 0; k < n; ++k) {
    for (const auto& s : streams) {
      windows.push_back(std::span<const double>(s).subspan(k * h, w));
    }
  }
  const auto features = features_of(windows);

  std::vector<std::vector<double>> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<double> v;
    v.reserve(auth_dim(watch != nullptr));
    for (std::size_t s = 0; s < streams.size(); ++s) {
      append_selected(features[k * streams.size() + s], v);
    }
    out.push_back(std::move(v));
  }
  return out;
}

std::vector<std::vector<double>> FeatureExtractor::context_vectors(
    const sensors::Recording& phone) const {
  return auth_vectors(phone, nullptr);
}

}  // namespace sy::features
