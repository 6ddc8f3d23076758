// Windowed time- and frequency-domain feature extraction (paper §V-C).
//
// For every analysis window of a sensor-magnitude stream we compute the nine
// candidate features of the paper:
//   time domain:      Mean, Var, Max, Min, Ran(ge)
//   frequency domain: Peak (main-frequency amplitude), Peak f (the main
//                     frequency), Peak2 (secondary amplitude), Peak2 f
// The selection study (§V-C, reproduced in features/selection.h) drops Ran
// (redundant with Var/Max) and Peak2 f (uninformative), leaving the 7-element
// per-stream vector of Eq. 2; two sensors give 14 per device (Eq. 3) and the
// phone+watch combination gives 28 (Eq. 4).
//
// Every entry point extracts four equal-length windows at a time in
// lockstep: four Welford chains advance sample by sample, one 4-lane FFT
// transforms them, and signal::find_peaks_lanes computes exact magnitudes
// only for bins that can hold a peak. With the watch, the four lanes are
// one window's four streams. Each window's features have the bits of that
// window extracted alone (RunningStats, magnitude_spectrum, find_peaks), so
// they depend on neither the lane, the batch nor the num:: backend (pinned
// in tests/features_extractor_test).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "sensors/types.h"
#include "signal/window.h"

namespace sy::features {

enum class FeatureId : int {
  kMean = 0,
  kVar,
  kMax,
  kMin,
  kRan,
  kPeak,
  kPeakF,
  kPeak2,
  kPeak2F,
};
inline constexpr int kFeatureCount = 9;
inline constexpr std::array<FeatureId, 9> kAllFeatures = {
    FeatureId::kMean, FeatureId::kVar,   FeatureId::kMax,
    FeatureId::kMin,  FeatureId::kRan,   FeatureId::kPeak,
    FeatureId::kPeakF, FeatureId::kPeak2, FeatureId::kPeak2F,
};
// The paper's selected subset (Eq. 2): 4 time + 3 frequency features.
inline constexpr std::array<FeatureId, 7> kSelectedFeatures = {
    FeatureId::kMean, FeatureId::kVar,  FeatureId::kMax,  FeatureId::kMin,
    FeatureId::kPeak, FeatureId::kPeakF, FeatureId::kPeak2,
};
const char* feature_name(FeatureId id);

struct StreamFeatures {
  double mean{0}, var{0}, max{0}, min{0}, ran{0};
  double peak{0}, peak_f{0}, peak2{0}, peak2_f{0};

  double get(FeatureId id) const;
};

struct FeatureConfig {
  signal::WindowSpec window{};     // 6 s non-overlapping at 50 Hz by default
  // Zero-pad each window to the next power of two before the DFT: identical
  // feature semantics, ~10x cheaper transform at the paper's 300-sample
  // window.
  bool pad_to_pow2{true};
  // Subtract the window mean before the DFT so the gravity DC component
  // does not leak over the low-frequency bins.
  bool remove_dc{true};
  // Guard band (Hz) around the main peak when hunting for the secondary
  // peak; suppresses rectangular-window leakage sidelobes.
  double peak_guard_hz{0.4};
};

// Const and safe to call from many threads: scratch buffers are per call or
// thread_local.
class FeatureExtractor {
 public:
  // Throws std::invalid_argument unless the sample rate is positive and the
  // window and the hop each span at least one sample.
  explicit FeatureExtractor(FeatureConfig config = {});

  const FeatureConfig& config() const { return config_; }

  // Features of one already-cut window of magnitude samples.
  StreamFeatures window_features(std::span<const double> window) const;

  // Segments a full stream and extracts features per window.
  std::vector<StreamFeatures> stream_features(
      std::span<const double> samples) const;

  // --- Vector assembly (Eqs. 1-4) -------------------------------------
  // Authentication feature vectors for one session: one vector per window.
  // 14-dim for phone only; 28-dim when `watch` is non-null (phone features
  // first). Uses accelerometer + gyroscope magnitudes.
  std::vector<std::vector<double>> auth_vectors(
      const sensors::Recording& phone, const sensors::Recording* watch) const;

  // Context feature vectors (Eq. 3): always phone-only, 14-dim — context
  // detection must not depend on the optional watch (§V-E).
  std::vector<std::vector<double>> context_vectors(
      const sensors::Recording& phone) const;

  // Dimensionality of auth_vectors output.
  static std::size_t auth_dim(bool with_watch) { return with_watch ? 28 : 14; }

 private:
  static constexpr std::size_t kLanes = 4;
  using Lanes = std::array<std::span<const double>, kLanes>;

  // Features of four equal-length windows in lockstep. A padded length that
  // is not a power of two (pad_to_pow2 off) takes magnitude_spectrum and
  // find_peaks lane by lane.
  std::array<StreamFeatures, kLanes> lane_features(const Lanes& windows) const;
  // Features of each window, four at a time; the spare lanes of the last
  // group repeat a live window and their results are dropped.
  std::vector<StreamFeatures> features_of(
      std::span<const std::span<const double>> windows) const;
  void append_selected(const StreamFeatures& f, std::vector<double>& out) const;

  FeatureConfig config_;
};

}  // namespace sy::features
