#include "signal/spectrum.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "signal/dft.h"

namespace sy::signal {

namespace {

// Half-width of the band around the main peak that the secondary peak
// skips, in bins: at least the immediate neighbours. The range is checked
// before the cast, which is UB for a negative, NaN or too large value; a
// band of window_len bins already excludes every bin.
std::size_t guard_bins(std::size_t window_len, double sample_rate_hz,
                       double guard_hz) {
  const double bin_hz = sample_rate_hz / static_cast<double>(window_len);
  const double bins = guard_hz / bin_hz;
  if (!(bins >= 1.0)) return 1;
  if (bins >= static_cast<double>(window_len)) return window_len;
  return static_cast<std::size_t>(bins);
}

// The peak filter's bounds. A bin whose filter value t falls below
// kKeep * max t cannot hold the largest rounded magnitude; below
// kUnderflow the squares may have lost their precision to underflow.
constexpr double kKeep = 1.0 - 0x1p-20;
constexpr double kUnderflow = 0x1p-900;

// One lane of a lane-interleaved spectrum and its filter values.
template <std::size_t L>
struct Lane {
  const double* spectrum;  // this lane's real part; stride 2L per bin
  const double* t;         // this lane's filter values, one per bin
  std::size_t n;
  bool finite;             // every t is finite

  double magnitude(std::size_t k) const {
    return one_sided_magnitude({spectrum[2 * L * k], spectrum[2 * L * k + L]},
                               k, n);
  }

  // The largest t over bins [begin, end), 0 when empty. Four accumulators
  // break the dependency chain; the maximum of finite values does not
  // depend on the order.
  double max_t(std::size_t begin, std::size_t end) const {
    std::array<double, 4> m{};
    std::size_t k = begin;
    for (; k + 4 <= end; k += 4) {
      for (std::size_t j = 0; j < 4; ++j) m[j] = std::max(m[j], t[k + j]);
    }
    for (; k < end; ++k) m[0] = std::max(m[0], t[k]);
    return std::max(std::max(m[0], m[1]), std::max(m[2], m[3]));
  }

  // The bound below which a bin cannot hold the first largest magnitude of
  // a search whose largest t is `t_max`; -inf gives every bin exactly.
  double floor_of(double t_max) const {
    return finite && t_max >= kUnderflow
               ? t_max * kKeep
               : -std::numeric_limits<double>::infinity();
  }

  // find_peaks' scan over the bins of [begin, end) that reach `floor`:
  // ascending, and a bin replaces `best` only when strictly larger.
  void scan(std::size_t begin, std::size_t end, double floor,
            std::size_t& best, double& amplitude) const {
    for (std::size_t k = begin; k < end; ++k) {
      if (t[k] < floor) continue;
      const double m = magnitude(k);
      if (best == 0 || m > amplitude) {
        best = k;
        amplitude = m;
      }
    }
  }
};

}  // namespace

SpectralPeaks find_peaks(std::span<const double> magnitude,
                         std::size_t window_len, double sample_rate_hz,
                         double guard_hz) {
  SpectralPeaks out;
  if (magnitude.size() < 2) return out;

  // Main peak: the largest non-DC bin.
  std::size_t best = 0;
  for (std::size_t k = 1; k < magnitude.size(); ++k) {
    if (best == 0 || magnitude[k] > magnitude[best]) best = k;
  }
  if (best == 0) return out;
  out.peak_amplitude = magnitude[best];
  out.peak_frequency_hz = bin_frequency(best, window_len, sample_rate_hz);

  // Secondary peak: largest bin outside the guard band of the main peak.
  const std::size_t guard = guard_bins(window_len, sample_rate_hz, guard_hz);
  std::size_t second = 0;
  for (std::size_t k = 1; k < magnitude.size(); ++k) {
    const std::size_t dist = k > best ? k - best : best - k;
    if (dist <= guard) continue;
    if (second == 0 || magnitude[k] > magnitude[second]) second = k;
  }
  if (second != 0) {
    out.peak2_amplitude = magnitude[second];
    out.peak2_frequency_hz = bin_frequency(second, window_len, sample_rate_hz);
  }
  return out;
}

template <std::size_t L>
std::array<SpectralPeaks, L> find_peaks_lanes(std::span<const double> spectrum,
                                              double sample_rate_hz,
                                              double guard_hz) {
  const std::size_t n = spectrum.size() / (2 * L);
  std::array<SpectralPeaks, L> out{};
  const std::size_t bins = n / 2 + 1;
  if (bins < 2) return out;

  // Filter values: t_k = re^2 + im^2, times 4 on the bins whose magnitude
  // is doubled; lane l's occupy [l * bins, (l + 1) * bins). A lane whose
  // sum of t is finite has only finite t.
  thread_local std::vector<double> t;
  t.resize(L * bins);
  std::array<double, L> sum{};
  for (std::size_t k = 1; k < bins; ++k) {
    const double scale = is_doubled_bin(k, n) ? 4.0 : 1.0;
    const double* x = spectrum.data() + 2 * L * k;
    for (std::size_t l = 0; l < L; ++l) {
      const double v = (x[l] * x[l] + x[L + l] * x[L + l]) * scale;
      t[l * bins + k] = v;
      sum[l] += v;
    }
  }

  const std::size_t guard = guard_bins(n, sample_rate_hz, guard_hz);
  for (std::size_t l = 0; l < L; ++l) {
    const Lane<L> lane{spectrum.data() + l, t.data() + l * bins, n,
                       std::isfinite(sum[l])};
    SpectralPeaks& p = out[l];
    std::size_t best = 0;
    lane.scan(1, bins, lane.floor_of(lane.max_t(1, bins)), best,
              p.peak_amplitude);
    p.peak_frequency_hz = bin_frequency(best, n, sample_rate_hz);

    // Secondary: the bins farther than `guard` from the main peak,
    // [1, below) and [above, bins).
    const std::size_t below = best > guard ? best - guard : 1;
    const std::size_t above = guard < bins - best ? best + guard + 1 : bins;
    const double floor2 = lane.floor_of(
        std::max(lane.max_t(1, below), lane.max_t(above, bins)));
    std::size_t second = 0;
    lane.scan(1, below, floor2, second, p.peak2_amplitude);
    lane.scan(above, bins, floor2, second, p.peak2_amplitude);
    if (second != 0) {
      p.peak2_frequency_hz = bin_frequency(second, n, sample_rate_hz);
    }
  }
  return out;
}

template std::array<SpectralPeaks, 4> find_peaks_lanes<4>(
    std::span<const double>, double, double);

SpectralPeaks spectral_peaks(std::span<const double> window,
                             double sample_rate_hz, double guard_hz) {
  if (sample_rate_hz <= 0.0) {
    throw std::invalid_argument("spectral_peaks: sample rate must be positive");
  }
  const auto mag = magnitude_spectrum(window);
  return find_peaks(mag, window.size(), sample_rate_hz, guard_hz);
}

}  // namespace sy::signal
