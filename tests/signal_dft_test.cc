#include "signal/dft.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "signal/spectrum.h"
#include "util/rng.h"

namespace sy::signal {
namespace {

using std::numbers::pi;

std::vector<double> sinusoid(std::size_t n, double freq_hz, double rate_hz,
                             double amplitude, double phase = 0.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amplitude *
           std::sin(2.0 * pi * freq_hz * static_cast<double>(i) / rate_hz + phase);
  }
  return x;
}

// --- Frozen std::complex reference --------------------------------------
//
// Verbatim copies of the std::complex routines dft.cc held before its
// products were written out as real arithmetic. The library must keep
// their bits on finite input.

void frozen_fft_radix2(std::vector<std::complex<double>>& x) {
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = x[i + k];
        const std::complex<double> v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

std::vector<std::complex<double>> frozen_dft(std::span<const double> x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  if (n == 0) return out;
  if (is_power_of_two(n)) {
    for (std::size_t i = 0; i < n; ++i) out[i] = {x[i], 0.0};
    frozen_fft_radix2(out);
    return out;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
    const std::complex<double> w(std::cos(angle), std::sin(angle));
    std::complex<double> wn(1.0, 0.0);
    std::complex<double> acc(0.0, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      acc += x[i] * wn;
      wn *= w;
    }
    out[k] = acc;
  }
  return out;
}

// The magnitude loop of magnitude_spectrum, on a given n-point spectrum.
std::vector<double> frozen_magnitudes(
    const std::vector<std::complex<double>>& spec) {
  const std::size_t n = spec.size();
  const std::size_t half = n / 2;
  std::vector<double> mag(half + 1);
  for (std::size_t k = 0; k <= half; ++k) {
    double m = std::abs(spec[k]) / static_cast<double>(n);
    const bool is_dc = (k == 0);
    const bool is_nyquist = (n % 2 == 0 && k == half);
    if (!is_dc && !is_nyquist) m *= 2.0;
    mag[k] = m;
  }
  return mag;
}

std::vector<double> frozen_magnitude_spectrum(std::span<const double> x) {
  if (x.empty()) return {};
  return frozen_magnitudes(frozen_dft(x));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Counts entries whose real or imaginary part differs in any bit.
std::size_t complex_bit_mismatches(
    const std::vector<std::complex<double>>& got,
    const std::vector<std::complex<double>>& want) {
  EXPECT_EQ(got.size(), want.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (bits(got[i].real()) != bits(want[i].real()) ||
        bits(got[i].imag()) != bits(want[i].imag())) {
      ++bad;
    }
  }
  return bad;
}

std::size_t real_bit_mismatches(const std::vector<double>& got,
                                const std::vector<double>& want) {
  EXPECT_EQ(got.size(), want.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (bits(got[i]) != bits(want[i])) ++bad;
  }
  return bad;
}

TEST(DftBitwise, FftDftAndSpectrumMatchFrozenRoutineAtEveryPowerOfTwo) {
  util::Rng rng(31);
  for (std::size_t n = 2; n <= 4096; n <<= 1) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<std::complex<double>> got(n);
      for (auto& c : got) c = {rng.gaussian(0.0, 3.0), rng.gaussian()};
      auto want = got;
      fft_radix2(got);
      frozen_fft_radix2(want);
      EXPECT_EQ(complex_bit_mismatches(got, want), 0u) << "n=" << n;
    }
    std::vector<double> x(n);
    for (auto& v : x) v = rng.gaussian();
    EXPECT_EQ(complex_bit_mismatches(dft(x), frozen_dft(x)), 0u) << "n=" << n;
    EXPECT_EQ(real_bit_mismatches(magnitude_spectrum(x),
                                  frozen_magnitude_spectrum(x)),
              0u)
        << "n=" << n;
  }
}

TEST(DftBitwise, ZeroPaddedWindowsMatchFrozenRoutine) {
  // The feature extractor's shape: a 6 s window at 50 Hz (300 samples),
  // DC removed and zero-padded to 512, so the upper 212 inputs are exact
  // zeros whose signs flow through the butterflies.
  util::Rng rng(32);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> window(512, 0.0);
    for (std::size_t i = 0; i < 300; ++i) window[i] = rng.gaussian(0.0, 2.0);
    EXPECT_EQ(complex_bit_mismatches(dft(window), frozen_dft(window)), 0u);
    EXPECT_EQ(real_bit_mismatches(magnitude_spectrum(window),
                                  frozen_magnitude_spectrum(window)),
              0u);
  }
}

TEST(DftBitwise, DirectPathMatchesFrozenRoutine) {
  util::Rng rng(33);
  for (const std::size_t n :
       {1u, 3u, 5u, 6u, 7u, 12u, 50u, 60u, 96u, 100u, 150u, 300u, 301u}) {
    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(-4.0, 4.0);
    EXPECT_EQ(complex_bit_mismatches(dft(x), frozen_dft(x)), 0u) << "n=" << n;
    EXPECT_EQ(real_bit_mismatches(magnitude_spectrum(x),
                                  frozen_magnitude_spectrum(x)),
              0u)
        << "n=" << n;
  }
}

TEST(DftBitwise, TwiddlesDoNotDependOnTransformOrder) {
  // Each thread's twiddle table grows with the largest transform it has
  // run. On a fresh thread, a small transform before and after a large one
  // must read the same stage entries.
  util::Rng rng(35);
  std::vector<double> small(64);
  for (auto& v : small) v = rng.gaussian();
  std::vector<double> large(2048);
  for (auto& v : large) v = rng.gaussian();
  std::vector<std::complex<double>> before, large_out, after;
  std::thread([&] {
    before = dft(small);
    large_out = dft(large);
    after = dft(small);
  }).join();
  EXPECT_EQ(complex_bit_mismatches(before, frozen_dft(small)), 0u);
  EXPECT_EQ(complex_bit_mismatches(large_out, frozen_dft(large)), 0u);
  EXPECT_EQ(complex_bit_mismatches(after, before), 0u);
}

// --- Lockstep lanes -------------------------------------------------------

constexpr std::size_t kLanes = 4;
using LaneInputs = std::array<std::vector<double>, kLanes>;

// Interleaves four equal-length real windows into fft_radix2_lanes' layout.
std::vector<double> interleave(const LaneInputs& x) {
  const std::size_t n = x[0].size();
  std::vector<double> data(2 * kLanes * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < kLanes; ++l) data[2 * kLanes * i + l] = x[l][i];
  }
  return data;
}

TEST(DftBitwise, EachFftLaneMatchesFftRadix2AndFrozenRoutine) {
  util::Rng rng(36);
  for (std::size_t n = 1; n <= 4096; n <<= 1) {
    // Different complex data per lane, including the imaginary parts.
    std::array<std::vector<std::complex<double>>, kLanes> lanes;
    std::vector<double> data(2 * kLanes * n);
    for (std::size_t l = 0; l < kLanes; ++l) {
      lanes[l].resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        lanes[l][i] = {rng.gaussian(0.0, 1.0 + static_cast<double>(l)),
                       rng.gaussian()};
        data[2 * kLanes * i + l] = lanes[l][i].real();
        data[2 * kLanes * i + kLanes + l] = lanes[l][i].imag();
      }
    }
    fft_radix2_lanes<kLanes>(data);
    for (std::size_t l = 0; l < kLanes; ++l) {
      std::vector<std::complex<double>> got(n);
      for (std::size_t i = 0; i < n; ++i) {
        got[i] = {data[2 * kLanes * i + l], data[2 * kLanes * i + kLanes + l]};
      }
      auto alone = lanes[l];
      fft_radix2(alone);
      auto frozen = lanes[l];
      frozen_fft_radix2(frozen);
      EXPECT_EQ(complex_bit_mismatches(got, alone), 0u)
          << "n=" << n << " l=" << l;
      EXPECT_EQ(complex_bit_mismatches(got, frozen), 0u)
          << "n=" << n << " l=" << l;
    }
  }
  std::vector<double> bad(2 * kLanes * 3);
  EXPECT_THROW(fft_radix2_lanes<kLanes>(bad), std::invalid_argument);
  std::vector<double> ragged(2 * kLanes * 4 + 1);
  EXPECT_THROW(fft_radix2_lanes<kLanes>(ragged), std::invalid_argument);
}

// Runs find_peaks_lanes on four real windows and checks every lane against
// find_peaks(magnitude_spectrum(x)). Non-finite input may carry different
// NaN payloads through the packed and the scalar code, so where both
// amplitudes are NaN they count as equal.
void expect_lane_peaks_match(const LaneInputs& x, double rate, double guard,
                             const std::string& label) {
  auto data = interleave(x);
  fft_radix2_lanes<kLanes>(data);
  const auto got = find_peaks_lanes<kLanes>(data, rate, guard);
  const auto same = [](double a, double b) {
    return bits(a) == bits(b) || (std::isnan(a) && std::isnan(b));
  };
  for (std::size_t l = 0; l < kLanes; ++l) {
    const auto want =
        find_peaks(magnitude_spectrum(x[l]), x[l].size(), rate, guard);
    const auto& g = got[l];
    EXPECT_TRUE(same(g.peak_amplitude, want.peak_amplitude) &&
                bits(g.peak_frequency_hz) == bits(want.peak_frequency_hz) &&
                same(g.peak2_amplitude, want.peak2_amplitude) &&
                bits(g.peak2_frequency_hz) == bits(want.peak2_frequency_hz))
        << label << " n=" << x[l].size() << " lane=" << l << " guard=" << guard
        << ": got (" << g.peak_amplitude << " @ " << g.peak_frequency_hz
        << ", " << g.peak2_amplitude << " @ " << g.peak2_frequency_hz
        << ") want (" << want.peak_amplitude
        << " @ " << want.peak_frequency_hz << ", " << want.peak2_amplitude
        << " @ " << want.peak2_frequency_hz << ")";
  }
}

std::vector<double> cosine(std::size_t n, std::size_t bin, double amplitude) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amplitude * std::cos(2.0 * pi * static_cast<double>(bin * i) /
                                static_cast<double>(n));
  }
  return x;
}

TEST(SpectralPeaksLanes, EachLaneMatchesFindPeaksOfMagnitudeSpectrum) {
  util::Rng rng(37);
  const double rate = 50.0;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t n = 1; n <= 4096; n <<= 1) {
    const auto random = [&](double scale) {
      std::vector<double> x(n);
      for (auto& v : x) v = scale * rng.gaussian();
      return x;
    };
    // An impulse has equal magnitudes in every doubled bin (exact ties);
    // one sample later, its magnitudes are equal only up to rounding.
    std::vector<double> impulse(n, 0.0), shifted(n, 0.0);
    impulse[0] = 1.0;
    shifted[n > 1 ? 1 : 0] = 3.0;
    std::vector<double> tones(n, 0.0), nyquist(n, 0.0);
    if (n >= 8) {
      // Two tones whose amplitudes differ by 2^-40, and a Nyquist bin (not
      // doubled) whose |X| is larger than that of the true peak.
      const auto a = cosine(n, n / 8, 1.0);
      const auto b = cosine(n, n / 4, 1.0 + 0x1p-40);
      const auto c = cosine(n, n / 2, 0.9);
      for (std::size_t i = 0; i < n; ++i) {
        tones[i] = a[i] + b[i];
        nyquist[i] = a[i] + c[i];
      }
    }
    std::vector<double> with_nan = random(1.0), with_inf = random(1.0);
    with_nan[n - 1] = nan;
    with_inf[0] = inf;
    const std::vector<LaneInputs> cases = {
        {random(1.0), random(2.0), random(0.5), random(1e-3)},
        {random(1e-170), random(1e200), random(1e150), random(1e-150)},
        {std::vector<double>(n, 0.0), std::vector<double>(n, 4.25), impulse,
         shifted},
        {tones, nyquist, random(1.0), impulse},
        {with_nan, with_inf, random(1.0), random(1e-300)},
    };
    for (const double guard : {0.0, 0.4, 3.0, 1e9, -3.0, nan, 1e300}) {
      for (std::size_t c = 0; c < cases.size(); ++c) {
        expect_lane_peaks_match(cases[c], rate, guard,
                                "case " + std::to_string(c));
      }
    }
  }
}

TEST(SpectralPeaksLanes, CraftedSpectraMatchFindPeaks) {
  // Spectra no real window of these sizes produces, handed straight to the
  // lane routine: magnitudes one rounding apart, squares that underflow,
  // and a lone NaN or infinity ahead of the largest bin. Each lane must
  // match find_peaks over the magnitude loop of magnitude_spectrum.
  util::Rng rng(38);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t n : {8u, 64u, 512u}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::array<std::vector<std::complex<double>>, kLanes> spec;
      for (std::size_t l = 0; l < kLanes; ++l) {
        spec[l].resize(n);
        // Lane 0: unit magnitudes at random angles, so the magnitudes and
        // the filter values round apart. Lanes 1 and 2: magnitudes within
        // 2^-9 of each other at scales where re^2 and im^2 are subnormal.
        // Lane 3: Gaussian bins with a NaN or an infinity before the
        // largest.
        const double scale = l == 1 ? 0x1p-537 : 0x1p-530;
        for (auto& c : spec[l]) {
          const double angle = rng.uniform(0.0, 2.0 * pi);
          if (l == 0) {
            c = std::polar(1.0, angle);
          } else if (l == 3) {
            c = {rng.gaussian(), rng.gaussian()};
          } else {
            c = std::polar(scale * (1.0 + 0x1p-9 * rng.uniform()), angle);
          }
        }
      }
      spec[3][1 + static_cast<std::size_t>(trial) % (n / 2 - 1)] =
          trial % 2 == 0 ? std::complex<double>(nan, 0.0)
                         : std::complex<double>(inf, 1.0);
      spec[3][n / 2] = {100.0, 0.0};
      std::vector<double> data(2 * kLanes * n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          data[2 * kLanes * i + l] = spec[l][i].real();
          data[2 * kLanes * i + kLanes + l] = spec[l][i].imag();
        }
      }
      for (const double guard : {0.0, 0.4}) {
        const auto got = find_peaks_lanes<kLanes>(data, 50.0, guard);
        for (std::size_t l = 0; l < kLanes; ++l) {
          const auto want =
              find_peaks(frozen_magnitudes(spec[l]), n, 50.0, guard);
          EXPECT_EQ(bits(got[l].peak_amplitude), bits(want.peak_amplitude));
          EXPECT_EQ(bits(got[l].peak_frequency_hz),
                    bits(want.peak_frequency_hz))
              << "n=" << n << " trial=" << trial << " lane=" << l;
          EXPECT_EQ(bits(got[l].peak2_amplitude), bits(want.peak2_amplitude));
          EXPECT_EQ(bits(got[l].peak2_frequency_hz),
                    bits(want.peak2_frequency_hz))
              << "n=" << n << " trial=" << trial << " lane=" << l;
        }
      }
    }
  }
}

TEST(Dft, FftMatchesDirectOnRandomInput) {
  util::Rng rng(21);
  // 96 is not a power of two -> direct path; 128 -> FFT path. Compare both
  // against each other through zero-padding equivalence is fiddly, so
  // instead verify FFT against a brute-force DFT at power-of-two size.
  const std::size_t n = 128;
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();

  const auto fast = dft(x);
  // Brute force.
  for (std::size_t k = 0; k < n; k += 17) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const double angle = -2.0 * pi * static_cast<double>(k * i) / static_cast<double>(n);
      acc += x[i] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    EXPECT_NEAR(std::abs(fast[k] - acc), 0.0, 1e-9);
  }
}

TEST(Dft, DirectPathMatchesBruteForce) {
  util::Rng rng(22);
  const std::size_t n = 60;  // not a power of two
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();

  const auto out = dft(x);
  for (std::size_t k = 0; k < n; k += 7) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const double angle = -2.0 * pi * static_cast<double>(k * i) / static_cast<double>(n);
      acc += x[i] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    EXPECT_NEAR(std::abs(out[k] - acc), 0.0, 1e-7);
  }
}

TEST(Dft, ParsevalHolds) {
  util::Rng rng(23);
  const std::size_t n = 256;
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();
  double time_energy = 0.0;
  for (const double v : x) time_energy += v * v;
  const auto spec = dft(x);
  double freq_energy = 0.0;
  for (const auto& c : spec) freq_energy += std::norm(c);
  freq_energy /= static_cast<double>(n);
  EXPECT_NEAR(time_energy, freq_energy, 1e-6 * time_energy);
}

TEST(Dft, FftRejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> x(100);
  EXPECT_THROW(fft_radix2(x), std::invalid_argument);
}

TEST(MagnitudeSpectrum, PureToneAmplitude) {
  // Bin-aligned tone: amplitude must be recovered exactly.
  const std::size_t n = 256;
  const double rate = 50.0;
  const double freq = 8.0 * rate / static_cast<double>(n);  // bin 8
  const auto x = sinusoid(n, freq, rate, 2.5);
  const auto mag = magnitude_spectrum(x);
  EXPECT_NEAR(mag[8], 2.5, 1e-9);
  // All other bins near zero.
  for (std::size_t k = 0; k < mag.size(); ++k) {
    if (k != 8) {
      EXPECT_LT(mag[k], 1e-9);
    }
  }
}

TEST(MagnitudeSpectrum, DcComponent) {
  std::vector<double> x(64, 3.0);
  const auto mag = magnitude_spectrum(x);
  EXPECT_NEAR(mag[0], 3.0, 1e-12);  // DC not doubled
}

TEST(MagnitudeSpectrum, EmptyInput) {
  EXPECT_TRUE(magnitude_spectrum({}).empty());
}

TEST(BinFrequency, MapsCorrectly) {
  EXPECT_DOUBLE_EQ(bin_frequency(0, 300, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(bin_frequency(6, 300, 50.0), 1.0);
  EXPECT_DOUBLE_EQ(bin_frequency(150, 300, 50.0), 25.0);
}

TEST(SpectralPeaks, FindsMainAndSecondary) {
  const std::size_t n = 512;
  const double rate = 50.0;
  // Main at bin 20 (1.953 Hz) amplitude 2.0; secondary at bin 40, 0.8.
  const double f1 = 20.0 * rate / n;
  const double f2 = 40.0 * rate / n;
  auto x = sinusoid(n, f1, rate, 2.0);
  const auto y = sinusoid(n, f2, rate, 0.8, 0.7);
  for (std::size_t i = 0; i < n; ++i) x[i] += y[i];

  const auto peaks = spectral_peaks(x, rate);
  EXPECT_NEAR(peaks.peak_amplitude, 2.0, 0.05);
  EXPECT_NEAR(peaks.peak_frequency_hz, f1, 1e-9);
  EXPECT_NEAR(peaks.peak2_amplitude, 0.8, 0.05);
  EXPECT_NEAR(peaks.peak2_frequency_hz, f2, 1e-9);
}

TEST(SpectralPeaks, SecondaryExcludesNeighbours) {
  // A single strong tone with leakage: the secondary peak must not be an
  // immediate neighbour bin of the main peak.
  const std::size_t n = 300;  // non-aligned tone -> leakage
  const double rate = 50.0;
  const auto x = sinusoid(n, 1.93, rate, 2.0);
  const auto peaks = spectral_peaks(x, rate);
  const double df = rate / static_cast<double>(n);
  EXPECT_GT(std::abs(peaks.peak2_frequency_hz - peaks.peak_frequency_hz),
            1.5 * df);
}

TEST(SpectralPeaks, GuardOutsideItsRangeIsClamped) {
  // A negative or NaN guard keeps the immediate neighbours out, like a zero
  // guard; one wider than the spectrum leaves no secondary peak. (The cast
  // of such a guard to a bin count used to be undefined.)
  const std::size_t n = 512;
  auto x = sinusoid(n, 20.0 * 50.0 / n, 50.0, 2.0);
  const auto y = sinusoid(n, 40.0 * 50.0 / n, 50.0, 0.8, 0.7);
  for (std::size_t i = 0; i < n; ++i) x[i] += y[i];
  const auto zero = spectral_peaks(x, 50.0, 0.0);
  for (const double guard :
       {-3.0, -1e300, std::numeric_limits<double>::quiet_NaN()}) {
    const auto p = spectral_peaks(x, 50.0, guard);
    EXPECT_EQ(bits(p.peak2_amplitude), bits(zero.peak2_amplitude)) << guard;
    EXPECT_EQ(bits(p.peak2_frequency_hz), bits(zero.peak2_frequency_hz));
  }
  EXPECT_GT(zero.peak2_amplitude, 0.5);
  const auto wide = spectral_peaks(x, 50.0, 1e300);
  EXPECT_EQ(wide.peak2_amplitude, 0.0);
  EXPECT_EQ(wide.peak2_frequency_hz, 0.0);
}

TEST(SpectralPeaks, HandlesTinyInput) {
  const std::vector<double> x{1.0};
  const auto peaks = spectral_peaks(x, 50.0);
  EXPECT_DOUBLE_EQ(peaks.peak_amplitude, 0.0);
}

// Parseval across sizes, both FFT and direct paths.
class DftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DftSizes, ParsevalAcrossSizes) {
  util::Rng rng(GetParam());
  std::vector<double> x(GetParam());
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  double te = 0.0;
  for (const double v : x) te += v * v;
  const auto spec = dft(x);
  double fe = 0.0;
  for (const auto& c : spec) fe += std::norm(c);
  fe /= static_cast<double>(x.size());
  EXPECT_NEAR(te, fe, 1e-6 * (te + 1.0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, DftSizes,
                         ::testing::Values(2, 3, 16, 50, 64, 100, 150, 256,
                                           300, 512));

}  // namespace
}  // namespace sy::signal
