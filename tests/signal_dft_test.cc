#include "signal/dft.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
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

std::vector<double> frozen_magnitude_spectrum(std::span<const double> x) {
  const std::size_t n = x.size();
  if (n == 0) return {};
  const auto spec = frozen_dft(x);
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
    if (k != 8) EXPECT_LT(mag[k], 1e-9);
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
