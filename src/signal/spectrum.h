// Spectral peak extraction for the paper's frequency-domain features:
//   Peak    — amplitude of the main (non-DC) frequency
//   Peak f  — the main frequency itself
//   Peak2   — amplitude of the secondary frequency
//   Peak2 f — the secondary frequency (computed; dropped by selection, §V-C)
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace sy::signal {

struct SpectralPeaks {
  double peak_amplitude{0.0};
  double peak_frequency_hz{0.0};
  double peak2_amplitude{0.0};
  double peak2_frequency_hz{0.0};
};

// Finds the two largest non-DC bins of the one-sided magnitude spectrum.
// The secondary peak excludes a guard band of `guard_hz` around the main
// peak (at least the immediate neighbours, also for a negative or NaN
// `guard_hz`) so spectral leakage sidelobes of one physical peak are not
// reported as a second peak.
SpectralPeaks find_peaks(std::span<const double> magnitude,
                         std::size_t window_len, double sample_rate_hz,
                         double guard_hz = 0.0);

// find_peaks(magnitude_spectrum(x_l), n, sample_rate_hz, guard_hz) for L
// real windows x_l of n points at once, from their transforms in the
// layout of fft_radix2_lanes (`spectrum` holds n elements of 2L doubles).
// When lane l holds the bits of dft(x_l), as fft_radix2_lanes gives them
// on finite input, its result has the bits of that call.
//
// It computes the exact magnitude only where a peak can be. Per lane, the
// filter value t_k = re^2 + im^2, times 4 on the bins magnitude_spectrum
// doubles, is within a few ulp of the square of that bin's magnitude times
// n^2. Computing the magnitude (std::abs, which is libm hypot, then /n and
// x2) is also accurate to a few ulp: this relies on hypot being accurate to
// a few ulp, as glibc's is. So a bin whose t is below (1 - 2^-20) times the
// largest t has a rounded magnitude below that of the bin with the largest
// t and cannot be the first largest; every other bin gets its exact
// magnitude, and the first largest of those wins, as in find_peaks. The
// secondary peak filters the bins outside the guard band the same way. A
// lane with a non-finite t, or whose largest t is below 2^-900 (where the
// squares lose precision to underflow), gets every bin exactly.
// Instantiated for L = 4.
template <std::size_t L>
std::array<SpectralPeaks, L> find_peaks_lanes(std::span<const double> spectrum,
                                              double sample_rate_hz,
                                              double guard_hz = 0.0);

// Convenience: DFT + find_peaks for a raw time-domain window.
SpectralPeaks spectral_peaks(std::span<const double> window,
                             double sample_rate_hz, double guard_hz = 0.0);

}  // namespace sy::signal
