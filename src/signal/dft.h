// Discrete Fourier transform of real sensor windows.
//
// The feature extractor needs the magnitude spectrum of each ~50 Hz sensor
// window (§V-C). Windows whose length is a power of two go through an
// iterative radix-2 FFT; other lengths fall back to a direct O(n^2) DFT,
// which at n <= 800 is still microseconds — well inside the paper's 21 ms
// end-to-end budget.
//
// Both paths write their complex products out as real arithmetic, in the
// order of the finite branch of the std::complex operator (re = ar*br -
// ai*bi, im = ar*bi + ai*br), so on finite input every output has the bits
// the same algorithm gives in std::complex arithmetic (pinned in
// tests/signal_dft_test). They skip that operator's Annex G recovery, which
// only turns a (NaN, NaN) product of infinite inputs back into an infinity.
// The FFT reads its twiddles from a per-thread table that the same
// recurrence fills once per stage size.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace sy::signal {

// Full complex DFT: X[k] = sum_n x[n] exp(-2*pi*i*k*n/N).
std::vector<std::complex<double>> dft(std::span<const double> x);

// In-place radix-2 FFT; size must be a power of two.
void fft_radix2(std::vector<std::complex<double>>& x);

// One-sided magnitude spectrum (bins 0..N/2), with the DFT scaled by 1/N and
// non-DC/non-Nyquist bins doubled so a pure sinusoid of amplitude A produces
// a bin value of A. `sample_rate_hz` maps bins to frequencies via
// bin_frequency().
std::vector<double> magnitude_spectrum(std::span<const double> x);

// Frequency (Hz) of one-sided-spectrum bin `k` for window length `n`.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate_hz);

bool is_power_of_two(std::size_t n);

}  // namespace sy::signal
