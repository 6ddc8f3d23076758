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
//
// fft_radix2_lanes runs L equal-length transforms in lockstep (the feature
// extractor runs a window's four sensor streams at once). Each lane performs
// fft_radix2's operations in fft_radix2's order with the same twiddles, so
// lane l has the bits fft_radix2 gives that lane's input alone; the lane
// loop only lets the compiler use packed SSE2 arithmetic (pinned in
// tests/signal_dft_test). fft_radix2 is the L = 1 instantiation.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace sy::signal {

// Full complex DFT: X[k] = sum_n x[n] exp(-2*pi*i*k*n/N).
std::vector<std::complex<double>> dft(std::span<const double> x);

// In-place radix-2 FFT; size must be a power of two.
void fft_radix2(std::vector<std::complex<double>>& x);

// In-place radix-2 FFT of L transforms of n points each; n must be a power
// of two. `data` holds n elements of 2L doubles: element i is the real parts
// of x_0[i] .. x_{L-1}[i], then their imaginary parts, so L = 1 is the
// std::complex layout. Instantiated for L = 1 and L = 4.
template <std::size_t L>
void fft_radix2_lanes(std::span<double> data);

// One-sided magnitude spectrum (bins 0..N/2), with the DFT scaled by 1/N and
// non-DC/non-Nyquist bins doubled so a pure sinusoid of amplitude A produces
// a bin value of A. `sample_rate_hz` maps bins to frequencies via
// bin_frequency().
std::vector<double> magnitude_spectrum(std::span<const double> x);

// Bin k of magnitude_spectrum for an n-point DFT whose bin k is `x`:
// std::abs(x) / n, doubled when is_doubled_bin(k, n).
double one_sided_magnitude(std::complex<double> x, std::size_t k,
                           std::size_t n);
// Every bin of the one-sided spectrum but DC and, for even n, Nyquist.
bool is_doubled_bin(std::size_t k, std::size_t n);

// Frequency (Hz) of one-sided-spectrum bin `k` for window length `n`.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate_hz);

bool is_power_of_two(std::size_t n);

}  // namespace sy::signal
