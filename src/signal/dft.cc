#include "signal/dft.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace sy::signal {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

namespace {

struct Twiddle {
  double re;
  double im;
};

// Twiddles of every Danielson-Lanczos stage up to the largest transform this
// thread has run: stage `len` owns entries [len/2 - 1, len - 1), filled by
// the recurrence w_{k+1} = w_k * exp(-2*pi*i/len) from w_0 = 1 with the
// written-out product, so each entry has the bits of the std::complex
// recurrence `w *= wlen`. A stage's entries do not depend on the transform
// size, so a larger transform only appends stages.
const Twiddle* twiddles(std::size_t n) {
  thread_local std::vector<Twiddle> table;
  for (std::size_t len = 2 * (table.size() + 1); len <= n; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    const double lr = std::cos(angle);
    const double li = std::sin(angle);
    double wr = 1.0;
    double wi = 0.0;
    for (std::size_t k = 0; k < len / 2; ++k) {
      table.push_back({wr, wi});
      const double next_r = wr * lr - wi * li;
      wi = wr * li + wi * lr;
      wr = next_r;
    }
  }
  return table.data();
}

}  // namespace

template <std::size_t L>
void fft_radix2_lanes(std::span<double> data) {
  constexpr std::size_t kStride = 2 * L;
  const std::size_t n = data.size() / kStride;
  if (data.size() % kStride != 0 || !is_power_of_two(n)) {
    throw std::invalid_argument("fft_radix2: size must be a power of two");
  }
  double* x = data.data();
  // Bit-reversal permutation of whole elements (all lanes at once).
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      std::swap_ranges(x + kStride * i, x + kStride * (i + 1), x + kStride * j);
    }
  }
  // Danielson-Lanczos stages. The twiddle product is written out as the
  // finite branch of the complex multiply: the std::complex operator
  // compiles to an Annex G NaN check with a __muldc3 call. Every lane runs
  // the same operations in the same order, so the lane loop vectorizes
  // without changing any lane's bits.
  const Twiddle* table = twiddles(n);
  for (std::size_t half = 1; half < n; half <<= 1) {
    const Twiddle* w = table + (half - 1);
    for (std::size_t i = 0; i < n; i += 2 * half) {
      double* lo = x + kStride * i;
      double* hi = lo + kStride * half;
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = w[k].re;
        const double wi = w[k].im;
        double* a = lo + kStride * k;
        double* b = hi + kStride * k;
        for (std::size_t l = 0; l < L; ++l) {
          const double br = b[l];
          const double bi = b[L + l];
          const double vr = br * wr - bi * wi;
          const double vi = br * wi + bi * wr;
          const double ur = a[l];
          const double ui = a[L + l];
          a[l] = ur + vr;
          a[L + l] = ui + vi;
          b[l] = ur - vr;
          b[L + l] = ui - vi;
        }
      }
    }
  }
}

template void fft_radix2_lanes<1>(std::span<double>);
template void fft_radix2_lanes<4>(std::span<double>);

void fft_radix2(std::vector<std::complex<double>>& x) {
  fft_radix2_lanes<1>(
      std::span<double>(reinterpret_cast<double*>(x.data()), 2 * x.size()));
}

std::vector<std::complex<double>> dft(std::span<const double> x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  if (n == 0) return out;

  if (is_power_of_two(n)) {
    for (std::size_t i = 0; i < n; ++i) out[i] = {x[i], 0.0};
    fft_radix2(out);
    return out;
  }

  // Direct DFT with recurrence-based twiddle factors per output bin, the
  // recurrence written out like the FFT butterfly.
  for (std::size_t k = 0; k < n; ++k) {
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
    const double cr = std::cos(angle);
    const double ci = std::sin(angle);
    double wr = 1.0;
    double wi = 0.0;
    double acc_r = 0.0;
    double acc_i = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc_r += x[i] * wr;
      acc_i += x[i] * wi;
      const double next_r = wr * cr - wi * ci;
      wi = wr * ci + wi * cr;
      wr = next_r;
    }
    out[k] = {acc_r, acc_i};
  }
  return out;
}

std::vector<double> magnitude_spectrum(std::span<const double> x) {
  const std::size_t n = x.size();
  if (n == 0) return {};
  const auto spec = dft(x);
  std::vector<double> mag(n / 2 + 1);
  for (std::size_t k = 0; k < mag.size(); ++k) {
    mag[k] = one_sided_magnitude(spec[k], k, n);
  }
  return mag;
}

bool is_doubled_bin(std::size_t k, std::size_t n) {
  const bool is_dc = (k == 0);
  const bool is_nyquist = (n % 2 == 0 && k == n / 2);
  return !is_dc && !is_nyquist;
}

double one_sided_magnitude(std::complex<double> x, std::size_t k,
                           std::size_t n) {
  double m = std::abs(x) / static_cast<double>(n);
  if (is_doubled_bin(k, n)) m *= 2.0;
  return m;
}

double bin_frequency(std::size_t k, std::size_t n, double sample_rate_hz) {
  if (n == 0) throw std::invalid_argument("bin_frequency: empty window");
  return sample_rate_hz * static_cast<double>(k) / static_cast<double>(n);
}

}  // namespace sy::signal
