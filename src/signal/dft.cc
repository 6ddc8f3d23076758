#include "signal/dft.h"

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

void fft_radix2(std::vector<std::complex<double>>& x) {
  const std::size_t n = x.size();
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("fft_radix2: size must be a power of two");
  }
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  // Danielson-Lanczos stages. The twiddle product is written out as the
  // finite branch of the complex multiply: the std::complex operator
  // compiles to an Annex G NaN check with a __muldc3 call.
  const Twiddle* table = twiddles(n);
  double* data = reinterpret_cast<double*>(x.data());
  for (std::size_t half = 1; half < n; half <<= 1) {
    const Twiddle* w = table + (half - 1);
    for (std::size_t i = 0; i < n; i += 2 * half) {
      double* lo = data + 2 * i;
      double* hi = lo + 2 * half;
      for (std::size_t k = 0; k < half; ++k) {
        const double br = hi[2 * k];
        const double bi = hi[2 * k + 1];
        const double vr = br * w[k].re - bi * w[k].im;
        const double vi = br * w[k].im + bi * w[k].re;
        const double ur = lo[2 * k];
        const double ui = lo[2 * k + 1];
        lo[2 * k] = ur + vr;
        lo[2 * k + 1] = ui + vi;
        hi[2 * k] = ur - vr;
        hi[2 * k + 1] = ui - vi;
      }
    }
  }
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

double bin_frequency(std::size_t k, std::size_t n, double sample_rate_hz) {
  if (n == 0) throw std::invalid_argument("bin_frequency: empty window");
  return sample_rate_hz * static_cast<double>(k) / static_cast<double>(n);
}

}  // namespace sy::signal
