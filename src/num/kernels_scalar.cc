// Scalar reference kernels — the bit-exactness anchor of the num:: layer.
//
// Each loop body reproduces, expression for expression, the historical
// hand-written loop it replaced (ml/matrix.cc dot / squared_distance,
// ml/kernel.cc's exp(-gamma * d2), ml/linalg.cc's "sum -= l(i,k) * l(j,k)"),
// so kScalar results are bit-identical to the pre-num:: code. Do not
// "optimize" these: any reassociation breaks the contract that
// tests/num_kernels_test pins with exact comparisons.
#include <cmath>

#include "num/kernels.h"
#include "util/assert.h"

namespace sy::num::scalar {

double dot(std::span<const double> a, std::span<const double> b) {
  SY_ASSERT(a.size() == b.size(), "num::dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  SY_ASSERT(a.size() == b.size(), "num::squared_distance: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double dot_sub(double init, std::span<const double> a,
               std::span<const double> b) {
  SY_ASSERT(a.size() == b.size(), "num::dot_sub: size mismatch");
  double acc = init;
  for (std::size_t i = 0; i < a.size(); ++i) acc -= a[i] * b[i];
  return acc;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  SY_ASSERT(x.size() == y.size(), "num::axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void serial_dot_rows(const double* rows, std::size_t n_rows,
                     std::size_t stride, const double* w, std::size_t n,
                     double* out) {
  // The axpy loop's `y[i] += alpha * x[i]`, turned so each output is one
  // chain; four chains run side by side to hide the add latency.
  std::size_t r = 0;
  for (; r + 4 <= n_rows; r += 4) {
    const double* r0 = rows + r * stride;
    const double* r1 = r0 + stride;
    const double* r2 = r1 + stride;
    const double* r3 = r2 + stride;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      a0 += w[i] * r0[i];
      a1 += w[i] * r1[i];
      a2 += w[i] * r2[i];
      a3 += w[i] * r3[i];
    }
    out[r] = a0;
    out[r + 1] = a1;
    out[r + 2] = a2;
    out[r + 3] = a3;
  }
  for (; r < n_rows; ++r) {
    const double* row = rows + r * stride;
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += w[i] * row[i];
    out[r] = acc;
  }
}

void rbf_row_kernel(const double* rows, std::size_t n_rows, std::size_t stride,
                    const double* center, std::size_t dim, double gamma,
                    double* out) {
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double* row = rows + r * stride;
    double acc = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double d = row[i] - center[i];
      acc += d * d;
    }
    out[r] = std::exp(-gamma * acc);
  }
}

void rff_transform_row(const double* freqs, std::size_t n_freq,
                       std::size_t stride, const double* x, std::size_t dim,
                       double scale, double* out) {
  // New in the approximate-KRR layer (no historical loop to mirror): this IS
  // the reference. Ascending-index phase accumulation, libm cos/sin.
  for (std::size_t k = 0; k < n_freq; ++k) {
    const double* w = freqs + k * stride;
    double phase = 0.0;
    for (std::size_t i = 0; i < dim; ++i) phase += w[i] * x[i];
    out[2 * k] = scale * std::cos(phase);
    out[2 * k + 1] = scale * std::sin(phase);
  }
}

}  // namespace sy::num::scalar
