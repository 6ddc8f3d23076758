// Dispatched entry points: one branch on the active backend per call. The
// kernels are leaf-level (a 28-dim dot, a 64-row RBF tile), so the branch is
// noise; callers that loop millions of times over tiles still pay it only
// once per tile because the tile itself is the dispatched unit.
#include "num/backend.h"
#include "num/kernels.h"

namespace sy::num {

double dot(std::span<const double> a, std::span<const double> b) {
  switch (active_backend()) {
    case Backend::kAvx512:
      return avx512::dot(a, b);
    case Backend::kAvx2:
      return avx2::dot(a, b);
    case Backend::kScalar:
      break;
  }
  return scalar::dot(a, b);
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  switch (active_backend()) {
    case Backend::kAvx512:
      return avx512::squared_distance(a, b);
    case Backend::kAvx2:
      return avx2::squared_distance(a, b);
    case Backend::kScalar:
      break;
  }
  return scalar::squared_distance(a, b);
}

double dot_sub(double init, std::span<const double> a,
               std::span<const double> b) {
  switch (active_backend()) {
    case Backend::kAvx512:
      return avx512::dot_sub(init, a, b);
    case Backend::kAvx2:
      return avx2::dot_sub(init, a, b);
    case Backend::kScalar:
      break;
  }
  return scalar::dot_sub(init, a, b);
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  switch (active_backend()) {
    case Backend::kAvx512:
      avx512::axpy(alpha, x, y);
      return;
    case Backend::kAvx2:
      avx2::axpy(alpha, x, y);
      return;
    case Backend::kScalar:
      break;
  }
  scalar::axpy(alpha, x, y);
}

void serial_dot_rows(const double* rows, std::size_t n_rows,
                     std::size_t stride, const double* w, std::size_t n,
                     double* out) {
  switch (active_backend()) {
    case Backend::kAvx512:
      avx512::serial_dot_rows(rows, n_rows, stride, w, n, out);
      return;
    case Backend::kAvx2:
      avx2::serial_dot_rows(rows, n_rows, stride, w, n, out);
      return;
    case Backend::kScalar:
      break;
  }
  scalar::serial_dot_rows(rows, n_rows, stride, w, n, out);
}

void rbf_row_kernel(const double* rows, std::size_t n_rows, std::size_t stride,
                    const double* center, std::size_t dim, double gamma,
                    double* out) {
  switch (active_backend()) {
    case Backend::kAvx512:
      avx512::rbf_row_kernel(rows, n_rows, stride, center, dim, gamma, out);
      return;
    case Backend::kAvx2:
      avx2::rbf_row_kernel(rows, n_rows, stride, center, dim, gamma, out);
      return;
    case Backend::kScalar:
      break;
  }
  scalar::rbf_row_kernel(rows, n_rows, stride, center, dim, gamma, out);
}

void rff_transform_row(const double* freqs, std::size_t n_freq,
                       std::size_t stride, const double* x, std::size_t dim,
                       double scale, double* out) {
  switch (active_backend()) {
    case Backend::kAvx512:
      avx512::rff_transform_row(freqs, n_freq, stride, x, dim, scale, out);
      return;
    case Backend::kAvx2:
      avx2::rff_transform_row(freqs, n_freq, stride, x, dim, scale, out);
      return;
    case Backend::kScalar:
      break;
  }
  scalar::rff_transform_row(freqs, n_freq, stride, x, dim, scale, out);
}

}  // namespace sy::num
