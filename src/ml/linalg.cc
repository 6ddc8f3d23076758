#include "ml/linalg.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "num/kernels.h"

namespace sy::ml {

Matrix cholesky(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("cholesky: matrix must be square");
  }
  const std::size_t n = a.rows();
  // Copy the lower triangle into the zero-initialized factor and run the
  // blocked in-place factorization on it; the strictly upper triangle stays
  // zero, matching the historical output shape.
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = a.row(i);
    auto dst = l.row(i);
    for (std::size_t j = 0; j <= i; ++j) dst[j] = src[j];
  }
  if (num::cholesky_inplace(l.data().data(), n, n) != n) {
    throw std::runtime_error("cholesky: matrix not positive definite");
  }
  return l;
}

std::vector<double> cholesky_solve(const Matrix& l, std::span<const double> b) {
  const std::size_t n = l.rows();
  if (b.size() != n) throw std::invalid_argument("cholesky_solve: size");
  // Forward: L z = b. The row of L up to the diagonal is contiguous, so the
  // reduction is a dispatched dot_sub (scalar path: the same ascending-k
  // "sum -= l(i,k) * z[k]" sequence as ever).
  std::vector<double> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sum = num::dot_sub(b[i], l.row(i).first(i), {z.data(), i});
    z[i] = sum / l(i, i);
  }
  // Back: L^T x = z
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = z[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
  return x;
}

void forward_substitution(const Matrix& l, std::span<const double> b,
                          std::span<double> out) {
  const std::size_t n = l.rows();
  if (b.size() != n || out.size() != n) {
    throw std::invalid_argument("forward_substitution: size");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double sum =
        num::dot_sub(b[i], l.row(i).first(i), {out.data(), i});
    out[i] = sum / l(i, i);
  }
}

std::vector<double> solve_spd(const Matrix& a, std::span<const double> b) {
  return cholesky_solve(cholesky(a), b);
}

Matrix cholesky_solve(const Matrix& l, const Matrix& b) {
  const std::size_t n = l.rows();
  if (b.rows() != n) throw std::invalid_argument("cholesky_solve: size");
  const std::size_t nrhs = b.cols();
  constexpr std::size_t kPanel = 32;

  Matrix x = b;  // solved in place, panel by panel
  for (std::size_t j0 = 0; j0 < nrhs; j0 += kPanel) {
    const std::size_t width = std::min(j0 + kPanel, nrhs) - j0;
    // Forward: L Z = B over the panel. Each k-step is a dispatched axpy of
    // row k into row i; the per-column reduction still runs in the same
    // ascending-k order as the single-RHS path (y += (-lik) * x is the same
    // doubles op as y -= lik * x).
    for (std::size_t i = 0; i < n; ++i) {
      auto xi = x.row(i).subspan(j0, width);
      for (std::size_t k = 0; k < i; ++k) {
        num::axpy(-l(i, k), x.row(k).subspan(j0, width), xi);
      }
      const double diag = l(i, i);
      for (double& v : xi) v /= diag;
    }
    // Back: L^T X = Z over the panel.
    for (std::size_t ii = n; ii-- > 0;) {
      auto xi = x.row(ii).subspan(j0, width);
      for (std::size_t k = ii + 1; k < n; ++k) {
        num::axpy(-l(k, ii), x.row(k).subspan(j0, width), xi);
      }
      const double diag = l(ii, ii);
      for (double& v : xi) v /= diag;
    }
  }
  return x;
}

Matrix solve_spd(const Matrix& a, const Matrix& b) {
  return cholesky_solve(cholesky(a), b);
}

std::vector<double> solve_lu(Matrix a, std::vector<double> b) {
  if (a.rows() != a.cols() || a.rows() != b.size()) {
    throw std::invalid_argument("solve_lu: dimension mismatch");
  }
  const std::size_t n = a.rows();
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    }
    if (std::abs(a(pivot, col)) < 1e-300) {
      throw std::runtime_error("solve_lu: singular matrix");
    }
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(col, j), a(pivot, j));
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a(r, col) / a(col, col);
      if (f == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) a(r, j) -= f * a(col, j);
      b[r] -= f * b[col];
    }
  }
  // Back substitution.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) sum -= a(ii, j) * x[j];
    x[ii] = sum / a(ii, ii);
  }
  return x;
}

Matrix invert_spd(const Matrix& a) {
  return solve_spd(a, Matrix::identity(a.rows()));
}

}  // namespace sy::ml
