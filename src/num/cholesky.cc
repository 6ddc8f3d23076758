// Blocked right-looking Cholesky factorization.
//
// Classic three-phase schedule per 64-column panel:
//   1. panel factor — unblocked factorization of columns [p0, p1) over all
//      rows below, column by column (this fuses the L11 factor and the
//      L21 triangular solve);
//   2. (fused into 1);
//   3. rank-k trailing update — A22 -= L21 L21^T on the lower triangle of
//      the remaining rows/columns.
//
// Every per-entry reduction is a dot_sub over contiguous row segments (the
// panel slices of rows i and j), dispatched once per factorization to the
// active backend.
//
// Bit-exactness of the scalar path: entry (i,j) undergoes subtractions of
// l(i,k)*l(j,k) in strictly ascending k (trailing updates apply panels in
// ascending order; the panel factor finishes k in [p0,j)), then the same
// sqrt / divide as the textbook left-looking loop this replaced. Storing the
// partially-updated entry back to memory between panels is exact, so the
// factor is bit-identical to the unblocked reference — blocking reorders
// only which entry is touched next, never an entry's own operation order.
// The SIMD factors are pinned bitwise against a frozen copy of this file's
// schedule in num_kernels_test.
#include "num/backend.h"
#include "num/kernels.h"

#include <algorithm>
#include <cmath>

namespace sy::num {

namespace {

// Panel width: 64 columns * 8 bytes = one 512-byte row segment; the trailing
// update then reuses each row's panel slice across a whole row of the
// trailing matrix while it is hot.
constexpr std::size_t kPanel = 64;

using DotSubFn = double (*)(double, std::span<const double>,
                            std::span<const double>);

// A22 -= L21 L21^T on the lower triangle of rows/columns [p1, n), reading
// the finished panel columns [p0, p1). The SIMD paths register-block four
// (avx2) or eight (avx512) columns per call from column p1, which amortizes
// call overhead and replaces the per-entry horizontal reductions with one
// cross-lane shuffle + vector subtract.
void trailing_update(double* a, std::size_t n, std::size_t stride,
                     std::size_t p0, std::size_t p1, Backend backend,
                     DotSubFn dot_sub_fn) {
  const std::size_t nb = p1 - p0;
  for (std::size_t i = p1; i < n; ++i) {
    double* row_i = a + i * stride;
    const std::span<const double> li{row_i + p0, nb};
    const std::size_t jend = i + 1;
    std::size_t j = p1;
    if (backend == Backend::kAvx512) {
      for (; j + 8 <= jend; j += 8) {
        const double* bs[8] = {
            a + j * stride + p0,       a + (j + 1) * stride + p0,
            a + (j + 2) * stride + p0, a + (j + 3) * stride + p0,
            a + (j + 4) * stride + p0, a + (j + 5) * stride + p0,
            a + (j + 6) * stride + p0, a + (j + 7) * stride + p0};
        avx512::dot_sub8(row_i + j, li.data(), bs, nb);
      }
    } else if (backend == Backend::kAvx2) {
      for (; j + 4 <= jend; j += 4) {
        const double* bs[4] = {
            a + j * stride + p0, a + (j + 1) * stride + p0,
            a + (j + 2) * stride + p0, a + (j + 3) * stride + p0};
        avx2::dot_sub4(row_i + j, li.data(), bs, nb);
      }
    }
    for (; j < jend; ++j) {
      row_i[j] = dot_sub_fn(row_i[j], li, {a + j * stride + p0, nb});
    }
  }
}

// Panel factor: columns [p0, p1), all rows below the diagonal. This fuses
// the L11 factor and the L21 triangular solve; it is inherently serial
// (columns depend on each other).
// Returns p1 on success, or the offending column index on a pivot that is
// not positive. The test reads `!(diag > 0.0)` so that a NaN pivot fails
// too (`diag <= 0.0` is false for NaN).
std::size_t factor_panel(double* a, std::size_t n, std::size_t stride,
                         std::size_t p0, std::size_t p1, DotSubFn dot_sub_fn) {
  for (std::size_t j = p0; j < p1; ++j) {
    double* row_j = a + j * stride;
    const std::span<const double> lj{row_j + p0, j - p0};
    double diag = dot_sub_fn(row_j[j], lj, lj);
    if (!(diag > 0.0)) return j;  // not (numerically) positive definite
    diag = std::sqrt(diag);
    row_j[j] = diag;
    for (std::size_t i = j + 1; i < n; ++i) {
      double* row_i = a + i * stride;
      row_i[j] = dot_sub_fn(row_i[j], {row_i + p0, j - p0}, lj) / diag;
    }
  }
  return p1;
}

}  // namespace

std::size_t cholesky_inplace(double* a, std::size_t n, std::size_t stride) {
  const Backend backend = active_backend();
  DotSubFn dot_sub_fn = scalar::dot_sub;
  if (backend == Backend::kAvx512) {
    dot_sub_fn = avx512::dot_sub;
  } else if (backend == Backend::kAvx2) {
    dot_sub_fn = avx2::dot_sub;
  }

  for (std::size_t p0 = 0; p0 < n; p0 += kPanel) {
    const std::size_t p1 = std::min(p0 + kPanel, n);
    const std::size_t r = factor_panel(a, n, stride, p0, p1, dot_sub_fn);
    if (r != p1) return r;
    trailing_update(a, n, stride, p0, p1, backend, dot_sub_fn);
  }
  return n;
}

}  // namespace sy::num
