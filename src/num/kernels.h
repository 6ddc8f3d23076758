/// \file
/// The numeric hot kernels every score and retrain bottoms out in.
///
/// Top-level functions dispatch on backend::active_backend(); the explicit
/// scalar:: / avx2:: namespaces exist for tests and for callers that resolve
/// the backend once per batch (ml::gram_matrix, num::cholesky_inplace).
///
/// Contracts:
///   - scalar:: — bit-exact reference. Each kernel performs the same doubles
///     operations in the same order as the historical loops in ml/matrix.cc,
///     ml/kernel.cc and ml/linalg.cc, so the scalar backend reproduces
///     pre-refactor results bit-for-bit.
///   - avx2::  — lane-parallel partial sums + FMA; agrees with scalar to
///     within 1e-12 relative tolerance (property-tested, including remainder
///     lanes). On non-x86 builds the avx2:: symbols forward to scalar:: and
///     avx2::available() is false.
///   - avx512:: — 8-wide double lanes (AVX-512F) with MASKED remainder
///     lanes: a length-n reduction is bit-identical to the same kernel on
///     the zero-padded length-8⌈n/8⌉ input, so an element's contribution
///     never depends on which side of a vector boundary it lands
///     (position independence). Same 1e-12 agreement contract as avx2;
///     forwards to scalar:: where not compiled in.
#pragma once

#include <cstddef>
#include <span>

/// Numeric kernel layer: runtime-dispatched scalar/AVX2/AVX-512 hot loops.
namespace sy::num {

/// Inner product `<a, b>` of equal-length spans.
double dot(std::span<const double> a, std::span<const double> b);

/// Squared Euclidean distance `||a - b||^2`.
double squared_distance(std::span<const double> a, std::span<const double> b);

/// `init - <a, b>`. The scalar path subtracts term-by-term in ascending
/// index order — exactly the reduction shape of triangular solves and the
/// Cholesky trailing update ("sum -= l(i,k) * l(j,k)").
double dot_sub(double init, std::span<const double> a,
               std::span<const double> b);

/// `y += alpha * x` (element-wise, ascending index order).
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// Weighted row sums `out[r] = sum_i w[i] * rows_r[i]` for `n_rows`
/// row-major rows of length `n`, consecutive rows `stride` doubles apart.
/// Each row is one serial chain from +0.0 in ascending i, and each step is
/// the active backend's axpy operation (scalar `acc + w[i] * rows_r[i]`,
/// avx2/avx512 `fma(w[i], rows_r[i], acc)`). So out[r] equals, bit for bit,
/// entry r of a zeroed vector after `axpy(w[i], column i, out)` for i = 0,
/// 1, ..., n - 1, and it does not depend on n_rows or on the row's position
/// in the block. Rows are interleaved only to overlap their chains' latency.
void serial_dot_rows(const double* rows, std::size_t n_rows,
                     std::size_t stride, const double* w, std::size_t n,
                     double* out);

/// Fused RBF row kernel: `out[i] = exp(-gamma * ||rows_i - center||^2)` for
/// `n_rows` row-major rows of length `dim`, consecutive rows `stride`
/// doubles apart. `gamma` must already be resolved
/// (ml::Kernel::effective_gamma is hoisted to the batch level by the callers
/// — it is never re-derived per row).
void rbf_row_kernel(const double* rows, std::size_t n_rows, std::size_t stride,
                    const double* center, std::size_t dim, double gamma,
                    double* out);

/// Fused random-Fourier-feature transform row (the approximate-KRR feature
/// map, ml::RffFeatureMap). For each of `n_freq` frequency rows `w_k`
/// (row-major, length `dim`, consecutive rows `stride` doubles apart):
///
///     phase   = <w_k, x>
///     out[2k]   = scale * cos(phase)
///     out[2k+1] = scale * sin(phase)
///
/// i.e. one matrix-vector product fused with the paired cos/sin feature
/// write; `out` must hold `2 * n_freq` doubles. The scalar path accumulates
/// each phase in ascending index order and calls std::cos/std::sin — that is
/// the bit-exact reference. The avx2 path evaluates four phases per step and
/// both trigs through one Cephes-style vectorized sincos (~1 ulp), inside
/// the 1e-12 relative budget.
void rff_transform_row(const double* freqs, std::size_t n_freq,
                       std::size_t stride, const double* x, std::size_t dim,
                       double scale, double* out);

/// Blocked right-looking Cholesky factorization, in place on the lower
/// triangle of the row-major `n` x `n` matrix `a` (leading dimension
/// `stride`, stride >= n). Panel factor + fused triangular solve + rank-k
/// trailing update; the inner reductions dispatch on the active backend. The
/// strictly upper triangle is left untouched.
///
/// \return `n` on success. On a pivot that is not positive (NaN included),
/// returns its index j (the matrix is not positive definite); entries at and
/// beyond column j are partially updated garbage.
///
/// Scalar bit-exactness: every entry undergoes the same subtraction sequence
/// (ascending k), sqrt, and division as the classic unblocked left-looking
/// loop, so the scalar factor is bit-identical to it; blocking only reorders
/// which entry is visited next, never the per-entry operation order.
std::size_t cholesky_inplace(double* a, std::size_t n, std::size_t stride);

/// Bit-exact reference implementations (see the file contract above).
namespace scalar {
/// Scalar `<a, b>` — ascending-index accumulation.
double dot(std::span<const double> a, std::span<const double> b);
/// Scalar `||a - b||^2` — ascending-index accumulation.
double squared_distance(std::span<const double> a, std::span<const double> b);
/// Scalar `init - <a, b>` — ascending-index term-by-term subtraction.
double dot_sub(double init, std::span<const double> a,
               std::span<const double> b);
/// Scalar `y += alpha * x` — ascending-index element loop.
void axpy(double alpha, std::span<const double> x, std::span<double> y);
/// Scalar weighted row sums: per row, `acc = acc + w[i] * row[i]` in
/// ascending i (the scalar axpy's operation).
void serial_dot_rows(const double* rows, std::size_t n_rows,
                     std::size_t stride, const double* w, std::size_t n,
                     double* out);
/// Scalar fused RBF row kernel (reference for the dispatched entry point).
void rbf_row_kernel(const double* rows, std::size_t n_rows, std::size_t stride,
                    const double* center, std::size_t dim, double gamma,
                    double* out);
/// Scalar fused cos/sin RFF transform row (reference: ascending-index phase
/// accumulation, std::cos / std::sin per frequency).
void rff_transform_row(const double* freqs, std::size_t n_freq,
                       std::size_t stride, const double* x, std::size_t dim,
                       double scale, double* out);
}  // namespace scalar

/// AVX2+FMA implementations; forward to scalar:: on non-x86 builds.
namespace avx2 {
/// True when the AVX2+FMA code path is compiled in and this CPU supports it.
bool available();
/// Lane-parallel `<a, b>` with FMA partial sums.
double dot(std::span<const double> a, std::span<const double> b);
/// Lane-parallel `||a - b||^2` with FMA partial sums.
double squared_distance(std::span<const double> a, std::span<const double> b);
/// `init - <a, b>` via the lane-parallel dot.
double dot_sub(double init, std::span<const double> a,
               std::span<const double> b);
/// `dst[c] -= <a, b[c]>` for four right-hand rows at once — the Cholesky
/// trailing update's register-blocked micro-kernel (one call, one vector
/// subtract, no per-entry horizontal reduction).
void dot_sub4(double* dst, const double* a, const double* const b[4],
              std::size_t n);
/// Vectorized `y += alpha * x`; remainder lanes use scalar std::fma.
void axpy(double alpha, std::span<const double> x, std::span<double> y);
/// Weighted row sums: per row, `acc = fma(w[i], row[i], acc)` in ascending
/// i (the avx2 axpy's operation), four rows' chains interleaved.
void serial_dot_rows(const double* rows, std::size_t n_rows,
                     std::size_t stride, const double* w, std::size_t n,
                     double* out);
/// Quad-row fused RBF kernel (four accumulator chains + one exp4 call).
void rbf_row_kernel(const double* rows, std::size_t n_rows, std::size_t stride,
                    const double* center, std::size_t dim, double gamma,
                    double* out);
/// Quad-frequency fused cos/sin RFF transform (four phase chains + one
/// sincos4 call per group).
void rff_transform_row(const double* freqs, std::size_t n_freq,
                       std::size_t stride, const double* x, std::size_t dim,
                       double scale, double* out);
/// Vectorized double-precision exp on 4 lanes (Cephes-style range reduction
/// + rational polynomial, ~1 ulp for normal results). Exposed for tests.
void exp4(const double* x, double* out);
/// Vectorized double-precision sin and cos on 4 lanes (Cephes-style pi/4
/// octant reduction + polynomial, ~1-2 ulp for |x| within the float64
/// octant-index range). Exposed for tests.
void sincos4(const double* x, double* sin_out, double* cos_out);
}  // namespace avx2

/// AVX-512F implementations: 8-wide double lanes with masked remainder
/// lanes, so every reduction is bit-identical to the zero-padded full-lane
/// run (position independence; see the file contract). Forward to scalar::
/// on non-x86 builds.
namespace avx512 {
/// True when the AVX-512F code path is compiled in and this CPU supports it.
bool available();
/// 8-lane `<a, b>` with FMA partial sums and a masked tail lane group.
double dot(std::span<const double> a, std::span<const double> b);
/// 8-lane `||a - b||^2` with FMA partial sums and a masked tail.
double squared_distance(std::span<const double> a, std::span<const double> b);
/// `init - <a, b>` via the 8-lane dot.
double dot_sub(double init, std::span<const double> a,
               std::span<const double> b);
/// `dst[c] -= <a, b[c]>` for eight right-hand rows at once — the Cholesky
/// trailing update's register-blocked micro-kernel (the row slice of `a`
/// is loaded once per eight columns).
void dot_sub8(double* dst, const double* a, const double* const b[8],
              std::size_t n);
/// 8-lane `y += alpha * x`; the tail is a masked fused multiply-add, so
/// every element sees the identical fma regardless of lane position.
void axpy(double alpha, std::span<const double> x, std::span<double> y);
/// Weighted row sums: per row, `acc = fma(w[i], row[i], acc)` in ascending
/// i (the avx512 axpy's operation), four rows' chains interleaved.
void serial_dot_rows(const double* rows, std::size_t n_rows,
                     std::size_t stride, const double* w, std::size_t n,
                     double* out);
/// Octo-row fused RBF kernel (eight accumulator chains + one exp8 call).
void rbf_row_kernel(const double* rows, std::size_t n_rows, std::size_t stride,
                    const double* center, std::size_t dim, double gamma,
                    double* out);
/// Octo-frequency fused cos/sin RFF transform (eight phase chains + one
/// sincos8 call per group).
void rff_transform_row(const double* freqs, std::size_t n_freq,
                       std::size_t stride, const double* x, std::size_t dim,
                       double scale, double* out);
/// Vectorized double-precision exp on 8 lanes (same Cephes-style range
/// reduction + rational polynomial as avx2::exp4, ~1 ulp for normal
/// results). Exposed for tests.
void exp8(const double* x, double* out);
/// Vectorized double-precision sin and cos on 8 lanes (Cephes-style pi/4
/// octant reduction + polynomial, ~1-2 ulp for |x| within the float64
/// octant-index range). Exposed for tests.
void sincos8(const double* x, double* sin_out, double* cos_out);
}  // namespace avx512

}  // namespace sy::num
