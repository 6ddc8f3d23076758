// Direct solvers for the small SPD / square systems the classifiers need:
// Cholesky for (K + rho*I) and (X^T X + rho*I), LU with partial pivoting as
// the general fallback.
#pragma once

#include <span>
#include <vector>

#include "ml/matrix.h"

namespace sy::ml {

// Cholesky factorization A = L L^T of an SPD matrix; returns lower-triangular
// L. Throws std::runtime_error if A is not (numerically) positive definite.
// Blocked right-looking via num::cholesky_inplace (panel factor + fused
// triangular solve + rank-k update on the dispatched backend); the scalar
// backend is bit-identical to the classic unblocked left-looking loop.
Matrix cholesky(const Matrix& a);

// Solves A x = b for SPD A via Cholesky.
std::vector<double> solve_spd(const Matrix& a, std::span<const double> b);

// Solves A X = B for SPD A, column-block RHS.
Matrix solve_spd(const Matrix& a, const Matrix& b);

// Solves A x = b by LU with partial pivoting (square, nonsingular A).
std::vector<double> solve_lu(Matrix a, std::vector<double> b);

// Inverse of an SPD matrix via Cholesky (used by incremental KRR).
Matrix invert_spd(const Matrix& a);

// Forward/back substitution with a lower-triangular factor L (A = L L^T).
std::vector<double> cholesky_solve(const Matrix& l, std::span<const double> b);

// Forward substitution only: solves L z = b for lower-triangular L, writing
// z into `out` (out.size() == b.size() == l.rows()). Identical reduction
// order to the forward half of cholesky_solve (Nystrom maps apply L_mm^-1
// without the back pass).
void forward_substitution(const Matrix& l, std::span<const double> b,
                          std::span<double> out);

// Multi-RHS forward/back substitution, blocked over column panels of B so a
// factor row is reused across the whole panel instead of being re-streamed
// once per column. Per-column results are bit-identical to the single-RHS
// overload (the reduction order over k is unchanged).
Matrix cholesky_solve(const Matrix& l, const Matrix& b);

}  // namespace sy::ml
