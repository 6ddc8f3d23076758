// The num:: kernel layer's two contracts (ISSUE 3):
//
//   1. Bit-exactness — the scalar backend reproduces, bit for bit, the
//      pre-refactor loops it replaced. The reference implementations below
//      are verbatim copies of the historical ml/matrix.cc, ml/kernel.cc and
//      ml/linalg.cc code (the "pre-refactor goldens"); every scalar kernel
//      is compared against them with exact equality, including the blocked
//      Cholesky against the classic unblocked left-looking loop.
//   2. Tolerance — the SIMD backends (AVX2, AVX-512) agree with scalar
//      within 1e-12 relative error on randomized sizes, remainder lanes
//      included. The any-backend sweeps iterate num::all_backends(), so a
//      future backend (NEON) is covered by adding it to the enum.
//   3. Masked remainders (AVX-512) — a length-n kernel is BITWISE identical
//      to the zero-padded full-lane run, for every remainder width 1..7
//      (position independence).
//   4. Frozen factor — the blocked Cholesky is BITWISE the frozen copy of
//      its panel schedule below, on every backend, pivot status included.
//   5. Serial row sums — serial_dot_rows is BITWISE the per-backend
//      ascending-axpy reduction it replaced in KRR scoring.
#include "num/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "ml/linalg.h"
#include "num/backend.h"
#include "util/rng.h"

namespace sy::num {
namespace {

// --- Pre-refactor reference implementations (golden bit patterns) ----------

double ref_dot(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double ref_squared_distance(std::span<const double> a,
                            std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double ref_rbf(std::span<const double> a, std::span<const double> b,
               double gamma) {
  return std::exp(-gamma * ref_squared_distance(a, b));
}

// The historical unblocked left-looking Cholesky from ml/linalg.cc, on a
// dense row-major lower triangle. Returns false on a non-positive pivot.
bool ref_cholesky(const std::vector<double>& a, std::size_t n,
                  std::vector<double>& l) {
  l.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) sum -= l[i * n + k] * l[j * n + k];
      if (i == j) {
        if (sum <= 0.0) return false;
        l[i * n + j] = std::sqrt(sum);
      } else {
        l[i * n + j] = sum / l[j * n + j];
      }
    }
  }
  return true;
}

// A frozen copy of the blocked factor in num/cholesky.cc: a rewrite there
// (register tiling, another panel width) must keep its bits on every
// backend. Per 64-column panel: one dot_sub per panel entry, stopping at the
// first pivot that is not > 0 (NaN included); then the trailing update from
// column p1, eight (avx512) or four (avx2) columns per dot_subN call and one
// dot_sub per remaining column. Returns n, or the failing column.
std::size_t frozen_cholesky(double* a, std::size_t n, Backend backend) {
  const auto dot_sub_fn = backend == Backend::kAvx512 ? avx512::dot_sub
                          : backend == Backend::kAvx2 ? avx2::dot_sub
                                                      : scalar::dot_sub;
  const std::size_t width = backend == Backend::kAvx512 ? 8
                            : backend == Backend::kAvx2 ? 4
                                                        : 0;
  for (std::size_t p0 = 0; p0 < n; p0 += 64) {
    const std::size_t p1 = std::min<std::size_t>(p0 + 64, n);
    for (std::size_t j = p0; j < p1; ++j) {
      const std::span<const double> lj{a + j * n + p0, j - p0};
      const double diag = dot_sub_fn(a[j * n + j], lj, lj);
      if (!(diag > 0.0)) return j;
      a[j * n + j] = std::sqrt(diag);
      for (std::size_t i = j + 1; i < n; ++i) {
        a[i * n + j] = dot_sub_fn(a[i * n + j], {a + i * n + p0, j - p0}, lj) /
                       a[j * n + j];
      }
    }
    const std::size_t nb = p1 - p0;
    for (std::size_t i = p1; i < n; ++i) {
      const double* li = a + i * n + p0;
      std::size_t j = p1;
      for (; width > 0 && j + width <= i + 1; j += width) {
        const double* bs[8];
        for (std::size_t c = 0; c < width; ++c) bs[c] = a + (j + c) * n + p0;
        if (width == 8) avx512::dot_sub8(a + i * n + j, li, bs, nb);
        if (width == 4) avx2::dot_sub4(a + i * n + j, li, bs, nb);
      }
      for (; j <= i; ++j) {
        a[i * n + j] = dot_sub_fn(a[i * n + j], {li, nb}, {a + j * n + p0, nb});
      }
    }
  }
  return n;
}

// --- Helpers ---------------------------------------------------------------

std::vector<double> random_vector(util::Rng& rng, std::size_t n,
                                  double scale = 1.0) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.gaussian(0.0, scale);
  return v;
}

// Random SPD matrix: B B^T + n * I, row-major.
std::vector<double> random_spd(util::Rng& rng, std::size_t n) {
  std::vector<double> b(n * n);
  for (auto& x : b) x = rng.gaussian();
  std::vector<double> a(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += b[i * n + k] * b[j * n + k];
      a[i * n + j] = acc;
    }
    a[i * n + i] += static_cast<double>(n);
  }
  return a;
}

// B B^T + I with B n x k gaussian: O(n^2 k), so n = 800 stays cheap under
// the sanitizers.
std::vector<double> low_rank_spd(util::Rng& rng, std::size_t n,
                                 std::size_t k) {
  const auto b = random_vector(rng, n * k);
  std::vector<double> a(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a[i * n + j] = (i == j) + ref_dot({&b[i * k], k}, {&b[j * k], k});
    }
  }
  return a;
}

void expect_rel_close(double got, double want, double rel = 1e-12) {
  // Relative tolerance with an absolute floor for results that underflow
  // toward denormals (where a relative bound is not meaningful).
  const double tol = rel * std::max(1.0, std::abs(want)) + 1e-300;
  EXPECT_NEAR(got, want, tol) << "got " << got << " want " << want;
}

// Sizes that cover empty input, sub-vector-width, every remainder lane
// (n mod 4 and n mod 8), the paper's 14/28 dims, and the Cholesky panel
// boundary (64).
constexpr std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                                  13, 14, 27, 28, 31, 33, 63, 64, 65,
                                  100, 127, 130, 200};

// --- Scalar backend: bit-identical to the pre-refactor goldens -------------

TEST(NumScalar, DotBitIdenticalToReference) {
  util::Rng rng(1001);
  for (const std::size_t n : kSizes) {
    const auto a = random_vector(rng, n, 2.0);
    const auto b = random_vector(rng, n, 2.0);
    EXPECT_EQ(scalar::dot(a, b), ref_dot(a, b)) << "n=" << n;
  }
}

TEST(NumScalar, SquaredDistanceBitIdenticalToReference) {
  util::Rng rng(1002);
  for (const std::size_t n : kSizes) {
    const auto a = random_vector(rng, n, 2.0);
    const auto b = random_vector(rng, n, 2.0);
    EXPECT_EQ(scalar::squared_distance(a, b), ref_squared_distance(a, b))
        << "n=" << n;
  }
}

TEST(NumScalar, DotSubMatchesSequentialSubtraction) {
  util::Rng rng(1003);
  for (const std::size_t n : kSizes) {
    const auto a = random_vector(rng, n);
    const auto b = random_vector(rng, n);
    const double init = rng.gaussian(0.0, 3.0);
    double want = init;
    for (std::size_t i = 0; i < n; ++i) want -= a[i] * b[i];
    EXPECT_EQ(scalar::dot_sub(init, a, b), want) << "n=" << n;
  }
}

TEST(NumScalar, AxpyBitIdenticalToReference) {
  util::Rng rng(1004);
  for (const std::size_t n : kSizes) {
    const auto x = random_vector(rng, n);
    const auto y0 = random_vector(rng, n);
    const double alpha = rng.gaussian();
    auto got = y0;
    scalar::axpy(alpha, x, got);
    auto want = y0;
    for (std::size_t i = 0; i < n; ++i) want[i] += alpha * x[i];
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

TEST(NumScalar, RbfRowKernelBitIdenticalToReference) {
  util::Rng rng(1005);
  for (const std::size_t dim : {1u, 3u, 14u, 28u, 29u}) {
    const std::size_t rows = 37;  // not a multiple of the 4-row exp batch
    const auto data = random_vector(rng, rows * dim);
    const auto center = random_vector(rng, dim);
    const double gamma = 1.0 / static_cast<double>(dim);
    std::vector<double> out(rows);
    scalar::rbf_row_kernel(data.data(), rows, dim, center.data(), dim, gamma,
                           out.data());
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(out[r], ref_rbf({data.data() + r * dim, dim}, center, gamma))
          << "dim=" << dim << " r=" << r;
    }
  }
}

TEST(NumScalar, RffTransformRowBitIdenticalToReference) {
  // rff_transform_row is new with the approximate-KRR layer, so the scalar
  // kernel IS the reference; this pins the definition (ascending-index phase
  // accumulation, libm cos/sin) against accidental reassociation.
  util::Rng rng(1007);
  for (const std::size_t dim : {1u, 3u, 14u, 28u, 29u}) {
    for (const std::size_t n_freq : {1u, 2u, 3u, 4u, 5u, 7u, 32u, 37u}) {
      const auto freqs = random_vector(rng, n_freq * dim, 2.0);
      const auto x = random_vector(rng, dim, 2.0);
      const double scale = 1.0 / std::sqrt(static_cast<double>(n_freq));
      std::vector<double> out(2 * n_freq);
      scalar::rff_transform_row(freqs.data(), n_freq, dim, x.data(), dim,
                                scale, out.data());
      for (std::size_t k = 0; k < n_freq; ++k) {
        double phase = 0.0;
        for (std::size_t i = 0; i < dim; ++i) phase += freqs[k * dim + i] * x[i];
        EXPECT_EQ(out[2 * k], scale * std::cos(phase))
            << "dim=" << dim << " k=" << k;
        EXPECT_EQ(out[2 * k + 1], scale * std::sin(phase))
            << "dim=" << dim << " k=" << k;
      }
    }
  }
}

TEST(NumScalar, BlockedCholeskyBitIdenticalToUnblockedReference) {
  util::Rng rng(1006);
  // Sizes straddling the 64-column panel: 1 panel, exact boundary, several.
  for (const std::size_t n : {1u, 2u, 5u, 17u, 40u, 63u, 64u, 65u, 130u, 200u}) {
    const auto a = random_spd(rng, n);
    std::vector<double> want;
    ASSERT_TRUE(ref_cholesky(a, n, want));

    const Backend saved = active_backend();
    set_backend(Backend::kScalar);
    auto got = a;
    const std::size_t status = cholesky_inplace(got.data(), n, n);
    set_backend(saved);

    ASSERT_EQ(status, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        EXPECT_EQ(got[i * n + j], want[i * n + j])
            << "n=" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(NumScalar, CholeskyReportsFirstBadPivot) {
  // Indefinite matrix: pivot 1 fails after the first column factors.
  std::vector<double> a{4.0, 2.0, 2.0, -9.0};
  const Backend saved = active_backend();
  set_backend(Backend::kScalar);
  const std::size_t status = cholesky_inplace(a.data(), 2, 2);
  set_backend(saved);
  EXPECT_EQ(status, 1u);
}

TEST(NumAnyBackend, BlockedCholeskyBitIdenticalToFrozenFactor) {
  // The tolerance sweeps hold avx2/avx512 only to 1e-12 of scalar; this
  // pins each backend's factor bitwise at one entry, either side of a panel
  // edge, several panels and the N = 800 enroll system. A negative pivot
  // planted mid-matrix pins the failing column and partial factor too.
  util::Rng rng(1011);
  const Backend saved = active_backend();
  for (const std::size_t n : {1u, 63u, 64u, 65u, 193u, 471u, 800u}) {
    const auto spd = low_rank_spd(rng, n, 48);
    for (const Backend backend : all_backends()) {
      if (!backend_available(backend)) continue;
      set_backend(backend);
      for (const bool planted : {false, true}) {
        auto want = spd;
        if (planted) want[n / 2 * n + n / 2] = -1.0;
        auto got = want;
        const std::size_t status = planted ? n / 2 : n;
        EXPECT_EQ(frozen_cholesky(want.data(), n, backend), status);
        EXPECT_EQ(cholesky_inplace(got.data(), n, n), status)
            << "n=" << n << " " << backend_name(backend);
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 n * n * sizeof(double)))
            << "n=" << n << " " << backend_name(backend)
            << (planted ? " planted" : "");
      }
    }
  }
  set_backend(saved);
}

TEST(NumAnyBackend, NanPivotIsReportedAsFailure) {
  // `diag <= 0.0` is false for NaN. A NaN pivot must still fail, in panel 0
  // and in panel 1, and ml::cholesky must throw, on every backend.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  util::Rng rng(1012);
  constexpr std::size_t n = 130;
  const auto spd = low_rank_spd(rng, n, 48);
  const Backend saved = active_backend();
  for (const Backend backend : all_backends()) {
    if (!backend_available(backend)) continue;
    set_backend(backend);
    std::vector<double> diagonal{4.0, 0.0, 0.0, 0.0, kNan, 0.0, 0.0, 0.0, 9.0};
    EXPECT_EQ(cholesky_inplace(diagonal.data(), 3, 3), 1u)
        << backend_name(backend);
    for (const std::size_t bad : {5u, 100u}) {
      auto a = spd;
      a[bad * n + bad] = kNan;
      ml::Matrix m(n, n);
      std::copy(a.begin(), a.end(), m.data().begin());
      EXPECT_EQ(cholesky_inplace(a.data(), n, n), bad) << backend_name(backend);
      EXPECT_THROW((void)ml::cholesky(m), std::runtime_error) << bad;
    }
  }
  set_backend(saved);
}

// --- AVX2 backend: 1e-12 relative agreement with scalar --------------------

#define SY_REQUIRE_AVX2()                                    \
  if (!avx2::available()) {                                  \
    GTEST_SKIP() << "AVX2+FMA not available on this CPU";    \
  }

TEST(NumAvx2, DotMatchesScalarWithinTolerance) {
  SY_REQUIRE_AVX2();
  util::Rng rng(2001);
  for (const std::size_t n : kSizes) {
    const auto a = random_vector(rng, n, 2.0);
    const auto b = random_vector(rng, n, 2.0);
    expect_rel_close(avx2::dot(a, b), scalar::dot(a, b));
  }
}

TEST(NumAvx2, SquaredDistanceMatchesScalarWithinTolerance) {
  SY_REQUIRE_AVX2();
  util::Rng rng(2002);
  for (const std::size_t n : kSizes) {
    const auto a = random_vector(rng, n, 2.0);
    const auto b = random_vector(rng, n, 2.0);
    expect_rel_close(avx2::squared_distance(a, b),
                     scalar::squared_distance(a, b));
  }
}

TEST(NumAvx2, DotSubAndAxpyMatchScalarWithinTolerance) {
  SY_REQUIRE_AVX2();
  util::Rng rng(2003);
  for (const std::size_t n : kSizes) {
    const auto a = random_vector(rng, n);
    const auto b = random_vector(rng, n);
    const double init = rng.gaussian(0.0, 3.0);
    expect_rel_close(avx2::dot_sub(init, a, b), scalar::dot_sub(init, a, b));

    const double alpha = rng.gaussian();
    auto ya = random_vector(rng, n);
    auto ys = ya;
    avx2::axpy(alpha, a, ya);
    scalar::axpy(alpha, a, ys);
    for (std::size_t i = 0; i < n; ++i) expect_rel_close(ya[i], ys[i]);
  }
}

TEST(NumAvx2, VectorExpMatchesStdExp) {
  SY_REQUIRE_AVX2();
  util::Rng rng(2004);
  // Realistic RBF arguments plus the extremes: near zero, deep underflow,
  // and the clamp region.
  std::vector<double> args{0.0,    -1e-9, -0.5,   -5.0,   -50.0,
                           -200.0, -700.0, -708.0, -745.0, -800.0};
  for (int i = 0; i < 500; ++i) args.push_back(-std::abs(rng.gaussian(0.0, 60.0)));
  for (std::size_t i = 0; i < args.size(); i += 4) {
    double in[4] = {0.0, 0.0, 0.0, 0.0};
    double out[4];
    const std::size_t m = std::min<std::size_t>(4, args.size() - i);
    for (std::size_t g = 0; g < m; ++g) in[g] = args[i + g];
    avx2::exp4(in, out);
    for (std::size_t g = 0; g < m; ++g) {
      expect_rel_close(out[g], std::exp(in[g]));
    }
  }

  // Non-finite lanes behave like std::exp instead of being swallowed by the
  // clamp (NaN propagates, +inf overflows, -inf underflows to +0), and
  // neighbours are unaffected.
  const double quiet_nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  double in[4] = {-1.0, quiet_nan, 0.5, -745.0};
  double out[4];
  avx2::exp4(in, out);
  EXPECT_FALSE(std::isnan(out[0]));
  EXPECT_TRUE(std::isnan(out[1]));
  expect_rel_close(out[0], std::exp(-1.0));
  expect_rel_close(out[2], std::exp(0.5));
  expect_rel_close(out[3], std::exp(-745.0));

  double in2[4] = {inf, -inf, 710.0, -800.0};
  double out2[4];
  avx2::exp4(in2, out2);
  EXPECT_EQ(out2[0], inf);
  EXPECT_EQ(out2[1], 0.0);
  EXPECT_EQ(out2[2], inf);  // finite overflow matches std::exp(710)
  EXPECT_EQ(out2[3], 0.0);
}

TEST(NumAvx2, RbfRowKernelMatchesScalarWithinTolerance) {
  SY_REQUIRE_AVX2();
  util::Rng rng(2005);
  for (const std::size_t dim : {1u, 3u, 14u, 28u, 29u}) {
    for (const std::size_t rows : {1u, 2u, 3u, 4u, 5u, 37u, 64u}) {
      const auto data = random_vector(rng, rows * dim, 2.0);
      const auto center = random_vector(rng, dim, 2.0);
      const double gamma = 1.0 / static_cast<double>(dim);
      std::vector<double> got(rows), want(rows);
      avx2::rbf_row_kernel(data.data(), rows, dim, center.data(), dim, gamma,
                           got.data());
      scalar::rbf_row_kernel(data.data(), rows, dim, center.data(), dim,
                             gamma, want.data());
      for (std::size_t r = 0; r < rows; ++r) {
        expect_rel_close(got[r], want[r]);
      }
    }
  }
}

TEST(NumAvx2, Sincos4MatchesLibmWithinTolerance) {
  SY_REQUIRE_AVX2();
  util::Rng rng(2007);
  // RFF phases are dots of N(0, 2*gamma) frequencies with standardized
  // features — overwhelmingly within a few tens of radians — but cover the
  // octant boundaries and moderately large arguments too.
  std::vector<double> args{0.0,           1e-12,         -1e-12,
                           0.785398163,   -0.785398163,  1.5707963267948966,
                           3.14159265358, -3.14159265358, 6.283185307,
                           100.0,         -1000.0,        12345.678};
  for (int i = 0; i < 500; ++i) args.push_back(rng.gaussian(0.0, 20.0));
  for (std::size_t i = 0; i < args.size(); i += 4) {
    double in[4] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t m = std::min<std::size_t>(4, args.size() - i);
    for (std::size_t g = 0; g < m; ++g) in[g] = args[i + g];
    double s[4], c[4];
    avx2::sincos4(in, s, c);
    for (std::size_t g = 0; g < m; ++g) {
      // sin/cos land in [-1, 1]; absolute tolerance is the meaningful bound.
      EXPECT_NEAR(s[g], std::sin(in[g]), 1e-12) << "x=" << in[g];
      EXPECT_NEAR(c[g], std::cos(in[g]), 1e-12) << "x=" << in[g];
    }
  }

  // Out-of-range and non-finite lanes take the libm fallback path.
  const double quiet_nan = std::numeric_limits<double>::quiet_NaN();
  double in[4] = {1.0, quiet_nan, 1.1e9, -0.25};
  double s[4], c[4];
  avx2::sincos4(in, s, c);
  EXPECT_EQ(s[0], std::sin(1.0));
  EXPECT_EQ(c[0], std::cos(1.0));
  EXPECT_TRUE(std::isnan(s[1]));
  EXPECT_TRUE(std::isnan(c[1]));
  EXPECT_EQ(s[2], std::sin(1.1e9));
  EXPECT_EQ(c[2], std::cos(1.1e9));
  EXPECT_EQ(s[3], std::sin(-0.25));
  EXPECT_EQ(c[3], std::cos(-0.25));
}

TEST(NumAvx2, RffTransformRowMatchesScalarWithinTolerance) {
  SY_REQUIRE_AVX2();
  util::Rng rng(2008);
  // Frequency counts covering every quad-remainder lane and dims covering
  // every dot-remainder lane.
  for (const std::size_t dim : {1u, 3u, 14u, 28u, 29u}) {
    for (const std::size_t n_freq : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 37u, 128u}) {
      const auto freqs = random_vector(rng, n_freq * dim, 1.5);
      const auto x = random_vector(rng, dim, 1.5);
      const double scale = 1.0 / std::sqrt(static_cast<double>(n_freq));
      std::vector<double> got(2 * n_freq), want(2 * n_freq);
      avx2::rff_transform_row(freqs.data(), n_freq, dim, x.data(), dim, scale,
                              got.data());
      scalar::rff_transform_row(freqs.data(), n_freq, dim, x.data(), dim,
                                scale, want.data());
      for (std::size_t j = 0; j < 2 * n_freq; ++j) {
        // Outputs are in [-scale, scale]; bound absolutely at 1e-12.
        EXPECT_NEAR(got[j], want[j], 1e-12)
            << "dim=" << dim << " n_freq=" << n_freq << " j=" << j;
      }
    }
  }
}

TEST(NumAvx2, BlockedCholeskyMatchesScalarWithinTolerance) {
  SY_REQUIRE_AVX2();
  util::Rng rng(2006);
  for (const std::size_t n : {5u, 40u, 64u, 65u, 130u, 200u}) {
    const auto a = random_spd(rng, n);
    const Backend saved = active_backend();

    set_backend(Backend::kScalar);
    auto ls = a;
    ASSERT_EQ(cholesky_inplace(ls.data(), n, n), n);

    set_backend(Backend::kAvx2);
    auto lv = a;
    ASSERT_EQ(cholesky_inplace(lv.data(), n, n), n);
    set_backend(saved);

    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        expect_rel_close(lv[i * n + j], ls[i * n + j]);
      }
    }
  }
}

// --- AVX-512 backend: 1e-12 agreement + bitwise masked-remainder contract --

#define SY_REQUIRE_AVX512()                                  \
  if (!avx512::available()) {                                \
    GTEST_SKIP() << "AVX-512F not available on this CPU";    \
  }

TEST(NumAvx512, MaskedRemainderBitIdenticalToZeroPadded) {
  SY_REQUIRE_AVX512();
  // The masked-lane contract, tested literally: for every remainder width
  // n mod 8 = 1..7 (both below one vector and above it), the length-n
  // reduction must be BITWISE identical to the same kernel over the input
  // zero-padded to the next multiple of 8 — a masked-off lane contributes
  // fma(0, 0, acc) == acc, so element results are position independent.
  util::Rng rng(5001);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 17u, 18u, 19u,
                              20u, 21u, 22u, 23u}) {
    const std::size_t padded = (n + 7) / 8 * 8;
    auto a = random_vector(rng, n, 2.0);
    auto b = random_vector(rng, n, 2.0);
    auto ap = a;
    auto bp = b;
    ap.resize(padded, 0.0);
    bp.resize(padded, 0.0);
    EXPECT_EQ(avx512::dot(a, b), avx512::dot(ap, bp)) << "n=" << n;
    EXPECT_EQ(avx512::squared_distance(a, b),
              avx512::squared_distance(ap, bp))
        << "n=" << n;
    const double init = rng.gaussian(0.0, 3.0);
    EXPECT_EQ(avx512::dot_sub(init, a, b), avx512::dot_sub(init, ap, bp))
        << "n=" << n;

    const double alpha = rng.gaussian();
    auto y = random_vector(rng, n);
    auto yp = y;
    yp.resize(padded, 0.0);
    avx512::axpy(alpha, a, y);
    avx512::axpy(alpha, ap, yp);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y[i], yp[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(NumAvx512, DotSub8MatchesScalarColumns) {
  SY_REQUIRE_AVX512();
  util::Rng rng(5002);
  for (const std::size_t n : kSizes) {
    const auto a = random_vector(rng, n, 1.5);
    std::vector<std::vector<double>> cols;
    const double* bs[8];
    for (int c = 0; c < 8; ++c) {
      cols.push_back(random_vector(rng, n, 1.5));
      bs[c] = cols.back().data();
    }
    const auto init = random_vector(rng, 8, 3.0);
    auto got = init;
    avx512::dot_sub8(got.data(), a.data(), bs, n);
    for (int c = 0; c < 8; ++c) {
      expect_rel_close(got[c], scalar::dot_sub(init[c], a, cols[c]));
    }
  }
}

TEST(NumAvx512, VectorExpMatchesStdExp) {
  SY_REQUIRE_AVX512();
  util::Rng rng(5003);
  // Realistic RBF arguments plus the extremes: near zero, deep underflow,
  // and the clamp region — the same corpus the avx2 exp4 test uses.
  std::vector<double> args{0.0,    -1e-9,  -0.5,   -5.0,   -50.0,
                           -200.0, -700.0, -708.0, -745.0, -800.0};
  for (int i = 0; i < 500; ++i) {
    args.push_back(-std::abs(rng.gaussian(0.0, 60.0)));
  }
  for (std::size_t i = 0; i < args.size(); i += 8) {
    double in[8] = {0.0};
    double out[8];
    const std::size_t m = std::min<std::size_t>(8, args.size() - i);
    for (std::size_t g = 0; g < m; ++g) in[g] = args[i + g];
    avx512::exp8(in, out);
    for (std::size_t g = 0; g < m; ++g) {
      expect_rel_close(out[g], std::exp(in[g]));
    }
  }

  // Non-finite lanes behave like std::exp instead of being swallowed by the
  // clamp (NaN propagates, +inf overflows, -inf underflows to +0), and
  // neighbours are unaffected.
  const double quiet_nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  double in[8] = {-1.0, quiet_nan, 0.5, -745.0, inf, -inf, 710.0, -800.0};
  double out[8];
  avx512::exp8(in, out);
  expect_rel_close(out[0], std::exp(-1.0));
  EXPECT_TRUE(std::isnan(out[1]));
  expect_rel_close(out[2], std::exp(0.5));
  expect_rel_close(out[3], std::exp(-745.0));
  EXPECT_EQ(out[4], inf);
  EXPECT_EQ(out[5], 0.0);
  EXPECT_EQ(out[6], inf);  // finite overflow matches std::exp(710)
  EXPECT_EQ(out[7], 0.0);
}

TEST(NumAvx512, Sincos8MatchesLibmWithinTolerance) {
  SY_REQUIRE_AVX512();
  util::Rng rng(5004);
  std::vector<double> args{0.0,           1e-12,          -1e-12,
                           0.785398163,   -0.785398163,   1.5707963267948966,
                           3.14159265358, -3.14159265358, 6.283185307,
                           100.0,         -1000.0,        12345.678};
  for (int i = 0; i < 500; ++i) args.push_back(rng.gaussian(0.0, 20.0));
  for (std::size_t i = 0; i < args.size(); i += 8) {
    double in[8] = {0.0};
    const std::size_t m = std::min<std::size_t>(8, args.size() - i);
    for (std::size_t g = 0; g < m; ++g) in[g] = args[i + g];
    double s[8], c[8];
    avx512::sincos8(in, s, c);
    for (std::size_t g = 0; g < m; ++g) {
      // sin/cos land in [-1, 1]; absolute tolerance is the meaningful bound.
      EXPECT_NEAR(s[g], std::sin(in[g]), 1e-12) << "x=" << in[g];
      EXPECT_NEAR(c[g], std::cos(in[g]), 1e-12) << "x=" << in[g];
    }
  }

  // Out-of-range and non-finite lanes take the libm fallback path.
  const double quiet_nan = std::numeric_limits<double>::quiet_NaN();
  double in[8] = {1.0, quiet_nan, 1.1e9, -0.25, 2.0, -3.0, 0.5, 42.0};
  double s[8], c[8];
  avx512::sincos8(in, s, c);
  EXPECT_EQ(s[0], std::sin(1.0));
  EXPECT_EQ(c[0], std::cos(1.0));
  EXPECT_TRUE(std::isnan(s[1]));
  EXPECT_TRUE(std::isnan(c[1]));
  EXPECT_EQ(s[2], std::sin(1.1e9));
  EXPECT_EQ(c[2], std::cos(1.1e9));
  EXPECT_EQ(s[3], std::sin(-0.25));
  EXPECT_EQ(c[3], std::cos(-0.25));
}

// --- Any-backend sweeps (driven by the enum: a new backend is additive) ----

TEST(NumAnyBackend, DispatchedKernelsMatchScalarWithinTolerance) {
  // Every available backend, every kernel, every size in kSizes (which
  // covers each remainder width n mod 4 and n mod 8). Comparisons run
  // through the dispatched entry points so this also exercises the
  // dispatch tables.
  util::Rng rng(4001);
  const Backend saved = active_backend();
  for (const Backend backend : all_backends()) {
    if (!backend_available(backend)) continue;
    set_backend(backend);
    for (const std::size_t n : kSizes) {
      const auto a = random_vector(rng, n, 2.0);
      const auto b = random_vector(rng, n, 2.0);
      expect_rel_close(num::dot(a, b), scalar::dot(a, b));
      expect_rel_close(num::squared_distance(a, b),
                       scalar::squared_distance(a, b));
      const double init = rng.gaussian(0.0, 3.0);
      expect_rel_close(num::dot_sub(init, a, b),
                       scalar::dot_sub(init, a, b));
      const double alpha = rng.gaussian();
      auto yd = random_vector(rng, n);
      auto ys = yd;
      num::axpy(alpha, a, yd);
      scalar::axpy(alpha, a, ys);
      for (std::size_t i = 0; i < n; ++i) expect_rel_close(yd[i], ys[i]);
    }
    // Row-batched kernels: row/frequency counts covering every remainder
    // width of both the 4-row (avx2) and 8-row (avx512) group loops.
    for (const std::size_t dim : {1u, 3u, 14u, 28u, 29u}) {
      for (const std::size_t rows :
           {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 37u, 64u}) {
        const auto data = random_vector(rng, rows * dim, 2.0);
        const auto center = random_vector(rng, dim, 2.0);
        const double gamma = 1.0 / static_cast<double>(dim);
        std::vector<double> got(rows), want(rows);
        num::rbf_row_kernel(data.data(), rows, dim, center.data(), dim, gamma,
                            got.data());
        scalar::rbf_row_kernel(data.data(), rows, dim, center.data(), dim,
                               gamma, want.data());
        for (std::size_t r = 0; r < rows; ++r) {
          expect_rel_close(got[r], want[r]);
        }

        const double scale = 1.0 / std::sqrt(static_cast<double>(rows));
        std::vector<double> rff_got(2 * rows), rff_want(2 * rows);
        num::rff_transform_row(data.data(), rows, dim, center.data(), dim,
                               scale, rff_got.data());
        scalar::rff_transform_row(data.data(), rows, dim, center.data(), dim,
                                  scale, rff_want.data());
        for (std::size_t j = 0; j < 2 * rows; ++j) {
          EXPECT_NEAR(rff_got[j], rff_want[j], 1e-12)
              << backend_name(backend) << " dim=" << dim << " rows=" << rows
              << " j=" << j;
        }
      }
    }
  }
  set_backend(saved);
}

TEST(NumAnyBackend, RowKernelsAreBatchPositionIndependent) {
  // Batch-of-1 ≡ batch contract, per backend and bitwise: a row's RBF value
  // and a frequency's RFF pair must not depend on where in the batch the
  // row landed (SIMD group vs remainder position). The serving stack's
  // "score one window now == score it in tonight's batch" guarantee
  // bottoms out here.
  util::Rng rng(4002);
  const Backend saved = active_backend();
  for (const Backend backend : all_backends()) {
    if (!backend_available(backend)) continue;
    set_backend(backend);
    for (const std::size_t dim : {3u, 14u, 28u}) {
      const std::size_t rows = 13;  // 8-group + 5-row remainder
      const auto data = random_vector(rng, rows * dim, 2.0);
      const auto center = random_vector(rng, dim, 2.0);
      const double gamma = 1.0 / static_cast<double>(dim);
      std::vector<double> batch(rows);
      num::rbf_row_kernel(data.data(), rows, dim, center.data(), dim, gamma,
                          batch.data());
      std::vector<double> rff_batch(2 * rows);
      const double scale = 0.25;
      num::rff_transform_row(data.data(), rows, dim, center.data(), dim,
                             scale, rff_batch.data());
      for (std::size_t r = 0; r < rows; ++r) {
        double one = 0.0;
        num::rbf_row_kernel(data.data() + r * dim, 1, dim, center.data(), dim,
                            gamma, &one);
        EXPECT_EQ(one, batch[r])
            << backend_name(backend) << " dim=" << dim << " r=" << r;
        double pair[2];
        num::rff_transform_row(data.data() + r * dim, 1, dim, center.data(),
                               dim, scale, pair);
        EXPECT_EQ(pair[0], rff_batch[2 * r])
            << backend_name(backend) << " dim=" << dim << " r=" << r;
        EXPECT_EQ(pair[1], rff_batch[2 * r + 1])
            << backend_name(backend) << " dim=" << dim << " r=" << r;
      }
    }
  }
  set_backend(saved);
}

TEST(NumAnyBackend, SerialDotRowsBitIdenticalToAscendingAxpy) {
  // The reduction KRR scoring used before serial_dot_rows: a zeroed output
  // over the batch, then one num::axpy per training index in ascending
  // order over the training x batch block. serial_dot_rows reads the
  // transposed (batch x training) block and must reproduce every output
  // bit on every backend, for every length remainder (1..1000 covers all
  // SIMD widths) and every row-chain remainder (1..9 rows). Across
  // backends it keeps the 1e-12 agreement with scalar.
  constexpr std::size_t kMaxLen = 1000;
  constexpr std::size_t kMaxRows = 9;
  util::Rng rng(4004);
  const auto block = random_vector(rng, kMaxRows * kMaxLen, 0.5);
  const auto w = random_vector(rng, kMaxLen, 2.0);
  const Backend saved = active_backend();
  for (const Backend backend : all_backends()) {
    if (!backend_available(backend)) continue;
    set_backend(backend);
    std::size_t mismatches = 0;
    std::string first_mismatch;
    std::vector<double> column(kMaxRows);
    for (std::size_t n = 1; n <= kMaxLen; ++n) {
      for (std::size_t rows = 1; rows <= kMaxRows; ++rows) {
        std::vector<double> want(rows, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t r = 0; r < rows; ++r) {
            column[r] = block[r * kMaxLen + i];
          }
          num::axpy(w[i], std::span<const double>(column).first(rows), want);
        }
        std::vector<double> got(rows);
        num::serial_dot_rows(block.data(), rows, kMaxLen, w.data(), n,
                             got.data());
        std::vector<double> reference(rows);
        scalar::serial_dot_rows(block.data(), rows, kMaxLen, w.data(), n,
                                reference.data());
        for (std::size_t r = 0; r < rows; ++r) {
          expect_rel_close(got[r], reference[r]);
          if (std::memcmp(&got[r], &want[r], sizeof(double)) != 0 &&
              mismatches++ == 0) {
            first_mismatch = "n=" + std::to_string(n) +
                             " rows=" + std::to_string(rows) +
                             " r=" + std::to_string(r);
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0u)
        << backend_name(backend) << ", first at " << first_mismatch;
  }
  set_backend(saved);
}

TEST(NumAnyBackend, BlockedCholeskyMatchesScalarWithinTolerance) {
  util::Rng rng(4003);
  for (const std::size_t n : {5u, 40u, 64u, 65u, 130u, 200u}) {
    const auto a = random_spd(rng, n);
    const Backend saved = active_backend();
    set_backend(Backend::kScalar);
    auto ls = a;
    ASSERT_EQ(cholesky_inplace(ls.data(), n, n), n);
    for (const Backend backend : all_backends()) {
      if (backend == Backend::kScalar || !backend_available(backend)) {
        continue;
      }
      set_backend(backend);
      auto lv = a;
      ASSERT_EQ(cholesky_inplace(lv.data(), n, n), n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          expect_rel_close(lv[i * n + j], ls[i * n + j]);
        }
      }
    }
    set_backend(saved);
  }
}

// --- Dispatch plumbing -----------------------------------------------------

TEST(NumBackend, ParseNamesRoundTrip) {
  EXPECT_EQ(parse_backend("scalar"), Backend::kScalar);
  EXPECT_EQ(parse_backend("avx2"), Backend::kAvx2);
  EXPECT_EQ(parse_backend("avx512"), Backend::kAvx512);
  EXPECT_EQ(parse_backend("auto"), detected_backend());
  EXPECT_EQ(parse_backend("neon"), std::nullopt);
  EXPECT_EQ(parse_backend(""), std::nullopt);
  EXPECT_EQ(backend_name(Backend::kScalar), "scalar");
  EXPECT_EQ(backend_name(Backend::kAvx2), "avx2");
  EXPECT_EQ(backend_name(Backend::kAvx512), "avx512");
}

TEST(NumBackend, ParseIsCaseInsensitive) {
  EXPECT_EQ(parse_backend("Scalar"), Backend::kScalar);
  EXPECT_EQ(parse_backend("AVX2"), Backend::kAvx2);
  EXPECT_EQ(parse_backend("Avx512"), Backend::kAvx512);
  EXPECT_EQ(parse_backend("AVX512"), Backend::kAvx512);
  EXPECT_EQ(parse_backend("AUTO"), detected_backend());
}

TEST(NumBackend, EnvValueFailsFastOnUnknown) {
  // A typo'd SY_NUM_BACKEND must throw, naming every compiled backend —
  // never silently fall back to auto-detection.
  try {
    backend_from_env_value("avx1024");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scalar|avx2|avx512|auto"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(backend_from_env_value(" avx2"), std::invalid_argument);
  EXPECT_EQ(backend_from_env_value("SCALAR"), Backend::kScalar);
  EXPECT_EQ(backend_from_env_value("auto"), detected_backend());
  // A known-but-unsupported SIMD backend downgrades (running it would be an
  // illegal instruction), it does not throw.
  if (!backend_available(Backend::kAvx512)) {
    EXPECT_EQ(backend_from_env_value("avx512"), detected_backend());
  }
}

TEST(NumBackend, AllBackendsEnumeration) {
  const auto backends = all_backends();
  ASSERT_EQ(backends.size(), 3u);
  EXPECT_EQ(backends[0], Backend::kScalar);  // reference backend leads
  EXPECT_TRUE(backend_available(Backend::kScalar));
  for (const Backend backend : backends) {
    EXPECT_FALSE(backend_name(backend).empty());
  }
}

TEST(NumBackend, SetBackendControlsDispatch) {
  util::Rng rng(3001);
  const auto a = random_vector(rng, 28);
  const auto b = random_vector(rng, 28);
  const Backend saved = active_backend();

  set_backend(Backend::kScalar);
  EXPECT_EQ(active_backend(), Backend::kScalar);
  EXPECT_EQ(num::dot(a, b), scalar::dot(a, b));

  if (avx2::available()) {
    set_backend(Backend::kAvx2);
    EXPECT_EQ(active_backend(), Backend::kAvx2);
    EXPECT_EQ(num::dot(a, b), avx2::dot(a, b));
  }
  if (avx512::available()) {
    set_backend(Backend::kAvx512);
    EXPECT_EQ(active_backend(), Backend::kAvx512);
    EXPECT_EQ(num::dot(a, b), avx512::dot(a, b));
  }
  set_backend(saved);
}

TEST(NumBackend, SetBackendRejectsUnsupported) {
  if (avx2::available()) {
    GTEST_SKIP() << "cannot test rejection where avx2 is supported";
  }
  EXPECT_THROW(set_backend(Backend::kAvx2), std::invalid_argument);
}

}  // namespace
}  // namespace sy::num
