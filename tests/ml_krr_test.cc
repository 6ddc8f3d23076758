#include "ml/krr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "ml/dataset.h"
#include "num/backend.h"
#include "num/kernels.h"
#include "util/rng.h"

namespace sy::ml {
namespace {

// Two Gaussian blobs, labels +-1.
Dataset blobs(std::size_t n_per_class, double separation, std::size_t dim,
              util::Rng& rng) {
  Dataset data;
  std::vector<double> x(dim);
  for (std::size_t i = 0; i < n_per_class; ++i) {
    for (auto& v : x) v = rng.gaussian(separation / 2.0, 1.0);
    data.add(x, +1);
    for (auto& v : x) v = rng.gaussian(-separation / 2.0, 1.0);
    data.add(x, -1);
  }
  return data;
}

TEST(Krr, SeparatesBlobsWithRbf) {
  util::Rng rng(41);
  const Dataset train = blobs(100, 3.0, 4, rng);
  KrrClassifier krr{KrrConfig{}};
  krr.fit(train.x, train.y);

  const Dataset test = blobs(200, 3.0, 4, rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (krr.predict(test.x.row(i)) == test.y[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(test.size()),
            0.95);
}

TEST(Krr, DualEqualsPrimalForLinearKernel) {
  // The paper's Appendix proves Eq. 6 == Eq. 7; verify numerically.
  util::Rng rng(42);
  const Dataset train = blobs(60, 2.0, 5, rng);

  KrrConfig dual_config;
  dual_config.kernel = Kernel::linear();
  dual_config.path = KrrSolvePath::kDual;
  KrrClassifier dual(dual_config);
  dual.fit(train.x, train.y);

  KrrConfig primal_config;
  primal_config.kernel = Kernel::linear();
  primal_config.path = KrrSolvePath::kPrimal;
  KrrClassifier primal(primal_config);
  primal.fit(train.x, train.y);

  util::Rng probe_rng(43);
  std::vector<double> x(5);
  for (int trial = 0; trial < 50; ++trial) {
    for (auto& v : x) v = probe_rng.gaussian(0.0, 2.0);
    EXPECT_NEAR(dual.decision(x), primal.decision(x), 1e-8);
  }
}

TEST(Krr, PrimalRequiresLinearKernel) {
  KrrConfig config;
  config.kernel = Kernel::rbf();
  config.path = KrrSolvePath::kPrimal;
  EXPECT_THROW(KrrClassifier{config}, std::invalid_argument);
}

TEST(Krr, RejectsBadInputs) {
  KrrClassifier krr{KrrConfig{}};
  EXPECT_THROW(krr.fit(Matrix(), {}), std::invalid_argument);
  Matrix x(2, 2);
  EXPECT_THROW(krr.fit(x, {1, 2}), std::invalid_argument);  // label not +-1
  EXPECT_THROW((void)krr.decision(std::vector<double>{1.0, 2.0}),
               std::logic_error);  // untrained
  KrrConfig bad;
  bad.rho = 0.0;
  EXPECT_THROW(KrrClassifier{bad}, std::invalid_argument);
}

TEST(Krr, PackUnpackRoundTripDual) {
  util::Rng rng(44);
  const Dataset train = blobs(40, 2.5, 3, rng);
  KrrClassifier krr{KrrConfig{}};
  krr.fit(train.x, train.y);
  const auto packed = krr.pack();
  const KrrClassifier restored = KrrClassifier::unpack(packed);

  std::vector<double> x(3);
  for (int trial = 0; trial < 20; ++trial) {
    for (auto& v : x) v = rng.gaussian();
    EXPECT_NEAR(krr.decision(x), restored.decision(x), 1e-12);
  }
}

TEST(Krr, PackUnpackRoundTripPrimal) {
  util::Rng rng(45);
  const Dataset train = blobs(40, 2.5, 3, rng);
  KrrConfig config;
  config.kernel = Kernel::linear();
  KrrClassifier krr(config);
  krr.fit(train.x, train.y);
  const auto packed = krr.pack();
  const KrrClassifier restored = KrrClassifier::unpack(packed);
  std::vector<double> x(3);
  for (int trial = 0; trial < 20; ++trial) {
    for (auto& v : x) v = rng.gaussian();
    EXPECT_NEAR(krr.decision(x), restored.decision(x), 1e-12);
  }
}

TEST(Krr, UnpackRejectsCorrupt) {
  EXPECT_THROW((void)KrrClassifier::unpack(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Krr, IncrementalAddMatchesFullRefit) {
  // Woodbury add_sample must equal batch training on the extended set.
  util::Rng rng(46);
  Dataset train = blobs(30, 2.0, 4, rng);

  KrrConfig config;
  config.kernel = Kernel::linear();
  KrrClassifier incremental(config);
  incremental.fit(train.x, train.y);

  // New sample.
  const std::vector<double> extra{0.5, -0.2, 1.0, 0.3};
  incremental.add_sample(extra, +1);

  Dataset extended = train;
  extended.add(extra, +1);
  KrrClassifier batch(config);
  batch.fit(extended.x, extended.y);

  std::vector<double> x(4);
  for (int trial = 0; trial < 30; ++trial) {
    for (auto& v : x) v = rng.gaussian();
    EXPECT_NEAR(incremental.decision(x), batch.decision(x), 1e-8);
  }
}

TEST(Krr, IncrementalRemoveUndoesAdd) {
  // Exact unlearning: add then remove returns the original model.
  util::Rng rng(47);
  const Dataset train = blobs(30, 2.0, 4, rng);
  KrrConfig config;
  config.kernel = Kernel::linear();
  KrrClassifier krr(config);
  krr.fit(train.x, train.y);

  std::vector<double> probe(4);
  for (auto& v : probe) v = rng.gaussian();
  const double before = krr.decision(probe);

  const std::vector<double> extra{1.0, 2.0, -1.0, 0.0};
  krr.add_sample(extra, -1);
  EXPECT_NE(krr.decision(probe), before);
  krr.remove_sample(extra, -1);
  EXPECT_NEAR(krr.decision(probe), before, 1e-8);
}

TEST(Krr, IncrementalRequiresPrimal) {
  util::Rng rng(48);
  const Dataset train = blobs(20, 2.0, 3, rng);
  KrrClassifier krr{KrrConfig{}};  // RBF -> dual
  krr.fit(train.x, train.y);
  EXPECT_THROW(krr.add_sample(std::vector<double>{1, 2, 3}, 1),
               std::logic_error);
}

TEST(Krr, RhoControlsShrinkage) {
  // Larger rho shrinks decision magnitudes toward zero.
  util::Rng rng(49);
  const Dataset train = blobs(50, 3.0, 3, rng);
  KrrConfig small, large;
  small.rho = 0.01;
  large.rho = 100.0;
  KrrClassifier a(small), b(large);
  a.fit(train.x, train.y);
  b.fit(train.x, train.y);

  double mag_a = 0.0, mag_b = 0.0;
  std::vector<double> x(3);
  for (int trial = 0; trial < 50; ++trial) {
    for (auto& v : x) v = rng.gaussian(1.5, 1.0);
    mag_a += std::abs(a.decision(x));
    mag_b += std::abs(b.decision(x));
  }
  EXPECT_GT(mag_a, mag_b);
}

// Dual scoring as it was before the windows x training block: the
// training x windows cross-kernel block, then one num::axpy per training
// index in ascending order. The dual state comes from pack(): [type, gamma,
// rho, 0, n, m, alpha..., X row-major...].
std::vector<double> frozen_dual_decision_batch(const KrrClassifier& model,
                                               const Matrix& x) {
  const std::vector<double> packed = model.pack();
  EXPECT_EQ(packed[3], 0.0) << "not a dual model";
  const Kernel kernel{static_cast<KernelType>(packed[0]), packed[1]};
  const auto n = static_cast<std::size_t>(packed[4]);
  const auto m = static_cast<std::size_t>(packed[5]);
  const double* alpha = packed.data() + 6;
  Matrix train(n, m);
  std::copy(alpha + n, alpha + n + n * m, train.data().begin());
  const Matrix k = kernel_matrix(train, x, kernel);
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < n; ++i) num::axpy(alpha[i], k.row(i), out);
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(KrrBitwise, DualDecisionBatchMatchesFrozenReductionOnEveryBackend) {
  // 202 training rows: three full 64-row kernel tiles and a remainder.
  util::Rng rng(60);
  const Dataset train = blobs(101, 2.0, 28, rng);
  const Dataset probe = blobs(64, 2.0, 28, rng);
  for (const Kernel kernel : {Kernel::rbf(), Kernel::linear()}) {
    KrrConfig config;
    config.kernel = kernel;
    config.path = KrrSolvePath::kDual;
    KrrClassifier model(config);
    model.fit(train.x, train.y);
    const num::Backend saved = num::active_backend();
    for (const num::Backend backend : num::all_backends()) {
      if (!num::backend_available(backend)) continue;
      num::set_backend(backend);
      for (const std::size_t m : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 128u}) {
        std::vector<std::size_t> idx(m);
        std::iota(idx.begin(), idx.end(), std::size_t{0});
        const Matrix x = probe.x.select_rows(idx);
        const std::vector<double> got = model.decision_batch(x);
        const std::vector<double> want = frozen_dual_decision_batch(model, x);
        ASSERT_EQ(got.size(), m);
        for (std::size_t r = 0; r < m; ++r) {
          EXPECT_EQ(bits(got[r]), bits(want[r]))
              << kernel.name() << " " << num::backend_name(backend)
              << " m=" << m << " r=" << r;
          EXPECT_EQ(bits(model.decision(x.row(r))), bits(got[r]))
              << kernel.name() << " " << num::backend_name(backend)
              << " m=" << m << " r=" << r;
        }
      }
    }
    num::set_backend(saved);
  }
}

TEST(Kernel, SymmetryAndGram) {
  util::Rng rng(50);
  Matrix x(6, 4);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) x(i, j) = rng.gaussian();
  }
  for (const Kernel kernel : {Kernel::linear(), Kernel::rbf()}) {
    const Matrix k = gram_matrix(x, kernel);
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < 6; ++j) {
        EXPECT_DOUBLE_EQ(k(i, j), k(j, i));
      }
    }
    if (kernel.type == KernelType::kRbf) {
      for (std::size_t i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(k(i, i), 1.0);
    }
  }
}

TEST(Kernel, RbfRange) {
  const Kernel k = Kernel::rbf();
  const std::vector<double> a{0.0, 0.0};
  const std::vector<double> b{10.0, 10.0};
  EXPECT_DOUBLE_EQ(k(a, a), 1.0);
  EXPECT_GT(k(a, b), 0.0);
  EXPECT_LT(k(a, b), 1e-10);
}

}  // namespace
}  // namespace sy::ml
