// Robustness sweep of the model store: every corruption must be detected
// and surface as an exception — never a crash, never a silently-wrong model
// (§IV-C "protecting data at rest").
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/model_store.h"
#include "ml/dataset.h"
#include "util/framing.h"
#include "util/rng.h"
#include "util/sha256.h"

namespace sy::core {
namespace {

AuthModel trained_model() {
  util::Rng rng(404);
  ml::Dataset train;
  std::vector<double> x(14);
  for (int i = 0; i < 40; ++i) {
    for (auto& v : x) v = rng.gaussian(1.0, 1.0);
    train.add(x, +1);
    for (auto& v : x) v = rng.gaussian(-1.0, 1.0);
    train.add(x, -1);
  }
  ml::StandardScaler scaler;
  scaler.fit(train.x);
  ml::KrrClassifier krr{ml::KrrConfig{}};
  const auto scaled = scaler.transform(train);
  krr.fit(scaled.x, scaled.y);
  AuthModel model(1, 1);
  model.set_context_model(sensors::DetectedContext::kStationary,
                          ContextModel(std::move(scaler), std::move(krr)));
  return model;
}

const std::vector<std::uint8_t>& bytes() {
  static const std::vector<std::uint8_t> b =
      ModelStore::serialize(trained_model());
  return b;
}

// Every truncation length must throw, not crash.
class Truncation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Truncation, AlwaysDetected) {
  auto copy = bytes();
  const std::size_t keep = GetParam() % copy.size();
  copy.resize(keep);
  EXPECT_THROW((void)ModelStore::deserialize(copy), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Lengths, Truncation,
                         ::testing::Values(0, 1, 3, 4, 7, 8, 19, 20, 21, 50,
                                           100, 1000, 5000));

// Single-bit flips at positions spread across the file must be detected.
class BitFlip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitFlip, AlwaysDetected) {
  auto copy = bytes();
  const std::size_t pos =
      GetParam() * (copy.size() / 16) % copy.size();
  copy[pos] ^= 0x40;
  EXPECT_THROW((void)ModelStore::deserialize(copy), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Positions, BitFlip,
                         ::testing::Range<std::size_t>(0, 16));

TEST(StoreRobustness, AppendedBytesDetected) {
  auto copy = bytes();
  copy.push_back(0x00);
  EXPECT_THROW((void)ModelStore::deserialize(copy), std::runtime_error);
}

TEST(StoreRobustness, SwappedModelsDoNotCrossVerify) {
  // A valid file for user A must deserialize as user A, not as whatever the
  // caller expected: the id lives inside the digest-protected payload.
  const AuthModel model = trained_model();
  const auto restored = ModelStore::deserialize(bytes());
  EXPECT_EQ(restored.user_id(), model.user_id());
  EXPECT_EQ(restored.version(), model.version());
}

TEST(StoreRobustness, DeterministicSerialization) {
  const auto a = ModelStore::serialize(trained_model());
  const auto b = ModelStore::serialize(trained_model());
  EXPECT_EQ(a, b);
}

// --- Forged bundles ---------------------------------------------------------
// The digest has no key: anyone who can write the model directory can build
// a bundle whose digest verifies. Its counts and enum codes (doubles in the
// packed arrays) must still be rejected with a typed error.

// A digest-valid one-context bundle around the given scaler and KRR packs,
// laid out as ModelStore::serialize does (docs/FORMATS.md).
std::vector<std::uint8_t> forge_bundle(const std::vector<double>& scaler,
                                       const std::vector<double>& krr) {
  std::vector<std::uint8_t> out;
  util::put_u32(out, util::magic_u32('S', 'Y', 'M', 'D'));
  util::put_u32(out, 1);  // format
  util::put_u32(out, 7);  // user
  util::put_u32(out, 3);  // version
  util::put_u32(out, 1);  // contexts
  util::put_u32(out, static_cast<std::uint32_t>(
                         sensors::DetectedContext::kStationary));
  util::put_doubles(out, scaler);
  util::put_doubles(out, krr);
  const auto digest = util::Sha256::hash(out.data(), out.size());
  out.insert(out.end(), digest.begin(), digest.end());
  return out;
}

constexpr double kTwo63 = 9223372036854775808.0;  // 2^63
constexpr double kTwo32 = 4294967296.0;
const double kNaN = std::numeric_limits<double>::quiet_NaN();

// dim 2: [dim, mean x2, stddev x2]
const std::vector<double> kScaler = {2, 0.0, 0.0, 1.0, 1.0};
// [kernel_type (rbf), gamma, rho, mode 0 (dual), n, m, alpha x n, X (n*m)]
std::vector<double> dual(double kernel_type, double rho, double n, double m,
                         std::size_t values) {
  std::vector<double> krr = {kernel_type, 0.5, rho, 0, n, m};
  for (std::size_t i = 0; i < values; ++i) krr.push_back(0.25 * i);
  return krr;
}
const std::vector<double> kDual = dual(1, 1.0, 2, 2, 2 + 2 * 2);
// mode 2 (rff): [map_len, rff map, dim, w x dim]; the map is
// [2 (rff), input_dim 2, n_freq 1, scale, 2 frequencies] with output
// dimension 2 * n_freq.
std::vector<double> rff(double input_dim, double n_freq, double w_dim,
                        std::size_t weights) {
  std::vector<double> krr = {1, 0.5, 1.0, 2, 6, 2, input_dim, n_freq,
                             0.7, 0.1, -0.2, w_dim};
  for (std::size_t i = 0; i < weights; ++i) krr.push_back(0.5);
  return krr;
}
const std::vector<double> kRff = rff(2, 1, 2, 2);
// mode 3 (nystrom): [map_len 7, nystrom map, dim 1, w]; the map is
// [1 (nystrom), input_dim 1, n_landmarks 1, kernel_type, gamma, landmark,
// Cholesky factor].
const std::vector<double> kNystrom = {1, 0.5, 1.0, 3,   7,   1, 1,
                                      1, 1,   0.5, 0.3, 1.0, 1, 0.5};

TEST(StoreRobustness, ForgeBundleMakesLoadableBundles) {
  // The control for the table below: without a forged field, these load.
  EXPECT_EQ(ModelStore::deserialize(forge_bundle(kScaler, kDual)).user_id(),
            7);
  EXPECT_EQ(ModelStore::deserialize(forge_bundle(kScaler, kRff)).version(),
            3);
  EXPECT_EQ(
      ModelStore::deserialize(forge_bundle(kScaler, kNystrom)).user_id(), 7);
}

TEST(StoreRobustness, ForgedCountsAndCodesThrowModelCorruptError) {
  struct Case {
    const char* name;
    std::vector<double> scaler;
    std::vector<double> krr;
  };
  auto with = [](std::vector<double> v, std::size_t i, double value) {
    v[i] = value;
    return v;
  };
  const Case cases[] = {
      // 6 + n + n*m wraps to 6 when n = 2^63, m = 1.
      {"dual n = 2^63, m = 1", kScaler, dual(1, 1.0, kTwo63, 1, 0)},
      {"dual n = NaN", kScaler, dual(1, 1.0, kNaN, 1, 0)},
      {"dual m = -1", kScaler, dual(1, 1.0, 2, -1, 0)},
      {"dual n = 0.5", kScaler, dual(1, 1.0, 0.5, 2, 6)},
      {"dual one value short", kScaler, dual(1, 1.0, 2, 2, 5)},
      {"dual without n and m", kScaler, {1, 0.5, 1.0, 0, 2}},
      {"kernel type 1e300", kScaler, dual(1e300, 1.0, 2, 2, 6)},
      {"kernel type 2", kScaler, dual(2, 1.0, 2, 2, 6)},
      {"mode code 1e300", kScaler, with(kDual, 3, 1e300)},
      {"mode code 4", kScaler, with(kDual, 3, 4)},
      {"rho = -1", kScaler, dual(1, -1.0, 2, 2, 6)},
      // mode 1 (primal, linear kernel): [dim, w x dim]
      {"primal dim = 2^63", kScaler, {0, 0.5, 1.0, 1, kTwo63, 0.5}},
      // 1 + 2*dim wraps to 1 when dim = 2^63.
      {"scaler dim = 2^63", {kTwo63}, kDual},
      {"scaler dim = inf", {std::numeric_limits<double>::infinity()}, kDual},
      {"scaler one value short", {2, 0.0, 0.0, 1.0}, kDual},
      {"approx weights one short", kScaler, rff(2, 1, 2, 1)},
      {"approx dim != map output", kScaler, rff(2, 1, 3, 3)},
      {"approx map length 2^63", kScaler, with(kRff, 4, kTwo63)},
      {"approx map length past the end", kScaler, with(kRff, 4, 8)},
      // 4 + n_freq*dim wraps to 4 when both are 2^32.
      {"rff n_freq * dim wraps", kScaler,
       {1, 0.5, 1.0, 2, 4, 2, kTwo32, kTwo32, 0.7, 0, 0}},
      {"rff map mode 1e300", kScaler, with(kRff, 5, 1e300)},
      {"rff input_dim NaN", kScaler, rff(kNaN, 1, 2, 2)},
      {"nystrom landmarks 2^63", kScaler, with(kNystrom, 7, kTwo63)},
      {"nystrom input_dim -1", kScaler, with(kNystrom, 6, -1)},
      {"nystrom kernel type 1e300", kScaler, with(kNystrom, 8, 1e300)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto bundle = forge_bundle(c.scaler, c.krr);
    try {
      (void)ModelStore::deserialize(bundle, "forged.symd");
      ADD_FAILURE() << "forged bundle was accepted";
    } catch (const ModelCorruptError& e) {
      EXPECT_NE(std::string(e.what()).find("forged.symd"), std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped error: " << e.what();
    }
  }
}

}  // namespace
}  // namespace sy::core
