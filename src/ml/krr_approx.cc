#include "ml/krr_approx.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "ml/linalg.h"
#include "ml/packed.h"
#include "num/kernels.h"
#include "util/rng.h"

namespace sy::ml {

std::string to_string(TrainingMode mode) {
  switch (mode) {
    case TrainingMode::kExact:
      return "exact";
    case TrainingMode::kNystrom:
      return "nystrom";
    case TrainingMode::kRff:
      return "rff";
  }
  return "unknown";
}

std::optional<TrainingMode> parse_training_mode(std::string_view name) {
  if (name == "exact") return TrainingMode::kExact;
  if (name == "nystrom") return TrainingMode::kNystrom;
  if (name == "rff") return TrainingMode::kRff;
  return std::nullopt;
}

Matrix KrrFeatureMap::transform(const Matrix& x) const {
  Matrix z(x.rows(), output_dim());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    transform(x.row(i), z.row(i));
  }
  return z;
}

// --- RffFeatureMap --------------------------------------------------------

std::shared_ptr<const RffFeatureMap> RffFeatureMap::build(std::size_t dim,
                                                          std::size_t
                                                              n_features,
                                                          double gamma,
                                                          std::uint64_t seed) {
  if (dim == 0 || n_features == 0 || n_features % 2 != 0) {
    throw std::invalid_argument(
        "RffFeatureMap: n_features must be positive and even");
  }
  if (gamma <= 0.0) {
    throw std::invalid_argument("RffFeatureMap: gamma must be resolved (> 0)");
  }
  auto map = std::shared_ptr<RffFeatureMap>(new RffFeatureMap());
  map->dim_ = dim;
  const std::size_t n_freq = n_features / 2;
  map->freqs_ = Matrix(n_freq, dim);
  // Bochner: the RBF kernel exp(-gamma ||d||^2) is the characteristic
  // function of N(0, 2*gamma I). Draw order is row-major, so the map is a
  // pure function of (dim, n_features, gamma, seed).
  const double stddev = std::sqrt(2.0 * gamma);
  util::Rng rng(seed);
  for (std::size_t k = 0; k < n_freq; ++k) {
    for (double& w : map->freqs_.row(k)) w = rng.gaussian() * stddev;
  }
  // E[z(x).z(y)] = (1/F) sum_k cos(w_k.(x-y)) -> k(x, y).
  map->scale_ = 1.0 / std::sqrt(static_cast<double>(n_freq));
  return map;
}

void RffFeatureMap::transform(std::span<const double> x,
                              std::span<double> out) const {
  if (x.size() != dim_ || out.size() != output_dim()) {
    throw std::invalid_argument("RffFeatureMap::transform: dimension mismatch");
  }
  num::rff_transform_row(freqs_.data().data(), freqs_.rows(), freqs_.cols(),
                         x.data(), dim_, scale_, out.data());
}

std::vector<double> RffFeatureMap::pack() const {
  std::vector<double> out;
  // [mode (TrainingMode::kRff), dim, n_freq, scale, freqs row-major]
  out.push_back(static_cast<double>(TrainingMode::kRff));
  out.push_back(static_cast<double>(dim_));
  out.push_back(static_cast<double>(freqs_.rows()));
  out.push_back(scale_);
  const auto data = freqs_.data();
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

// --- NystromFeatureMap ----------------------------------------------------

std::shared_ptr<const NystromFeatureMap> NystromFeatureMap::build(
    Matrix landmarks, Kernel kernel) {
  if (landmarks.rows() == 0 || landmarks.cols() == 0) {
    throw std::invalid_argument("NystromFeatureMap: empty landmark matrix");
  }
  auto map = std::shared_ptr<NystromFeatureMap>(new NystromFeatureMap());
  map->kernel_ = kernel;
  map->landmarks_ = std::move(landmarks);
  const Matrix k_mm = gram_matrix(map->landmarks_, kernel);
  // Deterministic jitter ladder: duplicate landmark rows make K_mm exactly
  // singular, and 1e-8 on a unit RBF diagonal already restores positive
  // definiteness without moving the approximation.
  for (double jitter = 1e-8; jitter <= 1e-2; jitter *= 10.0) {
    Matrix shifted = k_mm;
    shifted.add_diagonal(jitter);
    try {
      map->chol_ = cholesky(shifted);
      return map;
    } catch (const std::runtime_error&) {
      // Not positive definite at this jitter; escalate.
    }
  }
  throw std::runtime_error(
      "NystromFeatureMap: landmark Gram not positive definite");
}

void NystromFeatureMap::transform(std::span<const double> x,
                                  std::span<double> out) const {
  if (x.size() != input_dim() || out.size() != output_dim()) {
    throw std::invalid_argument(
        "NystromFeatureMap::transform: dimension mismatch");
  }
  // z = L_mm^-1 k_m(x): cross-kernel against the landmarks, then one
  // forward substitution (the same dispatched dot_sub reduction shape as
  // cholesky_solve's forward half).
  const std::vector<double> k = kernel_vector(landmarks_, x, kernel_);
  forward_substitution(chol_, k, out);
}

std::vector<double> NystromFeatureMap::pack() const {
  std::vector<double> out;
  // [mode (TrainingMode::kNystrom), dim, n_landmarks, kernel_type, gamma,
  //  landmarks, chol]
  out.push_back(static_cast<double>(TrainingMode::kNystrom));
  out.push_back(static_cast<double>(landmarks_.cols()));
  out.push_back(static_cast<double>(landmarks_.rows()));
  out.push_back(static_cast<double>(kernel_.type));
  out.push_back(kernel_.gamma);
  const auto lm = landmarks_.data();
  out.insert(out.end(), lm.begin(), lm.end());
  const auto ch = chol_.data();
  out.insert(out.end(), ch.begin(), ch.end());
  return out;
}

// --- (de)serialization dispatch ------------------------------------------

std::shared_ptr<const KrrFeatureMap> KrrFeatureMap::unpack(
    std::span<const double> packed) {
  if (packed.empty()) {
    throw std::invalid_argument("KrrFeatureMap::unpack: empty");
  }
  const auto mode = static_cast<TrainingMode>(
      unpack_count(packed[0], static_cast<std::size_t>(TrainingMode::kRff),
                   "KrrFeatureMap::unpack: mode"));
  if (mode == TrainingMode::kRff) {
    if (packed.size() < 4) {
      throw std::invalid_argument("KrrFeatureMap::unpack: truncated rff");
    }
    auto map = std::shared_ptr<RffFeatureMap>(new RffFeatureMap());
    const std::size_t rest = packed.size() - 4;
    map->dim_ = unpack_count(packed[1], rest, "KrrFeatureMap::unpack: rff dim");
    const std::size_t n_freq =
        unpack_count(packed[2], rest, "KrrFeatureMap::unpack: rff n_freq");
    map->scale_ = packed[3];
    // rest == n_freq * dim, checked without the product.
    if (map->dim_ == 0 || rest % map->dim_ != 0 ||
        rest / map->dim_ != n_freq) {
      throw std::invalid_argument("KrrFeatureMap::unpack: corrupt rff");
    }
    map->freqs_ = Matrix(n_freq, map->dim_);
    std::copy(packed.begin() + 4, packed.end(), map->freqs_.data().begin());
    return map;
  }
  if (mode == TrainingMode::kNystrom) {
    if (packed.size() < 5) {
      throw std::invalid_argument("KrrFeatureMap::unpack: truncated nystrom");
    }
    auto map = std::shared_ptr<NystromFeatureMap>(new NystromFeatureMap());
    const std::size_t rest = packed.size() - 5;
    const std::size_t dim =
        unpack_count(packed[1], rest, "KrrFeatureMap::unpack: nystrom dim");
    const std::size_t n_landmarks = unpack_count(
        packed[2], rest, "KrrFeatureMap::unpack: nystrom landmarks");
    map->kernel_.type = static_cast<KernelType>(
        unpack_count(packed[3], static_cast<std::size_t>(KernelType::kRbf),
                     "KrrFeatureMap::unpack: kernel type"));
    map->kernel_.gamma = packed[4];
    // rest == landmarks (n_landmarks * dim) + Cholesky factor
    // (n_landmarks^2), i.e. n_landmarks * (dim + n_landmarks).
    if (n_landmarks == 0 || rest % n_landmarks != 0 ||
        rest / n_landmarks != dim + n_landmarks) {
      throw std::invalid_argument("KrrFeatureMap::unpack: corrupt nystrom");
    }
    const std::size_t lm_len = n_landmarks * dim;
    map->landmarks_ = Matrix(n_landmarks, dim);
    std::copy(packed.begin() + 5, packed.begin() + 5 + lm_len,
              map->landmarks_.data().begin());
    map->chol_ = Matrix(n_landmarks, n_landmarks);
    std::copy(packed.begin() + 5 + lm_len, packed.end(),
              map->chol_.data().begin());
    return map;
  }
  throw std::invalid_argument("KrrFeatureMap::unpack: unknown mode code");
}

// --- Landmark selection ---------------------------------------------------

std::vector<std::size_t> sample_landmark_indices(std::size_t population,
                                                 std::size_t count,
                                                 std::uint64_t seed) {
  if (count >= population) {
    std::vector<std::size_t> all(population);
    for (std::size_t i = 0; i < population; ++i) all[i] = i;
    return all;
  }
  // Partial Fisher-Yates over a sparse "swapped" map: O(count) time/space,
  // no materialized permutation, no std distribution (the draw is a
  // splitmix64 of (seed, i) reduced mod the remaining range).
  std::unordered_map<std::size_t, std::size_t> swapped;
  const auto value_at = [&swapped](std::size_t i) {
    const auto it = swapped.find(i);
    return it == swapped.end() ? i : it->second;
  };
  std::vector<std::size_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t draw =
        util::splitmix64(seed + 0x9E3779B97F4A7C15ull * (i + 1));
    const std::size_t j =
        i + static_cast<std::size_t>(
                draw % static_cast<std::uint64_t>(population - i));
    out.push_back(value_at(j));
    swapped[j] = value_at(i);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sy::ml
