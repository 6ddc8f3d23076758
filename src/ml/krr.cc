#include "ml/krr.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/linalg.h"
#include "ml/packed.h"
#include "num/kernels.h"

namespace sy::ml {

KrrClassifier::KrrClassifier(KrrConfig config) : config_(config) {
  if (config_.rho <= 0.0) {
    throw std::invalid_argument("KrrClassifier: rho must be positive");
  }
  if (config_.path == KrrSolvePath::kPrimal &&
      config_.kernel.type != KernelType::kLinear) {
    throw std::invalid_argument(
        "KrrClassifier: the primal path (Eq. 7) requires the linear kernel");
  }
  if (config_.mode != TrainingMode::kExact) {
    if (config_.approx_dim == 0) {
      throw std::invalid_argument(
          "KrrClassifier: approximate modes need approx_dim > 0");
    }
    if (config_.mode == TrainingMode::kRff &&
        (config_.kernel.type != KernelType::kRbf ||
         config_.approx_dim % 2 != 0)) {
      throw std::invalid_argument(
          "KrrClassifier: rff mode needs the RBF kernel and an even "
          "approx_dim");
    }
  }
}

void KrrClassifier::fit(const Matrix& x, const std::vector<int>& y) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    throw std::invalid_argument("KrrClassifier::fit: bad training set");
  }
  std::vector<double> yd(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] != 1 && y[i] != -1) {
      throw std::invalid_argument("KrrClassifier::fit: labels must be +-1");
    }
    yd[i] = static_cast<double>(y[i]);
  }

  if (config_.mode != TrainingMode::kExact) {
    fit_approx(x, yd);
    trained_ = true;
    return;
  }
  const bool primal =
      config_.path == KrrSolvePath::kPrimal ||
      (config_.path == KrrSolvePath::kAuto &&
       config_.kernel.type == KernelType::kLinear);
  if (primal) {
    fit_primal(x, yd);
  } else {
    fit_dual(x, yd);
  }
  trained_ = true;
}

void KrrClassifier::fit_dual(const Matrix& x, std::span<const double> y) {
  train_x_ = x;
  Matrix k = gram_matrix(x, config_.kernel);
  k.add_diagonal(config_.rho);
  alpha_ = solve_spd(k, y);
  weights_.reset();
}

void KrrClassifier::fit_primal(const Matrix& x, std::span<const double> y) {
  const std::size_t m = x.cols();
  // Gram in feature space: X^T X + rho I_M (M x M), accumulated sample by
  // sample as rank-one axpy updates of each lower-triangular row.
  Matrix g(m, m);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto row = x.row(i);
    for (std::size_t a = 0; a < m; ++a) {
      const double ra = row[a];
      if (ra == 0.0) continue;
      num::axpy(ra, row.first(a + 1), g.row(a).first(a + 1));
    }
  }
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < a; ++b) g(b, a) = g(a, b);
  }
  g.add_diagonal(config_.rho);

  xty_.assign(m, 0.0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    num::axpy(y[i], x.row(i), xty_);
  }

  inv_gram_ = invert_spd(g);
  weights_ = inv_gram_ * std::span<const double>(xty_);
  train_x_ = Matrix();
  alpha_.clear();
}

void KrrClassifier::fit_approx(const Matrix& x, std::span<const double> y) {
  // Self-contained approximate fit (the analysis/eval path): build the map
  // from this training set and the config seed, then solve the D x D ridge
  // system (Z^T Z + rho I) w = Z^T y. The serving path instead assembles
  // models through from_feature_model with a map shared across users.
  const std::size_t dim = x.cols();
  Kernel resolved = config_.kernel;
  resolved.gamma = config_.kernel.effective_gamma(dim);
  if (config_.mode == TrainingMode::kRff) {
    feature_map_ = RffFeatureMap::build(dim, config_.approx_dim,
                                        resolved.gamma, config_.approx_seed);
  } else {
    const auto idx = sample_landmark_indices(
        x.rows(), std::min(config_.approx_dim, x.rows()),
        config_.approx_seed);
    feature_map_ = NystromFeatureMap::build(x.select_rows(idx), resolved);
  }

  const Matrix z = feature_map_->transform(x);
  const std::size_t d = z.cols();
  // Z^T Z + rho I via the same lower-triangle rank-one accumulation as the
  // primal path, then w = G^-1 Z^T y.
  Matrix g(d, d);
  for (std::size_t i = 0; i < z.rows(); ++i) {
    const auto row = z.row(i);
    for (std::size_t a = 0; a < d; ++a) {
      const double ra = row[a];
      if (ra == 0.0) continue;
      num::axpy(ra, row.first(a + 1), g.row(a).first(a + 1));
    }
  }
  for (std::size_t a = 0; a < d; ++a) {
    for (std::size_t b = 0; b < a; ++b) g(b, a) = g(a, b);
  }
  g.add_diagonal(config_.rho);

  std::vector<double> zty(d, 0.0);
  for (std::size_t i = 0; i < z.rows(); ++i) {
    num::axpy(y[i], z.row(i), zty);
  }
  feature_weights_ = solve_spd(g, zty);

  train_x_ = Matrix();
  alpha_.clear();
  weights_.reset();
}

KrrClassifier KrrClassifier::from_feature_model(
    KrrConfig config, std::shared_ptr<const KrrFeatureMap> map,
    std::vector<double> weights) {
  if (!map || weights.size() != map->output_dim()) {
    throw std::invalid_argument(
        "KrrClassifier::from_feature_model: weight/map dimension mismatch");
  }
  config.mode = map->mode();
  config.approx_dim = map->output_dim();
  KrrClassifier model(std::move(config));
  model.feature_map_ = std::move(map);
  model.feature_weights_ = std::move(weights);
  model.trained_ = true;
  return model;
}

double KrrClassifier::decision(std::span<const double> x) const {
  if (!trained_) throw std::logic_error("KrrClassifier: not trained");
  if (feature_map_) {
    std::vector<double> z(feature_map_->output_dim());
    feature_map_->transform(x, z);
    return dot(feature_weights_, z);
  }
  if (weights_) {
    return dot(*weights_, x);
  }
  // Route the dual path through the batch reduction so a single window
  // scores bit-identically to the same window inside any batch, on every
  // backend (the Authenticator batch-vs-single contract). On the scalar
  // backend this is the same ascending-i accumulation as the historical
  // dot(alpha_, kernel_vector(...)).
  Matrix one(1, x.size());
  std::copy(x.begin(), x.end(), one.row(0).begin());
  return decision_batch(one).front();
}

std::vector<double> KrrClassifier::decision_batch(const Matrix& x) const {
  if (!trained_) throw std::logic_error("KrrClassifier: not trained");
  std::vector<double> out(x.rows());
  if (feature_map_) {
    // Row-wise map + dot: each row scores exactly as decision(x.row(i)) —
    // the map transforms rows independently (no batch-shaped reduction), so
    // batch-vs-single bit identity is structural.
    std::vector<double> z(feature_map_->output_dim());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      feature_map_->transform(x.row(i), z);
      out[i] = dot(feature_weights_, z);
    }
    return out;
  }
  if (weights_) {
    for (std::size_t i = 0; i < x.rows(); ++i) out[i] = dot(*weights_, x.row(i));
    return out;
  }
  // One blocked cross-kernel build amortizes the train_x_ streaming across
  // all windows. The alpha reduction runs as contiguous row axpys; each
  // column still accumulates alpha_[i] * k(i, j) in ascending i, matching
  // dot(alpha_, k) on the scalar backend.
  const Matrix k = kernel_matrix(train_x_, x, config_.kernel);
  for (std::size_t i = 0; i < k.rows(); ++i) {
    num::axpy(alpha_[i], k.row(i), out);
  }
  return out;
}

std::string KrrClassifier::name() const {
  if (config_.mode != TrainingMode::kExact) {
    return "KRR(" + config_.kernel.name() + "," + to_string(config_.mode) +
           "-" + std::to_string(config_.approx_dim) + ")";
  }
  return "KRR(" + config_.kernel.name() + ")";
}

std::unique_ptr<BinaryClassifier> KrrClassifier::clone_untrained() const {
  return std::make_unique<KrrClassifier>(config_);
}

std::span<const double> KrrClassifier::weights() const {
  if (!weights_) {
    throw std::logic_error("KrrClassifier::weights: dual model has no w");
  }
  return *weights_;
}

std::span<const double> KrrClassifier::feature_weights() const {
  if (!feature_map_) {
    throw std::logic_error(
        "KrrClassifier::feature_weights: exact model has no feature map");
  }
  return feature_weights_;
}

void KrrClassifier::rank_one_update(std::span<const double> x, double label,
                                    double sign) {
  // Sherman-Morrison: (A + sign * x x^T)^-1
  //   = A^-1 - sign * (A^-1 x)(x^T A^-1) / (1 + sign * x^T A^-1 x)
  const std::size_t m = x.size();
  if (inv_gram_.rows() != m) {
    throw std::logic_error("KrrClassifier: incremental update needs primal fit");
  }
  const std::vector<double> ax = inv_gram_ * x;
  const double denom = 1.0 + sign * dot(x, ax);
  if (std::abs(denom) < 1e-12) {
    throw std::runtime_error("KrrClassifier: singular incremental update");
  }
  const double scale = sign / denom;
  for (std::size_t a = 0; a < m; ++a) {
    num::axpy(-(scale * ax[a]), ax, inv_gram_.row(a));
  }
  num::axpy(sign * label, x, xty_);
  weights_ = inv_gram_ * std::span<const double>(xty_);
}

void KrrClassifier::add_sample(std::span<const double> x, int label) {
  if (!trained_ || !weights_) {
    throw std::logic_error("KrrClassifier::add_sample requires a primal model");
  }
  rank_one_update(x, static_cast<double>(label), +1.0);
}

void KrrClassifier::remove_sample(std::span<const double> x, int label) {
  if (!trained_ || !weights_) {
    throw std::logic_error(
        "KrrClassifier::remove_sample requires a primal model");
  }
  rank_one_update(x, static_cast<double>(label), -1.0);
}

std::vector<double> KrrClassifier::pack() const {
  if (!trained_) throw std::logic_error("KrrClassifier::pack: not trained");
  std::vector<double> out;
  // Layout: [kernel_type, gamma, rho, mode] where mode is 0 = dual,
  // 1 = primal (the historical is_primal flag, so old bundles stay
  // loadable), 2 = rff, 3 = nystrom. Then:
  //   dual:    n, m, alpha..., X row-major...
  //   primal:  dim, w...
  //   approx:  map_len, map..., dim, w...   (map per KrrFeatureMap::pack)
  out.push_back(static_cast<double>(config_.kernel.type));
  out.push_back(config_.kernel.gamma);
  out.push_back(config_.rho);
  if (feature_map_) {
    out.push_back(feature_map_->mode() == TrainingMode::kRff ? 2.0 : 3.0);
    const std::vector<double> map = feature_map_->pack();
    out.push_back(static_cast<double>(map.size()));
    out.insert(out.end(), map.begin(), map.end());
    out.push_back(static_cast<double>(feature_weights_.size()));
    out.insert(out.end(), feature_weights_.begin(), feature_weights_.end());
    return out;
  }
  out.push_back(weights_ ? 1.0 : 0.0);
  if (weights_) {
    out.push_back(static_cast<double>(weights_->size()));
    out.insert(out.end(), weights_->begin(), weights_->end());
  } else {
    out.push_back(static_cast<double>(train_x_.rows()));
    out.push_back(static_cast<double>(train_x_.cols()));
    out.insert(out.end(), alpha_.begin(), alpha_.end());
    const auto data = train_x_.data();
    out.insert(out.end(), data.begin(), data.end());
  }
  return out;
}

KrrClassifier KrrClassifier::unpack(std::span<const double> packed) {
  if (packed.size() < 5) {
    throw std::invalid_argument("KrrClassifier::unpack: truncated");
  }
  KrrConfig config;
  config.kernel.type = static_cast<KernelType>(
      unpack_count(packed[0], static_cast<std::size_t>(KernelType::kRbf),
                   "KrrClassifier::unpack: kernel type"));
  config.kernel.gamma = packed[1];
  config.rho = packed[2];
  const std::size_t mode_code =
      unpack_count(packed[3], 3, "KrrClassifier::unpack: mode");
  if (mode_code == 2 || mode_code == 3) {
    const std::size_t map_pos = 5;
    const std::size_t map_len =
        unpack_count(packed[4], packed.size() - map_pos,
                     "KrrClassifier::unpack: map length");
    const std::size_t dim_pos = map_pos + map_len;
    if (dim_pos == packed.size()) {
      throw std::invalid_argument("KrrClassifier::unpack: corrupt approx");
    }
    auto map = KrrFeatureMap::unpack(packed.subspan(map_pos, map_len));
    const std::size_t pos = dim_pos + 1;
    const std::size_t dim = unpack_count(packed[dim_pos], packed.size() - pos,
                                         "KrrClassifier::unpack: approx dim");
    if (packed.size() != pos + dim || dim != map->output_dim()) {
      throw std::invalid_argument("KrrClassifier::unpack: corrupt approx");
    }
    std::vector<double> w(packed.begin() + static_cast<std::ptrdiff_t>(pos),
                          packed.end());
    return from_feature_model(config, std::move(map), std::move(w));
  }
  const bool primal = mode_code != 0;

  KrrClassifier model(config);
  if (primal) {
    const std::size_t pos = 5;
    const std::size_t dim = unpack_count(packed[4], packed.size() - pos,
                                         "KrrClassifier::unpack: primal dim");
    if (packed.size() != pos + dim) {
      throw std::invalid_argument("KrrClassifier::unpack: corrupt primal");
    }
    model.weights_ = std::vector<double>(packed.begin() + static_cast<std::ptrdiff_t>(pos),
                                         packed.end());
    // Incremental updates are unavailable after unpack (inv_gram_ omitted
    // from the wire format); decision() only needs w.
  } else {
    if (packed.size() < 6) {
      throw std::invalid_argument("KrrClassifier::unpack: truncated");
    }
    const std::size_t pos = 6;
    const std::size_t rest = packed.size() - pos;
    const std::size_t n =
        unpack_count(packed[4], rest, "KrrClassifier::unpack: dual rows");
    const std::size_t m =
        unpack_count(packed[5], rest, "KrrClassifier::unpack: dual cols");
    // rest == n alphas + n*m training values, i.e. n * (1 + m).
    if (n == 0 || rest % n != 0 || rest / n != 1 + m) {
      throw std::invalid_argument("KrrClassifier::unpack: corrupt dual");
    }
    const auto alpha_begin = packed.begin() + static_cast<std::ptrdiff_t>(pos);
    const auto x_begin = alpha_begin + static_cast<std::ptrdiff_t>(n);
    model.alpha_.assign(alpha_begin, x_begin);
    model.train_x_ = Matrix(n, m);
    std::copy(x_begin, packed.end(), model.train_x_.data().begin());
  }
  model.trained_ = true;
  return model;
}

}  // namespace sy::ml
