#include "ml/scaler.h"

#include <cmath>
#include <stdexcept>

#include "ml/packed.h"
#include "signal/stats.h"

namespace sy::ml {

void StandardScaler::fit(const Matrix& x) {
  if (x.rows() == 0) throw std::invalid_argument("StandardScaler: empty fit");
  mean_.assign(x.cols(), 0.0);
  stddev_.assign(x.cols(), 1.0);
  for (std::size_t j = 0; j < x.cols(); ++j) {
    signal::RunningStats s;
    for (std::size_t i = 0; i < x.rows(); ++i) s.add(x(i, j));
    mean_[j] = s.mean();
    const double sd = std::sqrt(s.variance());
    stddev_[j] = sd > 1e-12 ? sd : 1.0;
  }
}

std::vector<double> StandardScaler::transform(std::span<const double> row) const {
  if (row.size() != mean_.size()) {
    throw std::invalid_argument("StandardScaler: dimension mismatch");
  }
  std::vector<double> out(row.size());
  for (std::size_t j = 0; j < row.size(); ++j) {
    out[j] = (row[j] - mean_[j]) / stddev_[j];
  }
  return out;
}

Matrix StandardScaler::transform(const Matrix& x) const {
  Matrix out(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto t = transform(x.row(i));
    for (std::size_t j = 0; j < x.cols(); ++j) out(i, j) = t[j];
  }
  return out;
}

Dataset StandardScaler::transform(const Dataset& data) const {
  Dataset out;
  out.x = transform(data.x);
  out.y = data.y;
  return out;
}

std::vector<double> StandardScaler::pack() const {
  std::vector<double> packed;
  packed.reserve(1 + 2 * mean_.size());
  packed.push_back(static_cast<double>(mean_.size()));
  packed.insert(packed.end(), mean_.begin(), mean_.end());
  packed.insert(packed.end(), stddev_.begin(), stddev_.end());
  return packed;
}

StandardScaler StandardScaler::unpack(std::span<const double> packed) {
  if (packed.empty()) throw std::invalid_argument("StandardScaler: empty pack");
  const std::size_t rest = packed.size() - 1;
  const std::size_t dim = unpack_count(packed[0], rest, "StandardScaler: dim");
  if (rest % 2 != 0 || rest / 2 != dim) {
    throw std::invalid_argument("StandardScaler: corrupt pack");
  }
  StandardScaler s;
  s.mean_.assign(packed.begin() + 1, packed.begin() + 1 + static_cast<std::ptrdiff_t>(dim));
  s.stddev_.assign(packed.begin() + 1 + static_cast<std::ptrdiff_t>(dim), packed.end());
  return s;
}

}  // namespace sy::ml
