// Kernel ridge regression — the paper's authentication classifier (§V-F2).
//
// Two exactly-equivalent solution paths are implemented:
//
//   Dual (Eq. 6):   alpha = (K + rho I_N)^-1 y,  f(z) = sum_i alpha_i k(x_i,z)
//                   cost O(N^3) in the training-set size N.
//   Primal (Eq. 7): w = (X^T X + rho I_M)^-1 X^T y,  f(z) = w . z
//                   cost O(M^3) in the feature dimension M; only valid for
//                   the identity (linear) kernel, exactly the reduction the
//                   paper proves in its Appendix (N=720 -> M=28).
//
// The primal path additionally supports incremental sample addition/removal
// via rank-one Woodbury updates — the "machine unlearning" extension the
// paper cites as future work ([46]).
//
// A third, approximate path (TrainingMode::kNystrom / kRff) replaces the
// kernel with an explicit feature map (ml/krr_approx.h) and solves the small
// D x D ridge system instead — population-size-independent training for the
// server-side enrollment pipeline. kExact keeps the two historical paths
// bit-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ml/classifier.h"
#include "ml/kernel.h"
#include "ml/krr_approx.h"
#include "ml/matrix.h"

namespace sy::ml {

enum class KrrSolvePath {
  kAuto,    // primal for linear kernels, dual otherwise
  kDual,    // Eq. 6
  kPrimal,  // Eq. 7 (linear kernel only)
};

struct KrrConfig {
  Kernel kernel{Kernel::rbf()};
  // Ridge regularizer; 0.3 won the grid search on the 35-user corpus.
  double rho{0.3};
  KrrSolvePath path{KrrSolvePath::kAuto};

  // --- Approximate training (ml/krr_approx.h) -------------------------
  // kExact trains the historical dual/primal solution; kRff / kNystrom
  // train through an explicit feature map instead.
  TrainingMode mode{TrainingMode::kExact};
  // Feature dimension D of the approximate map: RFF feature count (must be
  // even; D/2 frequency rows) or Nystrom landmark count.
  std::size_t approx_dim{256};
  // Seed for the RFF frequency draw / landmark selection. Fixed by default
  // so two fits of the same data produce bitwise-identical models.
  std::uint64_t approx_seed{0x5EEDBA5Eu};
};

class KrrClassifier final : public BinaryClassifier {
 public:
  explicit KrrClassifier(KrrConfig config = {});

  void fit(const Matrix& x, const std::vector<int>& y) override;
  // One window's score. The dual path runs as a one-row decision_batch.
  double decision(std::span<const double> x) const override;
  // Batched scoring; row i equals decision(x.row(i)) bit for bit on every
  // backend. Dual: one windows x training kernel block (kernel_matrix(x,
  // train)), each row reduced against alpha by num::serial_dot_rows, one
  // serial chain in ascending training index. Primal: a row-wise dot.
  // Approximate: a row-wise map and dot.
  std::vector<double> decision_batch(const Matrix& x) const override;
  std::string name() const override;
  std::unique_ptr<BinaryClassifier> clone_untrained() const override;

  const KrrConfig& config() const { return config_; }
  bool trained() const { return trained_; }
  // True if the model holds a primal weight vector (linear path).
  bool is_primal() const { return weights_.has_value(); }
  // Primal weights; throws if the dual path was used.
  std::span<const double> weights() const;

  // --- Approximate path (mode kRff / kNystrom) ------------------------
  // True if the model scores through a feature map.
  bool is_approximate() const { return feature_map_ != nullptr; }
  // The feature map backing an approximate model; null for exact models.
  const std::shared_ptr<const KrrFeatureMap>& feature_map() const {
    return feature_map_;
  }
  // Ridge weights in feature space; throws for exact models.
  std::span<const double> feature_weights() const;
  // Assembles a trained approximate model from a prebuilt (typically shared)
  // feature map and externally solved feature-space weights — the entry
  // point for the population-statistics trainer in core/approx_training.
  // weights.size() must equal map->output_dim().
  static KrrClassifier from_feature_model(
      KrrConfig config, std::shared_ptr<const KrrFeatureMap> map,
      std::vector<double> weights);

  // --- Incremental (primal/linear only) -------------------------------
  // Adds one training sample with label in {-1,+1} via a rank-one Woodbury
  // update of (X^T X + rho I)^-1: cost O(M^2) instead of O(M^3).
  void add_sample(std::span<const double> x, int label);
  // Removes a previously added sample (exact unlearning, downdate).
  void remove_sample(std::span<const double> x, int label);

  // Model (de)serialization for the on-phone model store.
  std::vector<double> pack() const;
  static KrrClassifier unpack(std::span<const double> packed);

 private:
  void fit_dual(const Matrix& x, std::span<const double> y);
  void fit_primal(const Matrix& x, std::span<const double> y);
  void fit_approx(const Matrix& x, std::span<const double> y);
  void rank_one_update(std::span<const double> x, double label, double sign);

  KrrConfig config_;
  bool trained_{false};

  // Dual state.
  Matrix train_x_;
  std::vector<double> alpha_;

  // Primal state.
  std::optional<std::vector<double>> weights_;
  Matrix inv_gram_;            // (X^T X + rho I_M)^-1, kept for updates
  std::vector<double> xty_;    // X^T y, kept for updates

  // Approximate state.
  std::shared_ptr<const KrrFeatureMap> feature_map_;
  std::vector<double> feature_weights_;  // D ridge weights, f(z) = w . z(x)
};

}  // namespace sy::ml
