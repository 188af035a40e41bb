// Support Vector Data Description (Tax & Duin 2004; paper §II-B).
//
// Encloses the training data in a minimum-volume hypersphere (center a,
// radius R) in feature space; slack weight C controls how many points may
// fall outside, with C related to the OC-SVM nu by C = 1/(nu l).  The dual
// (paper eq. 10) is solved by the generic SMO solver with Q = 2K,
// p_i = -K_ii, bounds [0, C], sum(alpha) = 1.
//
// Decision (paper eqs. 11-12): x is accepted when
//   f(x) = R^2 - ||Phi(x) - a||^2
//        = (R^2 - alpha^T K alpha) + 2 sum_i alpha_i k(x_i, x) - k(x, x) >= 0.
//
// Training consumes a util::FeatureMatrix; the support-vector set is kept
// as a compact owned FeatureMatrix block.  Decision functions forward to
// svm::ModelView (model_io.h) through view_of, the one scoring path heap and
// memory-mapped models share.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "svm/kernel.h"
#include "svm/smo_solver.h"
#include "util/feature_matrix.h"
#include "util/sparse_vector.h"

namespace wtp::svm {

struct SvddConfig {
  /// Slack weight C in (0, 1].  Feasibility requires C >= 1/l; smaller
  /// values are clamped up to 1/l at training time (and reported via
  /// effective_c()), matching the usual SVDD implementation behaviour.
  double c = 0.5;
  KernelParams kernel;  ///< gamma <= 0 resolves to 1/dimension
  double eps = 1e-3;
  std::size_t cache_bytes = std::size_t{32} << 20;
  bool shrinking = true;  ///< SolverConfig::shrinking passthrough
  std::size_t shrink_interval = 0;  ///< SolverConfig::shrink_interval passthrough
  /// Optional dot-row cache shared across the kernel columns of one grid
  /// sweep (must be built over the same training matrix).  Null = none.
  std::shared_ptr<GramCache> gram_cache;
};

class SvddModel {
 public:
  /// Trains on the user's window matrix.  Throws std::invalid_argument on
  /// empty data or c outside (0, 1].
  [[nodiscard]] static SvddModel train(const util::FeatureMatrix& data,
                                       const SvddConfig& config,
                                       std::size_t dimension);
  /// Convenience: builds the matrix from a span of SparseVectors first.
  [[nodiscard]] static SvddModel train(std::span<const util::SparseVector> data,
                                       const SvddConfig& config,
                                       std::size_t dimension);

  /// Warm-started regularizer path: one model per C in `cs` (in the given
  /// order) for the fixed kernel of `config`, sharing a single QMatrix (and
  /// hot kernel-row cache) across the sweep and seeding each solve from the
  /// previous alpha projected onto the new box [0, max(C, 1/l)].  Returns
  /// models aligned with `cs`; `config.c` is ignored.  Per-cell solver
  /// statistics and the shared cache totals land in `*stats` when given.
  [[nodiscard]] static std::vector<SvddModel> fit_path(
      const util::FeatureMatrix& data, const SvddConfig& config,
      std::span<const double> cs, std::size_t dimension,
      PathStats* stats = nullptr);

  /// Reconstructs a model from persisted parts (model_io).  `r_squared` and
  /// `alpha_k_alpha` are the stored geometry terms.
  [[nodiscard]] static SvddModel from_parts(
      KernelParams kernel, util::FeatureMatrix support_vectors,
      std::vector<double> coefficients, double r_squared, double alpha_k_alpha);
  [[nodiscard]] static SvddModel from_parts(
      KernelParams kernel, std::vector<util::SparseVector> support_vectors,
      std::vector<double> coefficients, double r_squared, double alpha_k_alpha);

  /// f(x) = R^2 - squared distance of Phi(x) to the center.
  [[nodiscard]] double decision_value(const util::SparseVector& x) const;
  /// Variant with the query's squared norm precomputed by the caller, and
  /// optionally a bitset encoding of `x` shared across models.
  [[nodiscard]] double decision_value(const util::SparseVector& x,
                                      double x_sqnorm,
                                      EncodedQueryCache* cache = nullptr) const;
  /// Batch: decision value of every row of `queries`, written to `out`.
  void decision_values(const util::FeatureMatrix& queries,
                       std::span<double> out) const;
  [[nodiscard]] bool accepts(const util::SparseVector& x) const {
    return decision_value(x) >= 0.0;
  }

  /// Squared distance ||Phi(x) - a||^2 (for diagnostics).
  [[nodiscard]] double squared_distance_to_center(const util::SparseVector& x) const;
  [[nodiscard]] double squared_distance_to_center(
      const util::SparseVector& x, double x_sqnorm,
      EncodedQueryCache* cache = nullptr) const;

  /// The support-vector set as an owned CSR block.
  [[nodiscard]] const util::FeatureMatrix& support_vectors() const noexcept {
    return support_vectors_;
  }
  /// As OneClassSvmModel::set_bitset_layout.
  void set_bitset_layout(std::span<const std::uint32_t> numeric_cols) {
    support_vectors_.ensure_bitset(numeric_cols);
  }
  [[nodiscard]] const std::vector<double>& coefficients() const noexcept {
    return coefficients_;
  }
  [[nodiscard]] double r_squared() const noexcept { return r_squared_; }
  [[nodiscard]] double alpha_k_alpha() const noexcept { return alpha_k_alpha_; }
  [[nodiscard]] const KernelParams& kernel() const noexcept { return kernel_; }
  /// C after feasibility clamping (max(c, 1/l)).
  [[nodiscard]] double effective_c() const noexcept { return effective_c_; }
  /// Instrumentation of the SMO solve that produced this model (zeros for
  /// models reconstructed via from_parts).
  [[nodiscard]] const SolverStats& solver_stats() const noexcept {
    return solver_stats_;
  }

 private:
  SvddModel() = default;

  static SvddModel from_solution(const util::FeatureMatrix& data,
                                 const KernelParams& kernel, double effective_c,
                                 const QMatrix& q, const SolverResult& solved);

  KernelParams kernel_;
  util::FeatureMatrix support_vectors_;
  std::vector<double> coefficients_;
  double r_squared_ = 0.0;
  double alpha_k_alpha_ = 0.0;
  double effective_c_ = 0.0;
  SolverStats solver_stats_;
};

}  // namespace wtp::svm
