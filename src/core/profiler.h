// UserProfiler: trains and applies per-user one-class profiles (the paper's
// §III-D usage of feature vectors with OC-SVM / SVDD).
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "svm/model_io.h"
#include "svm/one_class_svm.h"
#include "svm/svdd.h"
#include "util/feature_matrix.h"
#include "util/sparse_vector.h"

namespace wtp::core {

enum class ClassifierType : std::uint8_t { kOcSvm, kSvdd };

[[nodiscard]] std::string_view to_string(ClassifierType type) noexcept;

/// The learning parameters of one user profile (the per-user output of the
/// paper's grid search): classifier family, kernel, and nu (OC-SVM) or C
/// (SVDD).
struct ProfileParams {
  ClassifierType type = ClassifierType::kOcSvm;
  svm::KernelParams kernel;
  double regularizer = 0.5;  ///< nu for OC-SVM, C for SVDD

  friend bool operator==(const ProfileParams&, const ProfileParams&) = default;
};

/// A trained user profile: the model plus its provenance.
class UserProfile {
 public:
  /// Trains a profile for `user_id` on its training window matrix (the
  /// canonical CSR data plane).  `dimension` is the schema dimension.
  /// Throws std::invalid_argument on empty training data or out-of-range
  /// parameters.
  [[nodiscard]] static UserProfile train(std::string user_id,
                                         const util::FeatureMatrix& windows,
                                         std::size_t dimension,
                                         const ProfileParams& params);
  /// Convenience overload that builds the matrix first.
  [[nodiscard]] static UserProfile train(std::string user_id,
                                         std::span<const util::SparseVector> windows,
                                         std::size_t dimension,
                                         const ProfileParams& params);

  /// Wraps an already-trained model (e.g. one cell of a warm-started
  /// fit_path sweep) into a profile.  `params` must describe how the model
  /// was trained; no validation against the model is possible here.
  [[nodiscard]] static UserProfile from_model(std::string user_id,
                                              const ProfileParams& params,
                                              svm::AnySvmModel model) {
    return UserProfile{std::move(user_id), params, std::move(model)};
  }

  [[nodiscard]] double decision_value(const util::SparseVector& window) const;
  /// Same, with the query's squared norm precomputed by the caller (serving:
  /// one norm per scored window shared across all profiles) and optionally
  /// the window's bitset encoding, shared the same way (`cache` built over
  /// `window`).
  [[nodiscard]] double decision_value(
      const util::SparseVector& window, double window_sqnorm,
      svm::EncodedQueryCache* cache = nullptr) const;
  [[nodiscard]] bool accepts(const util::SparseVector& window) const {
    return decision_value(window) >= 0.0;
  }
  [[nodiscard]] bool accepts(const util::SparseVector& window,
                             double window_sqnorm,
                             svm::EncodedQueryCache* cache = nullptr) const {
    return decision_value(window, window_sqnorm, cache) >= 0.0;
  }

  /// Batched decisions over every row of `windows` (the kernel_block path),
  /// bit-identical to per-row decision_value.  `out` needs windows.rows()
  /// elements.
  void decision_values(const util::FeatureMatrix& windows,
                       std::span<double> out) const;

  /// Fraction of `windows` accepted by the profile, in [0, 1].
  [[nodiscard]] double acceptance_ratio(
      std::span<const util::SparseVector> windows) const;
  /// Batch form over a window matrix: one kernel-row pass per window.
  /// `slack` widens the acceptance test to decision >= -slack; grid scoring
  /// uses it so training windows that are free support vectors (decision
  /// exactly 0 at the optimum) count as accepted regardless of which
  /// near-optimal point the solver stopped at.
  [[nodiscard]] double acceptance_ratio(const util::FeatureMatrix& windows,
                                        double slack = 0.0) const;

  [[nodiscard]] const std::string& user_id() const noexcept { return user_id_; }
  [[nodiscard]] const ProfileParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t support_vector_count() const;

  /// Gives the support vectors' bitset the numeric layout `numeric_cols`
  /// (normally FeatureSchema::numeric_columns()), so every profile of a
  /// store shares one layout: one query encoding serves them all and the
  /// AVX-512 combine engages.  Decision values are unchanged.
  void set_bitset_layout(std::span<const std::uint32_t> numeric_cols);

  /// Persistence: profile header (user id + params) followed by the model.
  void save(std::ostream& out) const;
  [[nodiscard]] static UserProfile load(std::istream& in);

  /// Access the underlying model (for timing benchmarks).
  [[nodiscard]] const svm::AnySvmModel& model() const noexcept { return model_; }

 private:
  UserProfile(std::string user_id, ProfileParams params, svm::AnySvmModel model)
      : user_id_{std::move(user_id)}, params_{params}, model_{std::move(model)} {}

  std::string user_id_;
  ProfileParams params_;
  svm::AnySvmModel model_;
};

}  // namespace wtp::core
