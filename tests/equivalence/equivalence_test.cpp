// Equivalence suite for the CSR FeatureMatrix data plane.
//
// The refactor's contract is that batch kernel rows over a FeatureMatrix are
// *bit-identical* to the per-pair SparseVector path: the scatter/gather dot
// visits matching indices in the same order as the merge-join dot, and the
// kernel transforms reuse the exact expressions of kernel_eval.  Every
// comparison below is exact (EXPECT_EQ on doubles), not approximate.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/profiler.h"
#include "oneclass/svm_adapter.h"
#include "svm/kernel.h"
#include "svm/one_class_svm.h"
#include "svm/svdd.h"
#include "util/feature_matrix.h"
#include "util/rng.h"
#include "util/sparse_vector.h"

namespace wtp {
namespace {

constexpr std::size_t kDim = 64;

/// Window-like sparse vectors: a handful of non-zeros out of kDim columns.
std::vector<util::SparseVector> synthetic_windows(std::uint64_t seed,
                                                  std::size_t count,
                                                  double center) {
  util::Rng rng{seed};
  std::vector<util::SparseVector> rows;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<util::SparseVector::Entry> entries;
    const std::size_t nnz = 4 + rng.uniform_index(8);
    for (std::size_t k = 0; k < nnz; ++k) {
      entries.push_back({rng.uniform_index(kDim), center + rng.normal(0.0, 1.0)});
    }
    rows.emplace_back(std::move(entries));
  }
  return rows;
}

std::vector<svm::KernelParams> all_kernels() {
  return {
      {svm::KernelType::kLinear, 1.0, 0.0, 3},
      {svm::KernelType::kPolynomial, 0.5, 1.0, 3},
      {svm::KernelType::kRbf, 0.25, 0.0, 3},
      {svm::KernelType::kSigmoid, 0.1, 0.5, 3},
  };
}

TEST(KernelEquivalence, KernelRowMatchesPerPairKernelEval) {
  const auto rows = synthetic_windows(11, 40, 0.5);
  const auto matrix = util::FeatureMatrix::from_rows(rows, kDim);
  const auto queries = synthetic_windows(12, 10, 0.5);
  std::vector<double> out(matrix.rows());
  for (const auto& params : all_kernels()) {
    // External-query overload vs per-pair kernel_eval with cached norms.
    for (const auto& x : queries) {
      const double x_sqnorm = x.squared_norm();
      svm::kernel_row(params, matrix, x, x_sqnorm, out);
      for (std::size_t j = 0; j < rows.size(); ++j) {
        EXPECT_EQ(out[j], svm::kernel_eval(params, x, rows[j], x_sqnorm,
                                           rows[j].squared_norm()))
            << svm::describe(params) << " row " << j;
      }
    }
    // Row-query overload (SMO's Q-matrix path).
    for (std::size_t i = 0; i < rows.size(); ++i) {
      svm::kernel_row(params, matrix, i, out);
      for (std::size_t j = 0; j < rows.size(); ++j) {
        EXPECT_EQ(out[j],
                  svm::kernel_eval(params, rows[i], rows[j],
                                   rows[i].squared_norm(), rows[j].squared_norm()))
            << svm::describe(params) << " pair (" << i << "," << j << ")";
      }
    }
    // Borrowed-CSR-row overload (the mapped cascade's scoring path), over
    // the matrix's cached bitset when it has one.
    const auto query_matrix = util::FeatureMatrix::from_rows(queries, kDim);
    const util::BitsetStorage* bitset = matrix.bitset();
    const util::BitsetView bitset_view =
        bitset != nullptr ? bitset->view() : util::BitsetView{};
    for (std::size_t q = 0; q < query_matrix.rows(); ++q) {
      svm::kernel_row(params, matrix.view(),
                      bitset != nullptr ? &bitset_view : nullptr,
                      query_matrix.row_indices(q), query_matrix.row_values(q),
                      query_matrix.sq_norm(q), out);
      for (std::size_t j = 0; j < rows.size(); ++j) {
        EXPECT_EQ(out[j], svm::kernel_eval(params, queries[q], rows[j],
                                           queries[q].squared_norm(),
                                           rows[j].squared_norm()));
      }
    }
  }
}

TEST(KernelEquivalence, KernelSelfMatchesCachedNormForm) {
  for (const auto& params : all_kernels()) {
    for (const auto& x : synthetic_windows(13, 10, 1.0)) {
      EXPECT_EQ(svm::kernel_self(params, x),
                svm::kernel_self(params, x.squared_norm()));
    }
  }
}

TEST(OneClassSvmEquivalence, MatrixAndSpanTrainingIdentical) {
  const auto data = synthetic_windows(21, 60, 1.0);
  const auto probes = synthetic_windows(22, 15, 1.0);
  for (const auto& params : all_kernels()) {
    svm::OneClassSvmConfig config;
    config.nu = 0.2;
    config.kernel = params;
    const auto from_span = svm::OneClassSvmModel::train(
        std::span<const util::SparseVector>{data}, config, kDim);
    const auto from_matrix = svm::OneClassSvmModel::train(
        util::FeatureMatrix::from_rows(data, kDim), config, kDim);
    EXPECT_EQ(from_span.rho(), from_matrix.rho()) << svm::describe(params);
    EXPECT_EQ(from_span.coefficients(), from_matrix.coefficients());
    ASSERT_EQ(from_span.support_vectors().rows(),
              from_matrix.support_vectors().rows());
    for (std::size_t i = 0; i < from_span.support_vectors().rows(); ++i) {
      EXPECT_EQ(from_span.support_vectors().row_vector(i),
                from_matrix.support_vectors().row_vector(i));
    }
    for (const auto& x : probes) {
      EXPECT_EQ(from_span.decision_value(x), from_matrix.decision_value(x));
    }
  }
}

TEST(OneClassSvmEquivalence, DecisionMatchesManualSparseVectorSum) {
  const auto data = synthetic_windows(23, 50, 1.0);
  for (const auto& params : all_kernels()) {
    svm::OneClassSvmConfig config;
    config.nu = 0.25;
    config.kernel = params;
    const auto model = svm::OneClassSvmModel::train(
        util::FeatureMatrix::from_rows(data, kDim), config, kDim);
    const auto& svs = model.support_vectors();
    for (const auto& x : synthetic_windows(24, 15, 1.0)) {
      const double x_sqnorm = x.squared_norm();
      // Legacy per-pair evaluation in SV order, as the pre-CSR code did.
      double sum = 0.0;
      for (std::size_t i = 0; i < svs.rows(); ++i) {
        sum += model.coefficients()[i] *
               svm::kernel_eval(model.kernel(), x, svs.row_vector(i), x_sqnorm,
                                svs.sq_norm(i));
      }
      EXPECT_EQ(model.decision_value(x), sum - model.rho())
          << svm::describe(params);
    }
  }
}

TEST(OneClassSvmEquivalence, DecisionVariantsAgreeExactly) {
  const auto data = synthetic_windows(25, 50, 1.0);
  const auto probes = synthetic_windows(26, 12, 1.0);
  const auto probe_matrix = util::FeatureMatrix::from_rows(probes, kDim);
  for (const auto& params : all_kernels()) {
    svm::OneClassSvmConfig config;
    config.nu = 0.3;
    config.kernel = params;
    const auto model = svm::OneClassSvmModel::train(
        util::FeatureMatrix::from_rows(data, kDim), config, kDim);
    std::vector<double> batch(probe_matrix.rows());
    model.decision_values(probe_matrix, batch);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const double single = model.decision_value(probes[i]);
      EXPECT_EQ(single, model.decision_value(probes[i], probes[i].squared_norm()));
      EXPECT_EQ(single, batch[i]) << svm::describe(params) << " probe " << i;
    }
  }
}

TEST(SvddEquivalence, MatrixAndSpanTrainingIdentical) {
  const auto data = synthetic_windows(31, 60, 1.0);
  const auto probes = synthetic_windows(32, 15, 1.0);
  for (const auto& params : all_kernels()) {
    svm::SvddConfig config;
    config.c = 0.1;
    config.kernel = params;
    const auto from_span = svm::SvddModel::train(
        std::span<const util::SparseVector>{data}, config, kDim);
    const auto from_matrix = svm::SvddModel::train(
        util::FeatureMatrix::from_rows(data, kDim), config, kDim);
    EXPECT_EQ(from_span.r_squared(), from_matrix.r_squared()) << svm::describe(params);
    EXPECT_EQ(from_span.alpha_k_alpha(), from_matrix.alpha_k_alpha());
    EXPECT_EQ(from_span.coefficients(), from_matrix.coefficients());
    for (const auto& x : probes) {
      EXPECT_EQ(from_span.decision_value(x), from_matrix.decision_value(x));
    }
  }
}

TEST(SvddEquivalence, DecisionMatchesManualSparseVectorSum) {
  const auto data = synthetic_windows(33, 50, 1.0);
  for (const auto& params : all_kernels()) {
    svm::SvddConfig config;
    config.c = 0.1;
    config.kernel = params;
    const auto model = svm::SvddModel::train(
        util::FeatureMatrix::from_rows(data, kDim), config, kDim);
    const auto& svs = model.support_vectors();
    for (const auto& x : synthetic_windows(34, 15, 1.0)) {
      const double x_sqnorm = x.squared_norm();
      double cross = 0.0;
      for (std::size_t i = 0; i < svs.rows(); ++i) {
        cross += model.coefficients()[i] *
                 svm::kernel_eval(model.kernel(), x, svs.row_vector(i), x_sqnorm,
                                  svs.sq_norm(i));
      }
      const double k_xx = svm::kernel_self(model.kernel(), x_sqnorm);
      const double expected =
          model.r_squared() - (k_xx - 2.0 * cross + model.alpha_k_alpha());
      EXPECT_EQ(model.decision_value(x), expected) << svm::describe(params);
    }
  }
}

TEST(SvddEquivalence, DecisionVariantsAgreeExactly) {
  const auto data = synthetic_windows(35, 50, 1.0);
  const auto probes = synthetic_windows(36, 12, 1.0);
  const auto probe_matrix = util::FeatureMatrix::from_rows(probes, kDim);
  svm::SvddConfig config;
  config.c = 0.1;
  config.kernel = {svm::KernelType::kRbf, 0.25, 0.0, 3};
  const auto model = svm::SvddModel::train(
      util::FeatureMatrix::from_rows(data, kDim), config, kDim);
  std::vector<double> batch(probe_matrix.rows());
  model.decision_values(probe_matrix, batch);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const double single = model.decision_value(probes[i]);
    EXPECT_EQ(single, model.decision_value(probes[i], probes[i].squared_norm()));
    EXPECT_EQ(single, batch[i]);
  }
}

TEST(OneClassModelEquivalence, EveryModelKindSpanVsMatrixIdentical) {
  const auto data = synthetic_windows(41, 60, 1.0);
  const auto probes = synthetic_windows(42, 15, 1.0);
  const auto matrix = util::FeatureMatrix::from_rows(data, kDim);
  for (const auto kind :
       {oneclass::ModelKind::kOcSvm, oneclass::ModelKind::kSvdd,
        oneclass::ModelKind::kCentroid, oneclass::ModelKind::kGaussian,
        oneclass::ModelKind::kKde, oneclass::ModelKind::kAutoencoder,
        oneclass::ModelKind::kIsolationForest, oneclass::ModelKind::kKnn}) {
    const auto from_span = oneclass::make_model(kind, 0.2);
    from_span->fit(std::span<const util::SparseVector>{data}, kDim);
    const auto from_matrix = oneclass::make_model(kind, 0.2);
    from_matrix->fit(matrix, kDim);
    for (const auto& x : probes) {
      EXPECT_EQ(from_span->decision_value(x), from_matrix->decision_value(x))
          << from_span->name();
    }
  }
}

TEST(ProfileEquivalence, AcceptanceRatioSpanVsMatrixIdentical) {
  const auto data = synthetic_windows(51, 60, 1.0);
  const auto test = synthetic_windows(52, 40, 1.0);
  const auto train_matrix = util::FeatureMatrix::from_rows(data, kDim);
  const auto test_matrix = util::FeatureMatrix::from_rows(test, kDim);
  for (const auto type : {core::ClassifierType::kOcSvm, core::ClassifierType::kSvdd}) {
    core::ProfileParams params;
    params.type = type;
    params.kernel = {svm::KernelType::kRbf, 0.25, 0.0, 3};
    params.regularizer = type == core::ClassifierType::kOcSvm ? 0.2 : 0.1;
    const auto from_span = core::UserProfile::train(
        "u", std::span<const util::SparseVector>{data}, kDim, params);
    const auto from_matrix = core::UserProfile::train("u", train_matrix, kDim, params);
    EXPECT_EQ(from_span.acceptance_ratio(test), from_matrix.acceptance_ratio(test));
    EXPECT_EQ(from_matrix.acceptance_ratio(test),
              from_matrix.acceptance_ratio(test_matrix));
    for (const auto& x : test) {
      EXPECT_EQ(from_span.decision_value(x), from_matrix.decision_value(x));
      EXPECT_EQ(from_matrix.decision_value(x),
                from_matrix.decision_value(x, x.squared_norm()));
    }
  }
}

}  // namespace
}  // namespace wtp
