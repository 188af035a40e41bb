#include "svm/one_class_svm.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/registry.h"
#include "obs/trace.h"
#include "svm/model_io.h"
#include "svm/smo_solver.h"

namespace wtp::svm {

double compute_rho(std::span<const double> alpha, std::span<const double> gradient,
                   double upper_bound) {
  const double bound_eps = upper_bound * 1e-12;
  double free_sum = 0.0;
  std::size_t free_count = 0;
  // KKT: alpha_i = 0 -> G_i >= rho; alpha_i = U -> G_i <= rho; free -> G_i = rho.
  double upper_limit = std::numeric_limits<double>::infinity();   // min G over alpha=0
  double lower_limit = -std::numeric_limits<double>::infinity();  // max G over alpha=U
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    if (alpha[i] <= bound_eps) {
      upper_limit = std::min(upper_limit, gradient[i]);
    } else if (alpha[i] >= upper_bound - bound_eps) {
      lower_limit = std::max(lower_limit, gradient[i]);
    } else {
      free_sum += gradient[i];
      ++free_count;
    }
  }
  if (free_count > 0) return free_sum / static_cast<double>(free_count);
  if (std::isinf(upper_limit) && std::isinf(lower_limit)) return 0.0;
  if (std::isinf(upper_limit)) return lower_limit;
  if (std::isinf(lower_limit)) return upper_limit;
  return 0.5 * (upper_limit + lower_limit);
}

OneClassSvmModel OneClassSvmModel::from_solution(const util::FeatureMatrix& data,
                                                 const KernelParams& kernel,
                                                 const SolverResult& solved) {
  const std::size_t l = data.rows();
  OneClassSvmModel model;
  model.kernel_ = kernel;
  model.rho_ = compute_rho(solved.alpha, solved.gradient, 1.0);
  model.solver_stats_ = solved.stats;
  util::FeatureMatrixBuilder svs;
  std::size_t bounded = 0;
  for (std::size_t i = 0; i < l; ++i) {
    if (solved.alpha[i] > 1e-12) {
      svs.add_row(data, i);
      model.coefficients_.push_back(solved.alpha[i]);
      if (solved.alpha[i] >= 1.0 - 1e-12) ++bounded;
    }
  }
  model.support_vectors_ = svs.build(data.cols());
  // Inherit the training matrix's bitset layout (schema-derived when the
  // caller used ensure_bitset) so decision-time query encodings can be
  // borrowed zero-copy across same-layout matrices.
  if (kernel_dispatch() != nullptr) {
    if (const auto* bitset = data.bitset()) {
      model.support_vectors_.ensure_bitset(bitset->view().numeric_cols);
    }
  }
  model.bounded_fraction_ = static_cast<double>(bounded) / static_cast<double>(l);
  return model;
}

std::vector<OneClassSvmModel> OneClassSvmModel::fit_path(
    const util::FeatureMatrix& data, const OneClassSvmConfig& config,
    std::span<const double> nus, std::size_t dimension, PathStats* stats) {
  if (data.empty()) {
    throw std::invalid_argument{"OneClassSvmModel::fit_path: empty training set"};
  }
  for (const double nu : nus) {
    if (nu <= 0.0 || nu > 1.0) {
      throw std::invalid_argument{"OneClassSvmModel::fit_path: nu must be in (0, 1]"};
    }
  }
  KernelParams kernel = config.kernel;
  if (kernel.gamma <= 0.0) {
    kernel.gamma = 1.0 / static_cast<double>(std::max<std::size_t>(1, dimension));
  }

  const obs::TraceSpan path_span{"svm.fit_path", "svm",
                                 static_cast<std::uint64_t>(nus.size())};
  obs::Registry::global().counter("solver.path_columns").add(1);

  const std::size_t l = data.rows();
  QMatrix q{data, kernel, /*scale=*/1.0, config.cache_bytes, config.gram_cache};
  const std::vector<double> p(l, 0.0);
  SolverConfig solver_config;
  solver_config.eps = config.eps;
  solver_config.shrinking = config.shrinking;
  solver_config.shrink_interval = config.shrink_interval;

  std::vector<OneClassSvmModel> models;
  models.reserve(nus.size());
  SolverResult previous;
  for (const double nu : nus) {
    const double delta = nu * static_cast<double>(l);
    // Subsequent cells seed from the previous solution (alpha, gradient and
    // G_bar), so the solver pays only for what the projection changed.
    SolverResult solved =
        previous.alpha.empty()
            ? solve_smo(q, p, /*upper_bound=*/1.0, delta, solver_config)
            : solve_smo(q, p, /*upper_bound=*/1.0, delta, solver_config,
                        WarmSeed{previous.alpha, previous.gradient,
                                 previous.g_bar, /*upper_bound=*/1.0});
    if (stats != nullptr) stats->cells.push_back(solved.stats);
    models.push_back(from_solution(data, kernel, solved));
    previous = std::move(solved);
  }
  if (stats != nullptr) {
    stats->cache_hits = q.cache_hits();
    stats->cache_misses = q.cache_misses();
  }
  return models;
}

OneClassSvmModel OneClassSvmModel::train(const util::FeatureMatrix& data,
                                         const OneClassSvmConfig& config,
                                         std::size_t dimension) {
  if (config.nu <= 0.0 || config.nu > 1.0) {
    throw std::invalid_argument{"OneClassSvmModel::train: nu must be in (0, 1]"};
  }
  if (data.empty()) {
    throw std::invalid_argument{"OneClassSvmModel::train: empty training set"};
  }
  const double nu[] = {config.nu};
  return std::move(fit_path(data, config, nu, dimension).front());
}

OneClassSvmModel OneClassSvmModel::train(std::span<const util::SparseVector> data,
                                         const OneClassSvmConfig& config,
                                         std::size_t dimension) {
  return train(util::FeatureMatrix::from_rows(data), config, dimension);
}

OneClassSvmModel OneClassSvmModel::from_parts(KernelParams kernel,
                                              util::FeatureMatrix support_vectors,
                                              std::vector<double> coefficients,
                                              double rho) {
  if (support_vectors.rows() != coefficients.size()) {
    throw std::invalid_argument{"OneClassSvmModel::from_parts: SV/coefficient size mismatch"};
  }
  OneClassSvmModel model;
  model.kernel_ = kernel;
  model.support_vectors_ = std::move(support_vectors);
  model.coefficients_ = std::move(coefficients);
  model.rho_ = rho;
  return model;
}

OneClassSvmModel OneClassSvmModel::from_parts(
    KernelParams kernel, std::vector<util::SparseVector> support_vectors,
    std::vector<double> coefficients, double rho) {
  return from_parts(kernel, util::FeatureMatrix::from_rows(support_vectors),
                    std::move(coefficients), rho);
}

double OneClassSvmModel::decision_value(const util::SparseVector& x) const {
  return view_of(*this).decision_value(x);
}

double OneClassSvmModel::decision_value(const util::SparseVector& x,
                                        double x_sqnorm,
                                        EncodedQueryCache* cache) const {
  return view_of(*this).decision_value(x, x_sqnorm, cache);
}

void OneClassSvmModel::decision_values(const util::FeatureMatrix& queries,
                                       std::span<double> out) const {
  view_of(*this).decision_values(queries, out);
}

}  // namespace wtp::svm
