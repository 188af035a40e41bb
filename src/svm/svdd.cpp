#include "svm/svdd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/registry.h"
#include "obs/trace.h"
#include "svm/model_io.h"
#include "svm/smo_solver.h"

namespace wtp::svm {

std::vector<SvddModel> SvddModel::fit_path(const util::FeatureMatrix& data,
                                           const SvddConfig& config,
                                           std::span<const double> cs,
                                           std::size_t dimension,
                                           PathStats* stats) {
  if (data.empty()) {
    throw std::invalid_argument{"SvddModel::fit_path: empty training set"};
  }
  for (const double c : cs) {
    if (c <= 0.0 || c > 1.0) {
      throw std::invalid_argument{"SvddModel::fit_path: c must be in (0, 1]"};
    }
  }
  KernelParams kernel = config.kernel;
  if (kernel.gamma <= 0.0) {
    kernel.gamma = 1.0 / static_cast<double>(std::max<std::size_t>(1, dimension));
  }
  const obs::TraceSpan path_span{"svm.fit_path", "svm",
                                 static_cast<std::uint64_t>(cs.size())};
  obs::Registry::global().counter("solver.path_columns").add(1);

  const std::size_t l = data.rows();

  QMatrix q{data, kernel, /*scale=*/2.0, config.cache_bytes, config.gram_cache};
  std::vector<double> p(l);
  for (std::size_t i = 0; i < l; ++i) p[i] = -q.kernel_diag(i);

  SolverConfig solver_config;
  solver_config.eps = config.eps;
  solver_config.shrinking = config.shrinking;
  solver_config.shrink_interval = config.shrink_interval;

  std::vector<SvddModel> models;
  models.reserve(cs.size());
  SolverResult previous;
  double previous_c = 0.0;
  for (const double c : cs) {
    // sum(alpha) = 1 with alpha_i <= C requires C*l >= 1.
    const double effective_c = std::max(c, 1.0 / static_cast<double>(l));
    // Subsequent cells seed from the previous solution (alpha, gradient and
    // G_bar), so the solver pays only for what the projection changed.
    SolverResult solved =
        previous.alpha.empty()
            ? solve_smo(q, p, effective_c, /*alpha_sum=*/1.0, solver_config)
            : solve_smo(q, p, effective_c, /*alpha_sum=*/1.0, solver_config,
                        WarmSeed{previous.alpha, previous.gradient,
                                 previous.g_bar, previous_c});
    if (stats != nullptr) stats->cells.push_back(solved.stats);
    models.push_back(from_solution(data, kernel, effective_c, q, solved));
    previous = std::move(solved);
    previous_c = effective_c;
  }
  if (stats != nullptr) {
    stats->cache_hits = q.cache_hits();
    stats->cache_misses = q.cache_misses();
  }
  return models;
}

SvddModel SvddModel::train(const util::FeatureMatrix& data,
                           const SvddConfig& config, std::size_t dimension) {
  if (config.c <= 0.0 || config.c > 1.0) {
    throw std::invalid_argument{"SvddModel::train: c must be in (0, 1]"};
  }
  if (data.empty()) {
    throw std::invalid_argument{"SvddModel::train: empty training set"};
  }
  const double c[] = {config.c};
  return std::move(fit_path(data, config, c, dimension).front());
}

SvddModel SvddModel::from_solution(const util::FeatureMatrix& data,
                                   const KernelParams& kernel,
                                   double effective_c, const QMatrix& q,
                                   const SolverResult& solved) {
  const std::size_t l = data.rows();
  // Geometry terms.  With G_i = 2 (K alpha)_i - K_ii:
  //   alpha^T K alpha = sum_i alpha_i (G_i + K_ii) / 2
  //   squared distance of x_i to center: r_i = K_ii - 2 (K alpha)_i + aKa
  //                                          = -G_i + aKa
  // Free SVs sit on the sphere, so R^2 = aKa - mean(G_free); with no free
  // SVs, R^2 is the KKT midpoint (inside points have r_i <= R^2 <= outside).
  double alpha_k_alpha = 0.0;
  for (std::size_t i = 0; i < l; ++i) {
    alpha_k_alpha += solved.alpha[i] * (solved.gradient[i] + q.kernel_diag(i)) / 2.0;
  }
  const double bound_eps = effective_c * 1e-12;
  double free_sum = 0.0;
  std::size_t free_count = 0;
  double inside_max = -std::numeric_limits<double>::infinity();  // r_i, alpha=0
  double outside_min = std::numeric_limits<double>::infinity();  // r_i, alpha=C
  for (std::size_t i = 0; i < l; ++i) {
    const double r_i = -solved.gradient[i] + alpha_k_alpha;
    if (solved.alpha[i] <= bound_eps) {
      inside_max = std::max(inside_max, r_i);
    } else if (solved.alpha[i] >= effective_c - bound_eps) {
      outside_min = std::min(outside_min, r_i);
    } else {
      free_sum += r_i;
      ++free_count;
    }
  }
  double r_squared = 0.0;
  if (free_count > 0) {
    r_squared = free_sum / static_cast<double>(free_count);
  } else if (std::isinf(inside_max) && std::isinf(outside_min)) {
    r_squared = 0.0;
  } else if (std::isinf(inside_max)) {
    r_squared = outside_min;
  } else if (std::isinf(outside_min)) {
    r_squared = inside_max;
  } else {
    r_squared = 0.5 * (inside_max + outside_min);
  }

  SvddModel model;
  model.kernel_ = kernel;
  model.effective_c_ = effective_c;
  model.r_squared_ = r_squared;
  model.alpha_k_alpha_ = alpha_k_alpha;
  model.solver_stats_ = solved.stats;
  util::FeatureMatrixBuilder svs;
  for (std::size_t i = 0; i < l; ++i) {
    if (solved.alpha[i] > 1e-12) {
      svs.add_row(data, i);
      model.coefficients_.push_back(solved.alpha[i]);
    }
  }
  model.support_vectors_ = svs.build(data.cols());
  if (kernel_dispatch() != nullptr) {
    if (const auto* bitset = data.bitset()) {
      model.support_vectors_.ensure_bitset(bitset->view().numeric_cols);
    }
  }
  return model;
}

SvddModel SvddModel::train(std::span<const util::SparseVector> data,
                           const SvddConfig& config, std::size_t dimension) {
  return train(util::FeatureMatrix::from_rows(data), config, dimension);
}

SvddModel SvddModel::from_parts(KernelParams kernel,
                                util::FeatureMatrix support_vectors,
                                std::vector<double> coefficients,
                                double r_squared, double alpha_k_alpha) {
  if (support_vectors.rows() != coefficients.size()) {
    throw std::invalid_argument{"SvddModel::from_parts: SV/coefficient size mismatch"};
  }
  SvddModel model;
  model.kernel_ = kernel;
  model.support_vectors_ = std::move(support_vectors);
  model.coefficients_ = std::move(coefficients);
  model.r_squared_ = r_squared;
  model.alpha_k_alpha_ = alpha_k_alpha;
  return model;
}

SvddModel SvddModel::from_parts(KernelParams kernel,
                                std::vector<util::SparseVector> support_vectors,
                                std::vector<double> coefficients,
                                double r_squared, double alpha_k_alpha) {
  return from_parts(kernel, util::FeatureMatrix::from_rows(support_vectors),
                    std::move(coefficients), r_squared, alpha_k_alpha);
}

double SvddModel::squared_distance_to_center(const util::SparseVector& x) const {
  return squared_distance_to_center(x, x.squared_norm());
}

double SvddModel::squared_distance_to_center(const util::SparseVector& x,
                                             double x_sqnorm,
                                             EncodedQueryCache* cache) const {
  const double cross = view_of(*this).expansion(x, x_sqnorm, cache);
  const double k_xx = kernel_self(kernel_, x_sqnorm);
  return k_xx - 2.0 * cross + alpha_k_alpha_;
}

double SvddModel::decision_value(const util::SparseVector& x) const {
  return view_of(*this).decision_value(x);
}

double SvddModel::decision_value(const util::SparseVector& x, double x_sqnorm,
                                 EncodedQueryCache* cache) const {
  return view_of(*this).decision_value(x, x_sqnorm, cache);
}

void SvddModel::decision_values(const util::FeatureMatrix& queries,
                                std::span<double> out) const {
  view_of(*this).decision_values(queries, out);
}

}  // namespace wtp::svm
