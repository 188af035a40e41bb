// IdentificationPlane: the cascade must never change the identification
// argmax (no-false-prune invariant vs exhaustive fan-out), must behave
// identically over heap and mmap catalogs, and must publish per-stage
// survivor counts through its registry.  Its gate stages (centroid and
// gaussian) must keep exactly the users the plain loops below keep.
#include "index/cascade.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/profiler.h"
#include "features/schema.h"
#include "index/mapped_store.h"
#include "obs/registry.h"
#include "svm/kernel.h"
#include "synthetic/scale.h"

namespace wtp::index {
namespace {

synthetic::ScalePopulation population_of(std::size_t users) {
  synthetic::ScaleConfig config;
  config.seed = 11;
  config.users = users;
  return synthetic::ScalePopulation{config};
}

core::ProfileStore heap_store(const synthetic::ScalePopulation& population) {
  std::vector<core::UserProfile> profiles;
  const core::ProfileParams params{core::ClassifierType::kOcSvm,
                                   population.config().kernel, 0.5};
  for (std::size_t u = 0; u < population.size(); ++u) {
    profiles.push_back(core::UserProfile::from_model(
        population.user_id(u), params,
        svm::AnySvmModel{population.make_model(u)}));
  }
  return core::ProfileStore{population.window(), population.schema(),
                            std::move(profiles)};
}

TEST(Cascade, ArgmaxMatchesExhaustiveFanOut) {
  const auto population = population_of(300);
  const auto store = heap_store(population);
  const HeapProfileCatalog catalog{store};
  const IdentificationPlane plane{catalog};

  for (std::size_t q = 0; q < 40; ++q) {
    const util::SparseVector window =
        population.sample_window(q * 7 % population.size(), 0xc0ffee + q);
    const IdentificationResult cascade = plane.identify(window);
    const IdentificationResult exhaustive = plane.identify_exhaustive(window);
    ASSERT_EQ(cascade.best, exhaustive.best) << "query " << q;
    ASSERT_EQ(cascade.best_decision, exhaustive.best_decision) << "query " << q;
    ASSERT_EQ(exhaustive.scored, population.size());
    ASSERT_LE(cascade.scored, plane.config().final_keep);
  }
}

TEST(Cascade, SurvivorCountsAreMonotoneAcrossStages) {
  const auto population = population_of(300);
  const auto store = heap_store(population);
  const HeapProfileCatalog catalog{store};
  CascadeConfig config;
  config.overlap_keep = 128;
  config.centroid_keep = 32;
  config.final_keep = 8;
  const IdentificationPlane plane{catalog, config};

  const IdentificationResult result =
      plane.identify(population.sample_window(5, 0xfee1));
  EXPECT_LE(result.overlap_survivors, 128u);
  EXPECT_LE(result.centroid_survivors, result.overlap_survivors);
  EXPECT_LE(result.gaussian_survivors, result.centroid_survivors);
  EXPECT_LE(result.scored, result.gaussian_survivors);
  EXPECT_LE(result.scored, 8u);
  EXPECT_NE(result.best, IdentificationResult::npos);
}

TEST(Cascade, WideBudgetsAcceptExactlyLikeExhaustive) {
  const auto population = population_of(60);
  const auto store = heap_store(population);
  const HeapProfileCatalog catalog{store};
  CascadeConfig config;
  config.overlap_keep = 0;  // 0 disables a stage: everyone passes through
  config.centroid_keep = 0;
  config.final_keep = 0;
  config.min_overlap = 0;
  const IdentificationPlane plane{catalog, config};

  for (std::size_t q = 0; q < 10; ++q) {
    const util::SparseVector window = population.sample_window(q, 0xd00d + q);
    const IdentificationResult cascade = plane.identify(window);
    const IdentificationResult exhaustive = plane.identify_exhaustive(window);
    ASSERT_EQ(cascade.scored, population.size());
    ASSERT_EQ(cascade.accepted, exhaustive.accepted);
    ASSERT_EQ(cascade.best, exhaustive.best);
  }
}

TEST(Cascade, HeapAndMappedCatalogsScoreIdentically) {
  const auto population = population_of(80);
  const auto store = heap_store(population);
  const std::string path = ::testing::TempDir() + "/cascade_equiv.wtpstore";
  write_mapped_store(store, path);
  const MappedProfileStore mapped = MappedProfileStore::open(path);

  const HeapProfileCatalog heap_catalog{store};
  const IdentificationPlane heap_plane{heap_catalog};
  const IdentificationPlane mapped_plane{mapped};

  for (std::size_t q = 0; q < 20; ++q) {
    const util::SparseVector window =
        population.sample_window(q % population.size(), 0xfade + q);
    const IdentificationResult a = heap_plane.identify(window);
    const IdentificationResult b = mapped_plane.identify(window);
    ASSERT_EQ(a.best, b.best);
    ASSERT_EQ(a.best_decision, b.best_decision);  // bit-identical backends
    ASSERT_EQ(a.accepted, b.accepted);
    ASSERT_EQ(a.scored, b.scored);
  }
}

TEST(Cascade, PublishesPerStageMetrics) {
  const auto population = population_of(120);
  const auto store = heap_store(population);
  const HeapProfileCatalog catalog{store};
  obs::Registry registry;
  CascadeConfig config;
  config.registry = &registry;
  const IdentificationPlane plane{catalog, config};

  constexpr std::size_t kQueries = 5;
  for (std::size_t q = 0; q < kQueries; ++q) {
    (void)plane.identify(population.sample_window(q, 0xbead + q));
  }
  (void)plane.identify_exhaustive(population.sample_window(0, 0xbead));

  const obs::Snapshot snapshot = registry.snapshot();
  std::uint64_t windows = 0, kernel_rows = 0, exhaustive_windows = 0;
  for (const auto& counter : snapshot.counters) {
    const std::string key = obs::canonical_key(counter.name, counter.labels);
    if (key == "index.windows") windows = counter.value;
    if (key == "index.kernel_row_calls") kernel_rows = counter.value;
    if (key == "index.exhaustive_windows") exhaustive_windows = counter.value;
  }
  EXPECT_EQ(windows, kQueries);
  EXPECT_EQ(exhaustive_windows, 1u);
  EXPECT_GT(kernel_rows, 0u);
  EXPECT_LE(kernel_rows, kQueries * plane.config().final_keep);
}

TEST(Cascade, ThreadSafeIdentify) {
  const auto population = population_of(100);
  const auto store = heap_store(population);
  const HeapProfileCatalog catalog{store};
  const IdentificationPlane plane{catalog};

  // Reference answers computed serially first.
  std::vector<std::size_t> expected;
  for (std::size_t q = 0; q < 16; ++q) {
    expected.push_back(
        plane.identify(population.sample_window(q, 0xace + q)).best);
  }
  std::vector<std::size_t> got(16, IdentificationResult::npos);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t q = t; q < 16; q += 4) {
        got[q] = plane.identify(population.sample_window(q, 0xace + q)).best;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(got, expected);
}

struct BackendGuard {
  ~BackendGuard() { svm::set_kernel_backend_for_testing(""); }
};

/// The gate stages as plain loops over gate statistics rebuilt from the
/// catalog: the centroid score, then the gaussian score with zero query
/// entries skipped, each followed by a (score desc, index asc) selection.
/// Built for the default variance floor.
class GateOracle {
 public:
  explicit GateOracle(const ProfileCatalog& catalog) : catalog_{&catalog} {
    const std::size_t dimension = catalog.schema().dimension();
    std::vector<double> sum(dimension, 0.0);
    std::vector<double> sum_sq(dimension, 0.0);
    std::vector<char> seen(dimension, 0);
    offsets_.push_back(0);
    for (std::size_t u = 0; u < catalog.size(); ++u) {
      const util::CsrView& svs = catalog.model(u).support_vectors;
      std::vector<std::uint32_t> cols;
      for (std::size_t r = 0; r < svs.rows(); ++r) {
        const auto indices = svs.row_indices(r);
        const auto values = svs.row_values(r);
        for (std::size_t k = 0; k < indices.size(); ++k) {
          if (indices[k] >= dimension) continue;
          if (!seen[indices[k]]) {
            seen[indices[k]] = 1;
            cols.push_back(indices[k]);
          }
          sum[indices[k]] += values[k];
          sum_sq[indices[k]] += values[k] * values[k];
        }
      }
      std::sort(cols.begin(), cols.end());
      const double inv_m =
          svs.rows() > 0 ? 1.0 / static_cast<double>(svs.rows()) : 0.0;
      double mean_sqnorm = 0.0;
      double gauss_base = 0.0;
      for (const std::uint32_t col : cols) {
        const double mean = sum[col] * inv_m;
        const double variance = std::max(sum_sq[col] * inv_m - mean * mean, 0.0);
        const double inv_var = 1.0 / std::max(variance, kVarianceFloor);
        cols_.push_back(col);
        mean_.push_back(static_cast<float>(mean));
        inv_var_.push_back(static_cast<float>(inv_var));
        mean_sqnorm += mean * mean;
        gauss_base += mean * mean * inv_var;
        sum[col] = 0.0;
        sum_sq[col] = 0.0;
        seen[col] = 0;
      }
      mean_sqnorm_.push_back(static_cast<float>(mean_sqnorm));
      gauss_base_.push_back(static_cast<float>(gauss_base));
      offsets_.push_back(cols_.size());
    }
  }

  /// Stage 3 survivors from the stage 1 survivors, ascending.
  [[nodiscard]] std::vector<std::uint32_t> survivors(
      std::vector<std::uint32_t> candidates,
      std::span<const std::uint32_t> indices, std::span<const double> values,
      const CascadeConfig& config) const {
    std::vector<double> dense(catalog_->schema().dimension(), 0.0);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      if (indices[k] < dense.size()) dense[indices[k]] = values[k];
    }
    std::vector<float> score(catalog_->size(), 0.0f);
    if (config.centroid_keep > 0 && candidates.size() > config.centroid_keep) {
      for (const std::uint32_t u : candidates) {
        double dot = 0.0;
        for (std::size_t k = offsets_[u]; k < offsets_[u + 1]; ++k) {
          dot += dense[cols_[k]] * mean_[k];
        }
        score[u] = static_cast<float>(2.0 * dot - mean_sqnorm_[u]);
      }
      keep_top(candidates, score, config.centroid_keep);
    }
    if (config.final_keep > 0 && candidates.size() > config.final_keep) {
      const double inv_floor = 1.0 / kVarianceFloor;
      for (const std::uint32_t u : candidates) {
        double distance = gauss_base_[u];
        for (std::size_t k = offsets_[u]; k < offsets_[u + 1]; ++k) {
          const double x = dense[cols_[k]];
          if (x == 0.0) continue;
          const double mean = mean_[k];
          distance += (x * x - 2.0 * x * mean) * inv_var_[k] - x * x * inv_floor;
        }
        score[u] = static_cast<float>(-distance);
      }
      keep_top(candidates, score, config.final_keep);
    }
    std::sort(candidates.begin(), candidates.end());
    return candidates;
  }

 private:
  static void keep_top(std::vector<std::uint32_t>& candidates,
                       const std::vector<float>& score, std::size_t keep) {
    const auto better = [&score](std::uint32_t a, std::uint32_t b) {
      if (score[a] != score[b]) return score[a] > score[b];
      return a < b;
    };
    std::nth_element(candidates.begin(), candidates.begin() + (keep - 1),
                     candidates.end(), better);
    candidates.resize(keep);
  }

  static constexpr double kVarianceFloor = CascadeConfig{}.variance_floor;

  const ProfileCatalog* catalog_;
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> cols_;
  std::vector<float> mean_;
  std::vector<float> inv_var_;
  std::vector<float> mean_sqnorm_;
  std::vector<float> gauss_base_;
};

struct Query {
  std::vector<std::uint32_t> indices;
  std::vector<double> values;

  [[nodiscard]] double sqnorm() const {
    double total = 0.0;
    for (const double v : values) total += v * v;
    return total;
  }
};

Query query_of(const util::SparseVector& x) {
  Query query;
  for (const auto& entry : x.entries()) {
    query.indices.push_back(static_cast<std::uint32_t>(entry.index));
    query.values.push_back(entry.value);
  }
  return query;
}

/// `x` with every third stored value replaced by -0.0 and explicit ±0.0
/// entries added on every fifth column between, indices kept ascending.
Query with_signed_zeros(const util::SparseVector& x, std::size_t dimension) {
  Query query;
  std::uint32_t next = 0;
  std::size_t k = 0;
  const auto add_zeros_below = [&](std::uint32_t col) {
    for (; next < col; next += 5) {
      query.indices.push_back(next);
      query.values.push_back(next % 2 == 0 ? -0.0 : 0.0);
    }
  };
  for (const auto& entry : x.entries()) {
    const auto col = static_cast<std::uint32_t>(entry.index);
    add_zeros_below(col);
    query.indices.push_back(col);
    query.values.push_back(k++ % 3 == 0 ? -0.0 : entry.value);
    next = col + 1;
  }
  add_zeros_below(static_cast<std::uint32_t>(dimension));
  return query;
}

TEST(CascadeGates, MatchPlainLoopsOnEveryBackend) {
  const auto population = population_of(2000);
  const auto store = heap_store(population);
  const HeapProfileCatalog catalog{store};
  const std::size_t dimension = population.schema().dimension();
  const auto first = static_cast<std::uint32_t>(
      population.schema().group_offset(features::FeatureGroup::kCategory));

  std::vector<Query> queries;
  for (std::size_t q = 0; q < 12; ++q) {
    const util::SparseVector window =
        population.sample_window(q * 151 % population.size(), 0x9a7e + q);
    queries.push_back(query_of(window));
    if (q % 3 == 0) queries.push_back(with_signed_zeros(window, dimension));
    if (q % 4 == 1) {  // the window's non-identity columns only
      Query plain;
      for (const auto& entry : window.entries()) {
        if (entry.index >= first) break;
        plain.indices.push_back(static_cast<std::uint32_t>(entry.index));
        plain.values.push_back(entry.value);
      }
      queries.push_back(std::move(plain));
    }
  }

  // Budgets where both gates prune, where the overlap stage passes
  // everyone, and where it leaves fewer users than a gate's budget.
  std::vector<CascadeConfig> configs(5);
  configs[1].overlap_keep = 512;
  configs[1].centroid_keep = 100;
  configs[1].final_keep = 17;
  configs[2].overlap_keep = 0;
  configs[2].min_overlap = 0;
  configs[2].centroid_keep = 333;
  configs[2].final_keep = 40;
  configs[3].overlap_keep = 200;  // centroid gate skipped, gaussian prunes
  configs[3].centroid_keep = 256;
  configs[3].final_keep = 32;
  configs[4].overlap_keep = 48;  // both gates skipped
  configs[4].centroid_keep = 64;
  configs[4].final_keep = 64;

  const BackendGuard guard;
  const GateOracle oracle{catalog};
  std::size_t centroid_pruned = 0, gaussian_pruned = 0, skipped = 0;
  for (const CascadeConfig& config : configs) {
    const IdentificationPlane plane{catalog, config};
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const Query& query = queries[q];
      const std::vector<std::uint32_t> expected = oracle.survivors(
          detail::overlap_survivors(plane, query.indices, query.values),
          query.indices, query.values, config);

      // Stage 4 over the oracle's survivors, ascending, first max wins.
      const double sqnorm = query.sqnorm();
      std::size_t best = IdentificationResult::npos;
      double best_decision = -std::numeric_limits<double>::infinity();
      std::vector<std::uint32_t> accepted;
      for (const std::uint32_t u : expected) {
        const double decision =
            catalog.model(u).decision_value(query.indices, query.values, sqnorm);
        if (decision > best_decision) {
          best_decision = decision;
          best = u;
        }
        if (decision >= 0.0) accepted.push_back(u);
      }

      for (const std::string_view backend : svm::supported_kernel_backends()) {
        svm::set_kernel_backend_for_testing(backend);
        const std::string where = "backend " + std::string{backend} +
                                  ", query " + std::to_string(q) +
                                  ", overlap_keep " +
                                  std::to_string(config.overlap_keep);
        EXPECT_EQ(detail::gate_survivors(plane, query.indices, query.values),
                  expected)
            << where;
        const IdentificationResult result =
            plane.identify(query.indices, query.values, sqnorm);
        EXPECT_EQ(result.best, best) << where;
        EXPECT_EQ(result.best_decision, best_decision) << where;
        EXPECT_EQ(result.accepted, accepted) << where;
        if (backend == svm::supported_kernel_backends().front()) {
          centroid_pruned += result.centroid_survivors < result.overlap_survivors;
          gaussian_pruned += result.gaussian_survivors < result.centroid_survivors;
          skipped += result.overlap_survivors <= config.centroid_keep;
        }
      }
    }
  }
  EXPECT_GT(centroid_pruned, 0u);
  EXPECT_GT(gaussian_pruned, 0u);
  EXPECT_GT(skipped, 0u);
}

TEST(CascadeGates, RankLikePlainLoopsAtEveryCut) {
  // The gates only rank, so matching the oracle's survivors at every budget
  // below a gate's input size pins down that gate's whole order.
  const auto population = population_of(300);
  const auto store = heap_store(population);
  const HeapProfileCatalog catalog{store};
  const GateOracle oracle{catalog};
  std::vector<Query> queries;
  for (std::size_t q = 0; q < 3; ++q) {
    const util::SparseVector window =
        population.sample_window(q * 41, 0x5eed + q);
    queries.push_back(query_of(window));
    queries.push_back(
        with_signed_zeros(window, population.schema().dimension()));
  }

  constexpr std::size_t kIncoming = 48;
  const BackendGuard guard;
  for (std::size_t cut = 1; cut < kIncoming; ++cut) {
    for (const bool centroid : {true, false}) {
      CascadeConfig config;
      config.overlap_keep = kIncoming;
      config.centroid_keep = centroid ? cut : 0;
      config.final_keep = centroid ? 0 : cut;
      const IdentificationPlane plane{catalog, config};
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const Query& query = queries[q];
        const std::vector<std::uint32_t> expected = oracle.survivors(
            detail::overlap_survivors(plane, query.indices, query.values),
            query.indices, query.values, config);
        ASSERT_EQ(expected.size(), cut);
        for (const std::string_view backend :
             svm::supported_kernel_backends()) {
          svm::set_kernel_backend_for_testing(backend);
          EXPECT_EQ(detail::gate_survivors(plane, query.indices, query.values),
                    expected)
              << "backend " << backend << ", query " << q << ", "
              << (centroid ? "centroid" : "gaussian") << " keep " << cut;
        }
      }
    }
  }
}

TEST(CascadeGates, RejectsVarianceFloorWithoutFiniteInverse) {
  const auto population = population_of(20);
  const auto store = heap_store(population);
  const HeapProfileCatalog catalog{store};
  for (const double floor : {0.0, -1.0, 1e-300}) {
    CascadeConfig config;
    config.variance_floor = floor;
    EXPECT_THROW((IdentificationPlane{catalog, config}), std::invalid_argument)
        << floor;
  }
}

}  // namespace
}  // namespace wtp::index
