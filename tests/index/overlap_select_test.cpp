// Stage 1 of the identification cascade — support overlap counted over
// class-major column bitsets, survivors chosen at an exact score cutoff —
// must keep exactly the users the posting-list walk + keep_top it replaced
// would keep.  That walk lives on here as the oracle; the two are compared
// through detail::overlap_survivors on every bitset backend this host runs,
// and the backends' overlap kernels are checked against a per-position
// count directly.
#include "index/cascade.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/profiler.h"
#include "features/schema.h"
#include "index/mapped_store.h"
#include "svm/kernel.h"
#include "synthetic/scale.h"
#include "util/bitset_view.h"
#include "util/rng.h"

namespace wtp::index {
namespace {

struct BackendGuard {
  ~BackendGuard() { svm::set_kernel_backend_for_testing(""); }
};

struct Query {
  std::vector<std::uint32_t> indices;
  std::vector<double> values;
};

Query query_of(const util::SparseVector& x) {
  Query query;
  for (const auto& entry : x.entries()) {
    query.indices.push_back(static_cast<std::uint32_t>(entry.index));
    query.values.push_back(entry.value);
  }
  return query;
}

Query query_over(std::uint32_t first, std::uint32_t last) {
  Query query;
  for (std::uint32_t col = first; col < last; ++col) {
    query.indices.push_back(col);
    query.values.push_back(1.0);
  }
  return query;
}

/// The posting-list stage 1 that the bitset selection replaced: walk every
/// query identity column's posting list, accumulate 1/√|support| per hit in
/// float, filter by min_overlap (falling back to every touched user), and
/// keep the best overlap_keep by (score desc, index asc).
class PostingOracle {
 public:
  explicit PostingOracle(const ProfileCatalog& catalog)
      : dimension_{catalog.schema().dimension()},
        prune_start_{
            catalog.schema().group_offset(features::FeatureGroup::kCategory)},
        postings_(dimension_ - prune_start_),
        inv_sqrt_support_(catalog.size(), 0.0f) {
    for (std::size_t u = 0; u < catalog.size(); ++u) {
      const util::CsrView& svs = catalog.model(u).support_vectors;
      std::vector<std::uint32_t> support;
      for (std::size_t r = 0; r < svs.rows(); ++r) {
        for (const std::uint32_t col : svs.row_indices(r)) {
          if (col >= prune_start_ && col < dimension_) support.push_back(col);
        }
      }
      std::sort(support.begin(), support.end());
      support.erase(std::unique(support.begin(), support.end()), support.end());
      for (const std::uint32_t col : support) {
        postings_[col - prune_start_].push_back(static_cast<std::uint32_t>(u));
      }
      if (!support.empty()) {
        inv_sqrt_support_[u] = static_cast<float>(
            1.0 / std::sqrt(static_cast<double>(support.size())));
      }
    }
  }

  /// Candidates scoring exactly the cutoff (the keep-th best score), and
  /// how many of them were kept.
  struct Tie {
    std::size_t candidates = 0;
    std::size_t kept = 0;
  };

  [[nodiscard]] std::vector<std::uint32_t> survivors(
      const Query& query, const CascadeConfig& config,
      Tie* tie = nullptr) const {
    const std::size_t n = inv_sqrt_support_.size();
    std::vector<float> score(n, 0.0f);
    std::vector<std::size_t> hits(n, 0);
    std::vector<std::uint32_t> touched;
    for (std::size_t k = 0; k < query.indices.size(); ++k) {
      const std::uint32_t col = query.indices[k];
      if (col < prune_start_ || col >= dimension_ || query.values[k] == 0.0) {
        continue;
      }
      for (const std::uint32_t u : postings_[col - prune_start_]) {
        if (hits[u] == 0) {
          score[u] = inv_sqrt_support_[u];
          touched.push_back(u);
        } else {
          score[u] += inv_sqrt_support_[u];
        }
        ++hits[u];
      }
    }
    std::vector<std::uint32_t> survivors;
    if (touched.empty() || config.min_overlap == 0) {
      for (std::size_t u = 0; u < n; ++u) {
        survivors.push_back(static_cast<std::uint32_t>(u));
      }
    } else {
      for (const std::uint32_t u : touched) {
        if (hits[u] >= config.min_overlap) survivors.push_back(u);
      }
      if (survivors.empty()) survivors = touched;
    }
    const std::size_t keep = config.overlap_keep;
    if (keep != 0 && survivors.size() > keep) {
      const auto better = [&score](std::uint32_t a, std::uint32_t b) {
        if (score[a] != score[b]) return score[a] > score[b];
        return a < b;
      };
      std::nth_element(survivors.begin(), survivors.begin() + (keep - 1),
                       survivors.end(), better);
      if (tie != nullptr) {
        const float cutoff = score[survivors[keep - 1]];
        for (std::size_t i = 0; i < survivors.size(); ++i) {
          if (score[survivors[i]] != cutoff) continue;
          ++tie->candidates;
          if (i < keep) ++tie->kept;
        }
      }
      survivors.resize(keep);
    }
    std::sort(survivors.begin(), survivors.end());
    return survivors;
  }

 private:
  std::size_t dimension_;
  std::size_t prune_start_;
  std::vector<std::vector<std::uint32_t>> postings_;
  std::vector<float> inv_sqrt_support_;
};

/// Compares stage 1 with the oracle for every (config, query) on every
/// host-supported backend; returns the number of comparisons made.
std::size_t expect_matches_oracle(const ProfileCatalog& catalog,
                                  const std::vector<CascadeConfig>& configs,
                                  const std::vector<Query>& queries) {
  BackendGuard guard;
  const PostingOracle oracle{catalog};
  std::size_t compared = 0;
  for (const CascadeConfig& config : configs) {
    const IdentificationPlane plane{catalog, config};
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::vector<std::uint32_t> expected =
          oracle.survivors(queries[q], config);
      for (const std::string_view backend : svm::supported_kernel_backends()) {
        svm::set_kernel_backend_for_testing(backend);
        const std::vector<std::uint32_t> got = detail::overlap_survivors(
            plane, queries[q].indices, queries[q].values);
        EXPECT_EQ(got, expected)
            << "backend " << backend << ", query " << q << ", overlap_keep "
            << config.overlap_keep << ", min_overlap " << config.min_overlap;
        ++compared;
      }
    }
  }
  return compared;
}

std::vector<CascadeConfig> configs_for(std::initializer_list<std::size_t> keeps,
                                       std::initializer_list<std::size_t> mins) {
  std::vector<CascadeConfig> configs;
  for (const std::size_t keep : keeps) {
    for (const std::size_t min_overlap : mins) {
      CascadeConfig config;
      config.overlap_keep = keep;
      config.min_overlap = min_overlap;
      configs.push_back(config);
    }
  }
  return configs;
}

core::ProfileStore store_of(const features::FeatureSchema& schema,
                            const features::WindowConfig& window,
                            const std::vector<std::vector<std::uint32_t>>& supports) {
  const svm::KernelParams kernel{svm::KernelType::kRbf, 0.05, 0.0, 3};
  const core::ProfileParams params{core::ClassifierType::kOcSvm, kernel, 0.5};
  std::vector<core::UserProfile> profiles;
  for (std::size_t u = 0; u < supports.size(); ++u) {
    std::vector<util::SparseVector::Entry> entries{{0, 0.5}};
    for (const std::uint32_t col : supports[u]) entries.push_back({col, 1.0});
    std::vector<util::SparseVector> svs{util::SparseVector{std::move(entries)}};
    profiles.push_back(core::UserProfile::from_model(
        std::to_string(u), params,
        svm::AnySvmModel{svm::OneClassSvmModel::from_parts(
            kernel, std::move(svs), std::vector<double>{1.0}, 0.0)}));
  }
  return core::ProfileStore{window, schema, std::move(profiles)};
}

/// Users whose scores on the query "the first 8 identity columns" tie
/// across support-size classes: support s in {1, 4, 16, 64} scores h/√s
/// for h hits, so 1 hit of s=1, 2 of s=4, 4 of s=16 and 8 of s=64 all score
/// exactly 1.0.  Classes interleave in catalog order and the s=4 class
/// spans many words.  Columns from identity offset 700 on belong to nobody.
std::vector<std::vector<std::uint32_t>> tied_supports(std::uint32_t first,
                                                      std::size_t users) {
  util::Rng rng{0x7135};
  constexpr std::uint32_t kHot = 8;
  constexpr std::uint32_t kColdEnd = 700;
  std::vector<std::vector<std::uint32_t>> supports;
  for (std::size_t u = 0; u < users; ++u) {
    const std::size_t pick = rng.uniform_index(10);
    const std::uint32_t size = pick < 6 ? 4 : pick == 6 ? 1 : pick == 7 ? 16 : 64;
    const std::uint32_t hits =
        static_cast<std::uint32_t>(rng.uniform_index(std::min(size, kHot) + 1));
    std::vector<std::uint32_t> hot(kHot);
    for (std::uint32_t c = 0; c < kHot; ++c) hot[c] = first + c;
    std::vector<std::uint32_t> support;
    for (std::uint32_t h = 0; h < hits; ++h) {
      const std::size_t at = rng.uniform_index(hot.size());
      support.push_back(hot[at]);
      hot.erase(hot.begin() + static_cast<std::ptrdiff_t>(at));
    }
    while (support.size() < size) {
      const std::uint32_t col =
          first + kHot + static_cast<std::uint32_t>(rng.uniform_index(kColdEnd - kHot));
      if (std::find(support.begin(), support.end(), col) == support.end()) {
        support.push_back(col);
      }
    }
    std::sort(support.begin(), support.end());
    supports.push_back(std::move(support));
  }
  return supports;
}

TEST(OverlapSelect, MatchesPostingWalkOnScalePopulation) {
  synthetic::ScaleConfig config;
  config.seed = 23;
  config.users = 2000;  // not a multiple of 64
  const synthetic::ScalePopulation population{config};
  std::vector<core::UserProfile> profiles;
  const core::ProfileParams params{core::ClassifierType::kOcSvm,
                                   config.kernel, 0.5};
  for (std::size_t u = 0; u < population.size(); ++u) {
    profiles.push_back(core::UserProfile::from_model(
        population.user_id(u), params,
        svm::AnySvmModel{population.make_model(u)}));
  }
  const core::ProfileStore store{population.window(), population.schema(),
                                 std::move(profiles)};
  const HeapProfileCatalog catalog{store};

  std::vector<Query> queries;
  for (std::size_t q = 0; q < 24; ++q) {
    queries.push_back(query_of(
        population.sample_window(q * 83 % population.size(), 0x5e1ec7 + q)));
  }
  const std::uint32_t first = static_cast<std::uint32_t>(
      population.schema().group_offset(features::FeatureGroup::kCategory));
  queries.push_back(query_over(first, static_cast<std::uint32_t>(
                                          population.schema().dimension())));
  queries.push_back(query_over(0, first));  // no identity column at all

  const std::size_t compared = expect_matches_oracle(
      catalog, configs_for({16, 64, 0}, {0, 1, 3, 100000}), queries);
  EXPECT_GT(compared, 0u);
}

TEST(OverlapSelect, TiesAcrossClassesBreakByCatalogIndex) {
  const auto population = synthetic::ScalePopulation{synthetic::ScaleConfig{}};
  const auto& schema = population.schema();
  const std::uint32_t first = static_cast<std::uint32_t>(
      schema.group_offset(features::FeatureGroup::kCategory));
  const core::ProfileStore store =
      store_of(schema, population.window(), tied_supports(first, 1500));
  const HeapProfileCatalog catalog{store};

  const std::vector<Query> queries{
      query_over(first, first + 8),      // the tie-heavy query
      query_over(first, first + 3),      // fewer hits, more ties at 0.5/1.0
      query_over(first + 4, first + 12), // hot and cold columns mixed
      query_over(first + 700, first + 720),  // columns nobody has
  };
  expect_matches_oracle(catalog,
                        configs_for({1, 5, 16, 37, 64, 700}, {0, 1, 3, 50}),
                        queries);

  // The ties really are cut: on the tie-heavy query, some budget ends
  // inside a tier of equal scores, so only the index order decides.
  const PostingOracle oracle{catalog};
  std::size_t cut_ties = 0;
  for (const CascadeConfig& config : configs_for({5, 16, 37, 64, 700}, {1})) {
    PostingOracle::Tie tie;
    (void)oracle.survivors(queries[0], config, &tie);
    if (tie.kept > 0 && tie.kept < tie.candidates) ++cut_ties;
  }
  EXPECT_GT(cut_ties, 0u);
}

TEST(OverlapSelect, CountsPastByteRangeWhenEveryColumnHits) {
  const auto population = synthetic::ScalePopulation{synthetic::ScaleConfig{}};
  const auto& schema = population.schema();
  const std::uint32_t first = static_cast<std::uint32_t>(
      schema.group_offset(features::FeatureGroup::kCategory));
  const std::uint32_t dimension = static_cast<std::uint32_t>(schema.dimension());
  ASSERT_GT(dimension - first, 255u);

  // Users whose support is every identity column hit on all of them; the
  // rest draw supports of up to 400 columns.
  util::Rng rng{0xa11c0};
  std::vector<std::vector<std::uint32_t>> supports;
  for (std::size_t u = 0; u < 203; ++u) {
    std::vector<std::uint32_t> support;
    if (u % 9 == 4) {
      for (std::uint32_t col = first; col < dimension; ++col) support.push_back(col);
    } else {
      const std::size_t size = 1 + rng.uniform_index(400);
      for (std::uint32_t col = first; col < dimension && support.size() < size;
           ++col) {
        if (rng.uniform_index(2) == 0) support.push_back(col);
      }
    }
    supports.push_back(std::move(support));
  }
  const core::ProfileStore store = store_of(schema, population.window(), supports);
  const HeapProfileCatalog catalog{store};
  const std::vector<Query> queries{query_over(first, dimension),
                                   query_over(first, first + 300)};
  expect_matches_oracle(catalog, configs_for({3, 16, 64}, {0, 1, 256, 900}),
                        queries);
}

TEST(OverlapSelect, EmptyCatalogKeepsNobody) {
  const auto population = synthetic::ScalePopulation{synthetic::ScaleConfig{}};
  const auto& schema = population.schema();
  const core::ProfileStore store = store_of(schema, population.window(), {});
  const HeapProfileCatalog catalog{store};
  const std::uint32_t first = static_cast<std::uint32_t>(
      schema.group_offset(features::FeatureGroup::kCategory));
  expect_matches_oracle(catalog, configs_for({0, 16}, {0, 1}),
                        {query_over(first, first + 8), query_over(0, first)});
  const IdentificationPlane plane{catalog};
  EXPECT_EQ(plane.identify(population.sample_window(0, 1)).best,
            IdentificationResult::npos);
}

/// Per-position count of the given columns, the reference the bit-sliced
/// kernels are checked against.
std::vector<std::uint32_t> naive_counts(
    const std::vector<std::vector<std::uint64_t>>& columns, std::size_t words) {
  std::vector<std::uint32_t> counts(words * 64, 0);
  for (const auto& column : columns) {
    for (std::size_t p = 0; p < words * 64; ++p) {
      counts[p] += (column[p / 64] >> (p % 64)) & 1;
    }
  }
  return counts;
}

TEST(OverlapKernels, EveryBackendMatchesPerPositionCounts) {
  BackendGuard guard;
  util::Rng rng{0xc0de};
  for (const std::size_t n_columns : {1u, 2u, 7u, 29u, 64u, 65u, 300u}) {
    const std::size_t words = 37;  // not a multiple of any vector width
    std::vector<std::vector<std::uint64_t>> columns(n_columns);
    for (auto& column : columns) {
      column.resize(words);
      const std::uint64_t density = rng.uniform_index(4);  // sparse to dense
      for (auto& word : column) {
        word = rng();
        for (std::uint64_t d = 0; d < density; ++d) word &= rng();
      }
    }
    std::vector<const std::uint64_t*> pointers;
    for (const auto& column : columns) pointers.push_back(column.data());
    const std::vector<std::uint32_t> counts = naive_counts(columns, words);
    const std::size_t n_planes =
        static_cast<std::size_t>(std::bit_width(n_columns)) + 1;  // one spare

    for (const std::string_view backend : svm::supported_kernel_backends()) {
      svm::set_kernel_backend_for_testing(backend);
      const util::BitsetDotOps& ops = *svm::kernel_dispatch();
      std::vector<std::uint64_t> planes(n_planes * words, ~std::uint64_t{0});
      ops.overlap_count(pointers.data(), n_columns, words, n_planes,
                        planes.data());
      for (std::size_t p = 0; p < words * 64; ++p) {
        std::uint32_t value = 0;
        for (std::size_t i = 0; i < n_planes; ++i) {
          value |= static_cast<std::uint32_t>(
                       (planes[i * words + p / 64] >> (p % 64)) & 1)
                   << i;
        }
        ASSERT_EQ(value, counts[p]) << backend << " position " << p;
      }

      for (const auto& [begin, end] :
           {std::pair<std::size_t, std::size_t>{0, words},
            {3, 20},
            {5, 6},
            {9, 9},
            {1, 36}}) {
        std::vector<std::uint32_t> hist(n_columns, 0);
        ops.overlap_histogram(planes.data(), n_planes, words, begin, end,
                              n_columns, hist.data());
        std::vector<std::uint32_t> expected(n_columns, 0);
        for (std::size_t p = begin * 64; p < end * 64; ++p) {
          if (counts[p] > 0) ++expected[counts[p] - 1];
        }
        ASSERT_EQ(hist, expected) << backend << " words " << begin << ".." << end;

        for (const auto& [lo, hi] : {std::pair<std::uint64_t, std::uint64_t>{0, 0},
                                    {1, n_columns},
                                    {n_columns / 2, n_columns / 2},
                                    {2, ~std::uint64_t{0}},
                                    {5, 3},
                                    {n_columns + 1, ~std::uint64_t{0}}}) {
          std::vector<std::uint64_t> mask(end - begin, 0x5a5a);
          ops.overlap_select(planes.data(), n_planes, words, begin, end, lo, hi,
                             mask.data());
          for (std::size_t p = begin * 64; p < end * 64; ++p) {
            const bool selected = (mask[p / 64 - begin] >> (p % 64)) & 1;
            ASSERT_EQ(selected, counts[p] >= lo && counts[p] <= hi)
                << backend << " position " << p << " range " << lo << ".." << hi;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace wtp::index
