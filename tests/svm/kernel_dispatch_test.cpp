// Backend dispatch seam (DESIGN §11): every SIMD backend the host supports
// must produce decision values bit-identical to the scalar reference, which
// itself must match the CSR oracle bit for bit.  These tests sweep layouts
// chosen to hit every combine path: the vectorized contiguous-columns
// prefix (with its masked 1.0-run and row-masked last group), the
// specialized first-word loop, the generic replay, and the chunked add_ones
// escalation for large trailing popcounts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "svm/kernel.h"
#include "util/feature_matrix.h"
#include "util/rng.h"
#include "util/sparse_vector.h"

namespace wtp::svm {
namespace {

// Restores the env-selected backend no matter how a test exits.  Also pins
// the exact transform tier for the test's duration: every suite here
// asserts bitwise identity against a scalar oracle, which is the exact
// tier's contract — a CI leg exporting WTP_TRANSFORM_MODE=relaxed must not
// skew it.
struct BackendGuard {
  BackendGuard() { set_transform_mode(TransformMode::kExact); }
  ~BackendGuard() {
    set_kernel_backend_for_testing("");
    set_transform_mode(TransformMode::kDefault);
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Binary-dominant rows over `dim` columns: exact-1.0 bits everywhere except
/// the `numeric_cols`, which carry the supplied values (possibly negative,
/// tiny, or huge — the combine must replay the oracle's rounding exactly).
std::vector<util::SparseVector> make_rows(util::Rng& rng, std::size_t count,
                                          std::size_t dim, std::size_t nnz,
                                          std::span<const std::uint32_t> ncols,
                                          double numeric_scale) {
  std::vector<util::SparseVector> out;
  const auto is_numeric = [&ncols](std::size_t c) {
    for (const std::uint32_t n : ncols) {
      if (c == n) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < count; ++i) {
    std::set<std::size_t> cols;
    while (cols.size() < nnz) {
      const std::size_t c = rng.uniform_index(dim);
      if (!is_numeric(c)) cols.insert(c);
    }
    std::vector<util::SparseVector::Entry> entries;
    for (const std::size_t c : cols) entries.push_back({c, 1.0});
    for (const std::uint32_t c : ncols) {
      if (rng.uniform() < 0.25) continue;  // field absent
      entries.push_back({c, (rng.uniform() - 0.4) * numeric_scale});
    }
    out.emplace_back(std::move(entries));
  }
  return out;
}

struct Shape {
  const char* name;
  std::size_t dim;
  std::size_t nnz;
  std::vector<std::uint32_t> ncols;
  double numeric_scale;
};

/// Layout sweep: each shape forces a different combine strategy.
std::vector<Shape> shapes() {
  return {
      // Paper schema: three consecutive numeric columns in word 0 — the
      // AVX-512 vectorized prefix path.
      {"paper", 843, 25, {6, 7, 8}, 1.0},
      // Dense rows: trailing AND-popcounts above the pad budget exercise
      // the chunked add_ones escalation per lane.
      {"dense", 843, 300, {6, 7, 8}, 1.0},
      // Huge numeric magnitudes: sums cross binades mid-replay, so the
      // integer-domain walk's round-half-even must match the oracle.
      {"binade", 843, 200, {6, 7, 8}, 0x1p50},
      // Scattered first-word columns: specialized loop, non-trivial middle
      // segments (p1 != p0), no vector prefix.
      {"scattered", 843, 25, {3, 40, 63}, 1.0},
      // A numeric column outside word 0: the generic span-walking replay.
      {"wide", 843, 25, {6, 7, 500}, 1.0},
      // Two numeric columns only: generic row loop (k_count != 3).
      {"pair", 128, 12, {5, 90}, 1.0},
      // Column count not a multiple of 64, plus a single-word layout.
      {"ragged", 65, 9, {0, 1, 2}, 1.0},
      {"oneword", 40, 7, {6, 7, 8}, 1.0},
  };
}

TEST(KernelDispatch, ScalarAlwaysSupported) {
  const auto names = supported_kernel_backends();
  ASSERT_FALSE(names.empty());
  bool has_scalar = false;
  for (const auto name : names) has_scalar |= (name == "scalar");
  EXPECT_TRUE(has_scalar);
}

TEST(KernelDispatch, UnknownBackendThrows) {
  BackendGuard guard;
  EXPECT_THROW(set_kernel_backend_for_testing("avx1024"), std::runtime_error);
}

TEST(KernelDispatch, CsrSentinelDisablesBitsetPlane) {
  BackendGuard guard;
  // "" re-selects from the environment, which may itself pin csr
  // (WTP_KERNEL_BACKEND=csr): it must restore exactly the prior selection.
  const std::string selected{kernel_backend_name()};
  set_kernel_backend_for_testing("csr");
  EXPECT_EQ(kernel_dispatch(), nullptr);
  EXPECT_EQ(kernel_backend_name(), "csr");
  set_kernel_backend_for_testing("");
  EXPECT_EQ(kernel_backend_name(), selected);
  // Pinning a bitset backend re-enables the plane whatever the environment.
  set_kernel_backend_for_testing("csr");
  set_kernel_backend_for_testing(supported_kernel_backends().front());
  EXPECT_NE(kernel_dispatch(), nullptr);
}

/// Every supported backend vs the CSR oracle, bit for bit, on every layout
/// and kernel type.  The oracle rows come from the same kernel_row call with
/// the bitset plane disabled.
TEST(KernelDispatch, AllBackendsBitIdenticalToCsrOracle) {
  BackendGuard guard;
  util::Rng rng{271};
  for (const auto& shape : shapes()) {
    auto rows = make_rows(rng, 64, shape.dim, shape.nnz, shape.ncols,
                          shape.numeric_scale);
    auto queries = make_rows(rng, 16, shape.dim, shape.nnz, shape.ncols,
                             shape.numeric_scale);
    auto matrix = util::FeatureMatrix::from_rows(rows, shape.dim);
    matrix.ensure_bitset(shape.ncols);
    ASSERT_NE(matrix.bitset(), nullptr) << shape.name;

    const KernelParams params{KernelType::kLinear, 1.0, 0.0, 3};
    std::vector<double> oracle(rows.size());
    std::vector<double> got(rows.size());
    for (const auto backend : supported_kernel_backends()) {
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const double sqn = queries[q].squared_norm();
        set_kernel_backend_for_testing("csr");
        kernel_row(params, matrix, queries[q], sqn, oracle);
        set_kernel_backend_for_testing(backend);
        kernel_row(params, matrix, queries[q], sqn, got);
        for (std::size_t r = 0; r < rows.size(); ++r) {
          ASSERT_EQ(bits(oracle[r]), bits(got[r]))
              << shape.name << " backend=" << backend << " q=" << q
              << " row=" << r << " oracle=" << oracle[r] << " got=" << got[r];
        }
      }
    }
  }
}

/// The transformed kernels reuse the same dots, but sweep them anyway: a
/// backend divergence inside the transform would be a dispatch bug.
TEST(KernelDispatch, TransformedKernelsBitIdenticalAcrossBackends) {
  BackendGuard guard;
  util::Rng rng{83};
  const std::vector<std::uint32_t> ncols{6, 7, 8};
  auto rows = make_rows(rng, 48, 843, 25, ncols, 1.0);
  auto queries = make_rows(rng, 8, 843, 25, ncols, 1.0);
  auto matrix = util::FeatureMatrix::from_rows(rows, 843);
  matrix.ensure_bitset(ncols);
  ASSERT_NE(matrix.bitset(), nullptr);

  const KernelParams kernels[] = {
      {KernelType::kLinear, 1.0, 0.0, 3},
      {KernelType::kPolynomial, 0.5, 1.0, 3},
      {KernelType::kRbf, 1.0 / 843.0, 0.0, 3},
      {KernelType::kSigmoid, 0.1, 0.5, 3},
  };
  std::vector<double> scalar_out(rows.size());
  std::vector<double> backend_out(rows.size());
  for (const auto& params : kernels) {
    for (const auto backend : supported_kernel_backends()) {
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const double sqn = queries[q].squared_norm();
        set_kernel_backend_for_testing("scalar");
        kernel_row(params, matrix, queries[q], sqn, scalar_out);
        set_kernel_backend_for_testing(backend);
        kernel_row(params, matrix, queries[q], sqn, backend_out);
        for (std::size_t r = 0; r < rows.size(); ++r) {
          ASSERT_EQ(bits(scalar_out[r]), bits(backend_out[r]))
              << describe(params) << " backend=" << backend << " q=" << q
              << " row=" << r;
        }
      }
    }
  }
}

/// kernel_block must equal per-query kernel_row exactly on every backend —
/// the batched path is a routing change, never a numeric one.
TEST(KernelDispatch, KernelBlockMatchesPerQueryRows) {
  BackendGuard guard;
  util::Rng rng{907};
  const std::vector<std::uint32_t> ncols{6, 7, 8};
  auto rows = make_rows(rng, 40, 843, 25, ncols, 1.0);
  auto query_rows = make_rows(rng, 9, 843, 25, ncols, 1.0);
  auto matrix = util::FeatureMatrix::from_rows(rows, 843);
  matrix.ensure_bitset(ncols);
  auto queries = util::FeatureMatrix::from_rows(query_rows, 843);
  queries.ensure_bitset(ncols);

  const KernelParams params{KernelType::kPolynomial, 0.5, 1.0, 3};
  std::vector<double> block(query_rows.size() * rows.size());
  std::vector<double> row_out(rows.size());
  for (const auto backend : supported_kernel_backends()) {
    set_kernel_backend_for_testing(backend);
    kernel_block(params, matrix, queries, block);
    for (std::size_t q = 0; q < query_rows.size(); ++q) {
      kernel_row(params, matrix, query_rows[q], query_rows[q].squared_norm(),
                 row_out);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        ASSERT_EQ(bits(block[q * rows.size() + r]), bits(row_out[r]))
            << "backend=" << backend << " q=" << q << " row=" << r;
      }
    }
  }
}

/// The transform tail in isolation, across sizes that exercise every lane
/// and tile boundary: full 4/8-lane vectors, scalar/masked tails of every
/// length, and rows crossing the 1024-element transform tile.  A raw
/// CsrView (empty rows, only row count + sq_norms populated) drives
/// kernel_transform directly so the dots are controlled inputs, not
/// products of the bitset plane.
TEST(KernelDispatch, TransformTailBitIdenticalOnAllBackends) {
  BackendGuard guard;
  util::Rng rng{5861};
  const KernelParams kernels[] = {
      {KernelType::kLinear, 1.0, 0.0, 3},
      {KernelType::kPolynomial, 0.5, 1.0, 3},
      {KernelType::kPolynomial, 0.37, -0.25, 7},
      {KernelType::kRbf, 1.0 / 843.0, 0.0, 3},
      {KernelType::kSigmoid, 0.1, 0.5, 3},
  };
  const std::size_t sizes[] = {1, 3, 4, 5, 7, 8, 9, 15, 16, 63, 64, 65, 100,
                               1023, 1024, 1025, 2500};
  for (const std::size_t n : sizes) {
    std::vector<double> dots(n);
    std::vector<double> sq_norms(n);
    std::vector<std::size_t> offsets(n + 1, 0);
    for (std::size_t j = 0; j < n; ++j) {
      dots[j] = (rng.uniform() - 0.3) * 30.0;
      sq_norms[j] = rng.uniform() * 40.0;
    }
    const util::CsrView view{843, {}, {}, offsets, sq_norms};
    const double x_sqnorm = 21.5;
    std::vector<double> scalar_out(n);
    std::vector<double> backend_out(n);
    for (const auto& params : kernels) {
      set_kernel_backend_for_testing("scalar");
      std::copy(dots.begin(), dots.end(), scalar_out.begin());
      kernel_transform(params, view, x_sqnorm, scalar_out);
      for (const auto backend : supported_kernel_backends()) {
        set_kernel_backend_for_testing(backend);
        std::copy(dots.begin(), dots.end(), backend_out.begin());
        kernel_transform(params, view, x_sqnorm, backend_out);
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(bits(scalar_out[j]), bits(backend_out[j]))
              << describe(params) << " backend=" << backend << " n=" << n
              << " j=" << j << " scalar=" << scalar_out[j]
              << " got=" << backend_out[j];
        }
      }
    }
  }
}

/// The transform backend follows the bitset backend override: same-named
/// where one exists, scalar for the rest ("popcnt", "csr").
TEST(KernelDispatch, TransformBackendFollowsOverride) {
  BackendGuard guard;
  for (const auto backend : supported_kernel_backends()) {
    set_kernel_backend_for_testing(backend);
    if (backend == "avx512" || backend == "avx2") {
      EXPECT_EQ(transform_backend_name(), backend);
    } else {
      EXPECT_EQ(transform_backend_name(), "scalar") << backend;
    }
  }
  set_kernel_backend_for_testing("csr");
  EXPECT_EQ(transform_backend_name(), "scalar");
}

/// Adversarial trailing popcounts: rows whose sums sit exactly on binade
/// boundaries when the pad/chunk decision flips (n <= 4 vs the walk), with
/// negative and subnormal-adjacent numeric values in the mix.
TEST(KernelDispatch, AddOnesEscalationMatchesOracle) {
  BackendGuard guard;
  util::Rng rng{409};
  const std::vector<std::uint32_t> ncols{6, 7, 8};
  // Values chosen so replay sums land near powers of two: the crossing add
  // must round half-to-even identically to the literal loop.
  const double specials[] = {0.5,     -0.5,    0x1p-30, -0x1p-30, 3.0,
                             0x1p52,  -0x1p52, 255.75,  1e-300,   7.0 / 3.0};
  std::vector<util::SparseVector> rows;
  std::size_t which = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    std::vector<util::SparseVector::Entry> entries;
    std::set<std::size_t> cols;
    const std::size_t nnz = 1 + rng.uniform_index(500);
    while (cols.size() < nnz) {
      const std::size_t c = rng.uniform_index(843);
      if (c < 6 || c > 8) cols.insert(c);
    }
    for (const std::size_t c : cols) entries.push_back({c, 1.0});
    for (const std::uint32_t c : ncols) {
      entries.push_back({c, specials[which++ % std::size(specials)]});
    }
    rows.emplace_back(std::move(entries));
  }
  auto matrix = util::FeatureMatrix::from_rows(rows, 843);
  matrix.ensure_bitset(ncols);
  ASSERT_NE(matrix.bitset(), nullptr);

  auto queries = make_rows(rng, 12, 843, 400, ncols, 1.0);
  const KernelParams params{KernelType::kLinear, 1.0, 0.0, 3};
  std::vector<double> oracle(rows.size());
  std::vector<double> got(rows.size());
  for (const auto backend : supported_kernel_backends()) {
    for (const auto& query : queries) {
      const double sqn = query.squared_norm();
      set_kernel_backend_for_testing("csr");
      kernel_row(params, matrix, query, sqn, oracle);
      set_kernel_backend_for_testing(backend);
      kernel_row(params, matrix, query, sqn, got);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        ASSERT_EQ(bits(oracle[r]), bits(got[r]))
            << "backend=" << backend << " row=" << r << " oracle=" << oracle[r]
            << " got=" << got[r];
      }
    }
  }
}

/// The paper shape the AVX-512 prefix serves: schema layout [6 7 8],
/// fractional numeric prefixes whose sums cross several binades during the
/// trailing 1.0-run, and trailing AND-popcounts from 0 to 60 mixed inside
/// every 8-row group.  Row counts that are not multiples of 8 put a partial,
/// row-masked group last.  Every backend must match the CSR oracle bit for
/// bit.
TEST(KernelDispatch, PaperShapeTailsMatchOracleOnEveryBackend) {
  BackendGuard guard;
  const std::vector<std::uint32_t> ncols{6, 7, 8};
  constexpr std::size_t kDim = 843;
  // The query's binary columns past the numeric ones: a row's trailing
  // AND-popcount is how many of these it shares.
  std::vector<std::size_t> shared;
  for (std::size_t c = 9; c < kDim && shared.size() < 64; c += 13) {
    shared.push_back(c);
  }
  const std::size_t tails[] = {0, 41, 3, 5, 17, 40, 1, 8, 44,
                               2, 29, 4, 0, 12, 60, 6, 33};
  // Row numerics: fractions, binade edges, huge values whose +1.0 steps
  // round (at and above 2^53 a +1.0 add is absorbed), and negatives.
  const double specials[] = {0.1,   1.0 / 3.0,        1.5 - 0x1p-40,
                             7.3,   15.9,             31.1,
                             -2.75, 0x1p52 - 0.5,     0x1p53 - 3.0,
                             1e-300, 1e6 + 0.1,       0.0};
  std::vector<util::SparseVector> rows;
  for (std::size_t r = 0; r < 67; ++r) {
    std::vector<util::SparseVector::Entry> entries;
    for (std::size_t c = 0; c < r % 7 && c < 6; ++c) entries.push_back({c, 1.0});
    entries.push_back({6, 0.1 * static_cast<double>(r + 1) + 1.0 / 3.0});
    if (r % 3 != 0) {
      entries.push_back({7, (static_cast<double>(r % 5) - 2.0) * 0.37 + 1e-9});
    }
    entries.push_back({8, specials[r % std::size(specials)]});
    const std::size_t tail = tails[r % std::size(tails)];
    std::set<std::size_t> cols;
    for (std::size_t k = 0; k < tail; ++k) {
      cols.insert(shared[(k + r) % shared.size()]);
    }
    // Columns the query lacks: stored bits that must not count.
    for (std::size_t k = 0; k < 5; ++k) cols.insert(10 + 13 * (k + r) % 800);
    for (const std::size_t c : cols) entries.push_back({c, 1.0});
    rows.emplace_back(std::move(entries));
  }
  const auto tail_of = [&](const util::SparseVector& row) {
    std::size_t count = 0;
    for (const auto& entry : row.entries()) {
      count += std::count(shared.begin(), shared.end(), entry.index);
    }
    return count;
  };
  for (std::size_t g = 0; g + 8 <= rows.size(); g += 8) {
    std::size_t lo = 1000;
    std::size_t hi = 0;
    for (std::size_t t = g; t < g + 8; ++t) {
      lo = std::min(lo, tail_of(rows[t]));
      hi = std::max(hi, tail_of(rows[t]));
    }
    ASSERT_LE(lo, 5u) << "group " << g;
    ASSERT_GE(hi, 40u) << "group " << g;
  }

  std::vector<util::SparseVector> queries;
  const double query_numerics[][3] = {
      {0.7071067811865476, -1.25e-3, 0.3},
      {1.0 / 3.0, 2.5, 1.0},
      {-0.2, 0.0, 0.1},
  };
  for (const auto& numerics : query_numerics) {
    std::vector<util::SparseVector::Entry> entries;
    for (std::size_t c = 0; c < 6; ++c) entries.push_back({c, 1.0});
    for (std::size_t k = 0; k < 3; ++k) {
      if (numerics[k] != 0.0) entries.push_back({6 + k, numerics[k]});
    }
    for (const std::size_t c : shared) entries.push_back({c, 1.0});
    queries.emplace_back(std::move(entries));
  }

  const KernelParams params{KernelType::kLinear, 1.0, 0.0, 3};
  for (const std::size_t n : {1UL, 7UL, 8UL, 9UL, 13UL, 67UL}) {
    const std::span<const util::SparseVector> subset{rows.data(), n};
    auto matrix = util::FeatureMatrix::from_rows(subset, kDim);
    matrix.ensure_bitset(ncols);
    ASSERT_NE(matrix.bitset(), nullptr) << n;
    std::vector<double> oracle(n);
    std::vector<double> got(n);
    for (const auto backend : supported_kernel_backends()) {
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const double sqn = queries[q].squared_norm();
        set_kernel_backend_for_testing("csr");
        kernel_row(params, matrix, queries[q], sqn, oracle);
        set_kernel_backend_for_testing(backend);
        kernel_row(params, matrix, queries[q], sqn, got);
        for (std::size_t r = 0; r < n; ++r) {
          ASSERT_EQ(bits(oracle[r]), bits(got[r]))
              << "n=" << n << " backend=" << backend << " q=" << q
              << " row=" << r << " tail=" << tail_of(rows[r])
              << " oracle=" << oracle[r] << " got=" << got[r];
        }
      }
    }
  }
}

/// kernel.csr_fallback counts queries that met a bitset block but did not
/// conform to its layout — once per query, with or without an encode cache
/// — and nothing else.
TEST(KernelDispatch, CsrFallbackCounterCountsNonConformingQueries) {
  BackendGuard guard;
  obs::Registry registry;
  set_kernel_metrics(&registry);
  const obs::Counter& fallbacks = registry.counter("kernel.csr_fallback");
  util::Rng rng{17};
  const std::vector<std::uint32_t> ncols{6, 7, 8};
  auto rows = make_rows(rng, 12, 843, 25, ncols, 1.0);
  auto matrix = util::FeatureMatrix::from_rows(rows, 843);
  matrix.ensure_bitset(ncols);
  const util::SparseVector conforming{{3, 1.0}, {7, 0.25}, {100, 1.0}};
  const util::SparseVector fractional_binary{{3, 1.0}, {20, 0.5}};
  const KernelParams params{KernelType::kLinear, 1.0, 0.0, 3};
  std::vector<double> out(rows.size());

  set_kernel_backend_for_testing("scalar");
  kernel_row(params, matrix, conforming, conforming.squared_norm(), out);
  EXPECT_EQ(fallbacks.value(), 0u);
  kernel_row(params, matrix, fractional_binary,
             fractional_binary.squared_norm(), out);
  EXPECT_EQ(fallbacks.value(), 1u);
  EncodedQueryCache cache{fractional_binary};
  kernel_row(params, matrix, fractional_binary,
             fractional_binary.squared_norm(), out, &cache);
  EXPECT_EQ(fallbacks.value(), 2u);
  // A disabled plane is not a fallback: there was no bitset path to take.
  set_kernel_backend_for_testing("csr");
  kernel_row(params, matrix, fractional_binary,
             fractional_binary.squared_norm(), out);
  EXPECT_EQ(fallbacks.value(), 2u);
  set_kernel_metrics(nullptr);
}

}  // namespace
}  // namespace wtp::svm
