// Binary blob plane (the mmap path): header validation, corruption
// rejection, and the bit-identity contract — a blob-viewed model must score
// exactly like the heap model it was serialized from, and a materialized
// round trip must be bit-identical too.  Heap models score through the
// same ModelView, so every decision path is checked against the per-pair
// kernel_eval oracle on every kernel backend.
#include "svm/model_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "obs/registry.h"
#include "util/rng.h"

namespace wtp::svm {
namespace {

std::vector<util::SparseVector> training_blob(std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<util::SparseVector> points;
  for (int i = 0; i < 40; ++i) {
    std::vector<double> dense(7, 0.0);
    for (int k = 0; k < 4; ++k) dense[rng.uniform_index(7)] = rng.uniform();
    points.push_back(util::SparseVector::from_dense(dense));
  }
  return points;
}

std::vector<util::SparseVector> probes(std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<util::SparseVector> points;
  for (int i = 0; i < 25; ++i) {
    std::vector<double> dense(7, 0.0);
    for (int k = 0; k < 5; ++k) dense[rng.uniform_index(7)] = rng.uniform(-1.0, 2.0);
    points.push_back(util::SparseVector::from_dense(dense));
  }
  return points;
}

OneClassSvmModel make_one_class(std::uint64_t seed) {
  OneClassSvmConfig config;
  config.nu = 0.25;
  config.kernel = {KernelType::kRbf, 0.6, 0.0, 3};
  return OneClassSvmModel::train(training_blob(seed), config, 7);
}

SvddModel make_svdd(std::uint64_t seed) {
  SvddConfig config;
  config.c = 0.2;
  config.kernel = {KernelType::kPolynomial, 0.3, 1.0, 4};
  return SvddModel::train(training_blob(seed), config, 7);
}

// Binary-dominant models and queries (the bitset plane's shape): exact
// 1.0 bits everywhere except the numeric columns, SV blocks carrying the
// schema-style layout like every ProfileStore profile.
constexpr std::size_t kBinaryDim = 96;
constexpr std::uint32_t kBinaryNumeric[] = {2, 5};

/// Every `fractional_every`-th row (0 = none) also carries a 0.5 in a
/// binary column, so it does not conform to the bitset layout.
std::vector<util::SparseVector> binary_rows(std::uint64_t seed,
                                            std::size_t count,
                                            std::size_t fractional_every) {
  util::Rng rng{seed};
  std::vector<util::SparseVector> rows;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<util::SparseVector::Entry> entries;
    for (std::size_t c = 6; c < kBinaryDim; ++c) {
      // Low columns are common, high ones rare: rows overlap unevenly.
      if (rng.uniform() < (c < 24 ? 0.4 : 0.05)) entries.push_back({c, 1.0});
    }
    for (const std::uint32_t c : kBinaryNumeric) {
      if (rng.uniform() < 0.7) entries.push_back({c, rng.uniform(0.05, 1.0)});
    }
    if (fractional_every != 0 && i % fractional_every == 0) {
      entries.push_back({3, 0.5});
    }
    rows.emplace_back(std::move(entries));
  }
  return rows;
}

OneClassSvmModel make_binary_one_class(std::uint64_t seed) {
  OneClassSvmConfig config;
  config.nu = 0.3;
  config.kernel = {KernelType::kRbf, 0.08, 0.0, 3};
  auto model = OneClassSvmModel::train(
      util::FeatureMatrix::from_rows(binary_rows(seed, 60, 0), kBinaryDim),
      config, kBinaryDim);
  model.set_bitset_layout(kBinaryNumeric);
  return model;
}

SvddModel make_binary_svdd(std::uint64_t seed) {
  SvddConfig config;
  config.c = 0.1;
  config.kernel = {KernelType::kPolynomial, 0.2, 1.0, 3};
  auto model = SvddModel::train(
      util::FeatureMatrix::from_rows(binary_rows(seed, 60, 0), kBinaryDim),
      config, kBinaryDim);
  model.set_bitset_layout(kBinaryNumeric);
  return model;
}

/// The per-pair kernel_eval oracle of a heap model's decision, in the
/// paper's form: sum_i alpha_i k(sv_i, x) - rho (eq. 6) or
/// R^2 - (k(x, x) - 2 sum_i alpha_i k(sv_i, x) + alpha^T K alpha) (eq. 12).
double oracle_decision(const AnySvmModel& any, const util::SparseVector& x) {
  return std::visit(
      [&x](const auto& model) {
        const auto& svs = model.support_vectors();
        const double x_sqnorm = x.squared_norm();
        double sum = 0.0;
        for (std::size_t i = 0; i < svs.rows(); ++i) {
          sum += model.coefficients()[i] *
                 kernel_eval(model.kernel(), x, svs.row_vector(i), x_sqnorm,
                             svs.sq_norm(i));
        }
        if constexpr (std::is_same_v<std::decay_t<decltype(model)>,
                                     OneClassSvmModel>) {
          return sum - model.rho();
        } else {
          const double k_xx = kernel_self(model.kernel(), x_sqnorm);
          return model.r_squared() - (k_xx - 2.0 * sum + model.alpha_k_alpha());
        }
      },
      any);
}

/// Pins the exact transform tier (the oracle's contract); however the test
/// exits, uninstalls kernel metrics and restores the environment's backend
/// and tier.
struct ExactTierGuard {
  ExactTierGuard() { set_transform_mode(TransformMode::kExact); }
  ~ExactTierGuard() {
    set_kernel_metrics(nullptr);
    set_kernel_backend_for_testing("");
    set_transform_mode(TransformMode::kDefault);
  }
};

template <typename Field>
void patch(std::vector<std::byte>& blob, std::size_t offset, Field value) {
  ASSERT_LE(offset + sizeof(Field), blob.size());
  std::memcpy(blob.data() + offset, &value, sizeof(Field));
}

TEST(ModelBlob, OneClassViewIsBitIdentical) {
  const auto model = make_one_class(11);
  std::vector<std::byte> blob;
  const std::size_t start = append_model_blob(blob, model);
  EXPECT_EQ(start, 0u);
  EXPECT_EQ(blob.size() % 8, 0u);

  const ModelView view = view_model_blob(blob);
  EXPECT_EQ(view.model_type, kBlobModelOneClass);
  EXPECT_EQ(view.kernel, model.kernel());
  EXPECT_EQ(view.scalar0, model.rho());
  EXPECT_EQ(view.sv_count(), model.support_vectors().rows());
  for (const auto& x : probes(12)) {
    // EXPECT_EQ, not DOUBLE_EQ: the contract is bit-identity, not closeness.
    ASSERT_EQ(view.decision_value(x), model.decision_value(x));
  }
}

TEST(ModelBlob, SvddViewIsBitIdentical) {
  const auto model = make_svdd(13);
  std::vector<std::byte> blob;
  append_model_blob(blob, model);

  const ModelView view = view_model_blob(blob);
  EXPECT_EQ(view.model_type, kBlobModelSvdd);
  EXPECT_EQ(view.scalar0, model.r_squared());
  EXPECT_EQ(view.scalar1, model.alpha_k_alpha());
  for (const auto& x : probes(14)) {
    ASSERT_EQ(view.decision_value(x), model.decision_value(x));
  }
}

TEST(ModelBlob, HeapViewMatchesBlobView) {
  const ExactTierGuard guard;
  obs::Registry registry;
  set_kernel_metrics(&registry);
  const obs::Counter& fallbacks = registry.counter("kernel.csr_fallback");
  const std::vector<AnySvmModel> models{make_binary_one_class(15),
                                        make_binary_svdd(16)};
  // 150 > 64 queries, so the batched path's query tiling wraps twice.
  const auto queries = binary_rows(17, 150, /*fractional_every=*/5);
  auto query_matrix = util::FeatureMatrix::from_rows(queries, kBinaryDim);
  query_matrix.ensure_bitset(kBinaryNumeric);
  std::vector<std::string_view> backends = supported_kernel_backends();
  backends.emplace_back("csr");

  for (const auto& model : models) {
    // Blobs carry their bitset section only when written with the plane on.
    set_kernel_backend_for_testing(backends.front());
    std::vector<std::byte> blob;
    append_model_blob(blob, model);
    const ModelView from_blob = view_model_blob(blob);
    ASSERT_TRUE(from_blob.has_bitset);
    std::vector<double> oracle;
    for (const auto& x : queries) oracle.push_back(oracle_decision(model, x));

    for (const auto backend : backends) {
      set_kernel_backend_for_testing(backend);
      const std::uint64_t fallbacks_before = fallbacks.value();
      const ModelView from_heap = view_of(model);
      const auto where = [&](std::size_t q) {
        return std::string{backend} + " model_type=" +
               std::to_string(from_blob.model_type) + " q=" + std::to_string(q);
      };

      // Batched: the heap model, its view, and the blob view.
      std::vector<double> batch(queries.size());
      std::visit([&](const auto& m) { m.decision_values(query_matrix, batch); },
                 model);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        ASSERT_EQ(batch[q], oracle[q]) << "heap batch " << where(q);
      }
      for (const ModelView* view : {&from_heap, &from_blob}) {
        std::fill(batch.begin(), batch.end(), 0.0);
        view->decision_values(query_matrix, batch);
        for (std::size_t q = 0; q < queries.size(); ++q) {
          ASSERT_EQ(batch[q], oracle[q]) << "view batch " << where(q);
        }
      }

      // Per query, with and without one encode cache shared by all three.
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto& x = queries[q];
        const double sqn = x.squared_norm();
        EncodedQueryCache cache{x};
        std::visit(
            [&](const auto& m) {
              ASSERT_EQ(m.decision_value(x), oracle[q]) << "heap " << where(q);
              ASSERT_EQ(m.decision_value(x, sqn, &cache), oracle[q])
                  << "heap cached " << where(q);
            },
            model);
        const auto indices = query_matrix.row_indices(q);
        const auto values = query_matrix.row_values(q);
        EncodedQueryCache csr_cache{indices, values};
        for (const ModelView* view : {&from_heap, &from_blob}) {
          ASSERT_EQ(view->decision_value(x), oracle[q]) << "view " << where(q);
          ASSERT_EQ(view->decision_value(x, sqn, &cache), oracle[q])
              << "view cached " << where(q);
          ASSERT_EQ(view->decision_value(indices, values, sqn), oracle[q])
              << "view csr row " << where(q);
          ASSERT_EQ(view->decision_value(indices, values, sqn, &csr_cache),
                    oracle[q])
              << "view csr row cached " << where(q);
        }
      }
      // The fractional queries met a bitset block they do not conform to,
      // so their dots really took the CSR fallback.
      if (backend != "csr") {
        EXPECT_GT(fallbacks.value(), fallbacks_before) << backend;
      } else {
        EXPECT_EQ(fallbacks.value(), fallbacks_before);
      }
    }
  }
}

TEST(ModelBlob, MaterializedRoundTripIsBitIdentical) {
  const auto model = make_svdd(17);
  std::vector<std::byte> blob;
  append_model_blob(blob, model);
  const AnySvmModel round_trip = materialize(view_model_blob(blob));
  ASSERT_TRUE(std::holds_alternative<SvddModel>(round_trip));
  const auto& typed = std::get<SvddModel>(round_trip);
  EXPECT_EQ(typed.r_squared(), model.r_squared());
  EXPECT_EQ(typed.alpha_k_alpha(), model.alpha_k_alpha());
  for (const auto& x : probes(18)) {
    ASSERT_EQ(typed.decision_value(x), model.decision_value(x));
  }
}

TEST(ModelBlob, SecondBlobInOneBufferViewsCleanly) {
  std::vector<std::byte> buffer;
  const auto first = make_one_class(19);
  const auto second = make_svdd(20);
  const std::size_t first_off = append_model_blob(buffer, first);
  const std::size_t second_off = append_model_blob(buffer, second);
  EXPECT_EQ(second_off % 8, 0u);

  const ModelView v1 = view_model_blob(
      std::span{buffer}.subspan(first_off, second_off - first_off));
  const ModelView v2 = view_model_blob(std::span{buffer}.subspan(second_off));
  const auto x = probes(21).front();
  EXPECT_EQ(v1.decision_value(x), first.decision_value(x));
  EXPECT_EQ(v2.decision_value(x), second.decision_value(x));
}

TEST(ModelBlob, RejectsWrongMagic) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_one_class(22));
  blob[0] = std::byte{'X'};
  EXPECT_THROW((void)view_model_blob(blob), std::runtime_error);
}

TEST(ModelBlob, RejectsWrongVersion) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_one_class(23));
  patch(blob, 8, std::uint32_t{999});
  EXPECT_THROW((void)view_model_blob(blob), std::runtime_error);
}

TEST(ModelBlob, EndiannessGuardNamesForeignByteOrder) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_one_class(24));
  // A byte-swapped guard is what a foreign-endian writer would produce.
  patch(blob, 12, std::uint32_t{0x04030201});
  try {
    (void)view_model_blob(blob);
    FAIL() << "foreign-endian blob accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("endian"), std::string::npos);
  }
}

TEST(ModelBlob, RejectsTruncation) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_one_class(25));
  // Every strictly shorter 8-aligned prefix must be rejected, never read
  // out of bounds.
  for (std::size_t size = 0; size < blob.size(); size += 8) {
    EXPECT_THROW((void)view_model_blob(std::span{blob}.first(size)),
                 std::runtime_error)
        << "prefix of " << size << " bytes accepted";
  }
}

TEST(ModelBlob, RejectsUnknownModelAndKernelTypes) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_one_class(26));
  auto bad_model = blob;
  patch(bad_model, 16, std::uint32_t{7});
  EXPECT_THROW((void)view_model_blob(bad_model), std::runtime_error);
  auto bad_kernel = blob;
  patch(bad_kernel, 20, std::uint32_t{42});
  EXPECT_THROW((void)view_model_blob(bad_kernel), std::runtime_error);
  auto bad_format = blob;
  patch(bad_format, 44, std::uint32_t{1});  // quantized formats are reserved
  EXPECT_THROW((void)view_model_blob(bad_format), std::runtime_error);
}

TEST(ModelBlob, RejectsCorruptGeometry) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_one_class(27));
  auto huge_count = blob;
  patch(huge_count, 64, std::uint64_t{1} << 40);  // sv_count
  EXPECT_THROW((void)view_model_blob(huge_count), std::runtime_error);
  auto zero_count = blob;
  patch(zero_count, 64, std::uint64_t{0});
  EXPECT_THROW((void)view_model_blob(zero_count), std::runtime_error);
  auto bad_size = blob;
  patch(bad_size, 88, std::uint64_t{blob.size() + 8});  // blob_size
  EXPECT_THROW((void)view_model_blob(bad_size), std::runtime_error);
  auto bad_offsets = blob;
  patch(bad_offsets, 96, std::uint64_t{5});  // row_offsets[0] != 0
  EXPECT_THROW((void)view_model_blob(bad_offsets), std::runtime_error);
}

TEST(ModelBlob, RejectsOutOfRangeColumnIndex) {
  const auto model = make_one_class(28);
  std::vector<std::byte> blob;
  append_model_blob(blob, model);
  // First column index lives right after row_offsets[sv_count + 1].
  const std::size_t indices_off = 96 + (model.support_vectors().rows() + 1) * 8;
  patch(blob, indices_off, std::uint32_t{1u << 30});
  EXPECT_THROW((void)view_model_blob(blob), std::runtime_error);
}

}  // namespace
}  // namespace wtp::svm
