// Kernel-row throughput: per-pair SparseVector kernel_eval (the pre-CSR
// path) vs the batch kernel_row over a FeatureMatrix (the CSR data plane).
//
// The workload mirrors the paper's scale: 843 feature columns (Tab. I) with
// ~25 non-zeros per window vector, and a support-vector set of a few hundred
// rows — the shape every decision function and SMO iteration evaluates.
// kernel_row scatters the query into a dense scratch once and streams the
// matrix's contiguous CSR arrays, so it must beat the per-pair merge-join
// loop by >= 2x on RBF while producing bit-identical values.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bench_json.h"
#include "svm/kernel.h"
#include "svm/one_class_svm.h"
#include "util/feature_matrix.h"
#include "util/rng.h"
#include "util/sparse_vector.h"
#include "util/stopwatch.h"

using namespace wtp;

namespace {

constexpr std::size_t kDim = 843;     // Tab. I schema width
constexpr std::size_t kMeanNnz = 25;  // typical window sparsity
constexpr std::size_t kRows = 400;    // support-vector-set scale
constexpr std::size_t kQueries = 256;

struct Fixture {
  std::vector<util::SparseVector> rows;
  std::vector<double> row_sqnorms;
  util::FeatureMatrix matrix;
  std::vector<util::SparseVector> queries;
  std::vector<double> query_sqnorms;

  static const Fixture& get() {
    static const Fixture fixture = [] {
      Fixture f;
      util::Rng rng{97};
      const auto make = [&rng](std::size_t count) {
        std::vector<util::SparseVector> out;
        for (std::size_t i = 0; i < count; ++i) {
          std::vector<util::SparseVector::Entry> entries;
          const std::size_t nnz = kMeanNnz / 2 + rng.uniform_index(kMeanNnz);
          for (std::size_t k = 0; k < nnz; ++k) {
            entries.push_back({rng.uniform_index(kDim), rng.uniform(0.1, 2.0)});
          }
          out.emplace_back(std::move(entries));
        }
        return out;
      };
      f.rows = make(kRows);
      f.queries = make(kQueries);
      f.matrix = util::FeatureMatrix::from_rows(f.rows, kDim);
      for (const auto& r : f.rows) f.row_sqnorms.push_back(r.squared_norm());
      for (const auto& q : f.queries) f.query_sqnorms.push_back(q.squared_norm());
      return f;
    }();
    return fixture;
  }
};

// Paper-shape binary-dominant fixture (DESIGN §11): bag-of-words columns
// carry exact 1.0 disjunctions, columns 6..8 are the schema's numeric
// averages (private flag, reputation risk, reputation verified).  This is
// the layout the bitset plane exists for — the dispatched AND+popcount
// backend must beat the scalar CSR oracle while staying bit-identical.
constexpr std::uint32_t kNumericCols[] = {6, 7, 8};

struct BinaryFixture {
  util::FeatureMatrix matrix;   ///< support-vector block, bitset attached
  util::FeatureMatrix queries;  ///< query block, same schema layout
  std::vector<util::SparseVector> query_vectors;
  std::vector<double> query_sqnorms;

  static const BinaryFixture& get() {
    static const BinaryFixture fixture = [] {
      BinaryFixture f;
      util::Rng rng{193};
      const auto make = [&rng](std::size_t count) {
        std::vector<util::SparseVector> out;
        for (std::size_t i = 0; i < count; ++i) {
          std::vector<util::SparseVector::Entry> entries;
          const std::size_t nnz = kMeanNnz / 2 + rng.uniform_index(kMeanNnz);
          std::set<std::size_t> cols;
          while (cols.size() < nnz) {
            const std::size_t col = rng.uniform_index(kDim);
            if (col == 6 || col == 7 || col == 8) continue;
            cols.insert(col);
          }
          // Distinct columns: a duplicate would sum to 2.0 and knock the row
          // off the binary layout (disjunctions are exactly 1.0).
          for (const std::size_t col : cols) entries.push_back({col, 1.0});
          // Numeric averages: fractional like the paper's worked example
          // (e.g. mean of 1,1,0 -> 0.667), occasionally absent or exact.
          for (const std::uint32_t col : kNumericCols) {
            const double roll = rng.uniform(0.0, 1.0);
            if (roll < 0.25) continue;  // no traffic touched the field
            const double denominator = 1.0 + rng.uniform_index(6);
            const double numerator = rng.uniform_index(
                static_cast<std::size_t>(denominator) + 1);
            if (numerator == 0.0) continue;
            entries.push_back({col, numerator / denominator});
          }
          out.emplace_back(std::move(entries));
        }
        return out;
      };
      auto rows = make(kRows);
      f.query_vectors = make(kQueries);
      f.matrix = util::FeatureMatrix::from_rows(rows, kDim);
      f.matrix.ensure_bitset(kNumericCols);
      f.queries = util::FeatureMatrix::from_rows(f.query_vectors, kDim);
      f.queries.ensure_bitset(kNumericCols);
      for (const auto& q : f.query_vectors) {
        f.query_sqnorms.push_back(q.squared_norm());
      }
      return f;
    }();
    return fixture;
  }
};

svm::KernelParams kernel_params(svm::KernelType type) {
  switch (type) {
    case svm::KernelType::kLinear: return {type, 1.0, 0.0, 3};
    case svm::KernelType::kPolynomial: return {type, 0.5, 1.0, 3};
    case svm::KernelType::kRbf: return {type, 1.0 / kDim, 0.0, 3};
    case svm::KernelType::kSigmoid: return {type, 0.1, 0.5, 3};
  }
  return {type, 1.0, 0.0, 3};
}

/// Before: one merge-join kernel_eval per (query, row) pair, norms cached.
void per_pair_rows(const svm::KernelParams& params, const Fixture& f,
                   std::size_t q, std::span<double> out) {
  const auto& x = f.queries[q];
  const double x_sqnorm = f.query_sqnorms[q];
  for (std::size_t j = 0; j < f.rows.size(); ++j) {
    out[j] = svm::kernel_eval(params, x, f.rows[j], x_sqnorm, f.row_sqnorms[j]);
  }
}

void BM_PerPairKernelEval(benchmark::State& state) {
  const auto& f = Fixture::get();
  const auto params = kernel_params(static_cast<svm::KernelType>(state.range(0)));
  std::vector<double> out(f.rows.size());
  std::size_t q = 0;
  for (auto _ : state) {
    per_pair_rows(params, f, q % kQueries, out);
    benchmark::DoNotOptimize(out.data());
    ++q;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows));
}

void BM_BatchKernelRow(benchmark::State& state) {
  const auto& f = Fixture::get();
  const auto params = kernel_params(static_cast<svm::KernelType>(state.range(0)));
  std::vector<double> out(f.matrix.rows());
  std::size_t q = 0;
  for (auto _ : state) {
    const std::size_t i = q % kQueries;
    svm::kernel_row(params, f.matrix, f.queries[i], f.query_sqnorms[i], out);
    benchmark::DoNotOptimize(out.data());
    ++q;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows));
}

BENCHMARK(BM_PerPairKernelEval)->DenseRange(0, 3)->ArgNames({"kernel"});
BENCHMARK(BM_BatchKernelRow)->DenseRange(0, 3)->ArgNames({"kernel"});

struct ReportRow {
  std::string kernel;
  double per_pair_mevals = 0.0;
  double kernel_row_mevals = 0.0;
  double speedup = 0.0;
};

/// Explicit before/after summary: kernel evaluations per second for each
/// path, plus the speedup, verified bit-identical first.
ReportRow report(svm::KernelType type) {
  const auto& f = Fixture::get();
  const auto params = kernel_params(type);
  std::vector<double> before(f.rows.size());
  std::vector<double> after(f.rows.size());
  for (std::size_t q = 0; q < kQueries; ++q) {
    per_pair_rows(params, f, q, before);
    svm::kernel_row(params, f.matrix, f.queries[q], f.query_sqnorms[q], after);
    if (before != after) {
      std::fprintf(stderr, "FATAL: %s kernel_row diverges from kernel_eval\n",
                   svm::describe(params).c_str());
      std::exit(1);
    }
  }

  constexpr std::size_t kPasses = 200;
  const util::Stopwatch before_watch;
  for (std::size_t p = 0; p < kPasses; ++p) {
    for (std::size_t q = 0; q < kQueries; ++q) {
      per_pair_rows(params, f, q, before);
      benchmark::DoNotOptimize(before.data());
    }
  }
  const double before_s = before_watch.elapsed_micros() * 1e-6;
  const util::Stopwatch after_watch;
  for (std::size_t p = 0; p < kPasses; ++p) {
    for (std::size_t q = 0; q < kQueries; ++q) {
      svm::kernel_row(params, f.matrix, f.queries[q], f.query_sqnorms[q], after);
      benchmark::DoNotOptimize(after.data());
    }
  }
  const double after_s = after_watch.elapsed_micros() * 1e-6;
  const double evals = static_cast<double>(kPasses * kQueries * kRows);
  std::printf("%-28s per-pair %8.1f Mevals/s   kernel_row %8.1f Mevals/s   "
              "speedup %.2fx\n",
              svm::describe(params).c_str(), evals / before_s * 1e-6,
              evals / after_s * 1e-6, before_s / after_s);
  return {svm::describe(params), evals / before_s * 1e-6,
          evals / after_s * 1e-6, before_s / after_s};
}

struct BitsetReportRow {
  std::string kernel;
  double csr_mevals = 0.0;
  double bitset_mevals = 0.0;
  double block_mevals = 0.0;
  double speedup = 0.0;
};

/// Bitset plane vs the scalar CSR oracle on the binary-dominant paper shape
/// (DESIGN §11), verified bit-identical per query first.  Also times the
/// multi-query kernel_block path (batched decisions).
BitsetReportRow report_bitset(svm::KernelType type) {
  const auto& f = BinaryFixture::get();
  const auto params = kernel_params(type);
  const std::size_t rows = f.matrix.rows();
  std::vector<double> csr(rows);
  std::vector<double> bitset(rows);
  std::vector<double> block(kQueries * rows);

  svm::set_kernel_backend_for_testing("csr");
  for (std::size_t q = 0; q < kQueries; ++q) {
    svm::kernel_row(params, f.matrix, f.query_vectors[q], f.query_sqnorms[q],
                    csr);
    svm::set_kernel_backend_for_testing("");  // fastest supported
    svm::kernel_row(params, f.matrix, f.query_vectors[q], f.query_sqnorms[q],
                    bitset);
    svm::set_kernel_backend_for_testing("csr");
    if (csr != bitset) {
      std::fprintf(stderr, "FATAL: %s bitset kernel_row diverges from CSR\n",
                   svm::describe(params).c_str());
      std::exit(1);
    }
  }

  constexpr std::size_t kPasses = 200;
  const util::Stopwatch csr_watch;
  for (std::size_t p = 0; p < kPasses; ++p) {
    for (std::size_t q = 0; q < kQueries; ++q) {
      svm::kernel_row(params, f.matrix, f.query_vectors[q], f.query_sqnorms[q],
                      csr);
      benchmark::DoNotOptimize(csr.data());
    }
  }
  const double csr_s = csr_watch.elapsed_micros() * 1e-6;

  svm::set_kernel_backend_for_testing("");
  const util::Stopwatch bitset_watch;
  for (std::size_t p = 0; p < kPasses; ++p) {
    for (std::size_t q = 0; q < kQueries; ++q) {
      svm::kernel_row(params, f.matrix, f.query_vectors[q], f.query_sqnorms[q],
                      bitset);
      benchmark::DoNotOptimize(bitset.data());
    }
  }
  const double bitset_s = bitset_watch.elapsed_micros() * 1e-6;

  const util::Stopwatch block_watch;
  for (std::size_t p = 0; p < kPasses; ++p) {
    svm::kernel_block(params, f.matrix, f.queries, block);
    benchmark::DoNotOptimize(block.data());
  }
  const double block_s = block_watch.elapsed_micros() * 1e-6;

  const double evals = static_cast<double>(kPasses * kQueries * rows);
  BitsetReportRow row{svm::describe(params), evals / csr_s * 1e-6,
                      evals / bitset_s * 1e-6, evals / block_s * 1e-6,
                      csr_s / bitset_s};
  std::printf("%-28s csr %8.1f Mevals/s   bitset %8.1f Mevals/s   "
              "block %8.1f Mevals/s   speedup %.2fx\n",
              row.kernel.c_str(), row.csr_mevals, row.bitset_mevals,
              row.block_mevals, row.speedup);
  return row;
}

struct TransformSplitRow {
  std::string kernel;
  double dot_mevals = 0.0;        ///< raw dot phase alone
  double transform_mevals = 0.0;  ///< transform tail alone (memcpy-corrected)
  double transform_share = 0.0;   ///< fraction of dot+transform spent in tail
};

/// Transform-only microsection (DESIGN §14): times the two phases of a
/// kernel row separately — the bitset/CSR dot pass vs the vectorized
/// transform tail — so BENCH json records where a row's time actually goes.
/// The tail is measured as (memcpy + kernel_transform) - memcpy so the
/// buffer restore between iterations is not billed to the transform.
TransformSplitRow report_transform_split(svm::KernelType type) {
  const auto& f = BinaryFixture::get();
  const auto params = kernel_params(type);
  const std::size_t rows = f.matrix.rows();
  const util::CsrView view = f.matrix.view();

  // Per-query raw dots, computed once: the transform loop replays these.
  std::vector<double> dots(kQueries * rows);
  for (std::size_t q = 0; q < kQueries; ++q) {
    svm::dot_rows(f.matrix, f.query_vectors[q],
                  std::span{dots}.subspan(q * rows, rows));
  }

  constexpr std::size_t kPasses = 200;
  const util::Stopwatch dot_watch;
  std::vector<double> scratch(rows);
  for (std::size_t p = 0; p < kPasses; ++p) {
    for (std::size_t q = 0; q < kQueries; ++q) {
      svm::dot_rows(f.matrix, f.query_vectors[q], scratch);
      benchmark::DoNotOptimize(scratch.data());
    }
  }
  const double dot_s = dot_watch.elapsed_micros() * 1e-6;

  const util::Stopwatch copy_watch;
  for (std::size_t p = 0; p < kPasses; ++p) {
    for (std::size_t q = 0; q < kQueries; ++q) {
      std::memcpy(scratch.data(), dots.data() + q * rows,
                  rows * sizeof(double));
      benchmark::DoNotOptimize(scratch.data());
    }
  }
  const double copy_s = copy_watch.elapsed_micros() * 1e-6;

  const util::Stopwatch tail_watch;
  for (std::size_t p = 0; p < kPasses; ++p) {
    for (std::size_t q = 0; q < kQueries; ++q) {
      std::memcpy(scratch.data(), dots.data() + q * rows,
                  rows * sizeof(double));
      svm::kernel_transform(params, view, f.query_sqnorms[q], scratch);
      benchmark::DoNotOptimize(scratch.data());
    }
  }
  const double transform_s =
      std::max(tail_watch.elapsed_micros() * 1e-6 - copy_s, 1e-9);

  const double evals = static_cast<double>(kPasses * kQueries * rows);
  TransformSplitRow row{svm::describe(params), evals / dot_s * 1e-6,
                        evals / transform_s * 1e-6,
                        transform_s / (dot_s + transform_s)};
  std::printf("%-28s dot %8.1f Mevals/s   transform %8.1f Mevals/s   "
              "tail share %4.1f%%\n",
              row.kernel.c_str(), row.dot_mevals, row.transform_mevals,
              100.0 * row.transform_share);
  return row;
}

// --------------------------------------------------------- relaxed tier --

/// ULP distance between two finite doubles (monotone integer mapping).
std::uint64_t ulp_distance(double a, double b) {
  const auto key = [](double v) {
    const std::int64_t raw = std::bit_cast<std::int64_t>(v);
    return raw >= 0 ? raw : std::numeric_limits<std::int64_t>::min() - raw;
  };
  const std::int64_t ka = key(a);
  const std::int64_t kb = key(b);
  return static_cast<std::uint64_t>(ka > kb ? ka - kb : kb - ka);
}

/// Relaxed-tier timing: kRounds alternating exact/relaxed rounds of
/// kPassesPerRound kernel_block passes each (odd, so the median is one
/// round's ratio).
constexpr std::size_t kRounds = 7;
constexpr std::size_t kPassesPerRound = 30;

struct RelaxedReportRow {
  std::string kernel;
  double exact_block_mevals = 0.0;
  double relaxed_block_mevals = 0.0;
  double speedup = 0.0;               ///< median of round_speedups
  std::vector<double> round_speedups;  ///< exact / relaxed time per round
  std::uint64_t max_ulp = 0;          ///< kernel values, relaxed vs exact
  double max_decision_delta = 0.0;    ///< one-class decisions, 25 models
};

/// Relaxed tier vs exact on the transcendental kernels.  Correctness is
/// asserted before any timing: per-value ULP error is measured against the
/// exact tier, per-model decision deltas are bounded, and the paper's
/// identification argmax (which of 25 user models claims each window) must
/// not flip ONCE across all queries — only then is throughput reported.
/// Throughput comes from kRounds alternating exact/relaxed rounds; exits
/// non-zero if the median per-round ratio falls below 2x exact
/// kernel_block throughput on a SIMD backend (scalar hosts report but do
/// not gate).
RelaxedReportRow report_relaxed(svm::KernelType type) {
  const auto& f = BinaryFixture::get();
  const auto params = kernel_params(type);
  const std::size_t rows = f.matrix.rows();
  std::vector<double> exact_block(kQueries * rows);
  std::vector<double> relaxed_block(kQueries * rows);

  svm::set_transform_mode(svm::TransformMode::kExact);
  svm::kernel_block(params, f.matrix, f.queries, exact_block);
  svm::set_transform_mode(svm::TransformMode::kRelaxed);
  svm::kernel_block(params, f.matrix, f.queries, relaxed_block);

  RelaxedReportRow row;
  row.kernel = svm::describe(params);
  for (std::size_t i = 0; i < exact_block.size(); ++i) {
    row.max_ulp = std::max(row.max_ulp,
                           ulp_distance(exact_block[i], relaxed_block[i]));
  }

  // 25 synthetic user profiles at the paper's identification shape: each
  // claims a 16-row slice of the SV pool with positive coefficients.  A
  // window is attributed to argmax_m decision_m(window); relaxed must
  // reproduce every attribution exactly.
  constexpr std::size_t kModels = 25;
  constexpr std::size_t kSvPerModel = 16;
  util::Rng rng{4242};
  std::vector<svm::OneClassSvmModel> models;
  const auto& all_rows = f.matrix;
  for (std::size_t m = 0; m < kModels; ++m) {
    std::vector<util::SparseVector> svs;
    std::vector<double> coeffs;
    for (std::size_t k = 0; k < kSvPerModel; ++k) {
      const std::size_t r = (m * kSvPerModel + k) % all_rows.rows();
      std::vector<util::SparseVector::Entry> entries;
      const auto idx = all_rows.row_indices(r);
      const auto val = all_rows.row_values(r);
      for (std::size_t j = 0; j < idx.size(); ++j) {
        entries.push_back({idx[j], val[j]});
      }
      svs.emplace_back(std::move(entries));
      coeffs.push_back(rng.uniform(0.05, 1.0));
    }
    models.push_back(svm::OneClassSvmModel::from_parts(
        params, std::move(svs), std::move(coeffs), rng.uniform(0.1, 0.9)));
  }
  std::size_t argmax_flips = 0;
  for (std::size_t q = 0; q < kQueries; ++q) {
    std::size_t exact_best = 0;
    std::size_t relaxed_best = 0;
    double exact_top = -1e300;
    double relaxed_top = -1e300;
    for (std::size_t m = 0; m < kModels; ++m) {
      svm::set_transform_mode(svm::TransformMode::kExact);
      const double exact_d =
          models[m].decision_value(f.query_vectors[q], f.query_sqnorms[q]);
      svm::set_transform_mode(svm::TransformMode::kRelaxed);
      const double relaxed_d =
          models[m].decision_value(f.query_vectors[q], f.query_sqnorms[q]);
      row.max_decision_delta =
          std::max(row.max_decision_delta, std::abs(exact_d - relaxed_d));
      if (exact_d > exact_top) { exact_top = exact_d; exact_best = m; }
      if (relaxed_d > relaxed_top) { relaxed_top = relaxed_d; relaxed_best = m; }
    }
    if (exact_best != relaxed_best) ++argmax_flips;
  }
  if (argmax_flips != 0) {
    std::fprintf(stderr,
                 "FATAL: %s relaxed tier flipped %zu identification argmax "
                 "decisions\n",
                 row.kernel.c_str(), argmax_flips);
    std::exit(1);
  }

  // Alternating exact/relaxed rounds, gated on the median per-round ratio:
  // a host-speed swing then moves both tiers of a round together instead
  // of deciding the ratio, as one long block per tier let it.
  const auto time_block = [&](svm::TransformMode mode, std::vector<double>& out) {
    svm::set_transform_mode(mode);
    const util::Stopwatch watch;
    for (std::size_t p = 0; p < kPassesPerRound; ++p) {
      svm::kernel_block(params, f.matrix, f.queries, out);
      benchmark::DoNotOptimize(out.data());
    }
    return watch.elapsed_micros() * 1e-6;
  };
  double exact_s = 0.0;
  double relaxed_s = 0.0;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const double exact_round = time_block(svm::TransformMode::kExact, exact_block);
    const double relaxed_round =
        time_block(svm::TransformMode::kRelaxed, relaxed_block);
    exact_s += exact_round;
    relaxed_s += relaxed_round;
    row.round_speedups.push_back(exact_round / relaxed_round);
  }
  svm::set_transform_mode(svm::TransformMode::kDefault);

  const double evals =
      static_cast<double>(kRounds * kPassesPerRound * kQueries * rows);
  row.exact_block_mevals = evals / exact_s * 1e-6;
  row.relaxed_block_mevals = evals / relaxed_s * 1e-6;
  std::vector<double> sorted = row.round_speedups;
  std::sort(sorted.begin(), sorted.end());
  row.speedup = sorted[kRounds / 2];
  std::printf("%-28s exact %8.1f Mevals/s   relaxed %8.1f Mevals/s   "
              "median speedup %.2fx   max %llu ULP   max decision delta %.2e   "
              "argmax flips 0/%zu\n",
              row.kernel.c_str(), row.exact_block_mevals,
              row.relaxed_block_mevals, row.speedup,
              static_cast<unsigned long long>(row.max_ulp),
              row.max_decision_delta, static_cast<std::size_t>(kQueries));
  if (svm::transform_backend_name() != "scalar" && row.speedup < 2.0) {
    std::fprintf(stderr,
                 "FATAL: %s relaxed tier is %.2fx exact (median of %zu "
                 "rounds) on backend '%.*s' (gate: >= 2x)\n",
                 row.kernel.c_str(), row.speedup, kRounds,
                 static_cast<int>(svm::transform_backend_name().size()),
                 svm::transform_backend_name().data());
    std::exit(1);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;  // empty = no BENCH_*.json checkpoint
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--json-out" && i + 1 < argc) {
      json_out = argv[i + 1];
      // Splice the flag + value out before google-benchmark sees them.
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nKernel-row throughput — %zu-dim rows, ~%zu nnz, %zu-row "
              "matrix (bit-identical outputs)\n",
              kDim, kMeanNnz, kRows);
  std::vector<ReportRow> rows;
  for (const auto type :
       {svm::KernelType::kLinear, svm::KernelType::kPolynomial,
        svm::KernelType::kRbf, svm::KernelType::kSigmoid}) {
    rows.push_back(report(type));
  }

  svm::set_kernel_backend_for_testing("");  // re-select: fastest supported
  std::printf("\nBitset kernel plane — binary-dominant paper shape, backend "
              "'%.*s' vs scalar CSR (bit-identical outputs)\n",
              static_cast<int>(svm::kernel_backend_name().size()),
              svm::kernel_backend_name().data());
  std::vector<BitsetReportRow> bitset_rows;
  for (const auto type :
       {svm::KernelType::kLinear, svm::KernelType::kPolynomial,
        svm::KernelType::kRbf, svm::KernelType::kSigmoid}) {
    bitset_rows.push_back(report_bitset(type));
  }
  svm::set_kernel_backend_for_testing("");

  std::printf("\nTransform split — dot phase vs vectorized transform tail, "
              "transform backend '%.*s' (DESIGN §14)\n",
              static_cast<int>(svm::transform_backend_name().size()),
              svm::transform_backend_name().data());
  // Linear is excluded: its transform is an identity early-return, so the
  // memcpy-corrected tail time is pure measurement noise.
  std::vector<TransformSplitRow> split_rows;
  for (const auto type :
       {svm::KernelType::kPolynomial, svm::KernelType::kRbf,
        svm::KernelType::kSigmoid}) {
    split_rows.push_back(report_transform_split(type));
  }

  std::printf("\nRelaxed transform tier — vectorized exp/tanh vs libm exact, "
              "zero identification argmax flips asserted before timing\n");
  std::vector<RelaxedReportRow> relaxed_rows;
  for (const auto type : {svm::KernelType::kRbf, svm::KernelType::kSigmoid}) {
    relaxed_rows.push_back(report_relaxed(type));
  }

  if (!json_out.empty()) {
    wtp::bench::JsonBuilder json;
    json.begin_object();
    json.key("bench").value("kernel_throughput");
    wtp::bench::write_stamp(json);
    json.key("dimension").value(kDim);
    json.key("matrix_rows").value(kRows);
    json.key("kernels").begin_array();
    for (const auto& row : rows) {
      json.begin_object();
      json.key("kernel").value(row.kernel);
      json.key("per_pair_mevals_per_s").value(row.per_pair_mevals);
      json.key("kernel_row_mevals_per_s").value(row.kernel_row_mevals);
      json.key("speedup").value(row.speedup);
      json.end_object();
    }
    json.end_array();
    json.key("bitset_backend")
        .value(std::string{svm::kernel_backend_name()});
    json.key("bitset_kernels").begin_array();
    for (const auto& row : bitset_rows) {
      json.begin_object();
      json.key("kernel").value(row.kernel);
      json.key("csr_mevals_per_s").value(row.csr_mevals);
      json.key("bitset_mevals_per_s").value(row.bitset_mevals);
      json.key("kernel_block_mevals_per_s").value(row.block_mevals);
      json.key("speedup").value(row.speedup);
      json.end_object();
    }
    json.end_array();
    json.key("transform_backend")
        .value(std::string{svm::transform_backend_name()});
    json.key("transform_split").begin_array();
    for (const auto& row : split_rows) {
      json.begin_object();
      json.key("kernel").value(row.kernel);
      json.key("dot_mevals_per_s").value(row.dot_mevals);
      json.key("transform_mevals_per_s").value(row.transform_mevals);
      json.key("transform_share").value(row.transform_share);
      json.end_object();
    }
    json.end_array();
    json.key("relaxed_kernels").begin_array();
    for (const auto& row : relaxed_rows) {
      json.begin_object();
      json.key("kernel").value(row.kernel);
      json.key("exact_block_mevals_per_s").value(row.exact_block_mevals);
      json.key("relaxed_block_mevals_per_s").value(row.relaxed_block_mevals);
      json.key("speedup").value(row.speedup);
      json.key("round_speedups").begin_array();
      for (const double ratio : row.round_speedups) json.value(ratio);
      json.end_array();
      json.key("max_ulp").value(static_cast<double>(row.max_ulp));
      json.key("max_decision_delta").value(row.max_decision_delta);
      json.key("argmax_flips").value(0.0);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    json.write_file(json_out);
    std::printf("# wrote %s\n", json_out.c_str());
  }
  return 0;
}
