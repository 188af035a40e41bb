// Training-plane throughput at the paper's shape: one user's stage-2 grid
// column sweep — 843 feature columns (Tab. I), ~25 non-zeros per window,
// 400 training windows, 4 kernels x 6 regularizers — trained two ways:
//
//   cold:  every cell from scratch, shrinking off, fresh QMatrix per cell
//          (the seed behaviour);
//   fast:  shrinking on, one warm-started fit_path per kernel column — a
//          shared QMatrix and hot kernel-row cache across the column, each
//          solve seeded from the previous cell's alpha.
//
// Both paths must pick the identical (kernel, regularizer) winner with
// identical ACC scores (the program exits 1 otherwise); the fast path must
// show its kernel-cache reuse through PathStats.  Scoring uses the same
// slack convention as the production grid (decision >= -1e-4 with solves at
// eps 1e-6), which pins ACC to the converged QP rather than to whichever
// near-optimal point a solve stopped at.
// With --overhead, instead measures the observability plane's cost on the
// fast sweep: tracing disabled vs. enabled-but-unexported, asserted < 3%.
#include <cstdio>
#include <memory>
#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "bench_json.h"
#include "obs/trace.h"
#include "svm/kernel_cache.h"
#include "svm/one_class_svm.h"
#include "svm/svdd.h"
#include "util/feature_matrix.h"
#include "util/rng.h"
#include "util/sparse_vector.h"
#include "util/stopwatch.h"

using namespace wtp;

namespace {

constexpr std::size_t kDim = 843;     // Tab. I schema width
constexpr std::size_t kMeanNnz = 25;  // typical window sparsity
constexpr std::size_t kWindows = 400; // one user's training-window count
constexpr std::size_t kProfileCols = 120;
constexpr double kEps = 1e-6;         // stage-2 grid solve tolerance
constexpr double kSlack = 1e-4;       // stage-2 acceptance slack
constexpr std::size_t kPasses = 7;    // best-of passes (sweeps run tens of ms)

/// Windows drawn from a column-habit profile: each user touches a fixed
/// subset of the schema (which is what separates self from other), plus
/// schema-wide noise entries so the one-class boundary is genuinely hard to
/// fit — as with real transaction windows — rather than a tight cluster the
/// solver separates in a handful of iterations.
util::FeatureMatrix habit_windows(util::Rng& rng, std::size_t count,
                                  std::size_t first_col) {
  std::vector<util::SparseVector> rows;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<util::SparseVector::Entry> entries;
    const std::size_t nnz = kMeanNnz / 2 + rng.uniform_index(kMeanNnz);
    for (std::size_t k = 0; k < nnz; ++k) {
      const std::size_t col =
          rng.bernoulli(0.25)
              ? rng.uniform_index(kDim)
              : (first_col + rng.uniform_index(kProfileCols)) % kDim;
      entries.push_back({col, rng.uniform(0.1, 3.0)});
    }
    rows.emplace_back(std::move(entries));
  }
  return util::FeatureMatrix::from_rows(rows, kDim);
}

std::vector<svm::KernelParams> kernel_grid() {
  const double gamma = 1.0 / static_cast<double>(kDim);
  return {{svm::KernelType::kLinear, gamma, 0.0, 3},
          {svm::KernelType::kPolynomial, gamma, 1.0, 3},
          {svm::KernelType::kRbf, gamma, 0.0, 3},
          {svm::KernelType::kSigmoid, gamma, 0.0, 3}};
}

/// nu column for OC-SVM (Tab. III values); the SVDD column follows the
/// paper's C = 1/(nu*l) mapping, which at l = 400 lands near 1/l — the
/// regime real stage-2 sweeps operate in.
std::vector<double> regularizer_grid(bool svdd) {
  if (svdd) return {0.1, 0.05, 0.02, 0.01, 0.005, 0.0025};
  return {0.999, 0.9, 0.5, 0.1, 0.05, 0.01};
}

/// ACC = ACC_self - ACC_other, percent, with the grid's acceptance slack.
template <typename Model>
double acc_score(const Model& model, const util::FeatureMatrix& self,
                 const util::FeatureMatrix& other) {
  std::vector<double> values(self.rows());
  const auto count = [&](const util::FeatureMatrix& windows) {
    values.resize(windows.rows());
    model.decision_values(windows, values);
    std::size_t accepted = 0;
    for (const double v : values) {
      if (v >= -kSlack) ++accepted;
    }
    return 100.0 * static_cast<double>(accepted) /
           static_cast<double>(windows.rows());
  };
  const double acc_self = count(self);
  const double acc_other = count(other);
  return acc_self - acc_other;
}

struct SweepResult {
  std::vector<double> scores;  ///< kernel-major, aligned with the grid
  double seconds = 0.0;
  std::size_t iterations = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

// Only training is timed; scoring (identical work in both paths) happens
// outside the stopwatch so the comparison isolates the training plane.
template <typename Config, typename Model>
SweepResult cold_sweep(const util::FeatureMatrix& train,
                       const util::FeatureMatrix& other,
                       double Config::* regularizer, bool svdd) {
  SweepResult result;
  std::vector<Model> models;
  const util::Stopwatch watch;
  for (const auto& kernel : kernel_grid()) {
    for (const double reg : regularizer_grid(svdd)) {
      Config config;
      config.kernel = kernel;
      config.eps = kEps;
      config.shrinking = false;
      config.*regularizer = reg;
      models.push_back(Model::train(train, config, kDim));
      result.iterations += models.back().solver_stats().iterations;
      result.cache_hits += models.back().solver_stats().cache_hits;
      result.cache_misses += models.back().solver_stats().cache_misses;
    }
  }
  result.seconds = watch.elapsed_micros() * 1e-6;
  for (const auto& model : models) {
    result.scores.push_back(acc_score(model, train, other));
  }
  return result;
}

template <typename Config, typename Model>
SweepResult fast_sweep(const util::FeatureMatrix& train,
                       const util::FeatureMatrix& other, bool svdd) {
  SweepResult result;
  const auto regs = regularizer_grid(svdd);
  std::vector<Model> models;
  const util::Stopwatch watch;
  // All four kernels transform the same Gram rows: share the dot products.
  const auto gram = std::make_shared<svm::GramCache>(train);
  for (const auto& kernel : kernel_grid()) {
    Config config;
    config.kernel = kernel;
    config.eps = kEps;
    config.shrinking = true;
    // Warm-started cells converge in ~150 iterations; the default libsvm
    // cadence (first pass after min(l, 1000) iterations) would never fire.
    config.shrink_interval = 8;
    config.gram_cache = gram;
    svm::PathStats stats;
    auto column = Model::fit_path(train, config, regs, kDim, &stats);
    std::move(column.begin(), column.end(), std::back_inserter(models));
    for (const auto& cell : stats.cells) result.iterations += cell.iterations;
    result.cache_hits += stats.cache_hits;
    result.cache_misses += stats.cache_misses;
  }
  result.seconds = watch.elapsed_micros() * 1e-6;
  for (const auto& model : models) {
    result.scores.push_back(acc_score(model, train, other));
  }
  return result;
}

std::size_t argmax(const std::vector<double>& scores) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[best]) best = i;
  }
  return best;
}

void report(const char* name, const SweepResult& cold, const SweepResult& fast) {
  if (cold.scores.size() != fast.scores.size()) {
    std::fprintf(stderr, "FATAL: %s grid sizes differ\n", name);
    std::exit(1);
  }
  for (std::size_t i = 0; i < cold.scores.size(); ++i) {
    if (std::abs(cold.scores[i] - fast.scores[i]) > 1e-9) {
      std::fprintf(stderr,
                   "FATAL: %s ACC diverges at cell %zu: cold %.6f fast %.6f\n",
                   name, i, cold.scores[i], fast.scores[i]);
      std::exit(1);
    }
  }
  const std::size_t cold_win = argmax(cold.scores);
  const std::size_t fast_win = argmax(fast.scores);
  if (cold_win != fast_win) {
    std::fprintf(stderr, "FATAL: %s winners diverge: cold cell %zu fast cell %zu\n",
                 name, cold_win, fast_win);
    std::exit(1);
  }
  if (fast.cache_hits == 0) {
    std::fprintf(stderr, "FATAL: %s fast path shows no kernel-cache reuse\n",
                 name);
    std::exit(1);
  }
  const std::size_t regs = regularizer_grid(false).size();
  const double hit_rate =
      static_cast<double>(fast.cache_hits) /
      static_cast<double>(fast.cache_hits + fast.cache_misses);
  std::printf("%-8s cold %7.2fs (%9zu iters, %6zu rows)   fast %7.2fs "
              "(%9zu iters, %6zu rows)   speedup %5.2fx   cache hits %5.1f%%   "
              "winner kernel %zu reg #%zu ACC %.2f\n",
              name, cold.seconds, cold.iterations, cold.cache_misses,
              fast.seconds, fast.iterations, fast.cache_misses,
              cold.seconds / fast.seconds, 100.0 * hit_rate, cold_win / regs,
              cold_win % regs, cold.scores[cold_win]);
}

}  // namespace

/// Runs `sweep` kPasses times and keeps the fastest pass: each pass is tens
/// of milliseconds, where scheduler noise only ever adds time, so the
/// minimum is the robust estimate of the true cost.  Scores and counters
/// are identical across passes (same data, deterministic solves).
template <typename Sweep>
SweepResult repeat(Sweep&& sweep) {
  SweepResult result = sweep();
  for (std::size_t pass = 1; pass < kPasses; ++pass) {
    const double best = result.seconds;
    result = sweep();
    result.seconds = std::min(result.seconds, best);
  }
  return result;
}

namespace {

/// --overhead: best-of-kPasses fast sweep with tracing off vs. on (spans
/// recorded to bounded per-thread buffers, never exported); asserts the
/// plane costs < 3%.  Metrics counters are always on in both runs — they
/// are the solver's own stats publishing, part of the baseline.  Off/on
/// passes are interleaved so clock-frequency and thermal drift lands evenly
/// on both sides.
int run_overhead_mode(const util::FeatureMatrix& self,
                      const util::FeatureMatrix& other) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  const auto sweep_seconds = [&] {
    return fast_sweep<svm::OneClassSvmConfig, svm::OneClassSvmModel>(
               self, other, false)
        .seconds;
  };
  sweep_seconds();  // warmup, untimed
  double off = std::numeric_limits<double>::infinity();
  double on = std::numeric_limits<double>::infinity();
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    recorder.disable();
    off = std::min(off, sweep_seconds());
    recorder.enable();
    on = std::min(on, sweep_seconds());
  }
  recorder.disable();
  const double overhead = (on - off) / off;
  std::printf("instrumentation overhead: tracing off %.3fs, "
              "enabled-but-unexported %.3fs -> %+.2f%%\n",
              off, on, 100.0 * overhead);
  const bool within_budget = overhead < 0.03;
  std::printf("shape check (observability plane costs < 3%% throughput): %s\n",
              within_budget ? "PASS" : "FAIL");
  return within_budget ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Rng rng{20170605};  // ICDCS'17
  const auto self = habit_windows(rng, kWindows, 100);
  const auto other = habit_windows(rng, kWindows, 500);

  std::string json_out;  // empty = no BENCH_*.json checkpoint
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--overhead") {
      return run_overhead_mode(self, other);
    }
    if (std::string_view{argv[i]} == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    }
  }

  std::printf("Training throughput — %zu windows, %zu cols, ~%zu nnz, "
              "%zu kernels x %zu regularizers, %zu timed passes (identical "
              "winners + ACC enforced)\n",
              kWindows, kDim, kMeanNnz, kernel_grid().size(),
              regularizer_grid(false).size(), kPasses);

  const auto oc_cold = repeat([&] {
    return cold_sweep<svm::OneClassSvmConfig, svm::OneClassSvmModel>(
        self, other, &svm::OneClassSvmConfig::nu, false);
  });
  const auto oc_fast = repeat([&] {
    return fast_sweep<svm::OneClassSvmConfig, svm::OneClassSvmModel>(
        self, other, false);
  });
  report("oc-svm", oc_cold, oc_fast);

  const auto svdd_cold = repeat([&] {
    return cold_sweep<svm::SvddConfig, svm::SvddModel>(
        self, other, &svm::SvddConfig::c, true);
  });
  const auto svdd_fast = repeat([&] {
    return fast_sweep<svm::SvddConfig, svm::SvddModel>(self, other, true);
  });
  report("svdd", svdd_cold, svdd_fast);

  const double cold_total = oc_cold.seconds + svdd_cold.seconds;
  const double fast_total = oc_fast.seconds + svdd_fast.seconds;
  std::printf("total    cold %7.2fs   fast %7.2fs   speedup %.2fx\n",
              cold_total, fast_total, cold_total / fast_total);
  if (cold_total < 3.0 * fast_total) {
    std::fprintf(stderr, "WARNING: overall speedup below the 3x target\n");
  }

  if (!json_out.empty()) {
    wtp::bench::JsonBuilder json;
    json.begin_object();
    json.key("bench").value("training_throughput");
    wtp::bench::write_stamp(json);
    json.key("windows").value(kWindows);
    json.key("dimension").value(kDim);
    json.key("mean_nnz").value(kMeanNnz);
    json.key("passes").value(kPasses);
    json.key("grid_kernels").value(kernel_grid().size());
    json.key("grid_regularizers").value(regularizer_grid(false).size());
    const auto emit = [&json](const char* name, const SweepResult& cold,
                              const SweepResult& fast) {
      const std::size_t winner = argmax(cold.scores);
      json.key(name).begin_object();
      json.key("cold_seconds").value(cold.seconds);
      json.key("fast_seconds").value(fast.seconds);
      json.key("speedup").value(cold.seconds / fast.seconds);
      json.key("cold_iterations").value(std::uint64_t{cold.iterations});
      json.key("fast_iterations").value(std::uint64_t{fast.iterations});
      json.key("cache_hit_rate")
          .value(static_cast<double>(fast.cache_hits) /
                 static_cast<double>(fast.cache_hits + fast.cache_misses));
      json.key("winner_cell").value(std::uint64_t{winner});
      json.key("winner_acc").value(cold.scores[winner]);
      json.end_object();
    };
    emit("oc_svm", oc_cold, oc_fast);
    emit("svdd", svdd_cold, svdd_fast);
    json.key("total_cold_seconds").value(cold_total);
    json.key("total_fast_seconds").value(fast_total);
    json.key("total_speedup").value(cold_total / fast_total);
    json.end_object();
    json.write_file(json_out);
    std::printf("wrote %s\n", json_out.c_str());
  }
  return 0;
}
