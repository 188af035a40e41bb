// catalog_1e5: a 10^5-user synthetic::ScalePopulation written with
// MappedStoreWriter, opened with MappedProfileStore::open and queried with
// IdentificationPlane::identify from one thread, closed loop, over seeded
// windows.  The cascade's overlap and centroid stages dominate and the
// kernel is a few percent — the opposite of replay_paper — and this is the
// slowest measured layer of the serving path.  Cascade argmax is checked
// against identify_exhaustive on a seeded sample, outside the timed loop.
//
// The traced run times a first half of the queries untraced and a second
// half with a span around each identify call and the kernel timers on;
// per-stage times come from IdentificationResult::stage_ns.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>

#include "common.h"
#include "core/profiler.h"
#include "index/cascade.h"
#include "index/mapped_store.h"
#include "obs/registry.h"
#include "svm/kernel.h"
#include "synthetic/scale.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace wtp::perfbench {

namespace {

constexpr std::size_t kUsers = 100000;
constexpr std::size_t kSetupRepetitions = 3;
constexpr std::size_t kMinQueries = 1000;
constexpr std::size_t kExhaustiveSample = 12;
constexpr std::size_t kTracedSample = 4;
constexpr std::size_t kQueryBatch = 256;
constexpr std::size_t kWriteBatch = 1024;
constexpr std::uint64_t kWindowSalt = 0x77696e646f77ull;

/// The written, opened and indexed catalog; removes its store file.
class Catalog {
 public:
  Catalog(const synthetic::ScalePopulation& population,
          std::filesystem::path path)
      : path_{std::move(path)} {
    std::filesystem::create_directories(path_.parent_path());
    util::Stopwatch watch;
    {
      // Models are synthesized in batches on three pool threads (four with
      // the waiting caller) and appended in user order.
      index::MappedStoreWriter writer{path_.string(), population.window(),
                                      population.schema()};
      const core::ProfileParams params{core::ClassifierType::kOcSvm,
                                       population.config().kernel, 0.5};
      util::ThreadPool pool{3};
      std::vector<std::optional<svm::OneClassSvmModel>> batch(kWriteBatch);
      for (std::size_t first = 0; first < population.size();
           first += kWriteBatch) {
        const std::size_t count =
            std::min(kWriteBatch, population.size() - first);
        util::parallel_for(pool, count, [&](std::size_t i) {
          batch[i] = population.make_model(first + i);
        });
        for (std::size_t i = 0; i < count; ++i) {
          writer.add(population.user_id(first + i), params,
                     svm::AnySvmModel{std::move(*batch[i])});
        }
      }
      writer.finish();
    }
    write_s = watch.elapsed_seconds();
    watch.reset();
    store_.emplace(index::MappedProfileStore::open(path_.string()));
    open_s = watch.elapsed_seconds();
    watch.reset();
    plane_ = std::make_unique<index::IdentificationPlane>(*store_);
    plane_s = watch.elapsed_seconds();
  }
  ~Catalog() {
    plane_.reset();
    store_.reset();
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
    std::filesystem::remove(path_.parent_path(), ignored);  // only if empty
  }
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  [[nodiscard]] const index::IdentificationPlane& plane() const { return *plane_; }
  [[nodiscard]] double mapped_mb() const {
    return static_cast<double>(store_->mapped_bytes()) / (1024.0 * 1024.0);
  }

  double write_s = 0.0;
  double open_s = 0.0;
  double plane_s = 0.0;

 private:
  std::filesystem::path path_;
  std::optional<index::MappedProfileStore> store_;
  std::unique_ptr<index::IdentificationPlane> plane_;
};

struct CatalogSetup {
  std::unique_ptr<synthetic::ScalePopulation> population;
  std::unique_ptr<Catalog> catalog;  ///< the last repetition's
  std::vector<double> setup_s;
};

CatalogSetup set_up_catalog(std::uint64_t seed, std::size_t repetitions) {
  const std::filesystem::path dir = ".bench_work";
  // A run killed mid-way cannot remove its ~900 MB store; clear leftovers.
  std::filesystem::remove_all(dir);
  const std::filesystem::path path =
      dir / ("catalog_" + std::to_string(::getpid()) + ".wtpstore");
  CatalogSetup setup;
  for (std::size_t r = 0; r < repetitions; ++r) {
    setup.catalog.reset();
    setup.population.reset();
    util::Stopwatch watch;
    synthetic::ScaleConfig config;
    config.seed = seed;
    config.users = kUsers;
    setup.population = std::make_unique<synthetic::ScalePopulation>(config);
    setup.catalog = std::make_unique<Catalog>(*setup.population, path);
    setup.setup_s.push_back(watch.elapsed_seconds());
  }
  return setup;
}

struct Query {
  std::size_t true_user = 0;
  util::SparseVector window;
};

Query make_query(const synthetic::ScalePopulation& population,
                 std::uint64_t seed, std::uint64_t q) {
  Query query;
  query.true_user = mix64(seed, q) % population.size();
  query.window =
      population.sample_window(query.true_user, mix64(seed, q ^ kWindowSalt));
  return query;
}

struct Answer {
  std::size_t true_user = 0;
  std::size_t best = index::IdentificationResult::npos;
  double best_decision = 0.0;
};

struct QueryLoop {
  Samples latency_us;
  SpanStat identify;  ///< every identify call
  std::vector<Answer> answers;
  double stage_ns[4] = {0, 0, 0, 0};
  double survivors[4] = {0, 0, 0, 0};
};

/// Closed loop over queries [first, ...) until `seconds` of wall time and
/// at least `min_queries` queries.  Windows are sampled in batches outside
/// the timed calls.
QueryLoop run_queries(const CatalogSetup& setup, std::uint64_t seed,
                      std::uint64_t first, double seconds,
                      std::size_t min_queries) {
  QueryLoop loop;
  const index::IdentificationPlane& plane = setup.catalog->plane();
  const std::int64_t start = now_ns();
  std::uint64_t q = first;
  while (loop.answers.size() < min_queries ||
         static_cast<double>(now_ns() - start) / 1e9 < seconds) {
    std::vector<Query> batch;
    batch.reserve(kQueryBatch);
    for (std::size_t b = 0; b < kQueryBatch; ++b) {
      batch.push_back(make_query(*setup.population, seed, q++));
    }
    for (const Query& query : batch) {
      const std::int64_t begin = now_ns();
      const index::IdentificationResult result = plane.identify(query.window);
      const std::int64_t elapsed = now_ns() - begin;
      loop.latency_us.add(static_cast<double>(elapsed) / 1e3);
      loop.identify.add(elapsed);
      for (int s = 0; s < 4; ++s) {
        loop.stage_ns[s] += static_cast<double>(result.stage_ns[s]);
      }
      loop.survivors[0] += static_cast<double>(result.overlap_survivors);
      loop.survivors[1] += static_cast<double>(result.centroid_survivors);
      loop.survivors[2] += static_cast<double>(result.gaussian_survivors);
      loop.survivors[3] += static_cast<double>(result.scored);
      loop.answers.push_back(
          Answer{query.true_user, result.best, result.best_decision});
    }
  }
  return loop;
}

/// Cascade argmax vs identify_exhaustive on a seeded sample of the loop's
/// queries; returns the number that agree.
std::size_t check_argmax(const CatalogSetup& setup, std::uint64_t seed,
                         std::uint64_t first, const QueryLoop& loop,
                         std::size_t sample) {
  std::size_t agree = 0;
  for (std::size_t k = 0; k < sample; ++k) {
    const std::uint64_t offset = mix64(seed, 0xe4a0 + k) % loop.answers.size();
    const Query query = make_query(*setup.population, seed, first + offset);
    const index::IdentificationResult exhaustive =
        setup.catalog->plane().identify_exhaustive(query.window);
    const Answer& cascade = loop.answers[offset];
    if (exhaustive.best == cascade.best &&
        exhaustive.best_decision == cascade.best_decision) {
      ++agree;
    } else {
      std::fprintf(stderr,
                   "catalog: query %llu cascade argmax %zu (%.17g) != "
                   "exhaustive %zu (%.17g)\n",
                   static_cast<unsigned long long>(first + offset),
                   cascade.best, cascade.best_decision, exhaustive.best,
                   exhaustive.best_decision);
    }
  }
  return agree;
}

void report_untraced(const RunOptions& options, Report& report) {
  const CatalogSetup setup = set_up_catalog(options.seed, kSetupRepetitions);
  const QueryLoop loop =
      run_queries(setup, options.seed, 0, options.seconds, kMinQueries);
  const std::size_t agree =
      check_argmax(setup, options.seed, 0, loop, kExhaustiveSample);
  // Only the sampled windows have a checked answer.
  report.attempted = kExhaustiveSample;
  report.failed = kExhaustiveSample - agree;
  report.gate("catalog.argmax_equals_exhaustive", agree == kExhaustiveSample,
              std::to_string(agree) + "/" + std::to_string(kExhaustiveSample) +
                  " sampled windows");
  // Efficacy over the first kMinQueries windows, which every run makes, so
  // the figure depends on the seed alone and not on how fast the loop ran.
  std::uint64_t decided = 0;
  std::uint64_t correct = 0;
  for (std::size_t q = 0; q < kMinQueries; ++q) {
    const Answer& answer = loop.answers[q];
    if (answer.best == index::IdentificationResult::npos) continue;
    ++decided;
    if (answer.best == answer.true_user) ++correct;
  }
  report.gate("catalog.decides", decided > 0,
              std::to_string(decided) + " decided, " + std::to_string(correct) +
                  " correct of the first " + std::to_string(kMinQueries) +
                  " windows");

  report.median_metric("setup_s", setup.setup_s, "s").note =
      "store write + open + plane build";
  const double rate = static_cast<double>(loop.identify.count) /
                      (loop.identify.total_ns / 1e9);
  report.metric("throughput_per_s", rate, "1/s").note =
      "identify calls per second, one thread";
  report.alias("windows_per_s", rate, "1/s", "= throughput_per_s");
  auto& p50 = report.metric("decision_p50_us", loop.latency_us.quantile(0.50), "us");
  p50.samples = loop.latency_us.size();
  p50.note = "one identify call";
  auto& p99 = report.metric("decision_p99_us", loop.latency_us.quantile(0.99), "us");
  p99.samples = loop.latency_us.size();
  p99.note = p50.note;
  report.metric("decided_correct_share",
                static_cast<double>(correct) / static_cast<double>(decided),
                "share")
      .note = "first " + std::to_string(kMinQueries) + " windows";
  const double agreement =
      static_cast<double>(agree) / static_cast<double>(kExhaustiveSample);
  report.metric("reference_agreement", agreement, "share").note =
      "cascade argmax equals identify_exhaustive";
  report.alias("argmax_agreement", agreement, "share", "= reference_agreement");
  const double failed_share = static_cast<double>(report.failed) /
                              static_cast<double>(report.attempted);
  report.metric("delivered_share", 1.0 - failed_share, "share");
  report.alias("failed_share", failed_share, "share", "= 1 - delivered_share");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_traced(const RunOptions& options, Report& report) {
  const CatalogSetup setup = set_up_catalog(options.seed, 1);
  const double half = options.seconds / 2.0;
  const QueryLoop untraced = run_queries(setup, options.seed, 0, half, 200);
  static obs::Registry kernel_registry;  // outlives every kernel call
  svm::set_kernel_metrics(&kernel_registry);
  const std::uint64_t first = untraced.answers.size();
  const QueryLoop traced = run_queries(setup, options.seed, first, half, 200);
  svm::set_kernel_metrics(nullptr);
  const std::size_t agree =
      check_argmax(setup, options.seed, first, traced, kTracedSample);
  report.attempted = kTracedSample;
  report.failed = kTracedSample - agree;
  report.gate("catalog.argmax_equals_exhaustive", agree == kTracedSample,
              std::to_string(agree) + "/" + std::to_string(kTracedSample) +
                  " sampled windows");

  const double n = static_cast<double>(traced.answers.size());
  const obs::Label rbf{"kernel", "rbf"};
  const auto kernel_us = [&](const char* name) {
    return kernel_registry.timer(name, std::span{&rbf, 1}).collect().sum() /
           1e3 / n;
  };
  report.metric("svm.dot_us", kernel_us("kernel.dot_ns"), "us");
  report.metric("svm.transform_us", kernel_us("kernel.transform_ns"), "us");
  report.metric("index.overlap_us", traced.stage_ns[0] / 1e3 / n, "us");
  report.metric("index.centroid_us", traced.stage_ns[1] / 1e3 / n, "us");
  report.metric("index.gaussian_us", traced.stage_ns[2] / 1e3 / n, "us");
  report.metric("index.svm_us", traced.stage_ns[3] / 1e3 / n, "us");
  report.metric("index.overlap_survivors", traced.survivors[0] / n, "count");
  report.metric("index.centroid_survivors", traced.survivors[1] / n, "count");
  report.metric("index.gaussian_survivors", traced.survivors[2] / n, "count");
  report.metric("index.scored", traced.survivors[3] / n, "count");
  report.metric("index.prune_ratio",
                1.0 - traced.survivors[3] / n / static_cast<double>(kUsers),
                "share")
      .note = "share of the catalog pruned before kernel work";
  report.metric("index.store_write_s", setup.catalog->write_s, "s");
  report.metric("index.store_open_s", setup.catalog->open_s, "s");
  report.metric("index.plane_build_s", setup.catalog->plane_s, "s");
  report.metric("index.mapped_mb", setup.catalog->mapped_mb(), "MB");
  const double stages = traced.stage_ns[0] + traced.stage_ns[1] +
                        traced.stage_ns[2] + traced.stage_ns[3];
  report.metric("trace.unattributed_share",
                std::max(0.0, 1.0 - stages / traced.identify.total_ns), "share")
      .note = "identify time outside the four cascade stages";
  report.metric("trace.overhead_share",
                traced.identify.mean_us() / untraced.identify.mean_us() - 1.0,
                "share")
      .note = "mean identify, kernel timers on vs off";
}

}  // namespace

void run_catalog_1e5(const RunOptions& options, Report& report) {
  if (options.trace) {
    report_traced(options, report);
  } else {
    report_untraced(options, report);
  }
}

}  // namespace wtp::perfbench
