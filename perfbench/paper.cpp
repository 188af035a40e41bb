#include "paper.h"

#include <algorithm>
#include <optional>
#include <string>

#include "bench_common.h"
#include "core/dataset.h"
#include "core/profiler.h"
#include "features/encoder.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace wtp::perfbench {

namespace {

std::unique_ptr<PaperShape> build_shape() {
  bench::BenchOptions options;
  options.seed = kPaperSeed;
  auto shape = std::make_unique<PaperShape>();

  shape->trace = bench::make_trace(options);
  const core::ProfilingDataset dataset =
      bench::make_dataset(options, shape->trace);

  // Fixed per-user parameters (no grid search), as bench/serve_throughput:
  // the benchmark measures serving, not training quality.
  const util::Stopwatch watch;
  const features::WindowConfig window{60, 30};
  std::vector<std::optional<core::UserProfile>> trained(dataset.user_count());
  {
    util::ThreadPool pool{3};
    util::parallel_for(pool, dataset.user_count(), [&](std::size_t u) {
      core::ProfileParams params;
      params.type = core::ClassifierType::kOcSvm;
      params.kernel = {svm::KernelType::kRbf, 0.05, 0.0, 3};
      params.regularizer = 0.1;
      const std::string& user = dataset.user_ids()[u];
      trained[u] = core::UserProfile::train(
          user, dataset.train_windows(user, window),
          dataset.schema().dimension(), params);
    });
  }
  std::vector<core::UserProfile> profiles;
  profiles.reserve(trained.size());
  for (auto& profile : trained) profiles.push_back(std::move(*profile));
  shape->store = std::make_unique<core::ProfileStore>(
      window, dataset.schema(), std::move(profiles));
  shape->train_s = watch.elapsed_seconds();
  return shape;
}

}  // namespace

PaperSetup set_up_paper(std::size_t repetitions) {
  PaperSetup setup;
  for (std::size_t r = 0; r < repetitions; ++r) {
    setup.shape.reset();  // one shape resident at a time
    util::Stopwatch watch;
    setup.shape = build_shape();
    setup.setup_s.push_back(watch.elapsed_seconds());
    setup.train_s.push_back(setup.shape->train_s);
  }
  return setup;
}

std::span<const log::WebTransaction> seeded_slice(const PaperShape& shape,
                                                  std::uint64_t seed) {
  const std::span<const log::WebTransaction> all{shape.trace.transactions};
  const std::size_t length = std::min(kSliceTransactions, all.size());
  const std::size_t offset = mix64(seed, 0x736c696365) % (all.size() - length + 1);
  return all.subspan(offset, length);
}

serve::EngineConfig paper_engine_config() {
  serve::EngineConfig config;
  config.shards = 1;
  config.smooth = 3;
  config.score_threads = 0;
  return config;
}

double ReplayTiming::chunk_median_rate() const {
  std::size_t chunks = chunk_s.front().size();
  for (const auto& pass : chunk_s) chunks = std::min(chunks, pass.size());
  double total_s = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<double> times;
    for (const auto& pass : chunk_s) times.push_back(pass[c]);
    total_s += median_of(std::move(times));
  }
  return static_cast<double>(chunks * kChunkTransactions) / total_s;
}

ReplayPass replay_through_engine(const core::ProfileStore& store,
                                 std::span<const log::WebTransaction> txns,
                                 ReplayTiming* timing) {
  ReplayPass pass;
  bool emitted = false;
  serve::ScoringEngine engine{store, paper_engine_config(),
                              [&](const serve::DecisionEvent& event) {
                                pass.digest.add(event);
                                emitted = true;
                              }};
  const std::size_t pass_index = timing != nullptr ? timing->chunk_s.size() : 0;
  if (timing != nullptr) timing->chunk_s.emplace_back();
  const std::int64_t start = now_ns();
  std::int64_t chunk_start = start;
  for (std::size_t i = 0; i < txns.size(); ++i) {
    const std::int64_t before = now_ns();
    engine.ingest(txns[i]);
    if (timing == nullptr) continue;
    const std::int64_t after = now_ns();
    if (emitted) {
      timing->window_latency_us.add(pass_index,
                                    static_cast<double>(after - before) / 1e3);
      emitted = false;
    }
    if ((i + 1) % kChunkTransactions == 0) {
      timing->chunk_s.back().push_back(
          static_cast<double>(after - chunk_start) / 1e9);
      chunk_start = after;
    }
  }
  engine.flush();
  pass.seconds = static_cast<double>(now_ns() - start) / 1e9;
  pass.transactions = txns.size();
  return pass;
}

double encode_probe_us(const core::ProfileStore& store,
                       std::span<const log::WebTransaction> txns,
                       const std::string& label, Report& report) {
  const features::TransactionEncoder encoder{store.schema()};
  std::size_t nonzeros = 0;
  const std::int64_t begin = now_ns();
  for (const auto& txn : txns) nonzeros += encoder.encode(txn).nnz();
  const double us = static_cast<double>(now_ns() - begin) / 1e3 /
                    static_cast<double>(txns.size());
  report.gate(label + ".encode_probe", nonzeros > 0,
              std::to_string(nonzeros) + " encoded nonzeros");
  return us;
}

}  // namespace wtp::perfbench
