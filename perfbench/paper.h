// The paper-shape set-up shared by replay_paper and wire_paper: the
// bench_common enterprise trace at its default seed 42 (6 weeks, 25 kept
// users, 35 devices, ~512k transactions) with fixed-parameter RBF OC-SVM
// profiles, and the in-process engine replay both workloads check their
// decisions against.
//
// The run's --seed picks which contiguous slice of kSliceTransactions the
// workload replays.  The trace, the profiles and so the scoring cost per
// window stay those of the paper shape on every seed; regenerating the
// trace per seed would swing the trace length by +-25% and the support
// vector counts with it, drowning any code change in input variance.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/profile_store.h"
#include "serve/engine.h"
#include "synthetic/generator.h"

namespace wtp::perfbench {

inline constexpr std::uint64_t kPaperSeed = 42;
inline constexpr std::size_t kSliceTransactions = 300000;

struct PaperShape {
  synthetic::EnterpriseTrace trace;
  std::unique_ptr<core::ProfileStore> store;
  double train_s = 0.0;
};

struct PaperSetup {
  std::unique_ptr<PaperShape> shape;  ///< the last repetition's
  std::vector<double> setup_s;        ///< trace + dataset + training, each
  std::vector<double> train_s;
};

/// Builds the paper shape `repetitions` times, timing each build and
/// keeping the last.  Training fans out over three pool threads, so with
/// the waiting caller the process stays within four threads.
[[nodiscard]] PaperSetup set_up_paper(std::size_t repetitions);

/// The seed's slice: kSliceTransactions consecutive transactions (global
/// time order, so every device's stream stays in order) at a seeded offset.
[[nodiscard]] std::span<const log::WebTransaction> seeded_slice(
    const PaperShape& shape, std::uint64_t seed);

/// The serving configuration both paper workloads score with: one shard,
/// serial scoring on the ingesting thread, K = 3 smoothing.
[[nodiscard]] serve::EngineConfig paper_engine_config();

struct ReplayPass {
  double seconds = 0.0;
  std::uint64_t transactions = 0;
  DecisionDigest digest;
};

inline constexpr std::size_t kChunkTransactions = 8192;

/// Timing kept across replay passes: one latency slice per pass, and the
/// wall time of each pass's consecutive kChunkTransactions ingest calls.
struct ReplayTiming {
  SlicedSamples window_latency_us;  ///< ingest calls that complete a window
  std::vector<std::vector<double>> chunk_s;  ///< [pass][chunk]

  /// Transactions per second with each chunk timed at its median over
  /// passes: a chunk disturbed in one pass does not move the figure.
  [[nodiscard]] double chunk_median_rate() const;
};

/// One closed-loop pass of `txns` through a fresh ScoringEngine, flushed
/// at the end, adding its timings to `timing` when given.
[[nodiscard]] ReplayPass replay_through_engine(
    const core::ProfileStore& store, std::span<const log::WebTransaction> txns,
    ReplayTiming* timing);

/// Encode probe of the traced runs: TransactionEncoder alone over `txns`,
/// so the aggregator's own fold time is session push minus encode.  Gates
/// `<label>.encode_probe` on the encoder producing nonzeros and returns the
/// mean microseconds per transaction.
[[nodiscard]] double encode_probe_us(const core::ProfileStore& store,
                                     std::span<const log::WebTransaction> txns,
                                     const std::string& label, Report& report);

}  // namespace wtp::perfbench
