// replay_paper: the paper shape driven in-process as a closed loop through
// one ScoringEngine (1 shard, serial score, K = 3) from one thread.
// Scoring is ~90% of the time and ingest ~10%, with no wire and no index,
// so kernel and scoring changes show here at full weight.
//
// The traced run replays the same stream through the layers' public calls
// (DeviceSession::push, svm::dot_rows + svm::kernel_transform per profile,
// DeviceSession::decide) with a span around each, and must reach the
// engine's decisions exactly.
#include <algorithm>
#include <string>
#include <unordered_map>
#include <variant>

#include "common.h"
#include "paper.h"
#include "serve/session.h"
#include "svm/kernel.h"
#include "svm/one_class_svm.h"

namespace wtp::perfbench {

namespace {

constexpr std::size_t kSetupRepetitions = 3;
constexpr std::size_t kWarmupTransactions = 20000;
constexpr std::size_t kMinPasses = 3;

struct LayerStats {
  SpanStat ingest;
  SpanStat session_push;
  SpanStat score_window;
  SpanStat dot;
  SpanStat transform;
  SpanStat decide;
  double scored_in_ingest_ns = 0.0;  ///< score + decide inside ingest spans
  std::uint64_t windows = 0;
  std::uint64_t accept_none = 0;
  std::uint64_t accept_one = 0;
  std::uint64_t accept_many = 0;
};

/// The engine's ingest pipeline rebuilt from public layer calls, one span
/// per call.  Sessions, profile order, scoring arithmetic and decision
/// policy match ScoringEngine, so the digest must equal the engine's.
class DecomposedReplay {
 public:
  DecomposedReplay(const core::ProfileStore& store, LayerStats& stats)
      : store_{store}, stats_{stats} {}

  ReplayPass run(std::span<const log::WebTransaction> txns) {
    const std::int64_t start = now_ns();
    for (const auto& txn : txns) {
      const std::int64_t begin = now_ns();
      auto it = sessions_.find(txn.device_id);
      if (it == sessions_.end()) {
        it = sessions_
                 .emplace(txn.device_id,
                          serve::DeviceSession{
                              txn.device_id, store_.schema(), store_.window(),
                              paper_engine_config().smooth})
                 .first;
      }
      const std::int64_t push_begin = now_ns();
      const auto pending = it->second.push(txn);
      stats_.session_push.add(now_ns() - push_begin);
      for (const auto& window : pending) {
        score(it->second, window, serve::EventSource::kStream);
      }
      stats_.ingest.add(now_ns() - begin);
    }
    std::vector<std::string> devices;
    for (const auto& [device, session] : sessions_) devices.push_back(device);
    std::sort(devices.begin(), devices.end());
    for (const auto& device : devices) {
      auto& session = sessions_.at(device);
      for (const auto& window : session.flush()) {
        score(session, window, serve::EventSource::kFlush);
      }
    }
    pass_.seconds = static_cast<double>(now_ns() - start) / 1e9;
    pass_.transactions = txns.size();
    return std::move(pass_);
  }

 private:
  void score(serve::DeviceSession& session, const serve::PendingWindow& pending,
             serve::EventSource source) {
    const std::int64_t begin = now_ns();
    core::IdentificationEvent event;
    event.window_start = pending.window.start;
    event.window_end = pending.window.end;
    event.transaction_count = pending.window.transaction_count;
    event.true_user = pending.true_user;
    const util::SparseVector& x = pending.window.features;
    const double sqnorm = x.squared_norm();
    for (const auto& profile : store_.profiles()) {
      const auto& model = std::get<svm::OneClassSvmModel>(profile.model());
      const util::FeatureMatrix& vectors = model.support_vectors();
      kernel_.resize(vectors.rows());
      const std::int64_t dot_begin = now_ns();
      svm::dot_rows(vectors, x, kernel_);
      const std::int64_t transform_begin = now_ns();
      svm::kernel_transform(model.kernel(), vectors, sqnorm, kernel_);
      stats_.transform.add(now_ns() - transform_begin);
      stats_.dot.add(transform_begin - dot_begin);
      double sum = 0.0;
      for (std::size_t i = 0; i < kernel_.size(); ++i) {
        sum += model.coefficients()[i] * kernel_[i];
      }
      if (sum - model.rho() >= 0.0) event.accepted_by.push_back(profile.user_id());
    }
    const std::int64_t decide_begin = now_ns();
    stats_.score_window.add(decide_begin - begin);

    serve::DecisionEvent out;
    out.identity = session.decide(event);
    const std::int64_t decide_end = now_ns();
    stats_.decide.add(decide_end - decide_begin);
    if (source == serve::EventSource::kStream) {
      stats_.scored_in_ingest_ns += static_cast<double>(decide_end - begin);
    }
    out.device_id = session.device_id();
    out.window_start = event.window_start;
    out.window_end = event.window_end;
    out.transaction_count = event.transaction_count;
    out.true_user = event.true_user;
    out.source = source;
    const std::size_t accepted = event.accepted_by.size();
    out.accepted_by = std::move(event.accepted_by);
    ++stats_.windows;
    ++(accepted == 0 ? stats_.accept_none
                     : accepted == 1 ? stats_.accept_one : stats_.accept_many);
    pass_.digest.add(out);
  }

  const core::ProfileStore& store_;
  LayerStats& stats_;
  std::unordered_map<std::string, serve::DeviceSession> sessions_;
  std::vector<double> kernel_;
  ReplayPass pass_;
};

void warm_up(const core::ProfileStore& store,
             std::span<const log::WebTransaction> txns) {
  const std::size_t n = std::min(kWarmupTransactions, txns.size());
  (void)replay_through_engine(store, txns.first(n), nullptr);
}

void report_untraced(const RunOptions& options, Report& report) {
  PaperSetup setup = set_up_paper(kSetupRepetitions);
  const auto txns = seeded_slice(*setup.shape, options.seed);
  const core::ProfileStore& store = *setup.shape->store;
  warm_up(store, txns);

  ReplayTiming timing;
  std::vector<ReplayPass> passes;
  const std::int64_t start = now_ns();
  do {
    passes.push_back(replay_through_engine(store, txns, &timing));
  } while (passes.size() < kMinPasses ||
           static_cast<double>(now_ns() - start) / 1e9 < options.seconds);

  const ReplayPass& first = passes.front();
  std::uint64_t agreeing = 0;
  for (const auto& pass : passes) {
    report.attempted += pass.transactions;
    if (pass.digest.differing_devices(first.digest).empty()) {
      ++agreeing;
    } else {
      report.failed += pass.transactions;
    }
  }
  report.gate("replay.passes_agree", agreeing == passes.size(),
              std::to_string(agreeing) + "/" + std::to_string(passes.size()) +
                  " passes reach the first pass's per-device decisions");
  report.gate("replay.decides", first.digest.decided() > 0,
              std::to_string(first.digest.decided()) + " decided, " +
                  std::to_string(first.digest.correct()) + " correct of " +
                  std::to_string(first.digest.lines()) + " windows");

  report.median_metric("setup_s", setup.setup_s, "s");
  const double rate = timing.chunk_median_rate();
  report.metric("throughput_per_s", rate, "1/s").note =
      "transactions per second; each 8192-transaction chunk timed at its "
      "median over " + std::to_string(passes.size()) + " passes";
  report.alias("txns_per_s", rate, "1/s", "= throughput_per_s");
  const SlicedSamples& latency = timing.window_latency_us;
  auto& p50 = report.median_metric("decision_p50_us", latency.per_slice(0.50), "us");
  p50.samples = latency.size();
  p50.note = "ingest calls that complete a window; median of per-pass values";
  auto& p99 = report.median_metric("decision_p99_us", latency.per_slice(0.99), "us");
  p99.samples = latency.size();
  p99.note = p50.note;
  report.metric("decided_correct_share",
                static_cast<double>(first.digest.correct()) /
                    static_cast<double>(first.digest.decided()),
                "share");
  report.metric("reference_agreement",
                static_cast<double>(agreeing) /
                    static_cast<double>(passes.size()),
                "share")
      .note = "passes whose decisions equal the first pass's";
  report.metric("delivered_share",
                1.0 - static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted),
                "share");
  report.alias("failed_share",
               static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted),
               "share", "= 1 - delivered_share");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_traced(const RunOptions& options, Report& report) {
  PaperSetup setup = set_up_paper(1);
  const auto txns = seeded_slice(*setup.shape, options.seed);
  const core::ProfileStore& store = *setup.shape->store;
  warm_up(store, txns);

  const ReplayPass untraced = replay_through_engine(store, txns, nullptr);
  LayerStats stats;
  const ReplayPass traced = DecomposedReplay{store, stats}.run(txns);
  const auto differing = traced.digest.differing_devices(untraced.digest);
  report.attempted = traced.transactions;
  report.failed = differing.empty() ? 0 : traced.transactions;
  report.gate("replay.traced_equals_engine", differing.empty(),
              std::to_string(differing.size()) +
                  " devices differ between the traced layer replay and the "
                  "engine");

  const double encode_us = encode_probe_us(store, txns, "replay", report);

  const double windows = static_cast<double>(stats.windows);
  report.metric("svm.dot_us", stats.dot.per_us(stats.windows), "us");
  report.metric("svm.transform_us", stats.transform.per_us(stats.windows), "us");
  report.metric("core.score_window_us", stats.score_window.mean_us(), "us");
  report.metric("core.accept_0", static_cast<double>(stats.accept_none) / windows,
                "share");
  report.metric("core.accept_1", static_cast<double>(stats.accept_one) / windows,
                "share");
  report.metric("core.accept_many",
                static_cast<double>(stats.accept_many) / windows, "share");
  report.metric("features.encode_us", encode_us, "us");
  report.metric("features.fold_us",
                std::max(0.0, stats.session_push.mean_us() - encode_us), "us");
  report.metric("serve.session_push_us", stats.session_push.mean_us(), "us");
  report.metric("serve.decide_us", stats.decide.mean_us(), "us");
  report.metric("serve.ingest_us", stats.ingest.mean_us(), "us");
  // Per-transaction ingest not covered by push, scoring or decide: session
  // lookup, event assembly and the digest.
  report.metric("serve.unattributed_share",
                std::max(0.0, stats.ingest.total_ns -
                                  stats.session_push.total_ns -
                                  stats.scored_in_ingest_ns) /
                    stats.ingest.total_ns,
                "share");
  const double wall_ns = traced.seconds * 1e9;
  report.metric("trace.unattributed_share",
                std::max(0.0, wall_ns - stats.session_push.total_ns -
                                  stats.score_window.total_ns -
                                  stats.decide.total_ns) /
                    wall_ns,
                "share");
  report.metric("trace.overhead_share", traced.seconds / untraced.seconds - 1.0,
                "share")
      .note = "traced layer replay vs untraced engine pass";
  report.metric("setup.train_s", setup.train_s.front(), "s");
}

}  // namespace

void run_replay_paper(const RunOptions& options, Report& report) {
  if (options.trace) {
    report_traced(options, report);
  } else {
    report_untraced(options, report);
  }
}

}  // namespace wtp::perfbench
