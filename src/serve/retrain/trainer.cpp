#include "serve/retrain/trainer.h"

#include <exception>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "svm/one_class_svm.h"
#include "svm/svdd.h"
#include "util/feature_matrix.h"
#include "util/stopwatch.h"

namespace wtp::serve::retrain {

namespace {

constexpr double kNanosPerMicro = 1e3;

}  // namespace

RetrainLoop::RetrainLoop(ScoringEngine& engine, WindowCollector& collector,
                         TrainerConfig config, obs::Registry* registry)
    : engine_{&engine},
      collector_{&collector},
      config_{config},
      enabled_{config.enabled} {
  if (registry != nullptr) {
    completed_ = &registry->counter("retrain.completed");
    suppressed_ = &registry->counter("retrain.suppressed");
    failed_ = &registry->counter("retrain.failed");
    fit_ns_ = &registry->timer("retrain.fit");
    swap_ns_ = &registry->timer("retrain.swap");
  }
}

RetrainLoop::~RetrainLoop() { stop(); }

void RetrainLoop::start() {
  const std::lock_guard lock{thread_mutex_};
  if (running_) return;
  stopping_ = false;
  running_ = true;
  thread_ = std::thread{[this] { thread_main(); }};
}

void RetrainLoop::stop() {
  {
    const std::lock_guard lock{thread_mutex_};
    if (!running_) return;
    stopping_ = true;
  }
  wake_cv_.notify_all();
  thread_.join();
  const std::lock_guard lock{thread_mutex_};
  running_ = false;
}

void RetrainLoop::thread_main() {
  const auto interval = std::chrono::duration<double>{config_.poll_interval_s};
  std::unique_lock lock{thread_mutex_};
  while (!stopping_) {
    lock.unlock();
    run_once();
    lock.lock();
    wake_cv_.wait_for(lock, interval, [this] { return stopping_; });
  }
}

core::UserProfile RetrainLoop::refit(const core::UserProfile& current,
                                     std::span<const util::SparseVector> windows,
                                     const features::FeatureSchema& schema) {
  if (windows.empty()) {
    throw std::invalid_argument{"RetrainLoop::refit: empty window buffer"};
  }
  const std::size_t dimension = schema.dimension();
  util::FeatureMatrix data = util::FeatureMatrix::from_rows(windows, dimension);
  // Schema layout, as the offline training matrices: the fitted SV block
  // inherits it, so the swapped-in profile shares the serving layout.
  data.ensure_bitset(schema.numeric_columns());
  const core::ProfileParams& params = current.params();
  const double regularizer = params.regularizer;
  // Single-cell fit_path instead of plain train(): identical result, but it
  // exercises the exact solver plane the offline training tools use, which
  // is what the determinism tests pin the swap against.
  if (params.type == core::ClassifierType::kOcSvm) {
    svm::OneClassSvmConfig config;
    config.kernel = params.kernel;
    auto models = svm::OneClassSvmModel::fit_path(
        data, config, std::span{&regularizer, 1}, dimension);
    return core::UserProfile::from_model(
        current.user_id(), params, svm::AnySvmModel{std::move(models.front())});
  }
  svm::SvddConfig config;
  config.kernel = params.kernel;
  auto models = svm::SvddModel::fit_path(data, config,
                                         std::span{&regularizer, 1}, dimension);
  return core::UserProfile::from_model(
      current.user_id(), params, svm::AnySvmModel{std::move(models.front())});
}

std::size_t RetrainLoop::run_once() {
  if (!enabled()) return 0;
  const std::chrono::duration<double> min_interval{
      config_.min_retrain_interval_s};
  std::size_t swapped = 0;
  for (const auto& user : collector_->drifted_users()) {
    if (swapped >= config_.max_retrains_per_cycle) {
      if (suppressed_ != nullptr) suppressed_->add(1);
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    const auto last = last_retrain_.find(user);
    if (last != last_retrain_.end() && now - last->second < min_interval) {
      if (suppressed_ != nullptr) suppressed_->add(1);
      continue;
    }
    try {
      // One span per attempted hot swap: refit + self-acceptance re-baseline
      // + RCU publish, visible next to the decision.* spans in a capture.
      const obs::TraceSpan swap_span{"retrain.swap", "retrain"};
      const util::Stopwatch swap_watch;
      const auto windows = collector_->window_snapshot(user);
      const auto profiles = engine_->profiles_snapshot();
      const core::UserProfile* current = nullptr;
      for (const auto& profile : *profiles) {
        if (profile.user_id() == user) {
          current = &profile;
          break;
        }
      }
      if (current == nullptr) continue;

      const util::Stopwatch stopwatch;
      core::UserProfile fresh =
          refit(*current, windows, engine_->store().schema());
      if (fit_ns_ != nullptr) {
        fit_ns_->record_ns(stopwatch.elapsed_micros() * kNanosPerMicro);
      }

      // Re-baseline the drift monitor to the fresh profile's acceptance on
      // its own training corpus (its realistic self-acceptance level).
      std::size_t accepted = 0;
      for (const auto& window : windows) {
        if (fresh.accepts(window)) ++accepted;
      }
      const double rate =
          static_cast<double>(accepted) / static_cast<double>(windows.size());

      if (!engine_->publish_profile(user, std::move(fresh))) continue;
      collector_->rearm(user, rate);
      last_retrain_[user] = now;
      ++swapped;
      if (completed_ != nullptr) completed_->add(1);
      if (swap_ns_ != nullptr) {
        swap_ns_->record_ns(swap_watch.elapsed_micros() * kNanosPerMicro);
      }
    } catch (const std::exception&) {
      if (failed_ != nullptr) failed_->add(1);
    }
  }
  return swapped;
}

}  // namespace wtp::serve::retrain
