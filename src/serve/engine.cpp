#include "serve/engine.h"

#include <algorithm>
#include <istream>
#include <latch>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"
#include "serve/retrain/collector.h"
#include "util/stopwatch.h"

namespace wtp::serve {

namespace {

constexpr double kNanosPerMicro = 1e3;

/// Runs `range(begin, end)` over [0, count): inline without a pool or with
/// fewer than two items, else as one chunk per pool thread.  The per-call
/// latch, unlike parallel_for's wait_idle(), stays correct when several
/// ingest threads score concurrently on the shared pool.
template <typename Range>
void fan_out(util::ThreadPool* pool, std::size_t count, const Range& range) {
  if (pool == nullptr || count < 2) {
    range(std::size_t{0}, count);
    return;
  }
  const std::size_t chunk_count = std::min(count, pool->thread_count());
  const std::size_t chunk = (count + chunk_count - 1) / chunk_count;
  const std::size_t tasks = (count + chunk - 1) / chunk;
  std::latch done{static_cast<std::ptrdiff_t>(tasks)};
  for (std::size_t t = 0; t < tasks; ++t) {
    const std::size_t begin = t * chunk;
    const std::size_t end = std::min(count, begin + chunk);
    pool->submit([&range, &done, begin, end] {
      range(begin, end);
      done.count_down();
    });
  }
  done.wait();
}

}  // namespace

ScoringEngine::Metrics::Metrics(obs::Registry& registry)
    : transactions{registry.counter("serve.transactions_ingested")},
      windows{registry.counter("serve.windows_scored")},
      decisions{registry.counter("serve.decisions_emitted")},
      correct{registry.counter("serve.correct_decisions")},
      created{registry.counter("serve.sessions_created")},
      evicted{registry.counter("serve.sessions_evicted")},
      profile_swaps{registry.counter("serve.profile_swaps")},
      sessions_active{registry.gauge("serve.sessions_active")},
      ingest_ns{registry.timer("serve.ingest")},
      score_ns{registry.timer("serve.score")} {}

ScoringEngine::ScoringEngine(const core::ProfileStore& store,
                             EngineConfig config, EventSink sink)
    : store_{&store},
      config_{config},
      sink_{std::move(sink)},
      owned_registry_{config.registry == nullptr
                          ? std::make_unique<obs::Registry>()
                          : nullptr},
      metrics_{config.registry != nullptr ? *config.registry
                                          : *owned_registry_} {
  if (config_.shards == 0) {
    throw std::invalid_argument{"ScoringEngine: shards must be >= 1"};
  }
  if (store.profiles().empty()) {
    throw std::invalid_argument{"ScoringEngine: profile store is empty"};
  }
  if (!sink_) {
    throw std::invalid_argument{"ScoringEngine: null event sink"};
  }
  if (config_.max_sessions > 0) {
    per_shard_capacity_ =
        (config_.max_sessions + config_.shards - 1) / config_.shards;
  }
  if (config_.score_threads > 0) {
    pool_ = std::make_unique<util::ThreadPool>(config_.score_threads);
  }
  if (config_.plane != nullptr) {
    const auto& catalog = config_.plane->catalog();
    const auto& profiles = store.profiles();
    if (catalog.size() != profiles.size()) {
      throw std::invalid_argument{
          "ScoringEngine: identification plane covers " +
          std::to_string(catalog.size()) + " users, store has " +
          std::to_string(profiles.size())};
    }
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      if (catalog.user_id(i) != profiles[i].user_id()) {
        throw std::invalid_argument{
            "ScoringEngine: identification plane user order diverges from "
            "the store at index " +
            std::to_string(i)};
      }
    }
  }
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Non-owning alias: until the first publish_profile the engine scores
  // against the store's own vector with zero copies.
  profiles_.store(std::shared_ptr<const ProfileVector>{
                      std::shared_ptr<const ProfileVector>{}, &store.profiles()},
                  std::memory_order_release);
}

bool ScoringEngine::publish_profile(const std::string& user_id,
                                    core::UserProfile profile) {
  if (config_.plane != nullptr) {
    throw std::logic_error{
        "ScoringEngine::publish_profile: a cascade plane indexes the "
        "construction-time profiles; hot swaps are not supported"};
  }
  // Same schema layout as the construction store's profiles (see
  // ProfileStore), so the swapped-in profile shares the window encoding.
  profile.set_bitset_layout(store_->schema().numeric_columns());
  const std::lock_guard lock{publish_mutex_};
  const auto current = profiles_.load(std::memory_order_acquire);
  auto next = std::make_shared<ProfileVector>(*current);
  bool found = false;
  for (auto& slot : *next) {
    if (slot.user_id() == user_id) {
      slot = std::move(profile);
      found = true;
      break;
    }
  }
  if (!found) return false;
  profiles_.store(std::shared_ptr<const ProfileVector>{std::move(next)},
                  std::memory_order_release);
  metrics_.profile_swaps.add(1);
  return true;
}

ScoringEngine::Shard& ScoringEngine::shard_for(const std::string& device_id) {
  return *shards_[std::hash<std::string>{}(device_id) % shards_.size()];
}

void ScoringEngine::accept_flags(const util::SparseVector& features,
                                 std::vector<char>& flags,
                                 const ProfileVector& profiles,
                                 index::IdentificationResult* cascade_out) const {
  flags.assign(profiles.size(), 0);
  if (config_.plane != nullptr) {
    // Candidate-pruning cascade: only survivors reach kernel_row; accepted
    // survivors arrive as ascending catalog indices (= store order).
    index::IdentificationResult result = config_.plane->identify(features);
    for (const std::uint32_t i : result.accepted) flags[i] = 1;
    if (cascade_out != nullptr) *cascade_out = std::move(result);
    return;
  }
  // One query norm per scored window and one bitset encoding per chunk,
  // shared across the chunk's kernel rows: all SV blocks carry the schema
  // layout (ProfileStore, publish_profile), so the cache encodes once.
  const double sqnorm = features.squared_norm();
  fan_out(pool_.get(), profiles.size(),
          [&profiles, &features, &flags, sqnorm](std::size_t begin,
                                                  std::size_t end) {
            svm::EncodedQueryCache query_cache{features};
            for (std::size_t i = begin; i < end; ++i) {
              flags[i] =
                  profiles[i].accepts(features, sqnorm, &query_cache) ? 1 : 0;
            }
          });
}

void ScoringEngine::observe_decision(
    const DecisionTrace& trace, const DecisionEvent& event,
    std::int64_t score_ns, const index::IdentificationResult* cascade) const {
  if (trace.flow != 0) {
    auto& recorder = obs::TraceRecorder::global();
    const std::int64_t score_start = recorder.now_ns() - score_ns;
    obs::TraceRecorder::Event span;
    span.name = "decision.score";
    span.category = "decision";
    span.start_ns = score_start;
    span.duration_ns = score_ns;
    span.flow = trace.flow;
    recorder.record(span);
    if (cascade != nullptr) {
      static constexpr const char* kStageNames[4] = {
          "decision.cascade.overlap", "decision.cascade.centroid",
          "decision.cascade.gaussian", "decision.cascade.svm"};
      std::int64_t cursor = score_start;
      for (int stage = 0; stage < 4; ++stage) {
        obs::TraceRecorder::Event sub;
        sub.name = kStageNames[stage];
        sub.category = "decision";
        sub.start_ns = cursor;
        sub.duration_ns = cascade->stage_ns[stage];
        sub.flow = trace.flow;
        recorder.record(sub);
        cursor += cascade->stage_ns[stage];
      }
    }
  }
  if (config_.slow_log != nullptr) {
    const std::int64_t total =
        trace.decode_ns + trace.queue_ns + trace.ingest_ns + score_ns;
    if (config_.slow_log->eligible(total)) {
      obs::SlowLog::Record record;
      record.device = event.device_id;
      record.window_start = event.window_start;
      record.window_end = event.window_end;
      record.trace_id = trace.id;
      record.total_ns = total;
      record.stages.decode_ns = trace.decode_ns;
      record.stages.queue_ns = trace.queue_ns;
      record.stages.ingest_ns = trace.ingest_ns;
      record.stages.score_ns = score_ns;
      if (cascade != nullptr) {
        record.stages.overlap_ns = cascade->stage_ns[0];
        record.stages.centroid_ns = cascade->stage_ns[1];
        record.stages.gaussian_ns = cascade->stage_ns[2];
        record.stages.svm_ns = cascade->stage_ns[3];
      }
      record.identity = event.identity;
      config_.slow_log->record(std::move(record));
    }
  }
}

void ScoringEngine::emit_decision(DeviceSession& session,
                                  const PendingWindow& pending,
                                  std::span<const char> flags,
                                  const ProfileVector& profiles,
                                  EventSource source, const DecisionTrace* trace,
                                  const util::Stopwatch* stopwatch,
                                  double score_ns,
                                  const index::IdentificationResult* cascade) {
  core::IdentificationEvent event;
  event.window_start = pending.window.start;
  event.window_end = pending.window.end;
  event.transaction_count = pending.window.transaction_count;
  event.true_user = pending.true_user;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (flags[i]) event.accepted_by.push_back(profiles[i].user_id());
  }
  if (config_.collector != nullptr && !event.true_user.empty()) {
    config_.collector->observe(event.true_user, pending.window.features,
                               event.accepted(event.true_user));
  }

  DecisionEvent out;
  out.device_id = session.device_id();
  out.window_start = event.window_start;
  out.window_end = event.window_end;
  out.transaction_count = event.transaction_count;
  out.true_user = event.true_user;
  out.identity = session.decide(event);
  out.accepted_by = std::move(event.accepted_by);
  out.source = source;
  if (trace != nullptr) {
    out.trace_id = trace->id;
    out.trace_flow = trace->flow;
  }

  metrics_.windows.add(1);
  if (out.decided()) {
    metrics_.decisions.add(1);
    if (out.correct()) metrics_.correct.add(1);
  }
  if (stopwatch != nullptr) {
    score_ns = stopwatch->elapsed_micros() * kNanosPerMicro;
  }
  metrics_.score_ns.record_ns(score_ns);
  if (trace != nullptr) {
    observe_decision(*trace, out, static_cast<std::int64_t>(score_ns), cascade);
  }
  sink_(out);
}

void ScoringEngine::score_and_emit(DeviceSession& session,
                                   const PendingWindow& pending,
                                   EventSource source,
                                   const ProfileVector& profiles,
                                   const DecisionTrace* trace) {
  const obs::TraceSpan span{
      "serve.score", "serve",
      static_cast<std::uint64_t>(pending.window.transaction_count)};
  const util::Stopwatch stopwatch;
  std::vector<char> flags;
  index::IdentificationResult cascade;
  const bool want_cascade = trace != nullptr && config_.plane != nullptr;
  accept_flags(pending.window.features, flags, profiles,
               want_cascade ? &cascade : nullptr);
  emit_decision(session, pending, flags, profiles, source, trace, &stopwatch,
                0.0, want_cascade ? &cascade : nullptr);
}

void ScoringEngine::score_and_emit_batch(DeviceSession& session,
                                         std::span<const PendingWindow> pending,
                                         EventSource source,
                                         const ProfileVector& profiles,
                                         const DecisionTrace* trace) {
  if (pending.empty()) return;
  // The cascade plane prunes per window (its stages are query-local), and a
  // single window gains nothing from the block path.
  if (pending.size() == 1 || config_.plane != nullptr) {
    for (const auto& p : pending) {
      score_and_emit(session, p, source, profiles, trace);
    }
    return;
  }
  const obs::TraceSpan span{"serve.score", "serve",
                            static_cast<std::uint64_t>(pending.size())};
  const util::Stopwatch stopwatch;
  const std::size_t w = pending.size();

  // One window-block matrix for the whole burst: each profile then scores
  // it with a single batched decision_values sweep (kernel_block), instead
  // of w independent kernel rows.  Decisions are bit-identical to the
  // per-window path, so smoothing and event contents cannot diverge.
  std::vector<util::SparseVector> rows;
  rows.reserve(w);
  for (const auto& p : pending) rows.push_back(p.window.features);
  util::FeatureMatrix windows =
      util::FeatureMatrix::from_rows(rows, store_->schema().dimension());
  windows.ensure_bitset(store_->schema().numeric_columns());

  std::vector<double> decisions(profiles.size() * w);
  fan_out(pool_.get(), profiles.size(),
          [&profiles, &windows, &decisions, w](std::size_t begin,
                                               std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              profiles[i].decision_values(
                  windows, std::span{decisions}.subspan(i * w, w));
            }
          });

  // Emit in window order — the session's K-consecutive smoothing is
  // order-dependent.
  const double per_window_ns =
      stopwatch.elapsed_micros() * kNanosPerMicro / static_cast<double>(w);
  std::vector<char> flags(profiles.size());
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      flags[i] = decisions[i * w + t] >= 0.0 ? 1 : 0;
    }
    emit_decision(session, pending[t], flags, profiles, source, trace, nullptr,
                  per_window_ns, nullptr);
  }
}

void ScoringEngine::evict(Shard& shard, const std::string& device_id,
                          const ProfileVector& profiles) {
  const auto it = shard.sessions.find(device_id);
  if (it == shard.sessions.end()) return;
  score_and_emit_batch(it->second.session, it->second.session.flush(),
                       EventSource::kEviction, profiles);
  shard.lru.erase(it->second.lru_position);
  shard.sessions.erase(it);
  metrics_.evicted.add(1);
  metrics_.sessions_active.add(-1.0);
}

void ScoringEngine::evict_expired(Shard& shard, util::UnixSeconds now,
                                  const ProfileVector& profiles) {
  if (config_.session_ttl_s <= 0) return;
  while (!shard.lru.empty()) {
    const std::string& oldest = shard.lru.front();
    const Entry& entry = shard.sessions.at(oldest);
    if (entry.session.last_seen() + config_.session_ttl_s >= now) break;
    evict(shard, oldest, profiles);
  }
}

void ScoringEngine::enforce_capacity(Shard& shard,
                                     const ProfileVector& profiles) {
  if (per_shard_capacity_ == 0) return;
  while (shard.sessions.size() > per_shard_capacity_) {
    evict(shard, shard.lru.front(), profiles);
  }
}

void ScoringEngine::ingest(const log::WebTransaction& txn) {
  ingest_impl(txn, nullptr);
}

void ScoringEngine::ingest(const log::WebTransaction& txn,
                           const DecisionTrace& trace) {
  ingest_impl(txn, &trace);
}

void ScoringEngine::ingest_impl(const log::WebTransaction& txn,
                                const DecisionTrace* trace) {
  const obs::TraceSpan span{"serve.ingest", "serve"};
  // One profile snapshot per call: every window this arrival completes is
  // scored against a consistent profile set even if a retrain publishes
  // mid-call.
  const auto profiles = profiles_snapshot();
  Shard& shard = shard_for(txn.device_id);
  const std::lock_guard lock{shard.mutex};

  const util::Stopwatch stopwatch;
  auto it = shard.sessions.find(txn.device_id);
  if (it == shard.sessions.end()) {
    Entry entry{DeviceSession{txn.device_id, store_->schema(), store_->window(),
                              config_.smooth},
                shard.lru.end()};
    it = shard.sessions.emplace(txn.device_id, std::move(entry)).first;
    it->second.lru_position =
        shard.lru.insert(shard.lru.end(), txn.device_id);
    metrics_.created.add(1);
    metrics_.sessions_active.add(1.0);
  } else {
    // Touch: most recently active moves to the back.
    shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_position);
  }
  const auto completed = it->second.session.push(txn);
  metrics_.transactions.add(1);
  const double ingest_ns = stopwatch.elapsed_micros() * kNanosPerMicro;
  metrics_.ingest_ns.record_ns(ingest_ns);

  DecisionTrace local;
  if (trace != nullptr) {
    local = *trace;
    local.ingest_ns = static_cast<std::int64_t>(ingest_ns);
    if (local.flow != 0) {
      auto& recorder = obs::TraceRecorder::global();
      obs::TraceRecorder::Event event;
      event.name = "decision.ingest";
      event.category = "decision";
      event.start_ns = recorder.now_ns() - local.ingest_ns;
      event.duration_ns = local.ingest_ns;
      event.flow = local.flow;
      recorder.record(event);
    }
  }

  score_and_emit_batch(it->second.session, completed, EventSource::kStream,
                       *profiles, trace != nullptr ? &local : nullptr);
  evict_expired(shard, txn.timestamp, *profiles);
  enforce_capacity(shard, *profiles);
}

void ScoringEngine::flush() {
  const auto profiles = profiles_snapshot();
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    const std::lock_guard lock{shard.mutex};
    std::vector<std::string> devices;
    devices.reserve(shard.sessions.size());
    for (const auto& [device, entry] : shard.sessions) devices.push_back(device);
    std::sort(devices.begin(), devices.end());
    for (const auto& device : devices) {
      Entry& entry = shard.sessions.at(device);
      score_and_emit_batch(entry.session, entry.session.flush(),
                           EventSource::kFlush, *profiles);
    }
    metrics_.sessions_active.add(
        -static_cast<double>(shard.sessions.size()));
    shard.sessions.clear();
    shard.lru.clear();
  }
}

void ScoringEngine::save_snapshot(std::ostream& out) const {
  // Body first: the header needs the total session count, and gathering the
  // blocks into one buffer keeps each shard lock short.
  std::ostringstream body;
  std::size_t count = 0;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    const std::lock_guard lock{shard.mutex};
    for (const auto& device : shard.lru) {
      shard.sessions.at(device).session.save(body);
      ++count;
    }
  }
  out << "wtp_engine_snapshot v1\n";
  out << "window " << store_->window().duration_s << ' '
      << store_->window().shift_s << '\n';
  out << "dimension " << store_->schema().dimension() << '\n';
  out << "smooth " << config_.smooth << '\n';
  out << "sessions " << count << '\n';
  out << body.str();
  out << "end\n";
}

void ScoringEngine::restore_snapshot(std::istream& in) {
  const auto fail = [](const std::string& what) -> std::runtime_error {
    return std::runtime_error{"ScoringEngine::restore_snapshot: " + what};
  };
  std::string magic;
  std::string version;
  if (!(in >> magic >> version) || magic != "wtp_engine_snapshot" ||
      version != "v1") {
    throw fail("bad magic");
  }
  std::string tag;
  util::UnixSeconds duration = 0;
  util::UnixSeconds shift = 0;
  if (!(in >> tag >> duration >> shift) || tag != "window") {
    throw fail("bad window line");
  }
  if (duration != store_->window().duration_s ||
      shift != store_->window().shift_s) {
    throw fail("window geometry mismatch");
  }
  std::size_t dimension = 0;
  if (!(in >> tag >> dimension) || tag != "dimension") {
    throw fail("bad dimension line");
  }
  if (dimension != store_->schema().dimension()) {
    throw fail("schema dimension mismatch");
  }
  std::size_t smooth = 0;
  if (!(in >> tag >> smooth) || tag != "smooth") throw fail("bad smooth line");
  if (smooth != config_.smooth) throw fail("smoothing K mismatch");
  std::size_t count = 0;
  if (!(in >> tag >> count) || tag != "sessions") {
    throw fail("bad sessions line");
  }

  // Parse every session before touching resident state, so a malformed
  // snapshot cannot leave the engine half-restored.
  std::vector<DeviceSession> restored;
  restored.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    restored.push_back(DeviceSession::restore(in, store_->schema(),
                                              store_->window(), config_.smooth));
  }
  if (!(in >> tag) || tag != "end") throw fail("bad trailer");

  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    const std::lock_guard lock{shard.mutex};
    metrics_.sessions_active.add(-static_cast<double>(shard.sessions.size()));
    shard.sessions.clear();
    shard.lru.clear();
  }
  // File order is shard-by-shard LRU order, so appending preserves each
  // device's recency rank (save -> restore -> save is byte-stable when the
  // shard count matches; with a different count devices re-shard but keep
  // their relative order).
  for (auto& session : restored) {
    const std::string device = session.device_id();
    Shard& shard = shard_for(device);
    const std::lock_guard lock{shard.mutex};
    Entry entry{std::move(session), shard.lru.end()};
    const auto [it, inserted] =
        shard.sessions.emplace(device, std::move(entry));
    if (!inserted) throw fail("duplicate device in snapshot: " + device);
    it->second.lru_position = shard.lru.insert(shard.lru.end(), device);
    metrics_.sessions_active.add(1.0);
  }
}

EngineMetrics ScoringEngine::metrics() const {
  EngineMetrics metrics;
  metrics.transactions_ingested = metrics_.transactions.value();
  metrics.windows_scored = metrics_.windows.value();
  metrics.decisions_emitted = metrics_.decisions.value();
  metrics.correct_decisions = metrics_.correct.value();
  metrics.sessions_created = metrics_.created.value();
  metrics.sessions_evicted = metrics_.evicted.value();
  metrics.profile_swaps = metrics_.profile_swaps.value();
  // Resident count from the shard tables themselves, not the gauge: exact
  // under concurrent ingest (the gauge is for exported snapshots).
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    const std::lock_guard lock{shard.mutex};
    metrics.sessions_active += shard.sessions.size();
  }
  metrics.ingest = LatencySummary::from(metrics_.ingest_ns.collect());
  metrics.score = LatencySummary::from(metrics_.score_ns.collect());
  return metrics;
}

}  // namespace wtp::serve
