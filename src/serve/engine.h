// ScoringEngine: online identification over an interleaved multi-device
// transaction stream (the serving deployment of the paper's §IV-C
// continuous-monitoring scenario).
//
// Per-device session state is sharded by device-id hash; each shard has its
// own lock, so streams of distinct devices make progress concurrently.
// Every window a session completes is fanned out to all profiles in the
// ProfileStore (optionally across a util::ThreadPool), the session's
// K-consecutive smoothing turns the votes into an identity decision, and
// the resulting DecisionEvent is handed to the sink.  Idle sessions are
// evicted under a TTL (event time) and an LRU cap, flushing their open
// windows first so no traffic is silently dropped.
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/profile_store.h"
#include "index/cascade.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "serve/decision_trace.h"
#include "serve/event.h"
#include "serve/metrics.h"
#include "serve/session.h"
#include "util/histogram.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace wtp::serve {

namespace retrain {
class WindowCollector;
}  // namespace retrain

struct EngineConfig {
  std::size_t shards = 8;  ///< session shards, >= 1
  std::size_t smooth = 1;  ///< K consecutive windows to assert an identity
  /// Sessions idle longer than this (event time, vs the timestamps arriving
  /// on their shard) are evicted.  0 = never expire.
  util::UnixSeconds session_ttl_s = 0;
  /// Upper bound on resident sessions, split evenly across shards; the
  /// least-recently-active session of a full shard is evicted.  0 = unbounded.
  std::size_t max_sessions = 0;
  /// Worker threads for the per-window profile fan-out.  0 = score serially
  /// on the ingesting thread.
  std::size_t score_threads = 0;
  /// Where serve.* metrics are published.  nullptr (default) gives the
  /// engine a private registry, so metrics() stays exact per engine; tools
  /// pass &obs::Registry::global() to fold the engine into their exported
  /// snapshots.  Must outlive the engine.
  obs::Registry* registry = nullptr;
  /// Optional candidate-pruning cascade.  When set, per-window scoring
  /// routes through the plane (only cascade survivors reach kernel_row, and
  /// `accepted_by` holds the survivors that accepted) instead of the full
  /// profile fan-out.  The plane's catalog must hold the same users in the
  /// same order as the store (checked at construction) and must outlive the
  /// engine.
  const index::IdentificationPlane* plane = nullptr;
  /// Optional drift/window collector for the online retraining loop: every
  /// scored window with a known true user is reported as
  /// observe(true_user, features, self_accepted).  Called under the
  /// ingesting shard's lock, so observe() must be cheap and must not
  /// re-enter the engine.  Must outlive the engine.
  retrain::WindowCollector* collector = nullptr;
  /// Optional slow-decision log.  Every window scored through the traced
  /// ingest overload is attributed (decode + queue + ingest + score, plus
  /// per-cascade-stage splits when a plane is set) and recorded when its
  /// total crosses the log's threshold.  Must outlive the engine.
  obs::SlowLog* slow_log = nullptr;
};

class ScoringEngine {
 public:
  /// The store must outlive the engine.  Throws std::invalid_argument on a
  /// zero shard count or an empty store.
  ScoringEngine(const core::ProfileStore& store, EngineConfig config,
                EventSink sink);

  /// Routes one transaction to its device's session and emits an event for
  /// every window this arrival completes.  Transactions of one device must
  /// arrive in time order (std::invalid_argument otherwise); interleaving
  /// across devices is unrestricted.  Safe to call concurrently from
  /// several threads as long as each device's stream stays on one thread.
  void ingest(const log::WebTransaction& txn);

  /// ingest() with a per-decision trace context (the serving front end's
  /// path): windows completed by this arrival carry the client trace id on
  /// their DecisionEvents, sampled decisions emit decision.* spans into the
  /// global TraceRecorder, and the configured slow log sees an attributed
  /// stage breakdown.
  void ingest(const log::WebTransaction& txn, const DecisionTrace& trace);

  /// Ends the stream: every session's open windows are scored and emitted
  /// (EventSource::kFlush, devices in lexicographic order) and the session
  /// table is cleared.
  void flush();

  [[nodiscard]] EngineMetrics metrics() const;
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const core::ProfileStore& store() const noexcept { return *store_; }

  /// Atomically replaces `user_id`'s profile with a freshly trained one
  /// (RCU-style: scoring threads keep using the snapshot they took at the
  /// top of their ingest/flush call; the next call sees the new profile).
  /// The profile's support vectors get the store schema's bitset layout
  /// first, like every profile of a ProfileStore.
  /// Returns false when the store holds no such user.  Throws
  /// std::logic_error when a cascade plane is configured — the plane indexes
  /// the construction-time profiles, so hot swaps would diverge from it.
  bool publish_profile(const std::string& user_id, core::UserProfile profile);

  /// The profile vector scoring currently runs against (the construction
  /// store's until the first publish_profile).
  [[nodiscard]] std::shared_ptr<const std::vector<core::UserProfile>>
  profiles_snapshot() const {
    return profiles_.load(std::memory_order_acquire);
  }

  /// Serializes every resident session — shard by shard, least recently
  /// active first — under a header binding window geometry, schema
  /// dimension, and smoothing K.  save -> restore -> save round-trips to
  /// identical bytes.  Takes each shard lock in turn; do not call
  /// concurrently with ingest of the devices being saved.
  void save_snapshot(std::ostream& out) const;

  /// Replaces the resident session table with the snapshot's (a successor
  /// node resuming a drained predecessor's streams byte-identically).
  /// Throws std::runtime_error on malformed input or when the snapshot's
  /// window/dimension/smooth disagree with this engine's configuration.
  void restore_snapshot(std::istream& in);

 private:
  struct Entry {
    DeviceSession session;
    std::list<std::string>::iterator lru_position;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> sessions;
    std::list<std::string> lru;  ///< device ids, front = least recently active
  };

  /// serve.* handles on the configured registry, resolved once at
  /// construction.  Counters are atomics, so shards bump them without
  /// extra locking; timers stripe internally.
  struct Metrics {
    obs::Counter& transactions;
    obs::Counter& windows;
    obs::Counter& decisions;
    obs::Counter& correct;
    obs::Counter& created;
    obs::Counter& evicted;
    obs::Counter& profile_swaps;
    obs::Gauge& sessions_active;
    obs::Timer& ingest_ns;
    obs::Timer& score_ns;

    explicit Metrics(obs::Registry& registry);
  };

  using ProfileVector = std::vector<core::UserProfile>;

  [[nodiscard]] Shard& shard_for(const std::string& device_id);

  void ingest_impl(const log::WebTransaction& txn, const DecisionTrace* trace);

  /// Scores one pending window and emits its event.  Caller holds the
  /// shard lock and keeps the profile snapshot alive.
  void score_and_emit(DeviceSession& session, const PendingWindow& pending,
                      EventSource source, const ProfileVector& profiles,
                      const DecisionTrace* trace = nullptr);

  /// Scores a burst of completed windows and emits their events in order.
  /// With >= 2 windows and no cascade plane, the burst becomes one window
  /// FeatureMatrix and each profile scores it with a single batched
  /// decision_values sweep (the kernel_block path) — bit-identical to the
  /// per-window path.  Caller holds the shard lock.
  void score_and_emit_batch(DeviceSession& session,
                            std::span<const PendingWindow> pending,
                            EventSource source, const ProfileVector& profiles,
                            const DecisionTrace* trace = nullptr);

  /// The tail both scoring paths share: builds the window's event from the
  /// per-profile accept `flags` (store order), reports it to the collector,
  /// smooths it into a DecisionEvent, bumps the counters and the score
  /// timer, attributes it, and hands it to the sink.  The window is billed
  /// `stopwatch`'s elapsed time, read after the counters, when `stopwatch`
  /// is set (per-window path), else `score_ns` (a burst's per-window
  /// share).  `cascade` is null when no plane ran.
  void emit_decision(DeviceSession& session, const PendingWindow& pending,
                     std::span<const char> flags, const ProfileVector& profiles,
                     EventSource source, const DecisionTrace* trace,
                     const util::Stopwatch* stopwatch, double score_ns,
                     const index::IdentificationResult* cascade);

  /// accepts() of every profile over the vector, in store order; fans out
  /// across the pool when one is configured.  When a cascade plane is set
  /// and `cascade_out` is non-null, the plane's full result (survivor
  /// counts, per-stage timings) lands there.
  void accept_flags(const util::SparseVector& features,
                    std::vector<char>& flags, const ProfileVector& profiles,
                    index::IdentificationResult* cascade_out = nullptr) const;

  /// Sampled decision.* span emission plus slow-log attribution for one
  /// scored window.  `cascade` is null when no plane ran.
  void observe_decision(const DecisionTrace& trace, const DecisionEvent& event,
                        std::int64_t score_ns,
                        const index::IdentificationResult* cascade) const;

  /// Flushes + erases one session.  Caller holds the shard lock.
  void evict(Shard& shard, const std::string& device_id,
             const ProfileVector& profiles);

  void evict_expired(Shard& shard, util::UnixSeconds now,
                     const ProfileVector& profiles);
  void enforce_capacity(Shard& shard, const ProfileVector& profiles);

  const core::ProfileStore* store_;
  EngineConfig config_;
  EventSink sink_;
  std::size_t per_shard_capacity_ = 0;  ///< 0 = unbounded
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<obs::Registry> owned_registry_;  ///< when config.registry==nullptr
  Metrics metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// RCU-published profile vector: scoring loads one snapshot per
  /// ingest/flush call, publish_profile copy-replaces and stores.  Starts
  /// as a non-owning alias of the construction store's vector.
  std::atomic<std::shared_ptr<const ProfileVector>> profiles_;
  std::mutex publish_mutex_;  ///< serializes copy-replace-publish cycles
};

}  // namespace wtp::serve
