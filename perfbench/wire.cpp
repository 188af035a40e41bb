// wire_paper: the seed's slice of the paper shape over loopback TCP to an
// in-process NetServer (1 ingest worker, admin plane on), from one
// JSON-lines connection whose transactions carry their position in the
// slice as the trace id.
//
//   * Fixed-rate phase (open loop, one server): transaction i is due at
//     t0 + i / kOfferedRate; the generator sleeps to each due time and
//     sends everything due, and a decision's latency runs from the due
//     time of the transaction whose trace id it echoes until the reader
//     has its line.  The first kWarmupSeconds are sent but not measured.
//     How late the generator ran is reported.
//   * Saturation phase (closed loop, a fresh server per lap): the slice
//     again with at most kSaturationWindow transactions sent but not yet
//     ingested, lap after lap until the run's time is used.  The gated
//     decision latency is the server-side time of each decision here.
//   * Hot swaps: every kSwapEvery transactions the generator publishes an
//     identical copy of one trained profile (round-robin), so profile
//     writes run beside scoring reads while decisions stay byte-identical.
//
// Why the gated latency comes from the saturated server: on a shared
// virtual machine the hypervisor's steal lands in the tail of a lightly
// loaded server whose threads sleep between transactions.  At the fixed
// rate the server-side p99 read 190 us at 1-2% steal and 650-960 us at
// 11-17% (one seed), while the saturated server's read 157-290 us over
// 2-17%.  The fixed-rate latencies are printed and recorded, not gated.
//
// It is the only workload with wire decode, queue wait and reply.  Threads:
// generator (main) + reply reader + server event loop + one ingest worker.
// Every server's per-device decision sequences must equal an in-process
// engine replay of the slice.
//
// The traced run traces the second half of the measured fixed-rate phase:
// the server's decision.* and serve.* spans at sample rate 1, the kernel
// timers, and the benchmark's own publish spans; the first half is the
// untraced baseline for the tracing overhead.
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "paper.h"
#include "serve/net/client.h"
#include "serve/net/server.h"
#include "serve/net/wire.h"
#include "svm/kernel.h"

namespace wtp::perfbench {

namespace {

/// Offered load of the fixed-rate phase, transactions per second: about
/// 40% of replay_paper's throughput on the 4-core reference machine
/// (README.md), so queues stay short and latency is mostly service time.
constexpr double kOfferedRate = 36000.0;
/// A freshly started server falls behind the offered rate for its first
/// ~0.8 s, so the fixed-rate phase runs this long before measuring.
constexpr double kWarmupSeconds = 1.0;
/// Latency percentiles are medians over slices of this many consecutive
/// transactions (half a second at the offered rate), so one disturbed
/// slice does not set the tail.
constexpr std::size_t kSliceTransactions = 18000;
constexpr std::size_t kSwapEvery = 8192;
constexpr std::size_t kSaturationWindow = 2048;
constexpr std::size_t kSaturationBatch = 64;
constexpr std::size_t kSetupRepetitions = 3;

/// Every transaction of the slice pre-encoded as one JSON line with trace
/// id i + 1.
struct WireStream {
  std::string bytes;
  std::vector<std::size_t> offsets;  ///< line i = [offsets[i], offsets[i+1])

  explicit WireStream(std::span<const log::WebTransaction> txns) {
    offsets.reserve(txns.size() + 1);
    for (std::size_t i = 0; i < txns.size(); ++i) {
      offsets.push_back(bytes.size());
      bytes += serve::net::to_json_line(txns[i], i + 1);
      bytes += '\n';
    }
    offsets.push_back(bytes.size());
  }
  [[nodiscard]] std::size_t size() const noexcept { return offsets.size() - 1; }
  [[nodiscard]] std::string_view lines(std::size_t begin, std::size_t end) const {
    return std::string_view{bytes}.substr(offsets[begin],
                                          offsets[end] - offsets[begin]);
  }
};

/// Splits the echoed `,"trace":N` member off a decision line; returns 0
/// when the line has none.
std::uint64_t strip_trace(std::string& line) {
  constexpr std::string_view kMember = ",\"trace\":";
  const std::size_t at = line.rfind(kMember);
  if (at == std::string::npos || line.back() != '}') return 0;
  const std::uint64_t id =
      std::strtoull(line.c_str() + at + kMember.size(), nullptr, 10);
  line.erase(at, line.size() - 1 - at);
  return id;
}

std::size_t accepted_count(std::string_view line) {
  constexpr std::string_view kMember = "\"accepted\":[";
  const std::size_t at = line.find(kMember);
  if (at == std::string_view::npos) return 0;
  const std::size_t begin = at + kMember.size();
  const std::size_t end = line.find(']', begin);
  if (end == std::string_view::npos || end == begin) return 0;
  return static_cast<std::size_t>(
             std::count(line.begin() + static_cast<std::ptrdiff_t>(begin),
                        line.begin() + static_cast<std::ptrdiff_t>(end), ',')) +
         1;
}

/// Sum/count per span name, parsed from the recorder's Chrome export.
std::unordered_map<std::string, SpanStat> span_totals(const std::string& json) {
  std::unordered_map<std::string, SpanStat> totals;
  constexpr std::string_view kName = "{\"name\":\"";
  constexpr std::string_view kDur = "\"dur\":";
  std::size_t at = 0;
  while ((at = json.find(kName, at)) != std::string::npos) {
    const std::size_t begin = at + kName.size();
    const std::size_t end = json.find('"', begin);
    if (end == std::string::npos) break;
    const std::size_t dur = json.find(kDur, end);
    if (dur == std::string::npos) break;
    const double us = std::strtod(json.c_str() + dur + kDur.size(), nullptr);
    totals[json.substr(begin, end - begin)].add(
        static_cast<std::int64_t>(us * 1e3));
    at = dur;
  }
  return totals;
}

/// What one server run delivered.
struct WireOutcome {
  DecisionDigest digest;
  std::uint64_t sent = 0;
  std::uint64_t ingested = 0;
  std::uint64_t dropped = 0;
  std::uint64_t rejected = 0;
  std::uint64_t other_lines = 0;  ///< backpressure / error replies
  bool metrics_reply = false;
  bool reader_failed = false;
  std::uint64_t accepted[3] = {0, 0, 0};  ///< windows accepted by 0, 1, 2+
  SpanStat publish;
  std::uint64_t publishes_refused = 0;
};

/// One NetServer, one JSON-lines client connection and its reply reader.
/// `on_decision(trace_id, stream_source, read_ns)` runs on the reader
/// thread for every decision line.
class WireSession {
 public:
  using OnDecision = std::function<void(std::uint64_t, bool, std::int64_t)>;

  /// `attribution`, when set, receives the engine's per-decision stage
  /// breakdown (decode, queue, ingest, score) for every traced decision.
  WireSession(const PaperShape& shape, const WireStream& stream,
              OnDecision on_decision, obs::SlowLog* attribution = nullptr)
      : shape_{shape}, stream_{stream}, on_decision_{std::move(on_decision)} {
    serve::net::NetServerConfig net;
    net.ingest_workers = 1;
    net.queue_capacity = 4 * kSaturationWindow;
    net.admin = true;
    serve::EngineConfig engine = paper_engine_config();
    engine.slow_log = attribution;
    server_ = std::make_unique<serve::net::NetServer>(*shape_.store, engine,
                                                       net);
    server_->start();
    client_ = std::make_unique<serve::net::BlockingClient>(server_->port());
    reader_ = std::thread{[this] { read_replies(); }};
  }

  ~WireSession() {
    if (reader_.joinable()) {
      ::shutdown(client_->fd(), SHUT_RDWR);  // unblocks the reader
      reader_.join();
    }
  }

  WireSession(const WireSession&) = delete;
  WireSession& operator=(const WireSession&) = delete;

  /// Sends lines [begin, end), publishing a profile copy every kSwapEvery.
  void send(std::size_t begin, std::size_t end) {
    client_->send(stream_.lines(begin, end));
    for (std::size_t k = begin; k < end; ++k) {
      if ((k + 1) % kSwapEvery == 0) publish_next();
    }
    outcome_.sent += end - begin;
  }

  /// Transactions the engine has ingested, dropped or rejected so far.
  [[nodiscard]] std::uint64_t settled() {
    obs::Registry& registry = server_->registry();
    return registry.counter("serve.transactions_ingested").value() +
           registry.counter("net.ingest_dropped").value() +
           registry.counter("net.rejected_transactions").value();
  }

  void wait_settled(std::uint64_t count) {
    while (settled() < count) std::this_thread::yield();
  }

  /// Ends the stream (the server flushes and closes), joins the reader and
  /// stops the server.
  WireOutcome finish() {
    client_->send_end_json();
    reader_.join();
    obs::Registry& registry = server_->registry();
    outcome_.ingested = registry.counter("serve.transactions_ingested").value();
    outcome_.dropped = registry.counter("net.ingest_dropped").value();
    outcome_.rejected = registry.counter("net.rejected_transactions").value();
    outcome_.digest = std::move(reply_.digest);
    outcome_.other_lines = reply_.other_lines;
    outcome_.metrics_reply = reply_.metrics_reply;
    outcome_.reader_failed = reply_.reader_failed;
    std::copy(std::begin(reply_.accepted), std::end(reply_.accepted),
              std::begin(outcome_.accepted));
    server_->stop();
    return std::move(outcome_);
  }

 private:
  /// Written by the reader thread only; read after it is joined.
  struct ReaderState {
    DecisionDigest digest;
    std::uint64_t other_lines = 0;
    bool metrics_reply = false;
    bool reader_failed = false;
    std::uint64_t accepted[3] = {0, 0, 0};
  };

  void publish_next() {
    const auto& profiles = shape_.store->profiles();
    const core::UserProfile& profile = profiles[swaps_++ % profiles.size()];
    const std::int64_t begin = now_ns();
    const bool ok = server_->engine().publish_profile(profile.user_id(), profile);
    outcome_.publish.add(now_ns() - begin);
    if (!ok) ++outcome_.publishes_refused;
  }

  void read_replies() {
    try {
      while (auto line = client_->read_line()) {
        const std::int64_t now = now_ns();
        if (line->starts_with("{\"type\":\"metrics\"")) {
          reply_.metrics_reply = true;
          continue;
        }
        const bool stream =
            line->find("\"source\":\"stream\"") != std::string::npos;
        const std::uint64_t id = strip_trace(*line);
        if (!reply_.digest.add_line(*line)) {
          ++reply_.other_lines;
          continue;
        }
        ++reply_.accepted[std::min<std::size_t>(accepted_count(*line), 2)];
        if (on_decision_) on_decision_(id, stream, now);
      }
    } catch (const std::exception&) {
      reply_.reader_failed = true;
    }
  }

  const PaperShape& shape_;
  const WireStream& stream_;
  OnDecision on_decision_;
  std::unique_ptr<serve::net::NetServer> server_;
  std::unique_ptr<serve::net::BlockingClient> client_;
  WireOutcome outcome_;
  ReaderState reply_;
  std::size_t swaps_ = 0;
  std::thread reader_;  ///< last: uses every member above
};

/// Server-side time (decode + ingest + score, without the queue wait) of
/// each decision the engine attributed to a trace id in (skip, n], sliced
/// by trace id.
SlicedSamples service_times(const obs::SlowLog& attribution, std::size_t skip,
                            std::size_t n) {
  SlicedSamples service_us;
  for (const obs::SlowLog::Record& record : attribution.worst()) {
    const std::uint64_t id = record.trace_id;
    if (id <= skip || id > n) continue;
    service_us.add(
        (id - skip - 1) / kSliceTransactions,
        static_cast<double>(record.total_ns - record.stages.queue_ns) / 1e3);
  }
  return service_us;
}

/// Kernel timers outlive every kernel call, so their registry is static.
obs::Registry& kernel_registry() {
  static obs::Registry registry;
  return registry;
}

struct FixedRate {
  WireOutcome outcome;
  std::uint64_t measured = 0;  ///< transactions sent after the warm-up
  SlicedSamples latency_us;  ///< client side, from due time to reply read
  SlicedSamples service_us;  ///< server side, decode + ingest + score
  Samples untraced_half_us;
  Samples traced_half_us;
  Samples lag_us;
  std::unordered_map<std::string, SpanStat> spans;
  double kernel_dot_ns = 0.0;
  double kernel_transform_ns = 0.0;
};

FixedRate run_fixed_rate(const PaperShape& shape, const WireStream& stream,
                         bool traced) {
  FixedRate result;
  const std::size_t n = stream.size();
  const auto warmup = std::min<std::size_t>(
      n, static_cast<std::size_t>(kOfferedRate * kWarmupSeconds));
  // Trace ids above traced_begin belong to the traced half.
  const std::size_t traced_begin = traced ? (warmup + n) / 2 : n;
  result.measured = n - warmup;
  std::atomic<std::int64_t> t0{0};
  const double period_ns = 1e9 / kOfferedRate;

  // Threshold 0 and room for every decision: the engine attributes each
  // traced decision into it.
  obs::SlowLog attribution{0, n};
  WireSession session{
      shape, stream,
      [&](std::uint64_t id, bool stream_source, std::int64_t read_ns) {
        if (!stream_source || id <= warmup || id > n) return;
        const double due =
            static_cast<double>(t0.load(std::memory_order_acquire)) +
            static_cast<double>(id - 1) * period_ns;
        const double latency = (static_cast<double>(read_ns) - due) / 1e3;
        result.latency_us.add((id - warmup - 1) / kSliceTransactions, latency);
        (id > traced_begin ? result.traced_half_us : result.untraced_half_us)
            .add(latency);
      },
      &attribution};

  // Sleep to each due time, then send every transaction already due in
  // one write.  Sleeping, not spinning: a spinning generator takes a core
  // the server needs and multiplied the p99 several times on a 4-core box.
  // The timer wakes ~50 us late; that lateness is the generator lag.
  const std::int64_t start = now_ns();
  t0.store(start, std::memory_order_release);
  const auto due = [&](std::size_t i) {
    return start + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
  };
  const auto send_due = [&](std::size_t begin, std::size_t end) {
    std::size_t i = begin;
    while (i < end) {
      std::int64_t now = now_ns();
      if (now < due(i)) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point{
            std::chrono::nanoseconds{due(i)}});
        now = now_ns();
      }
      std::size_t last = i;
      while (last < end && due(last) <= now) {
        if (last >= warmup) {
          result.lag_us.add(static_cast<double>(now - due(last)) / 1e3);
        }
        ++last;
      }
      session.send(i, last);
      i = last;
    }
  };
  send_due(0, traced_begin);
  if (traced) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.enable(std::size_t{1} << 20);
    recorder.set_sample_rate(1.0);
    svm::set_kernel_metrics(&kernel_registry());
    send_due(traced_begin, n);
    session.wait_settled(n);
    recorder.disable();
    svm::set_kernel_metrics(nullptr);
    result.spans = span_totals(recorder.chrome_trace_json());
    recorder.clear();
    const obs::Label rbf{"kernel", "rbf"};
    const std::span<const obs::Label> labels{&rbf, 1};
    result.kernel_dot_ns =
        kernel_registry().timer("kernel.dot_ns", labels).collect().sum();
    result.kernel_transform_ns =
        kernel_registry().timer("kernel.transform_ns", labels).collect().sum();
  }
  result.outcome = session.finish();
  result.service_us = service_times(attribution, warmup, n);
  return result;
}

struct SaturationLap {
  WireOutcome outcome;
  double rate = 0.0;  ///< transactions per second, first send to last ingest
  SlicedSamples service_us;  ///< server side, decode + ingest + score
};

SaturationLap run_saturation_lap(const PaperShape& shape,
                                 const WireStream& stream) {
  const std::size_t n = stream.size();
  obs::SlowLog attribution{0, n};
  WireSession session{shape, stream, nullptr, &attribution};
  const std::int64_t start = now_ns();
  std::size_t i = 0;
  while (i < n) {
    if (i - session.settled() >= kSaturationWindow) {
      std::this_thread::yield();
      continue;
    }
    const std::size_t end = std::min(n, i + kSaturationBatch);
    session.send(i, end);
    i = end;
  }
  session.wait_settled(n);
  SaturationLap lap;
  lap.rate =
      static_cast<double>(n) / (static_cast<double>(now_ns() - start) / 1e9);
  lap.outcome = session.finish();
  lap.service_us = service_times(attribution, 0, n);
  return lap;
}

/// Gates one server run against the in-process replay of the slice;
/// returns the operations that failed.
std::uint64_t check_outcome(const std::string& label, const WireOutcome& outcome,
                            const ReplayPass& reference, Report& report) {
  const auto differing = outcome.digest.differing_devices(reference.digest);
  report.gate(label + ".decisions_equal_replay", differing.empty(),
              std::to_string(outcome.digest.lines()) + " decision lines; " +
                  std::to_string(differing.size()) +
                  " devices differ from the in-process replay");
  report.gate(label + ".no_drops",
              outcome.dropped == 0 && outcome.rejected == 0 &&
                  outcome.other_lines == 0,
              std::to_string(outcome.dropped) + " dropped, " +
                  std::to_string(outcome.rejected) + " rejected, " +
                  std::to_string(outcome.other_lines) + " other replies");
  report.gate(label + ".drained",
              outcome.ingested == outcome.sent && outcome.metrics_reply &&
                  !outcome.reader_failed,
              std::to_string(outcome.ingested) + "/" +
                  std::to_string(outcome.sent) + " ingested");
  report.gate(label + ".hot_swaps",
              outcome.publish.count > 0 && outcome.publishes_refused == 0,
              std::to_string(outcome.publish.count) + " publishes, " +
                  std::to_string(outcome.publishes_refused) + " refused");
  report.attempted += outcome.sent;
  const std::uint64_t mismatched =
      differing.empty()
          ? 0
          : std::max(outcome.digest.lines(), reference.digest.lines());
  return std::min<std::uint64_t>(
      outcome.sent, outcome.dropped + outcome.rejected + mismatched);
}

void report_untraced(const RunOptions& options, Report& report) {
  PaperSetup setup = set_up_paper(kSetupRepetitions);
  const PaperShape& shape = *setup.shape;
  const auto slice = seeded_slice(shape, options.seed);
  const WireStream stream{slice};

  const std::int64_t start = now_ns();
  FixedRate fixed = run_fixed_rate(shape, stream, false);
  std::vector<SaturationLap> laps;
  do {
    laps.push_back(run_saturation_lap(shape, stream));
  } while (static_cast<double>(now_ns() - start) / 1e9 < options.seconds);

  const ReplayPass reference = replay_through_engine(*shape.store, slice, nullptr);
  report.failed = check_outcome("wire.fixed", fixed.outcome, reference, report);
  std::uint64_t agreeing =
      fixed.outcome.digest.differing_devices(reference.digest).empty() ? 1 : 0;
  std::vector<double> rates;
  std::vector<double> lap_p50;
  std::vector<double> lap_p99;
  std::size_t lap_samples = 0;
  std::size_t lap_slices = 0;
  for (std::size_t l = 0; l < laps.size(); ++l) {
    report.failed += check_outcome("wire.saturation" + std::to_string(l + 1),
                                   laps[l].outcome, reference, report);
    if (laps[l].outcome.digest.differing_devices(reference.digest).empty()) {
      ++agreeing;
    }
    rates.push_back(laps[l].rate);
    const SlicedSamples& service = laps[l].service_us;
    for (const double v : service.per_slice(0.50)) lap_p50.push_back(v);
    for (const double v : service.per_slice(0.99)) lap_p99.push_back(v);
    lap_samples += service.size();
    lap_slices += service.slices();
  }

  report.median_metric("setup_s", setup.setup_s, "s");
  report.median_metric("throughput_per_s", rates, "1/s").note =
      "closed-loop saturation, transactions per second, median over laps";
  report.alias("saturation_txns_per_s", median_of(rates), "1/s",
               "= throughput_per_s");
  report.alias("offered_rate_per_s", kOfferedRate, "1/s",
               "fixed-rate phase, " + std::to_string(fixed.measured) +
                   " measured transactions after the warm-up");
  // Gated: the server-side time of each decision from wire decode through
  // scoring, as the engine attributes it, on the saturated server (see the
  // top of this file).  The fixed-rate latencies, server-side and open
  // loop, are printed, recorded and split by layer in the traced run, but
  // not gated.
  auto& p50 = report.median_metric("decision_p50_us", lap_p50, "us");
  p50.samples = lap_samples;
  p50.note = "decode + ingest + score per decision, server-side, saturation "
             "laps; median of per-slice values over " +
             std::to_string(lap_slices) + " slices of " +
             std::to_string(kSliceTransactions) + " transactions";
  auto& p99 = report.median_metric("decision_p99_us", lap_p99, "us");
  p99.samples = lap_samples;
  p99.note = p50.note;
  const std::string slices =
      " over " + std::to_string(fixed.service_us.slices()) + " 0.5 s slices";
  report.alias("fixed_rate_p50_us",
               median_of(fixed.service_us.per_slice(0.50)), "us",
               "as decision_p50_us, fixed-rate phase; median of per-slice "
               "values" + slices + " (not gated)");
  report.alias("fixed_rate_p99_us",
               median_of(fixed.service_us.per_slice(0.99)), "us",
               "as fixed_rate_p50_us (not gated)");
  report.alias("open_loop_p50_us",
               median_of(fixed.latency_us.per_slice(0.50)), "us",
               "due time of the echoed transaction to reply line read, "
               "median of per-slice values" + slices + " (not gated)");
  report.alias("open_loop_p99_us",
               median_of(fixed.latency_us.per_slice(0.99)), "us",
               "as open_loop_p50_us (not gated)");
  report.alias("load.generator_lag_p99_us", fixed.lag_us.quantile(0.99), "us",
               "how late the generator sent, fixed-rate phase");
  report.metric("decided_correct_share",
                static_cast<double>(fixed.outcome.digest.correct()) /
                    static_cast<double>(fixed.outcome.digest.decided()),
                "share");
  report.metric("reference_agreement",
                static_cast<double>(agreeing) /
                    static_cast<double>(laps.size() + 1),
                "share")
      .note = "server runs whose decisions equal the in-process replay";
  const double failed_share = static_cast<double>(report.failed) /
                              static_cast<double>(report.attempted);
  report.metric("delivered_share", 1.0 - failed_share, "share");
  report.alias("failed_share", failed_share, "share", "= 1 - delivered_share");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_traced(const RunOptions& options, Report& report) {
  PaperSetup setup = set_up_paper(1);
  const PaperShape& shape = *setup.shape;
  const auto slice = seeded_slice(shape, options.seed);
  const WireStream stream{slice};
  FixedRate fixed = run_fixed_rate(shape, stream, true);
  const ReplayPass reference = replay_through_engine(*shape.store, slice, nullptr);
  report.failed = check_outcome("wire.fixed", fixed.outcome, reference, report);

  const auto span = [&fixed](const char* name) {
    const auto it = fixed.spans.find(name);
    return it == fixed.spans.end() ? SpanStat{} : it->second;
  };
  const SpanStat decode = span("decision.decode");
  const SpanStat queue = span("decision.queue");
  const SpanStat push = span("decision.ingest");
  const SpanStat score = span("decision.score");
  const SpanStat reply = span("decision.reply");
  const SpanStat ingest = span("serve.ingest");
  report.gate("wire.traced_spans",
              decode.count > 0 && score.count > 0 && reply.count > 0 &&
                  ingest.count > 0,
              std::to_string(decode.count) + " decode, " +
                  std::to_string(score.count) + " score spans");

  const double encode_us = encode_probe_us(*shape.store, slice, "wire", report);

  const double windows =
      static_cast<double>(std::max<std::uint64_t>(1, score.count));
  const auto& accepted = fixed.outcome.accepted;
  const double lines =
      static_cast<double>(accepted[0] + accepted[1] + accepted[2]);
  report.metric("svm.dot_us", fixed.kernel_dot_ns / 1e3 / windows, "us");
  report.metric("svm.transform_us", fixed.kernel_transform_ns / 1e3 / windows,
                "us");
  report.metric("core.score_window_us", score.mean_us(), "us");
  report.metric("core.accept_0", static_cast<double>(accepted[0]) / lines,
                "share");
  report.metric("core.accept_1", static_cast<double>(accepted[1]) / lines,
                "share");
  report.metric("core.accept_many", static_cast<double>(accepted[2]) / lines,
                "share");
  report.metric("features.encode_us", encode_us, "us");
  report.metric("features.fold_us", std::max(0.0, push.mean_us() - encode_us),
                "us");
  report.metric("serve.session_push_us", push.mean_us(), "us");
  report.metric("serve.decide_us", 0.0, "us").note =
      "inside decision.score on the wire";
  report.metric("serve.ingest_us", ingest.mean_us(), "us");
  report.metric("serve.unattributed_share",
                std::max(0.0, ingest.total_ns - push.total_ns - score.total_ns) /
                    std::max(1.0, ingest.total_ns),
                "share");
  report.metric("net.decode_us", decode.mean_us(), "us");
  report.metric("net.queue_wait_us", queue.mean_us(), "us");
  report.metric("net.reply_us", reply.mean_us(), "us");
  report.metric("net.dropped", static_cast<double>(fixed.outcome.dropped),
                "count");
  report.metric("load.generator_lag_p99_us", fixed.lag_us.quantile(0.99), "us");
  report.metric("serve.publish_us", fixed.outcome.publish.mean_us(), "us");
  // A decision's path is decode, queue, session push, window score and
  // reply; what its mean latency holds beyond those is socket transit,
  // event-loop wake-ups and the generator's own lateness.
  const double covered = decode.mean_us() + queue.mean_us() + push.mean_us() +
                         score.mean_us() + reply.mean_us();
  report.metric("trace.unattributed_share",
                std::max(0.0, 1.0 - covered / fixed.traced_half_us.mean()),
                "share");
  report.metric("trace.overhead_share",
                fixed.traced_half_us.quantile(0.5) /
                        fixed.untraced_half_us.quantile(0.5) -
                    1.0,
                "share")
      .note = "median decision latency, traced half vs untraced half";
  report.metric("setup.train_s", setup.train_s.front(), "s");
}

}  // namespace

void run_wire_paper(const RunOptions& options, Report& report) {
  if (options.trace) {
    report_traced(options, report);
  } else {
    report_untraced(options, report);
  }
}

}  // namespace wtp::perfbench
