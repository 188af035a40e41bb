// Shared pieces of the repository benchmark (wtp_perfbench): raw-sample
// statistics, the per-run report every workload fills, span accumulators
// for the traced run, and the decision digest the correctness gates
// compare.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace wtp::serve {
struct DecisionEvent;
}  // namespace wtp::serve

namespace wtp::perfbench {

/// Monotonic nanoseconds (steady_clock); the timebase of every span the
/// benchmark records around a layer call.
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Raw latency samples with exact order statistics (no histogram buckets).
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] double mean() const;

  /// Whether at least 10 samples lie beyond the q quantile's rank.
  [[nodiscard]] bool supports(double q) const;
  /// Nearest-rank quantile of the raw samples.  Throws std::runtime_error
  /// when fewer than 10 samples lie beyond the requested rank, so a tail
  /// percentile is never just the maximum of a short run.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// Raw samples split into consecutive slices (passes, time slices).  A
/// percentile is reported as the median over slices of each slice's own
/// percentile, so a slice disturbed by the machine moves the figure no more
/// than any other; slices with fewer than 10 samples beyond the rank are
/// skipped.
class SlicedSamples {
 public:
  void add(std::size_t slice, double value);
  [[nodiscard]] std::size_t size() const noexcept { return total_; }
  [[nodiscard]] std::size_t slices() const noexcept { return slices_.size(); }
  /// Each supporting slice's own q quantile, in slice order.  Throws
  /// std::runtime_error when no slice supports the rank.
  [[nodiscard]] std::vector<double> per_slice(double q) const;

 private:
  std::vector<Samples> slices_;
  std::size_t total_ = 0;
};

/// Median and quartiles of a handful of repetitions, computed exactly as
/// Python's statistics.median / statistics.quantiles(n=4) (the compare
/// tool's definition), so the binary and the tool agree on every figure.
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Spread spread_of(std::vector<double> values);
[[nodiscard]] double median_of(std::vector<double> values);

/// Sum/count accumulator for one traced layer.
struct SpanStat {
  double total_ns = 0.0;
  std::uint64_t count = 0;

  void add(std::int64_t ns) {
    total_ns += static_cast<double>(ns);
    ++count;
  }
  /// Mean span length in microseconds (0 when nothing was recorded).
  [[nodiscard]] double mean_us() const {
    return count == 0 ? 0.0 : total_ns / 1e3 / static_cast<double>(count);
  }
  /// Total recorded time in microseconds spread over `per` units of work.
  [[nodiscard]] double per_us(std::uint64_t per) const {
    return per == 0 ? 0.0 : total_ns / 1e3 / static_cast<double>(per);
  }
};

/// Per-device, order-sensitive digest of decision lines.  Two streams
/// digest equal exactly when every device saw the same decision lines in
/// the same order (devices may interleave differently).
class DecisionDigest {
 public:
  void add(const serve::DecisionEvent& event);
  /// A decision line as serialized by serve::to_json_line, keyed by its
  /// "device" member.  Returns false when the line carries no device.
  bool add_line(std::string_view line);

  [[nodiscard]] std::uint64_t lines() const noexcept { return lines_; }
  [[nodiscard]] std::uint64_t decided() const noexcept { return decided_; }
  [[nodiscard]] std::uint64_t correct() const noexcept { return correct_; }
  /// Devices whose chains differ from `other` (either side), sorted.
  [[nodiscard]] std::vector<std::string> differing_devices(
      const DecisionDigest& other) const;

 private:
  struct Chain {
    std::uint64_t hash = 14695981039346656037ull;
    std::uint64_t count = 0;
    friend bool operator==(const Chain&, const Chain&) = default;
  };
  void add_device_line(std::string_view device, std::string_view line);

  std::map<std::string, Chain, std::less<>> chains_;
  std::uint64_t lines_ = 0;
  std::uint64_t decided_ = 0;
  std::uint64_t correct_ = 0;
};

/// One metric as reported: `raw` holds each repetition's value when the
/// metric is a median over repetitions; `samples` counts the raw samples a
/// percentile was taken from.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::vector<double> raw;
  std::size_t samples = 0;
  std::string note;
};

struct Gate {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// What one workload run produces.  Untraced runs fill end-to-end
/// metrics, traced runs the per-layer ones; `extra` carries the
/// workload-specific names (txns_per_s, windows_per_s, ...) as
/// printed aliases, never in the final result line.
struct Report {
  std::deque<Metric> metrics;  ///< deque: metric() references stay valid
  std::deque<Metric> extra;
  std::vector<Gate> gates;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  Metric& metric(std::string name, double value, std::string unit);
  /// Median over repetitions, raw values kept.
  Metric& median_metric(std::string name, std::vector<double> raw,
                        std::string unit);
  void alias(std::string name, double value, std::string unit,
             std::string note);
  void gate(std::string name, bool ok, std::string detail);
  [[nodiscard]] bool all_gates_ok() const;
};

/// Command-line selection of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

/// Peak resident set of this process in MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Deterministic 64-bit mix of (seed, salt): per-run seeded choices.
[[nodiscard]] std::uint64_t mix64(std::uint64_t seed, std::uint64_t salt);

// Workload entry points (replay.cpp, wire.cpp, catalog.cpp).
void run_replay_paper(const RunOptions& options, Report& report);
void run_wire_paper(const RunOptions& options, Report& report);
void run_catalog_1e5(const RunOptions& options, Report& report);

}  // namespace wtp::perfbench
