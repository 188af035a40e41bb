#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "serve/event.h"

namespace wtp::perfbench {

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

namespace {

/// Nearest rank: the smallest sample with at least q*n samples at or below.
std::size_t nearest_rank(double q, std::size_t n) {
  return static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
}

}  // namespace

bool Samples::supports(double q) const {
  const std::size_t n = values_.size();
  const std::size_t rank = nearest_rank(q, n);
  return rank <= n && n - rank >= 10;
}

double Samples::quantile(double q) const {
  if (!supports(q)) {
    throw std::runtime_error{
        "refusing the " + std::to_string(q) + " quantile of " +
        std::to_string(values_.size()) +
        " samples: fewer than 10 samples beyond it"};
  }
  const std::size_t rank = nearest_rank(q, values_.size());
  std::vector<double> sorted = values_;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   sorted.end());
  return sorted[rank - 1];
}

void SlicedSamples::add(std::size_t slice, double value) {
  if (slice >= slices_.size()) slices_.resize(slice + 1);
  slices_[slice].add(value);
  ++total_;
}

std::vector<double> SlicedSamples::per_slice(double q) const {
  std::vector<double> values;
  for (const Samples& slice : slices_) {
    if (slice.supports(q)) values.push_back(slice.quantile(q));
  }
  if (values.empty()) {
    throw std::runtime_error{"no slice holds 10 samples beyond the " +
                             std::to_string(q) + " quantile"};
  }
  return values;
}

double median_of(std::vector<double> values) {
  if (values.empty()) throw std::runtime_error{"median of no values"};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Spread spread_of(std::vector<double> values) {
  Spread spread;
  spread.median = median_of(values);
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) {
    spread.q1 = spread.q3 = values.front();
    return spread;
  }
  // statistics.quantiles(n=4, method='exclusive').
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  spread.q1 = cut(1);
  spread.q3 = cut(3);
  return spread;
}

void DecisionDigest::add(const serve::DecisionEvent& event) {
  add_device_line(event.device_id, serve::to_json_line(event));
  if (event.decided()) {
    ++decided_;
    if (event.correct()) ++correct_;
  }
}

bool DecisionDigest::add_line(std::string_view line) {
  constexpr std::string_view kPrefix = "{\"type\":\"decision\",\"device\":\"";
  constexpr std::string_view kNext = "\",\"window_start\":";
  if (!line.starts_with(kPrefix)) return false;
  const std::size_t end = line.find(kNext, kPrefix.size());
  if (end == std::string_view::npos) return false;
  add_device_line(line.substr(kPrefix.size(), end - kPrefix.size()), line);
  if (line.find("\"correct\":true") != std::string_view::npos) {
    ++decided_;
    ++correct_;
  } else if (line.find("\"correct\":false") != std::string_view::npos) {
    ++decided_;
  }
  return true;
}

void DecisionDigest::add_device_line(std::string_view device,
                                     std::string_view line) {
  auto it = chains_.find(device);
  if (it == chains_.end()) it = chains_.emplace(std::string{device}, Chain{}).first;
  Chain& chain = it->second;
  for (const char c : line) {
    chain.hash = (chain.hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  chain.hash = (chain.hash ^ 0x0a) * 1099511628211ull;  // line separator
  ++chain.count;
  ++lines_;
}

std::vector<std::string> DecisionDigest::differing_devices(
    const DecisionDigest& other) const {
  std::vector<std::string> out;
  for (const auto& [device, chain] : chains_) {
    const auto it = other.chains_.find(device);
    if (it == other.chains_.end() || !(it->second == chain)) {
      out.push_back(device);
    }
  }
  for (const auto& [device, chain] : other.chains_) {
    if (!chains_.contains(device)) out.push_back(device);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Metric& Report::metric(std::string name, double value, std::string unit) {
  Metric& m = metrics.emplace_back();
  m.name = std::move(name);
  m.value = value;
  m.unit = std::move(unit);
  return m;
}

Metric& Report::median_metric(std::string name, std::vector<double> raw,
                              std::string unit) {
  Metric& m = metric(std::move(name), median_of(raw), std::move(unit));
  m.raw = std::move(raw);
  return m;
}

void Report::alias(std::string name, double value, std::string unit,
                   std::string note) {
  Metric& m = extra.emplace_back();
  m.name = std::move(name);
  m.value = value;
  m.unit = std::move(unit);
  m.note = std::move(note);
}

void Report::gate(std::string name, bool ok, std::string detail) {
  gates.push_back(Gate{std::move(name), ok, std::move(detail)});
}

bool Report::all_gates_ok() const {
  return !gates.empty() && std::all_of(gates.begin(), gates.end(),
                                       [](const Gate& g) { return g.ok; });
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix64(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over the combined input.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace wtp::perfbench
