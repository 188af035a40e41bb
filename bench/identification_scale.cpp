// Million-user identification bench: proves the candidate-pruning cascade
// (src/index/cascade.h) never changes the identification argmax while
// cutting kernel_row work by an order of magnitude, and that the mmap
// profile store keeps the resident heap flat as the population grows.
//
// Per scale n (default 10^3..10^5; --million adds 10^6):
//   1. stream n trained-equivalent profiles into a mapped store file,
//   2. mmap it back (heap delta measured around open()),
//   3. build the IdentificationPlane, time kTimedQueries identify() calls
//      (latency percentiles from the raw samples), then replay a seeded
//      sample of those windows through identify_exhaustive(), asserting
//      identical argmax,
//   4. record per-stage survivors + stage times from the plane's
//      obs::Registry,
//   5. spot-check bit-identity of mmap vs heap decision values.
//
// Hard assertions (exit 1 on violation):
//   * cascade argmax == exhaustive argmax on every checked query, every
//     scale;
//   * >= 10x reduction in kernel_row invocations per window at n >= 10^5;
//   * resident heap delta at n >= 10^5 is < 1/10 of the mapped file
//     (profile storage lives in the mapping, not the heap);
//   * mmap-loaded decision values bit-identical to heap-built models.
//
// Results land in BENCH_identification_scale.json (--json-out to move it).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bench_json.h"
#include "core/profiler.h"
#include "index/cascade.h"
#include "index/mapped_store.h"
#include "obs/registry.h"
#include "synthetic/scale.h"
#include "util/rng.h"
#include "util/sparse_vector.h"
#include "util/stats.h"
#include "util/stopwatch.h"

namespace {

using wtp::bench::JsonBuilder;

/// Cascade queries timed per scale: enough that p99 has 10 samples beyond
/// it rather than being the maximum.
constexpr std::size_t kTimedQueries = 1000;

struct Options {
  std::vector<std::size_t> scales{1000, 10000, 100000};
  std::uint64_t seed = 42;
  std::string json_out = "BENCH_identification_scale.json";

  static Options parse(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--smoke") {
        options.scales = {1000};
      } else if (arg == "--million") {
        options.scales = {1000, 10000, 100000, 1000000};
      } else if (arg == "--users") {
        options.scales = {static_cast<std::size_t>(std::stoull(next()))};
      } else if (arg == "--seed") {
        options.seed = std::stoull(next());
      } else if (arg == "--json-out") {
        options.json_out = next();
      } else if (arg == "--help") {
        std::printf(
            "usage: %s [--smoke | --million | --users N] [--seed N] "
            "[--json-out PATH]\n",
            argv[0]);
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown flag %s (see --help)\n", arg.c_str());
        std::exit(2);
      }
    }
    return options;
  }
};

/// Resident heap in bytes (glibc arenas + mmapped allocations); 0 when the
/// allocator does not expose it — the heap-dominance assertion is skipped.
std::size_t heap_resident_bytes() {
#ifdef __GLIBC__
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::size_t>(info.uordblks) +
         static_cast<std::size_t>(info.hblkhd);
#else
  return 0;
#endif
}

std::uint64_t find_counter(const wtp::obs::Snapshot& snapshot,
                           const std::string& key) {
  for (const auto& entry : snapshot.counters) {
    if (wtp::obs::canonical_key(entry.name, entry.labels) == key) {
      return entry.value;
    }
  }
  return 0;
}

const wtp::util::LatencyHistogram* find_timer(
    const wtp::obs::Snapshot& snapshot, const std::string& key) {
  for (const auto& entry : snapshot.timers) {
    if (wtp::obs::canonical_key(entry.name, entry.labels) == key) {
      return &entry.histogram;
    }
  }
  return nullptr;
}

void emit_timer(JsonBuilder& json, const char* name,
                const wtp::util::LatencyHistogram* histogram) {
  json.key(name).begin_object();
  if (histogram != nullptr && histogram->count() > 0) {
    json.key("count").value(histogram->count());
    json.key("mean_us").value(histogram->mean() / 1e3);
    json.key("p50_us").value(histogram->quantile(0.5) / 1e3);
    json.key("p99_us").value(histogram->quantile(0.99) / 1e3);
    json.key("max_us").value(histogram->max() / 1e3);
  }
  json.end_object();
}

struct ScaleReport {
  bool ok = true;
  std::size_t users = 0;
};

ScaleReport run_scale(std::size_t users, std::uint64_t seed,
                      JsonBuilder& json) {
  using namespace wtp;
  ScaleReport report;
  report.users = users;

  synthetic::ScaleConfig config;
  config.seed = seed;
  config.users = users;
  const synthetic::ScalePopulation population{config};

  const std::string store_path =
      "identification_scale_" + std::to_string(users) + ".wtpstore";

  // --- 1. stream the population into the mapped store -------------------
  util::Stopwatch build_watch;
  {
    index::MappedStoreWriter writer{store_path, population.window(),
                                    population.schema()};
    const core::ProfileParams params{core::ClassifierType::kOcSvm,
                                     config.kernel, 0.5};
    for (std::size_t u = 0; u < users; ++u) {
      writer.add(population.user_id(u), params,
                 svm::AnySvmModel{population.make_model(u)});
    }
    writer.finish();
  }
  const double build_s = build_watch.elapsed_seconds();

  // --- 2. map it back; the heap delta is what open() itself allocates ---
  const std::size_t heap_before = heap_resident_bytes();
  util::Stopwatch open_watch;
  const index::MappedProfileStore store = index::MappedProfileStore::open(store_path);
  const double open_s = open_watch.elapsed_seconds();
  const std::size_t heap_after = heap_resident_bytes();
  const std::size_t heap_delta =
      heap_after > heap_before ? heap_after - heap_before : 0;

  // --- 3. cascade vs exhaustive over the same catalog -------------------
  util::Stopwatch plane_watch;
  const index::IdentificationPlane plane{store};
  const double plane_s = plane_watch.elapsed_seconds();

  // Windows are sampled before the timed loop; only identify() is timed.
  const auto window_of = [&](std::size_t q) {
    return population.sample_window((q * 997) % users, 0xbeef00 + q);
  };
  std::vector<util::SparseVector> windows;
  windows.reserve(kTimedQueries);
  for (std::size_t q = 0; q < kTimedQueries; ++q) windows.push_back(window_of(q));

  std::vector<index::IdentificationResult> cascade(kTimedQueries);
  std::vector<double> latency_us;
  latency_us.reserve(kTimedQueries);
  double sum_overlap = 0.0, sum_centroid = 0.0, sum_gaussian = 0.0,
         sum_scored = 0.0;
  util::Stopwatch query_watch;
  for (std::size_t q = 0; q < kTimedQueries; ++q) {
    util::Stopwatch call_watch;
    cascade[q] = plane.identify(windows[q]);
    latency_us.push_back(call_watch.elapsed_seconds() * 1e6);
    sum_overlap += static_cast<double>(cascade[q].overlap_survivors);
    sum_centroid += static_cast<double>(cascade[q].centroid_survivors);
    sum_gaussian += static_cast<double>(cascade[q].gaussian_survivors);
    sum_scored += static_cast<double>(cascade[q].scored);
  }
  const double query_s = query_watch.elapsed_seconds();
  const double queries = static_cast<double>(kTimedQueries);

  // Exhaustive fan-out is O(users) per query; cap total exhaustive work so
  // the 10^5/10^6 points stay tractable on one core.  The checked windows
  // are a seeded sample of the timed ones.
  const std::size_t checked = std::min<std::size_t>(
      kTimedQueries, std::max<std::size_t>(20, 2000000 / users));
  std::vector<std::size_t> order(kTimedQueries);
  for (std::size_t q = 0; q < kTimedQueries; ++q) order[q] = q;
  util::Rng rng{seed ^ users};
  rng.shuffle(order);
  std::size_t argmax_matches = 0;
  for (std::size_t k = 0; k < checked; ++k) {
    const std::size_t q = order[k];
    const index::IdentificationResult exhaustive =
        plane.identify_exhaustive(windows[q]);
    if (cascade[q].best == exhaustive.best &&
        cascade[q].best_decision == exhaustive.best_decision) {
      ++argmax_matches;
    } else {
      report.ok = false;
      std::fprintf(stderr,
                   "FAIL n=%zu q=%zu: cascade argmax %zu (%.17g) != "
                   "exhaustive %zu (%.17g)\n",
                   users, q, cascade[q].best, cascade[q].best_decision,
                   exhaustive.best, exhaustive.best_decision);
    }
  }

  // --- 4. per-stage metrics from the plane's registry -------------------
  const obs::Snapshot snapshot = plane.registry().snapshot();
  const std::uint64_t cascade_calls =
      find_counter(snapshot, "index.kernel_row_calls");
  const std::uint64_t cascade_windows = find_counter(snapshot, "index.windows");
  const std::uint64_t exhaustive_calls =
      find_counter(snapshot, "index.exhaustive_kernel_row_calls");
  const std::uint64_t exhaustive_windows =
      find_counter(snapshot, "index.exhaustive_windows");

  const double cascade_per_window =
      cascade_windows ? static_cast<double>(cascade_calls) /
                            static_cast<double>(cascade_windows)
                      : 0.0;
  const double exhaustive_per_window =
      exhaustive_windows ? static_cast<double>(exhaustive_calls) /
                               static_cast<double>(exhaustive_windows)
                         : 0.0;
  const double reduction =
      cascade_per_window > 0.0 ? exhaustive_per_window / cascade_per_window : 0.0;

  // --- 5. bit-identity spot checks: heap-built vs mmap-viewed vs
  //        materialized-from-mmap models ---------------------------------
  std::size_t identity_checks = 0, identity_failures = 0;
  for (const std::size_t u :
       {std::size_t{0}, users / 2, users - 1}) {
    const svm::OneClassSvmModel heap_model = population.make_model(u);
    const core::UserProfile round_trip = store.materialize_profile(u);
    for (std::size_t probe = 0; probe < 4; ++probe) {
      const util::SparseVector x =
          population.sample_window(u, 0xfeed00 + probe);
      const double from_heap = heap_model.decision_value(x);
      const double from_view = store.model(u).decision_value(x);
      const double from_round_trip = round_trip.decision_value(x);
      ++identity_checks;
      if (from_heap != from_view || from_heap != from_round_trip) {
        ++identity_failures;
        report.ok = false;
        std::fprintf(stderr,
                     "FAIL n=%zu u=%zu: decision heap=%.17g view=%.17g "
                     "materialized=%.17g\n",
                     users, u, from_heap, from_view, from_round_trip);
      }
    }
  }

  // --- assertions --------------------------------------------------------
  if (argmax_matches != checked) report.ok = false;
  const bool assert_scale = users >= 100000;
  if (assert_scale && reduction < 10.0) {
    report.ok = false;
    std::fprintf(stderr,
                 "FAIL n=%zu: kernel_row reduction %.1fx < required 10x\n",
                 users, reduction);
  }
  const bool heap_measured = heap_resident_bytes() != 0;
  if (assert_scale && heap_measured &&
      heap_delta * 10 > store.mapped_bytes()) {
    report.ok = false;
    std::fprintf(stderr,
                 "FAIL n=%zu: heap delta %zu bytes not dominated by mapped "
                 "file %zu bytes\n",
                 users, heap_delta, store.mapped_bytes());
  }

  // --- report ------------------------------------------------------------
  std::printf(
      "n=%-8zu build %6.1fs  open %6.3fs  plane %6.3fs  file %7.1f MB  "
      "heap +%6.1f MB\n",
      users, build_s, open_s, plane_s,
      static_cast<double>(store.mapped_bytes()) / 1e6,
      static_cast<double>(heap_delta) / 1e6);
  const double p50_us = util::quantile(latency_us, 0.50);
  const double p99_us = util::quantile(latency_us, 0.99);
  std::printf(
      "           %zu queries in %.2fs  identify p50 %.0f us  p99 %.0f us  "
      "argmax %zu/%zu checked\n",
      kTimedQueries, query_s, p50_us, p99_us, argmax_matches, checked);
  std::printf(
      "           survivors %.0f->%.0f->%.0f->%.0f  kernel_row/window %.1f vs "
      "%.0f (%.1fx)\n",
      sum_overlap / queries, sum_centroid / queries, sum_gaussian / queries,
      sum_scored / queries, cascade_per_window, exhaustive_per_window,
      reduction);

  json.begin_object();
  json.key("users").value(users);
  json.key("file_bytes").value(store.mapped_bytes());
  json.key("heap_delta_bytes").value(heap_delta);
  json.key("heap_measured").value(heap_measured);
  json.key("build_seconds").value(build_s);
  json.key("open_seconds").value(open_s);
  json.key("plane_build_seconds").value(plane_s);
  json.key("queries").value(kTimedQueries);
  json.key("checked_queries").value(checked);
  json.key("argmax_matches").value(argmax_matches);
  json.key("identity_checks").value(identity_checks);
  json.key("identity_failures").value(identity_failures);
  json.key("survivors").begin_object();
  json.key("overlap").value(sum_overlap / queries);
  json.key("centroid").value(sum_centroid / queries);
  json.key("gaussian").value(sum_gaussian / queries);
  json.key("scored").value(sum_scored / queries);
  json.end_object();
  json.key("kernel_row_per_window").begin_object();
  json.key("cascade").value(cascade_per_window);
  json.key("exhaustive").value(exhaustive_per_window);
  json.key("reduction").value(reduction);
  json.end_object();
  // identify latency from the raw samples; the stage timers below are
  // registry histograms (exact means, bucketed percentiles).
  json.key("identify").begin_object();
  json.key("count").value(kTimedQueries);
  json.key("mean_us").value(query_s * 1e6 / queries);
  json.key("p50_us").value(p50_us);
  json.key("p99_us").value(p99_us);
  json.key("max_us").value(util::quantile(latency_us, 1.0));
  json.end_object();
  emit_timer(json, "stage_overlap",
             find_timer(snapshot, "index.stage_ns{stage=overlap}"));
  emit_timer(json, "stage_centroid",
             find_timer(snapshot, "index.stage_ns{stage=centroid}"));
  emit_timer(json, "stage_gaussian",
             find_timer(snapshot, "index.stage_ns{stage=gaussian}"));
  emit_timer(json, "stage_svm",
             find_timer(snapshot, "index.stage_ns{stage=svm}"));
  json.key("ok").value(report.ok);
  json.end_object();

  std::remove(store_path.c_str());
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv);

  std::printf("# identification_scale: cascade-vs-exhaustive equivalence + "
              "mmap store residency\n");
  JsonBuilder json;
  json.begin_object();
  json.key("bench").value("identification_scale");
  wtp::bench::write_stamp(json);
  json.key("seed").value(options.seed);
  json.key("scales").begin_array();

  bool all_ok = true;
  for (const std::size_t users : options.scales) {
    const ScaleReport report = run_scale(users, options.seed, json);
    all_ok = all_ok && report.ok;
  }

  json.end_array();
  json.key("ok").value(all_ok);
  json.end_object();
  json.write_file(options.json_out);
  std::printf("# wrote %s\n", options.json_out.c_str());

  if (!all_ok) {
    std::fprintf(stderr, "identification_scale: FAILED\n");
    return 1;
  }
  std::printf("# all scales passed: cascade argmax identical to exhaustive "
              "fan-out\n");
  return 0;
}
