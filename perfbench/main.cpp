// wtp_perfbench: the repository benchmark.  One run = one workload, one
// seed, one measuring budget, traced or not:
//
//   wtp_perfbench --workload replay_paper|wire_paper|catalog_1e5
//                 --seed N --seconds S --trace 0|1
//                 [--commit ID] [--record PATH]
//
// Prints the run's stamp, its correctness gates and every metric with its
// unit, then, as the last line, one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics when untraced, the
// per-layer metrics when traced.  --record also writes the full run
// (stamp, gates, raw repetition values, quartiles) for compare.py.
// Exits 0 when every gate passes, 1 when one fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common.h"
#include "svm/kernel.h"

#ifndef WTP_PERFBENCH_BUILD_TYPE
#define WTP_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace wtp::perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the end_to_end and per_layer entries of BENCHMARK.json
// (run.py checks every result line against it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"decision_p50_us", "us"},
    {"decision_p99_us", "us"},
    {"decided_correct_share", "share"},
    {"reference_agreement", "share"},
    {"delivered_share", "share"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"svm.dot_us", "us"},
    {"svm.transform_us", "us"},
    {"core.score_window_us", "us"},
    {"core.accept_0", "share"},
    {"core.accept_1", "share"},
    {"core.accept_many", "share"},
    {"features.encode_us", "us"},
    {"features.fold_us", "us"},
    {"serve.session_push_us", "us"},
    {"serve.decide_us", "us"},
    {"serve.ingest_us", "us"},
    {"serve.unattributed_share", "share"},
    {"net.decode_us", "us"},
    {"net.queue_wait_us", "us"},
    {"net.reply_us", "us"},
    {"net.dropped", "count"},
    {"load.generator_lag_p99_us", "us"},
    {"serve.publish_us", "us"},
    {"index.overlap_us", "us"},
    {"index.centroid_us", "us"},
    {"index.gaussian_us", "us"},
    {"index.svm_us", "us"},
    {"index.overlap_survivors", "count"},
    {"index.centroid_survivors", "count"},
    {"index.gaussian_survivors", "count"},
    {"index.scored", "count"},
    {"index.prune_ratio", "share"},
    {"index.store_write_s", "s"},
    {"index.store_open_s", "s"},
    {"index.plane_build_s", "s"},
    {"index.mapped_mb", "MB"},
    {"setup.train_s", "s"},
    {"trace.unattributed_share", "share"},
    {"trace.overhead_share", "share"},
};

struct Args {
  RunOptions run;
  std::string commit = "unknown";
  std::string record;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "wtp_perfbench: %s\n"
               "usage: wtp_perfbench --workload replay_paper|wire_paper|"
               "catalog_1e5 --seed N --seconds S --trace 0|1 [--commit ID] "
               "[--record PATH]\n",
               error.c_str());
  std::exit(2);
}

double parse_number(std::string_view flag, const std::string& text) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || !(value >= 0.0)) {
    usage("bad value '" + text + "' for " + std::string{flag});
  }
  return value;
}

/// Strict parser: every flag takes one value, unknown flags and repeated
/// flags are errors, and the four run flags are required.
Args parse_args(int argc, char** argv) {
  Args args;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (!seen.insert(flag).second) usage("repeated flag " + flag);
    if (flag == "--workload") {
      args.run.workload = value;
    } else if (flag == "--seed") {
      const double seed = parse_number(flag, value);
      if (seed != static_cast<double>(static_cast<std::uint64_t>(seed))) {
        usage("--seed takes a whole number");
      }
      args.run.seed = static_cast<std::uint64_t>(seed);
    } else if (flag == "--seconds") {
      args.run.seconds = parse_number(flag, value);
      if (args.run.seconds <= 0.0) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.run.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--record") {
      args.record = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (!seen.contains(required)) usage(std::string{"missing "} + required);
  }
  const std::string& w = args.run.workload;
  if (w != "replay_paper" && w != "wire_paper" && w != "catalog_1e5") {
    usage("unknown workload '" + w + "'");
  }
  return args;
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Machine-wide CPU time from the first line of /proc/stat, in clock
/// ticks: all of it, and the part the hypervisor gave to other guests
/// while this one wanted to run (steal).  Zeros where the file is missing.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuTimes cpu_times() {
  std::ifstream in{"/proc/stat"};
  std::string label;
  CpuTimes times;
  in >> label;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t ticks = 0;
    if (!(in >> ticks)) break;
    times.total += ticks;
    if (field == 7) times.steal = ticks;
  }
  return times;
}

/// Steal over all CPU time between two readings; 0 when no time passed.
double steal_share(const CpuTimes& begin, const CpuTimes& end) {
  const std::uint64_t total = end.total - begin.total;
  return total == 0 ? 0.0
                    : static_cast<double>(end.steal - begin.steal) /
                          static_cast<double>(total);
}

using Stamp = std::vector<std::pair<std::string, std::string>>;

Stamp make_stamp(const Args& args) {
  Stamp stamp;
  stamp.emplace_back("commit", args.commit);
  stamp.emplace_back("cpu_model", cpu_model());
  stamp.emplace_back("nproc",
                     std::to_string(std::thread::hardware_concurrency()));
  stamp.emplace_back("build_type", WTP_PERFBENCH_BUILD_TYPE);
  stamp.emplace_back("kernel_backend",
                     std::string{wtp::svm::kernel_backend_name()});
  stamp.emplace_back("transform_backend",
                     std::string{wtp::svm::transform_backend_name()});
  stamp.emplace_back(
      "transform_mode",
      wtp::svm::transform_mode() == wtp::svm::TransformMode::kRelaxed
          ? "relaxed"
          : "exact");
  return stamp;
}

/// Checks the workload's metrics against the declared list; per-layer
/// metrics a workload does not exercise are reported as 0.
void normalize(const Args& args, Report& report) {
  const bool traced = args.run.trace;
  const auto& specs = traced ? std::span<const MetricSpec>{kPerLayer}
                             : std::span<const MetricSpec>{kEndToEnd};
  std::set<std::string> reported;
  for (const Metric& m : report.metrics) {
    bool known = false;
    for (const MetricSpec& spec : specs) {
      known = known || (m.name == spec.name && m.unit == spec.unit);
    }
    if (!known || !reported.insert(m.name).second) {
      throw std::logic_error{"metric '" + m.name + "' [" + m.unit +
                             "] is not declared for this run"};
    }
  }
  for (const MetricSpec& spec : specs) {
    if (reported.contains(spec.name)) continue;
    if (!traced) {
      throw std::logic_error{std::string{"end-to-end metric '"} + spec.name +
                             "' was not measured"};
    }
    report.metric(spec.name, 0.0, spec.unit).note =
        "not exercised by " + args.run.workload;
  }
}

void print_metric(const Metric& m) {
  std::printf("metric %-28s = %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
  if (m.samples != 0) std::printf("  (n=%zu raw samples)", m.samples);
  if (m.raw.size() > 1) {
    const Spread s = spread_of(m.raw);
    std::printf("  [%zu values: median %.6g, q1 %.6g, q3 %.6g; raw",
                m.raw.size(), s.median, s.q1, s.q3);
    for (const double v : m.raw) std::printf(" %.6g", v);
    std::printf("]");
  }
  if (!m.note.empty()) std::printf("  -- %s", m.note.c_str());
  std::printf("\n");
}

void write_metric_json(wtp::bench::JsonBuilder& json, const Metric& m) {
  json.key(m.name).begin_object();
  json.key("value").value(m.value);
  json.key("unit").value(m.unit);
  if (m.samples != 0) json.key("samples").value(m.samples);
  if (!m.raw.empty()) {
    const Spread s = spread_of(m.raw);
    json.key("median").value(s.median);
    json.key("q1").value(s.q1);
    json.key("q3").value(s.q3);
    json.key("raw").begin_array();
    for (const double v : m.raw) json.value(v);
    json.end_array();
  }
  if (!m.note.empty()) json.key("note").value(m.note);
  json.end_object();
}

void write_record(const Args& args, const Stamp& stamp, const Report& report,
                  bool correct, double host_steal) {
  wtp::bench::JsonBuilder json;
  json.begin_object();
  json.key("workload").value(args.run.workload);
  json.key("seed").value(args.run.seed);
  json.key("seconds").value(args.run.seconds);
  json.key("trace").value(args.run.trace);
  json.key("stamp").begin_object();
  for (const auto& [key, value] : stamp) json.key(key).value(value);
  json.end_object();
  json.key("host_steal_share").value(host_steal);
  json.key("correct").value(correct);
  json.key("attempted").value(report.attempted);
  json.key("failed").value(report.failed);
  json.key("gates").begin_array();
  for (const Gate& g : report.gates) {
    json.begin_object();
    json.key("name").value(g.name);
    json.key("ok").value(g.ok);
    json.key("detail").value(g.detail);
    json.end_object();
  }
  json.end_array();
  json.key("metrics").begin_object();
  for (const Metric& m : report.metrics) write_metric_json(json, m);
  json.end_object();
  json.key("aliases").begin_object();
  for (const Metric& m : report.extra) write_metric_json(json, m);
  json.end_object();
  json.end_object();
  json.write_file(args.record);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const Stamp stamp = make_stamp(args);
    std::printf("# wtp_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                args.run.workload.c_str(),
                static_cast<unsigned long long>(args.run.seed),
                args.run.seconds, args.run.trace ? 1 : 0);
    std::printf("# stamp");
    for (const auto& [key, value] : stamp) {
      std::printf(" %s=\"%s\"", key.c_str(), value.c_str());
    }
    std::printf("\n");
    std::fflush(stdout);

    Report report;
    const CpuTimes before = cpu_times();
    if (args.run.workload == "replay_paper") {
      run_replay_paper(args.run, report);
    } else if (args.run.workload == "wire_paper") {
      run_wire_paper(args.run, report);
    } else {
      run_catalog_1e5(args.run, report);
    }
    const double host_steal = steal_share(before, cpu_times());
    normalize(args, report);
    const bool correct = report.all_gates_ok() && report.attempted > 0;

    for (const Gate& g : report.gates) {
      std::printf("gate %-32s %s  (%s)\n", g.name.c_str(),
                  g.ok ? "PASS" : "FAIL", g.detail.c_str());
    }
    for (const Metric& m : report.metrics) print_metric(m);
    for (const Metric& m : report.extra) print_metric(m);
    // Tail latencies on a shared virtual machine follow the hypervisor's
    // steal; printed so a run's spread can be read against it.
    std::printf("# host steal_share=%.4f (machine CPU time the hypervisor "
                "gave to other guests during the run)\n",
                host_steal);
    if (!args.record.empty()) {
      write_record(args, stamp, report, correct, host_steal);
    }

    wtp::bench::JsonBuilder result;
    result.begin_object();
    result.key("correct").value(correct);
    result.key("attempted").value(report.attempted);
    result.key("failed").value(report.failed);
    result.key("metrics").begin_object();
    for (const Metric& m : report.metrics) {
      result.key(m.name).begin_object();
      result.key("value").value(m.value);
      result.key("unit").value(m.unit);
      result.end_object();
    }
    result.end_object();
    result.end_object();
    std::printf("%s\n", result.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "wtp_perfbench: %s\n", error.what());
    return 1;
  }
}
