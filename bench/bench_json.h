// Minimal JSON emitter for the BENCH_*.json checkpoints: benches append
// flat records (numbers, strings, bools, nested objects/arrays) and write
// one file per run, so the perf trajectory lives on disk next to the
// binaries instead of only in scrollback.  write_stamp() records what a
// checkpoint was measured on, so a slower number can be told apart from a
// slower machine.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "svm/kernel.h"

namespace wtp::bench {

class JsonBuilder {
 public:
  JsonBuilder& begin_object() { return open('{', '}'); }
  JsonBuilder& end_object() { return close('}'); }
  JsonBuilder& begin_array() { return open('[', ']'); }
  JsonBuilder& end_array() { return close(']'); }

  JsonBuilder& key(std::string_view name) {
    comma();
    append_string(name);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }

  JsonBuilder& value(std::string_view text) {
    comma();
    append_string(text);
    return done();
  }
  JsonBuilder& value(const char* text) { return value(std::string_view{text}); }
  JsonBuilder& value(bool flag) {
    comma();
    out_ += flag ? "true" : "false";
    return done();
  }
  JsonBuilder& value(double number) {
    comma();
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", number);
    out_ += buffer;
    return done();
  }
  JsonBuilder& value(std::uint64_t number) {
    comma();
    out_ += std::to_string(number);
    return done();
  }
  JsonBuilder& value(std::int64_t number) {
    comma();
    out_ += std::to_string(number);
    return done();
  }
  JsonBuilder& value(int number) { return value(static_cast<std::int64_t>(number)); }

  [[nodiscard]] const std::string& str() const {
    if (!stack_.empty()) {
      throw std::logic_error{"JsonBuilder: unterminated object/array"};
    }
    return out_;
  }

  /// Writes the (complete) document to `path`; throws on I/O failure.
  void write_file(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      throw std::runtime_error{"JsonBuilder: cannot open '" + path + "'"};
    }
    const std::string& text = str();
    const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
    std::fclose(file);
    if (!ok) throw std::runtime_error{"JsonBuilder: write failed on '" + path + "'"};
  }

 private:
  JsonBuilder& open(char opener, char closer) {
    comma();
    out_ += opener;
    stack_.push_back(closer);
    need_comma_ = false;
    pending_value_ = false;
    return *this;
  }

  JsonBuilder& close(char closer) {
    if (stack_.empty() || stack_.back() != closer) {
      throw std::logic_error{"JsonBuilder: mismatched close"};
    }
    stack_.pop_back();
    out_ += closer;
    need_comma_ = true;
    return *this;
  }

  void comma() {
    if (pending_value_) return;  // the comma was emitted before the key
    if (need_comma_) out_ += ',';
  }

  JsonBuilder& done() {
    need_comma_ = true;
    pending_value_ = false;
    return *this;
  }

  void append_string(std::string_view text) {
    out_ += '"';
    for (const char c : text) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
            out_ += buffer;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<char> stack_;
  bool need_comma_ = false;
  bool pending_value_ = false;
};

namespace stamp_detail {

/// First line of `command`'s stdout, or "" when it cannot run or fails.
inline std::string first_line_of(const std::string& command) {
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buffer[256];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) out += buffer;
  if (::pclose(pipe) != 0) return "";
  const std::size_t newline = out.find('\n');
  return newline == std::string::npos ? out : out.substr(0, newline);
}

/// The source tree's git commit, "-dirty" when src/ or bench/ differ from
/// it; "unknown" outside a git checkout.
inline std::string commit() {
#ifdef WTP_BENCH_SOURCE_DIR
  const std::string git = std::string{"git -C '"} + WTP_BENCH_SOURCE_DIR + "' ";
  const std::string head = first_line_of(git + "rev-parse HEAD 2>/dev/null");
  if (!head.empty()) {
    const std::string dirty = first_line_of(
        git + "status --porcelain -- src bench 2>/dev/null");
    return dirty.empty() ? head : head + "-dirty";
  }
#endif
  return "unknown";
}

inline std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

}  // namespace stamp_detail

/// Writes a "stamp" key: the commit, CPU model, core count, build type, the
/// dispatched kernel and transform backends and the transform mode this
/// process runs with.  bench/CMakeLists.txt defines the build type and the
/// source directory; other builds that include this header record
/// "unknown" for them.
inline void write_stamp(JsonBuilder& json) {
#ifdef WTP_BENCH_BUILD_TYPE
  const char* build_type = WTP_BENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  json.key("stamp").begin_object();
  json.key("commit").value(stamp_detail::commit());
  json.key("cpu_model").value(stamp_detail::cpu_model());
  json.key("nproc").value(
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.key("build_type").value(build_type);
  json.key("kernel_backend").value(svm::kernel_backend_name());
  json.key("transform_backend").value(svm::transform_backend_name());
  json.key("transform_mode")
      .value(svm::transform_mode() == svm::TransformMode::kRelaxed ? "relaxed"
                                                                   : "exact");
  json.end_object();
}

}  // namespace wtp::bench
