#include "svm/kernel.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/registry.h"
#include "svm/kernel_backends.h"
#include "svm/kernel_scalar_body.h"
#include "util/strings.h"

namespace wtp::svm {

std::span<double> kernel_row_scratch(std::size_t size) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < size) {
    // Growing relocates the buffer, which invalidates spans handed out
    // earlier on this thread (see the contract in kernel.h).  Grow
    // geometrically so a ratcheting caller triggers O(log n) relocations,
    // and value-initialize the tail so the full span is always readable.
    scratch.resize(std::max(size, scratch.size() * 2), 0.0);
  }
  return std::span<double>{scratch.data(), size};
}

std::string_view to_string(KernelType type) noexcept {
  switch (type) {
    case KernelType::kLinear: return "linear";
    case KernelType::kPolynomial: return "polynomial";
    case KernelType::kRbf: return "rbf";
    case KernelType::kSigmoid: return "sigmoid";
  }
  return "linear";
}

KernelType parse_kernel_type(std::string_view text) {
  const std::string lowered = util::to_lower(text);
  if (lowered == "linear") return KernelType::kLinear;
  if (lowered == "polynomial" || lowered == "poly") return KernelType::kPolynomial;
  if (lowered == "rbf") return KernelType::kRbf;
  if (lowered == "sigmoid") return KernelType::kSigmoid;
  throw std::runtime_error{"parse_kernel_type: unknown kernel '" + std::string{text} + "'"};
}

std::string_view to_string(TransformMode mode) noexcept {
  switch (mode) {
    case TransformMode::kDefault: return "default";
    case TransformMode::kExact: return "exact";
    case TransformMode::kRelaxed: return "relaxed";
  }
  return "exact";
}

TransformMode parse_transform_mode(std::string_view text) {
  const std::string lowered = util::to_lower(text);
  if (lowered == "default") return TransformMode::kDefault;
  if (lowered == "exact") return TransformMode::kExact;
  if (lowered == "relaxed") return TransformMode::kRelaxed;
  throw std::runtime_error{"parse_transform_mode: unknown mode '" +
                           std::string{text} + "' (want exact|relaxed)"};
}

namespace {

// ------------------------------------------------------ backend selection --

/// Sentinel for "bitset plane disabled" so the atomic can distinguish
/// "not yet selected" (nullptr) from "selected: csr".
const util::BitsetDotOps kCsrSentinel{"csr",   nullptr, nullptr, nullptr,
                                      nullptr, nullptr, nullptr, nullptr};
const util::BitsetDotOps* const kCsrOnly = &kCsrSentinel;

std::atomic<const util::BitsetDotOps*> g_backend{nullptr};

const util::BitsetDotOps* find_backend(std::string_view name, bool* supported) {
  for (const auto& backend : detail::kernel_backends()) {
    if (name == backend.ops->name) {
      *supported = backend.supported();
      return backend.ops;
    }
  }
  return nullptr;
}

const util::BitsetDotOps* select_backend(std::string_view requested) {
  if (requested == "csr" || requested == "none" || requested == "off") {
    return kCsrOnly;
  }
  if (!requested.empty()) {
    bool supported = false;
    const util::BitsetDotOps* ops = find_backend(requested, &supported);
    if (ops == nullptr) {
      throw std::runtime_error{"WTP_KERNEL_BACKEND: unknown backend '" +
                               std::string{requested} + "'"};
    }
    if (!supported) {
      std::fprintf(stderr,
                   "wtp: kernel backend '%s' not supported by this CPU; "
                   "falling back to scalar\n",
                   ops->name);
      return &util::scalar_bitset_ops();
    }
    return ops;
  }
  for (const auto& backend : detail::kernel_backends()) {
    if (backend.supported()) return backend.ops;
  }
  return &util::scalar_bitset_ops();
}

// ------------------------------------------- transform backend selection --

std::atomic<const detail::TransformOps*> g_transform_ops{nullptr};

/// Maps a WTP_KERNEL_BACKEND name onto the transform set: "avx512"/"avx2"
/// pick the same-named transform backend (scalar if the CPU lacks it —
/// select_backend already warned); names with no transform counterpart
/// ("popcnt", "csr", "none", "off") and the empty request's
/// fastest-supported default resolve here too.  Never throws: the bitset
/// selection already validated the name.
const detail::TransformOps* select_transform_backend(std::string_view requested) {
  if (requested.empty()) {
    for (const auto& backend : detail::transform_backends()) {
      if (backend.supported()) return backend.ops;
    }
    return &detail::scalar_transform_ops();
  }
  for (const auto& backend : detail::transform_backends()) {
    if (requested == backend.ops->name) {
      return backend.supported() ? backend.ops
                                 : &detail::scalar_transform_ops();
    }
  }
  return &detail::scalar_transform_ops();
}

const util::BitsetDotOps* active_backend() {
  const util::BitsetDotOps* ops = g_backend.load(std::memory_order_acquire);
  if (ops != nullptr) return ops;
  static std::mutex init_mutex;
  const std::scoped_lock lock{init_mutex};
  ops = g_backend.load(std::memory_order_acquire);
  if (ops == nullptr) {
    const char* env = std::getenv("WTP_KERNEL_BACKEND");
    const std::string_view requested = env == nullptr ? std::string_view{} : env;
    ops = select_backend(requested);
    // Transform ops are published before g_backend (the release fence), so
    // any thread that observes the bitset selection also observes the
    // transform selection.
    g_transform_ops.store(select_transform_backend(requested),
                          std::memory_order_release);
    g_backend.store(ops, std::memory_order_release);
  }
  return ops;
}

const detail::TransformOps& transform_dispatch() {
  const detail::TransformOps* ops =
      g_transform_ops.load(std::memory_order_acquire);
  if (ops != nullptr) return *ops;
  active_backend();  // selects both planes under one lock
  return *g_transform_ops.load(std::memory_order_acquire);
}

// ----------------------------------------------------------- mode + obs --

constexpr int kModeUnset = -1;
std::atomic<int> g_transform_mode{kModeUnset};

/// Per-kernel dot/transform timers + the relaxed-mode gauge; resolved once
/// per set_kernel_metrics install, lock-free on the hot path.
struct KernelMetrics {
  std::array<obs::Timer*, 4> dot{};
  std::array<obs::Timer*, 4> transform{};
  obs::Gauge* relaxed_active = nullptr;
  obs::Counter* csr_fallback = nullptr;
};

std::atomic<const KernelMetrics*> g_metrics{nullptr};

const KernelMetrics* kernel_metrics() {
  return g_metrics.load(std::memory_order_acquire);
}

std::size_t kernel_index(KernelType type) {
  return static_cast<std::size_t>(type);
}

std::int64_t phase_begin(const KernelMetrics* metrics) {
  if (metrics == nullptr) return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void dot_phase_end(const KernelMetrics* metrics, KernelType type,
                   std::int64_t start) {
  if (metrics == nullptr) return;
  const std::int64_t now = phase_begin(metrics);
  metrics->dot[kernel_index(type)]->record_ns(static_cast<double>(now - start));
}

void transform_phase_end(const KernelMetrics* metrics, KernelType type,
                         std::int64_t start) {
  if (metrics == nullptr) return;
  const std::int64_t now = phase_begin(metrics);
  metrics->transform[kernel_index(type)]->record_ns(
      static_cast<double>(now - start));
}

// ------------------------------------------------------- bitset row paths --

/// A query met a bitset block but did not conform to its layout.
void count_csr_fallback() {
  if (const KernelMetrics* metrics = kernel_metrics()) {
    metrics->csr_fallback->add(1);
  }
}

/// Raw dots of the query — (indices, values) or a SparseVector — against
/// every matrix row via the bitset plane, encoded through `cache` when one
/// is given.  Returns false (caller uses the CSR oracle) when the plane is
/// disabled, the matrix has no bitset, or the query does not conform to
/// its layout; only the last counts as a CSR fallback.
template <typename... Query>
bool bitset_dots(const util::BitsetView* bits, EncodedQueryCache* cache,
                 std::span<double> out, const Query&... query) {
  if (bits == nullptr) return false;
  const util::BitsetDotOps* ops = kernel_dispatch();
  if (ops == nullptr) return false;
  const util::BitsetQuery* encoded = nullptr;
  if (cache != nullptr) {
    encoded = cache->get(*bits);
  } else {
    thread_local util::BitsetQuery scratch;
    if (scratch.encode(*bits, query...)) encoded = &scratch;
  }
  if (encoded == nullptr) {
    count_csr_fallback();
    return false;
  }
  util::bitset_dot_rows(*bits, *encoded, out, *ops);
  return true;
}

const util::BitsetView* matrix_bitset_view(const util::FeatureMatrix& matrix,
                                           util::BitsetView* storage) {
  if (kernel_dispatch() == nullptr) return nullptr;  // skip the lazy build
  const util::BitsetStorage* bits = matrix.bitset();
  if (bits == nullptr) return nullptr;
  *storage = bits->view();
  return storage;
}

}  // namespace

const util::BitsetDotOps* kernel_dispatch() {
  const util::BitsetDotOps* ops = active_backend();
  return ops == kCsrOnly ? nullptr : ops;
}

std::string_view kernel_backend_name() {
  const util::BitsetDotOps* ops = active_backend();
  return ops == kCsrOnly ? std::string_view{"csr"} : ops->name;
}

std::vector<std::string_view> supported_kernel_backends() {
  std::vector<std::string_view> names;
  for (const auto& backend : detail::kernel_backends()) {
    if (backend.supported()) names.emplace_back(backend.ops->name);
  }
  return names;
}

void set_kernel_backend_for_testing(std::string_view name) {
  if (name.empty()) {
    g_transform_ops.store(nullptr, std::memory_order_release);
    g_backend.store(nullptr, std::memory_order_release);
    return;
  }
  if (name == "csr" || name == "none" || name == "off") {
    g_transform_ops.store(&detail::scalar_transform_ops(),
                          std::memory_order_release);
    g_backend.store(kCsrOnly, std::memory_order_release);
    return;
  }
  bool supported = false;
  const util::BitsetDotOps* ops = find_backend(name, &supported);
  if (ops == nullptr) {
    throw std::runtime_error{"set_kernel_backend_for_testing: unknown backend '" +
                             std::string{name} + "'"};
  }
  if (!supported) {
    throw std::runtime_error{"set_kernel_backend_for_testing: backend '" +
                             std::string{name} + "' not supported by this CPU"};
  }
  g_transform_ops.store(select_transform_backend(name),
                        std::memory_order_release);
  g_backend.store(ops, std::memory_order_release);
}

TransformMode transform_mode() {
  int mode = g_transform_mode.load(std::memory_order_acquire);
  if (mode == kModeUnset) {
    const char* env = std::getenv("WTP_TRANSFORM_MODE");
    TransformMode parsed = TransformMode::kExact;
    if (env != nullptr && *env != '\0') {
      parsed = parse_transform_mode(env);
      if (parsed == TransformMode::kDefault) parsed = TransformMode::kExact;
    }
    mode = static_cast<int>(parsed);
    // Benign race: concurrent first-callers parse the same environment and
    // store the same value.
    g_transform_mode.store(mode, std::memory_order_release);
  }
  return static_cast<TransformMode>(mode);
}

void set_transform_mode(TransformMode mode) {
  g_transform_mode.store(
      mode == TransformMode::kDefault ? kModeUnset : static_cast<int>(mode),
      std::memory_order_release);
  if (const KernelMetrics* metrics = kernel_metrics()) {
    metrics->relaxed_active->set(
        transform_mode() == TransformMode::kRelaxed ? 1.0 : 0.0);
  }
}

TransformMode effective_transform_mode(const KernelParams& params) {
  return params.transform == TransformMode::kDefault ? transform_mode()
                                                     : params.transform;
}

std::string_view transform_backend_name() {
  return transform_dispatch().name;
}

void set_kernel_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    g_metrics.store(nullptr, std::memory_order_release);
    return;
  }
  // Handle bundles live in a static deque so a pointer published earlier
  // stays valid across re-installs (handles themselves are stable for the
  // registry's lifetime; the registry must outlive all kernel calls —
  // tools pass obs::Registry::global()).
  static std::mutex mutex;
  static std::deque<KernelMetrics> bundles;
  const std::scoped_lock lock{mutex};
  KernelMetrics metrics;
  constexpr std::array<KernelType, 4> kTypes{
      KernelType::kLinear, KernelType::kPolynomial, KernelType::kRbf,
      KernelType::kSigmoid};
  for (const KernelType type : kTypes) {
    const obs::Label label{"kernel", std::string{to_string(type)}};
    const std::span<const obs::Label> labels{&label, 1};
    metrics.dot[kernel_index(type)] = &registry->timer("kernel.dot_ns", labels);
    metrics.transform[kernel_index(type)] =
        &registry->timer("kernel.transform_ns", labels);
  }
  metrics.relaxed_active = &registry->gauge("kernel.transform_relaxed");
  metrics.csr_fallback = &registry->counter("kernel.csr_fallback");
  metrics.relaxed_active->set(
      transform_mode() == TransformMode::kRelaxed ? 1.0 : 0.0);
  bundles.push_back(metrics);
  g_metrics.store(&bundles.back(), std::memory_order_release);
}

// The per-element expressions live in svm/kernel_scalar_body.h — the ONE
// scalar definition kernel_eval, kernel_self, and every transform backend
// stamp from, so exact-tier bit-identity is by construction.
double kernel_eval(const KernelParams& params, const util::SparseVector& x,
                   const util::SparseVector& y, double x_sqnorm,
                   double y_sqnorm) {
  switch (params.type) {
    case KernelType::kLinear:
      return x.dot(y);
    case KernelType::kPolynomial:
      return detail::poly_element(params.gamma, params.coef0, params.degree,
                                  x.dot(y));
    case KernelType::kRbf:
      return std::exp(
          detail::rbf_exp_arg(params.gamma, x_sqnorm, y_sqnorm, x.dot(y)));
    case KernelType::kSigmoid:
      return std::tanh(detail::affine_arg(params.gamma, params.coef0, x.dot(y)));
  }
  throw std::logic_error{"kernel_eval: invalid kernel type"};
}

double kernel_eval(const KernelParams& params, const util::SparseVector& x,
                   const util::SparseVector& y) {
  if (params.type == KernelType::kRbf) {
    return kernel_eval(params, x, y, x.squared_norm(), y.squared_norm());
  }
  return kernel_eval(params, x, y, 0.0, 0.0);
}

double kernel_self(const KernelParams& params, const util::SparseVector& x) {
  return kernel_self(params, x.squared_norm());
}

double kernel_self(const KernelParams& params, double sq_norm) {
  switch (params.type) {
    case KernelType::kRbf:
      return 1.0;
    case KernelType::kLinear:
      return sq_norm;
    case KernelType::kPolynomial:
      return detail::poly_element(params.gamma, params.coef0, params.degree,
                                  sq_norm);
    case KernelType::kSigmoid:
      return std::tanh(detail::affine_arg(params.gamma, params.coef0, sq_norm));
  }
  throw std::logic_error{"kernel_self: invalid kernel type"};
}

namespace {

/// Tile width of the batched transform: the argument pass and the exp/tanh
/// pass revisit the same 8 KB of `out` (plus 8 KB of sq_norms for RBF), so
/// a tile stays L1-resident between the two passes.
constexpr std::size_t kTransformTile = 1024;

/// The tiled transform core (DESIGN §14).  Everything around the libm call
/// runs through the dispatched SIMD backend — the RBF squared-distance
/// assembly with its clamp, the gamma*dot+coef0 pre-scale, lane-parallel
/// powi — all bit-identical to kernel_eval's expressions by construction.
/// Exact tier then applies std::exp/std::tanh per element; relaxed tier
/// applies the backend's vectorized stamps instead.
void transform_tiles(const KernelParams& params, const util::CsrView& matrix,
                     double x_sqnorm, std::span<double> out) {
  const std::size_t n = matrix.rows();
  const detail::TransformOps& ops = transform_dispatch();
  switch (params.type) {
    case KernelType::kLinear:
      return;
    case KernelType::kPolynomial:
      // No transcendental: the whole transform is one SIMD pass.
      ops.poly_transform(params.gamma, params.coef0, params.degree, out.data(),
                         n);
      return;
    case KernelType::kRbf: {
      const bool relaxed =
          effective_transform_mode(params) == TransformMode::kRelaxed;
      const double* sq_norms = matrix.sq_norms.data();
      for (std::size_t j = 0; j < n; j += kTransformTile) {
        const std::size_t len = std::min(kTransformTile, n - j);
        double* tile = out.data() + j;
        ops.rbf_exp_args(params.gamma, x_sqnorm, sq_norms + j, tile, len);
        if (relaxed) {
          ops.exp_inplace(tile, len);
        } else {
          for (std::size_t t = 0; t < len; ++t) tile[t] = std::exp(tile[t]);
        }
      }
      return;
    }
    case KernelType::kSigmoid: {
      const bool relaxed =
          effective_transform_mode(params) == TransformMode::kRelaxed;
      for (std::size_t j = 0; j < n; j += kTransformTile) {
        const std::size_t len = std::min(kTransformTile, n - j);
        double* tile = out.data() + j;
        ops.affine_args(params.gamma, params.coef0, tile, len);
        if (relaxed) {
          ops.tanh_inplace(tile, len);
        } else {
          for (std::size_t t = 0; t < len; ++t) tile[t] = std::tanh(tile[t]);
        }
      }
      return;
    }
  }
  throw std::logic_error{"kernel_transform: invalid kernel type"};
}

}  // namespace

/// Shared tail of the kernel_row overloads: `inout` holds raw dot products
/// of the query with every row; transform them in place.  Bit-identical to
/// per-pair kernel_eval in exact mode (the default); see TransformMode for
/// the relaxed tier.
void kernel_transform(const KernelParams& params, const util::CsrView& matrix,
                      double x_sqnorm, std::span<double> out) {
  if (params.type == KernelType::kLinear) return;
  const KernelMetrics* metrics = kernel_metrics();
  const std::int64_t start = phase_begin(metrics);
  transform_tiles(params, matrix, x_sqnorm, out);
  transform_phase_end(metrics, params.type, start);
}

void kernel_transform(const KernelParams& params,
                      const util::FeatureMatrix& matrix, double x_sqnorm,
                      std::span<double> out) {
  kernel_transform(params, matrix.view(), x_sqnorm, out);
}

void dot_rows(const util::FeatureMatrix& matrix, const util::SparseVector& x,
              std::span<double> out) {
  util::BitsetView view_storage;
  const util::BitsetView* bits = matrix_bitset_view(matrix, &view_storage);
  if (!bitset_dots(bits, nullptr, out, x)) matrix.dot_all(x, out);
}

void dot_rows(const util::FeatureMatrix& matrix, std::size_t i,
              std::span<double> out) {
  util::BitsetView view_storage;
  const util::BitsetView* bits = matrix_bitset_view(matrix, &view_storage);
  if (bits != nullptr) {
    // Rows conform to their own layout by construction: the row IS its
    // encoding, so this path never falls back.
    util::bitset_dot_rows(*bits, i, out, *kernel_dispatch());
    return;
  }
  matrix.dot_all(i, out);
}

void kernel_row(const KernelParams& params, const util::FeatureMatrix& matrix,
                std::size_t i, std::span<double> out) {
  const KernelMetrics* metrics = kernel_metrics();
  const std::int64_t start = phase_begin(metrics);
  dot_rows(matrix, i, out);
  dot_phase_end(metrics, params.type, start);
  kernel_transform(params, matrix.view(), matrix.sq_norm(i), out);
}

const util::BitsetQuery* EncodedQueryCache::get(const util::BitsetView& layout) {
  for (const Entry& entry : entries_) {
    if (entry.cols == layout.cols &&
        entry.numeric_cols.size() == layout.numeric_cols.size() &&
        std::equal(entry.numeric_cols.begin(), entry.numeric_cols.end(),
                   layout.numeric_cols.begin())) {
      return entry.ok ? &entry.query : nullptr;
    }
  }
  Entry& entry = entries_.emplace_back();
  entry.cols = layout.cols;
  entry.numeric_cols.assign(layout.numeric_cols.begin(), layout.numeric_cols.end());
  entry.ok = vector_ != nullptr ? entry.query.encode(layout, *vector_)
                                : entry.query.encode(layout, indices_, values_);
  return entry.ok ? &entry.query : nullptr;
}

void kernel_row(const KernelParams& params, const util::CsrView& matrix,
                const util::BitsetView* bitset,
                std::span<const std::uint32_t> query_indices,
                std::span<const double> query_values, double x_sqnorm,
                std::span<double> out, EncodedQueryCache* cache) {
  const KernelMetrics* metrics = kernel_metrics();
  const std::int64_t start = phase_begin(metrics);
  if (!bitset_dots(bitset, cache, out, query_indices, query_values)) {
    matrix.dot_all(query_indices, query_values, out);
  }
  dot_phase_end(metrics, params.type, start);
  kernel_transform(params, matrix, x_sqnorm, out);
}

void kernel_row(const KernelParams& params, const util::CsrView& matrix,
                const util::BitsetView* bitset, const util::SparseVector& x,
                double x_sqnorm, std::span<double> out,
                EncodedQueryCache* cache) {
  const KernelMetrics* metrics = kernel_metrics();
  const std::int64_t start = phase_begin(metrics);
  if (!bitset_dots(bitset, cache, out, x)) matrix.dot_all(x, out);
  dot_phase_end(metrics, params.type, start);
  kernel_transform(params, matrix, x_sqnorm, out);
}

void kernel_row(const KernelParams& params, const util::FeatureMatrix& matrix,
                const util::SparseVector& x, double x_sqnorm,
                std::span<double> out, EncodedQueryCache* cache) {
  util::BitsetView view_storage;
  kernel_row(params, matrix.view(), matrix_bitset_view(matrix, &view_storage),
             x, x_sqnorm, out, cache);
}

void kernel_block(const KernelParams& params, const util::CsrView& matrix,
                  const util::BitsetView* matrix_bitset,
                  const util::CsrView& queries,
                  const util::BitsetView* queries_bitset, std::span<double> out) {
  const std::size_t n = matrix.rows();
  const std::size_t nq = queries.rows();
  if (nq == 0) return;
  if (out.size() < n * nq) {
    throw std::invalid_argument{"kernel_block: out holds " +
                                std::to_string(out.size()) + " < " +
                                std::to_string(n * nq) + " results"};
  }
  const util::BitsetDotOps* ops = kernel_dispatch();
  // Dot phase: the blocked bitset mini-GEMM plus CSR fallbacks for queries
  // that did not conform, all before any transform — so the transform
  // phase below streams over finished dots tile by tile (and the obs
  // registry sees a clean dot/transform split).
  const KernelMetrics* metrics = kernel_metrics();
  const std::int64_t start = phase_begin(metrics);
  bool need_fallback = true;
  thread_local util::BitsetQueryBlock block;
  if (matrix_bitset != nullptr && ops != nullptr && n != 0) {
    block.encode(*matrix_bitset, queries, queries_bitset);
    util::bitset_dot_block(*matrix_bitset, block, out, *ops);
    need_fallback = !block.all_ok();
  }
  if (need_fallback) {
    for (std::size_t q = 0; q < nq; ++q) {
      const bool encoded = matrix_bitset != nullptr && ops != nullptr && n != 0;
      if (encoded && !block.ok(q)) count_csr_fallback();
      if (!encoded || !block.ok(q)) {
        matrix.dot_all(queries.row_indices(q), queries.row_values(q),
                       out.subspan(q * n, n));
      }
    }
  }
  dot_phase_end(metrics, params.type, start);
  // Transform phase: per-query tiled SIMD transform (kernel_transform
  // records its own per-kernel timer).
  for (std::size_t q = 0; q < nq; ++q) {
    kernel_transform(params, matrix, queries.sq_norm(q), out.subspan(q * n, n));
  }
}

void kernel_block(const KernelParams& params, const util::FeatureMatrix& matrix,
                  const util::FeatureMatrix& queries, std::span<double> out) {
  util::BitsetView matrix_storage;
  const util::BitsetView* matrix_bits = matrix_bitset_view(matrix, &matrix_storage);
  util::BitsetView query_storage;
  const util::BitsetView* query_bits =
      matrix_bits != nullptr ? matrix_bitset_view(queries, &query_storage)
                             : nullptr;
  kernel_block(params, matrix.view(), matrix_bits, queries.view(), query_bits,
               out);
}

std::string describe(const KernelParams& params) {
  std::string out{to_string(params.type)};
  out += "(gamma=" + util::format_double(params.gamma, 4);
  if (params.type == KernelType::kPolynomial) {
    out += ", degree=" + std::to_string(params.degree) +
           ", coef0=" + util::format_double(params.coef0, 2);
  } else if (params.type == KernelType::kSigmoid) {
    out += ", coef0=" + util::format_double(params.coef0, 2);
  }
  out += ")";
  return out;
}

}  // namespace wtp::svm
