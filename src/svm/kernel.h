// Kernel functions over sparse feature vectors (paper §II, eq. 2).
//
// The four kernels of the paper's grid search (Tab. III):
//   linear      k(x,y) = x.y
//   polynomial  k(x,y) = (gamma x.y + coef0)^degree
//   rbf         k(x,y) = exp(-gamma ||x-y||^2)      [paper: gamma = 1/C]
//   sigmoid     k(x,y) = tanh(gamma x.y + coef0)
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bitset_view.h"
#include "util/feature_matrix.h"
#include "util/sparse_vector.h"

namespace wtp::obs {
class Registry;
}  // namespace wtp::obs

namespace wtp::svm {

enum class KernelType : std::uint8_t { kLinear, kPolynomial, kRbf, kSigmoid };

class EncodedQueryCache;

[[nodiscard]] std::string_view to_string(KernelType type) noexcept;
/// Throws std::runtime_error on unknown names.
[[nodiscard]] KernelType parse_kernel_type(std::string_view text);

/// Precision tier of the batched kernel transform (DESIGN §14).
///
///   kExact   — the in-repo vectorized exp/tanh (svm/exp_body.inc: exp
///              <= 1 ULP, tanh <= 4 ULP of glibc) in the oracle's
///              expression order; every output bit-identical to kernel_eval
///              on every backend, and fixed by this repository's source
///              rather than by the host's libm.  The process default.
///   kRelaxed — the same stamps with fused multiply-adds in the polynomials,
///              bounded by exp <= 4 ULP, tanh <= 8 ULP of libm.  Explicit
///              opt-in only: WTP_TRANSFORM_MODE=relaxed or
///              KernelParams::transform.  Scoring-tier only — training
///              (the SMO solver) always pins kExact so models are
///              reproducible regardless of mode.
///   kDefault — follow the process-wide mode (KernelParams::transform's
///              "no override" value).
enum class TransformMode : std::uint8_t { kDefault, kExact, kRelaxed };

[[nodiscard]] std::string_view to_string(TransformMode mode) noexcept;
/// Parses "exact" / "relaxed" ("default" is also accepted for kDefault).
/// Throws std::runtime_error on unknown names.
[[nodiscard]] TransformMode parse_transform_mode(std::string_view text);

struct KernelParams {
  KernelType type = KernelType::kRbf;
  /// gamma <= 0 means "auto": replaced by 1/dimension at training time.
  double gamma = 0.0;
  double coef0 = 0.0;
  int degree = 3;
  /// Per-model transform-precision override.  kDefault follows the
  /// process-wide mode (transform_mode() below).  Execution hint only —
  /// NOT part of the kernel's identity, so it is excluded from equality
  /// and never serialized (model_io writes the four math fields).
  TransformMode transform = TransformMode::kDefault;

  friend bool operator==(const KernelParams& a, const KernelParams& b) {
    return a.type == b.type && a.gamma == b.gamma && a.coef0 == b.coef0 &&
           a.degree == b.degree;
  }
};

/// Evaluates k(x, y).  For RBF, the squared norms of x and y may be passed
/// to avoid recomputation (the solver precomputes them for all rows).
[[nodiscard]] double kernel_eval(const KernelParams& params,
                                 const util::SparseVector& x,
                                 const util::SparseVector& y);
[[nodiscard]] double kernel_eval(const KernelParams& params,
                                 const util::SparseVector& x,
                                 const util::SparseVector& y, double x_sqnorm,
                                 double y_sqnorm);

/// k(x, x): 1 for RBF, ||x||-dependent otherwise.
[[nodiscard]] double kernel_self(const KernelParams& params,
                                 const util::SparseVector& x);
/// k(x, x) from a cached squared norm (FeatureMatrix rows, scored queries).
[[nodiscard]] double kernel_self(const KernelParams& params, double sq_norm);

/// Batch kernel evaluation: one row of K against *all* rows of a matrix in
/// a single pass, the kernel transform applied kernel-hoisted over the
/// whole row.  Results are bit-identical to per-pair kernel_eval with
/// cached norms.  `out` must hold matrix.rows() elements.
///
/// Query = row i of the matrix itself (the SMO solver's Gram rows):
void kernel_row(const KernelParams& params, const util::FeatureMatrix& matrix,
                std::size_t i, std::span<double> out);

/// Query = an external vector with its squared norm precomputed (decision
/// functions compute the query norm once per scored vector, not once per
/// kernel call).  This is the one scoring core: svm::ModelView calls it
/// for heap models and memory-mapped blobs alike.  When `bitset` is
/// non-null and the query conforms to its layout, the dots go through the
/// dispatched AND+popcount backend, else through the CSR oracle.  With a
/// `cache` built over the same query, its bitset encoding is shared with
/// every other block of the same layout.
void kernel_row(const KernelParams& params, const util::CsrView& matrix,
                const util::BitsetView* bitset,
                std::span<const std::uint32_t> query_indices,
                std::span<const double> query_values, double x_sqnorm,
                std::span<double> out, EncodedQueryCache* cache = nullptr);
void kernel_row(const KernelParams& params, const util::CsrView& matrix,
                const util::BitsetView* bitset, const util::SparseVector& x,
                double x_sqnorm, std::span<double> out,
                EncodedQueryCache* cache = nullptr);
/// The same over a FeatureMatrix and its cached bitset companion (the
/// tests' and benches' entry point; forwards to the CsrView core).
void kernel_row(const KernelParams& params, const util::FeatureMatrix& matrix,
                const util::SparseVector& x, double x_sqnorm,
                std::span<double> out, EncodedQueryCache* cache = nullptr);

// ----------------------------------------------------------------------
// kernel_dispatch seam (DESIGN §11).
//
// When a matrix carries a bitset companion (util::BitsetStorage) and the
// query conforms to its layout, kernel_row/kernel_block compute the raw
// dots as AND+popcount through the backend selected here; otherwise they
// fall back to the scalar CSR path.  Both paths are bit-identical by
// construction (the combine replays the oracle's summation order), which
// the equivalence suites enforce.
//
// The backend is chosen once, at first use: the fastest of the compiled-in
// set the CPU supports (avx512 > avx2 > popcnt > scalar), overridable with
// WTP_KERNEL_BACKEND=<name>.  WTP_KERNEL_BACKEND=csr disables the bitset
// plane entirely (pure scalar CSR).  An unknown name throws at first
// dispatch; a known but unsupported name warns on stderr and falls back to
// the portable scalar backend.
// ----------------------------------------------------------------------

/// Active bitset backend, or nullptr when the bitset plane is disabled.
[[nodiscard]] const util::BitsetDotOps* kernel_dispatch();
/// Name of the active backend ("csr" when disabled).
[[nodiscard]] std::string_view kernel_backend_name();
/// Backend names this host can actually run (always contains "scalar").
[[nodiscard]] std::vector<std::string_view> supported_kernel_backends();
/// Forces a backend by name ("csr" disables the bitset plane; "" re-selects
/// from the environment).  Throws std::runtime_error on unknown or
/// unsupported names.  Also re-selects the transform backend below: the
/// bitset names map onto the transform set ("avx512" -> avx512,
/// "avx2" -> avx2, "popcnt"/"scalar"/"csr" -> scalar).  Test/bench hook —
/// not thread-safe against concurrent kernel calls.
void set_kernel_backend_for_testing(std::string_view name);

// ----------------------------------------------------------------------
// Transform plane (DESIGN §14).
//
// kernel_transform (and therefore every kernel_row/kernel_block tail) runs
// in cache-sized tiles through a SIMD backend selected alongside the bitset
// backend (same WTP_KERNEL_BACKEND override, same fastest-supported
// default).  The exact tier is vectorized end to end — RBF squared-distance
// assembly with its clamp, the gamma*dot+coef0 pre-scale, lane-parallel
// powi, and the in-repo exp/tanh (exp <= 1 ULP, tanh <= 4 ULP of glibc) —
// and every output is bit-identical to kernel_eval, which calls the same
// scalar stamps; decisions are pinned by this repository, not by glibc.
// The relaxed tier runs the fused-polynomial stamps and must be explicitly
// opted into.
// ----------------------------------------------------------------------

/// The process-wide transform mode: kExact unless WTP_TRANSFORM_MODE=relaxed
/// was set at first use or set_transform_mode(kRelaxed) was called.  Never
/// returns kDefault.
[[nodiscard]] TransformMode transform_mode();
/// Overrides the process-wide mode (kDefault re-reads the environment at
/// next use).  Not thread-safe against concurrent kernel calls.
void set_transform_mode(TransformMode mode);
/// The mode kernel_transform will actually use for `params`:
/// params.transform unless kDefault, else transform_mode().
[[nodiscard]] TransformMode effective_transform_mode(const KernelParams& params);
/// Name of the active transform backend ("avx512", "avx2", "scalar").
[[nodiscard]] std::string_view transform_backend_name();

/// Installs per-kernel transform observability into `registry`:
///   kernel.dot_ns{kernel=...}       — time per dot phase (kernel_row/block)
///   kernel.transform_ns{kernel=...} — time per transform tail
///   kernel.transform_relaxed        — gauge, 1 when the process-wide mode
///                                     is relaxed
///   kernel.csr_fallback             — queries that met a bitset block but
///                                     did not conform to its layout, so
///                                     their dots ran on the CSR path
/// Process-global seam: the registry must outlive all subsequent kernel
/// calls (tools pass obs::Registry::global()).  nullptr uninstalls; timing
/// is a no-op when uninstalled.
void set_kernel_metrics(obs::Registry* registry);

/// Multi-query batch: out[q * matrix.rows() + r] = k(query_q, row_r) for
/// every row of `queries` — the blocked mini-popcount-GEMM behind batched
/// decision functions.  Bit-identical to per-query kernel_row.  When both
/// blocks carry a bitset of the same layout (e.g. schema-derived via
/// FeatureMatrix::ensure_bitset) the query encodings are borrowed
/// zero-copy.  Either bitset may be null.  `out` must hold
/// queries.rows() * matrix.rows() elements.
void kernel_block(const KernelParams& params, const util::CsrView& matrix,
                  const util::BitsetView* matrix_bitset,
                  const util::CsrView& queries,
                  const util::BitsetView* queries_bitset, std::span<double> out);
/// The same over two FeatureMatrix blocks and their cached bitsets.
void kernel_block(const KernelParams& params, const util::FeatureMatrix& matrix,
                  const util::FeatureMatrix& queries, std::span<double> out);

/// Raw dots (no kernel transform) of every matrix row with a query, routed
/// through the bitset plane when possible.  Bit-identical to
/// FeatureMatrix::dot_all — the entry point for non-kernel consumers (kde
/// densities, knn distances, GramCache rows).
void dot_rows(const util::FeatureMatrix& matrix, const util::SparseVector& x,
              std::span<double> out);
void dot_rows(const util::FeatureMatrix& matrix, std::size_t i,
              std::span<double> out);

/// Reuses one query's bitset encoding across many matrices that share a
/// layout — the cascade's stage-4 survivors and exhaustive fan-outs score
/// one window against hundreds of per-user SV blocks whose layouts are
/// schema-identical, so the encode work is paid once, not per user.
class EncodedQueryCache {
 public:
  EncodedQueryCache(std::span<const std::uint32_t> query_indices,
                    std::span<const double> query_values) noexcept
      : indices_{query_indices}, values_{query_values} {}
  /// Over a sparse vector (the serving engine's windows); `query` must
  /// outlive the cache.
  explicit EncodedQueryCache(const util::SparseVector& query) noexcept
      : vector_{&query} {}

  /// Encoding of the query against `layout`, or nullptr when the query does
  /// not conform (callers fall back to the CSR path).
  [[nodiscard]] const util::BitsetQuery* get(const util::BitsetView& layout);

 private:
  struct Entry {
    std::size_t cols;
    std::vector<std::uint32_t> numeric_cols;
    util::BitsetQuery query;
    bool ok;
  };
  std::span<const std::uint32_t> indices_;
  std::span<const double> values_;
  const util::SparseVector* vector_ = nullptr;  ///< else indices_/values_
  std::vector<Entry> entries_;
};

/// In-place kernel transform of a raw dot-product row: `inout[j]` holds
/// x . row_j on entry and k(x, row_j) on return.  This is the cheap scalar
/// tail of kernel_row — every grid-search kernel is such a transform of the
/// same Gram row, which is what lets a sweep share dot products across
/// kernels (GramCache).  Bit-identical to kernel_row given the same dots.
void kernel_transform(const KernelParams& params, const util::CsrView& matrix,
                      double x_sqnorm, std::span<double> inout);
void kernel_transform(const KernelParams& params,
                      const util::FeatureMatrix& matrix, double x_sqnorm,
                      std::span<double> inout);

/// Thread-local scratch sized for one kernel row (one value per matrix
/// row), reused across decision-function calls on the same thread.
///
/// Contract: the returned span is valid until the SAME thread's next call —
/// each call may grow (never shrink) one per-thread buffer and returns a
/// prefix of it, so a later call with a larger `size` can relocate the
/// memory behind spans handed out earlier on that thread.  Callers must not
/// hold a previous span across a call, and must not share the span with
/// other threads.  Growth preserves the prefix contents; elements past any
/// previously requested size are value-initialized (0.0).
[[nodiscard]] std::span<double> kernel_row_scratch(std::size_t size);

/// Human-readable "rbf(gamma=0.25)" form for reports.
[[nodiscard]] std::string describe(const KernelParams& params);

}  // namespace wtp::svm
