// Persistence for trained one-class models.
//
// Two formats live here:
//
// 1. Text (libsvm-inspired), one file per model:
//   wtp_svm_model v1
//   type one_class_svm | svdd
//   kernel <linear|polynomial|rbf|sigmoid>
//   gamma <g>
//   coef0 <c>
//   degree <d>
//   rho <r>                      (one_class_svm)
//   r_squared <r2>               (svdd)
//   alpha_k_alpha <aka>          (svdd)
//   nr_sv <n>
//   SV
//   <alpha> <index>:<value> <index>:<value> ...     (n lines)
//
// 2. Binary blob (the mmap path): a self-contained little-endian block that
//    can be viewed in place from a memory-mapped file with zero copies.
//    All sections sit at their natural alignment provided the blob itself
//    starts 8-byte aligned:
//
//      offset  size  field
//      0       8     magic "WTPSVMB1"
//      8       4     u32 version (= 1)
//      12      4     u32 endianness guard (= 0x01020304 as written)
//      16      4     u32 model type (0 = one_class_svm, 1 = svdd)
//      20      4     u32 kernel type (KernelType enum value)
//      24      8     f64 gamma
//      32      8     f64 coef0
//      40      4     i32 degree
//      44      4     u32 value format (0 = f64; reserved for quantization)
//      48      8     f64 scalar0 (rho | r_squared)
//      56      8     f64 scalar1 (0  | alpha_k_alpha)
//      64      8     u64 sv_count
//      72      8     u64 nnz
//      80      8     u64 cols
//      88      8     u64 blob_size (whole blob, header included)
//      96            u64 row_offsets[sv_count + 1]
//      ...           u32 indices[nnz], padded to 8
//      ...           f64 values[nnz]
//      ...           f64 sq_norms[sv_count]
//      ...           f64 coefficients[sv_count]
//
//    Version 2 (written when the SV block is bitset-representable, DESIGN
//    §11) appends the bitset companion after the v1 sections, so mapped
//    stores score through the AND+popcount plane zero-copy:
//
//      ...           u64 bitset words_per_row (= ceil(cols / 64))
//      ...           u64 numeric column count
//      ...           u32 numeric_cols[count], ascending, padded to 8
//      ...           u64 words[sv_count * words_per_row]
//      ...           f64 numeric_values[sv_count * count]
//
//    Values stay f64 so mmap-viewed decisions are bit-identical to the heap
//    models they were serialized from; compactness comes from u32 indices,
//    the shared store-level schema, and the absence of per-model heap churn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "svm/one_class_svm.h"
#include "svm/svdd.h"

namespace wtp::svm {

using AnySvmModel = std::variant<OneClassSvmModel, SvddModel>;

void save_model(std::ostream& out, const OneClassSvmModel& model);
void save_model(std::ostream& out, const SvddModel& model);
void save_model_file(const std::string& path, const AnySvmModel& model);

/// Throws std::runtime_error on malformed input.
[[nodiscard]] AnySvmModel load_model(std::istream& in);
[[nodiscard]] AnySvmModel load_model_file(const std::string& path);

/// Typed loads; throw std::runtime_error when the stored type differs.
[[nodiscard]] OneClassSvmModel load_one_class_model(std::istream& in);
[[nodiscard]] SvddModel load_svdd_model(std::istream& in);

// ---------------------------------------------------------------------------
// Binary blob plane (the mmap path).

constexpr std::uint32_t kBlobModelOneClass = 0;
constexpr std::uint32_t kBlobModelSvdd = 1;

/// Non-owning decision-capable view of one model, either over a binary blob
/// (mmap) or borrowed from a heap model (view_of).  This is the one place
/// an SVM decision is computed: OneClassSvmModel and SvddModel forward
/// their decision functions here through view_of, so heap models, mapped
/// stores and the cascade all score through the same kernel expansion,
/// the same finishing formulas and the same query tiling.
struct ModelView {
  std::uint32_t model_type = kBlobModelOneClass;
  KernelParams kernel;
  double scalar0 = 0.0;  ///< rho (one_class) | r_squared (svdd)
  double scalar1 = 0.0;  ///< 0               | alpha_k_alpha (svdd)
  util::CsrView support_vectors;
  std::span<const double> coefficients;  ///< aligned with SV rows
  /// Bitset companion of the SV block (blob v2, or the heap matrix's cached
  /// bitset via view_of); scoring routes dots through the dispatched
  /// AND+popcount backend when set.  Absent => pure CSR scoring.
  bool has_bitset = false;
  util::BitsetView sv_bitset;

  [[nodiscard]] std::size_t sv_count() const noexcept {
    return support_vectors.rows();
  }
  /// The kernel expansion sum_i coef_i k(sv_i, x) that both decision
  /// functions share (paper eqs. 6 and 12).  `cache` may be null.
  [[nodiscard]] double expansion(const util::SparseVector& x, double x_sqnorm,
                                 EncodedQueryCache* cache = nullptr) const;
  /// f(x) = expansion - rho (one_class) or
  /// R^2 - (k(x, x) - 2 expansion + alpha^T K alpha) (svdd).  `cache` (may
  /// be null) shares the query's bitset encoding across same-layout SV
  /// blocks (the engine's and the cascade's per-window fan-outs).
  [[nodiscard]] double decision_value(std::span<const std::uint32_t> query_indices,
                                      std::span<const double> query_values,
                                      double x_sqnorm,
                                      EncodedQueryCache* cache = nullptr) const;
  [[nodiscard]] double decision_value(const util::SparseVector& x,
                                      double x_sqnorm,
                                      EncodedQueryCache* cache = nullptr) const;
  [[nodiscard]] double decision_value(const util::SparseVector& x) const;
  /// Batched decisions over every row of `queries` (kernel_block in tiles
  /// of 64 queries), bit-identical to per-row decision_value.  `out` needs
  /// queries.rows().
  void decision_values(const util::FeatureMatrix& queries,
                       std::span<double> out) const;
};

/// Serializes a model as a binary blob appended to `out`.  Pads `out` to
/// 8-byte alignment first; returns the offset where the blob starts (its
/// size is out.size() - offset afterwards, also recorded in the header).
std::size_t append_model_blob(std::vector<std::byte>& out,
                              const OneClassSvmModel& model);
std::size_t append_model_blob(std::vector<std::byte>& out, const SvddModel& model);
std::size_t append_model_blob(std::vector<std::byte>& out, const AnySvmModel& model);

/// Validates a blob (magic, version, endianness guard, size/offset and
/// index-bound consistency) and returns a zero-copy view into it.  `blob`
/// must start 8-byte aligned (mmap pages and append_model_blob both
/// guarantee this).  Throws std::runtime_error on any malformation.
[[nodiscard]] ModelView view_model_blob(std::span<const std::byte> blob);

/// Borrowed views of heap models: the heap models' own decision functions
/// score through these.  Attaches the SV matrix's cached bitset (building
/// it on first use) unless the bitset plane is disabled.  Valid while the
/// model is.
[[nodiscard]] ModelView view_of(const OneClassSvmModel& model);
[[nodiscard]] ModelView view_of(const SvddModel& model);
[[nodiscard]] ModelView view_of(const AnySvmModel& model);

/// Deep-copies a view back into an owning heap model (round-trip tests,
/// migration off a mapped store).
[[nodiscard]] AnySvmModel materialize(const ModelView& view);

}  // namespace wtp::svm
