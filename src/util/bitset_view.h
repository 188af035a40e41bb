// Bitset companion representation for binary-dominant feature matrices
// (DESIGN §11).
//
// The paper's feature space is ~840 binary bag-of-words columns plus 3
// numeric ones (Tab. I), so a CSR row is almost entirely "these columns are
// exactly 1.0".  The bitset plane stores each row twice: the binary columns
// as fixed-width 64-bit words (bit c set ⇔ row has value 1.0 at column c)
// and the few numeric columns densely alongside.  A sparse dot then becomes
// AND+popcount over the words plus a tiny numeric correction.
//
// Bit-exactness contract.  Every dot computed through this plane is
// REQUIRED to be bit-identical to CsrView::dot_all (the scalar oracle),
// which streams row entries in ascending column order.  Popcounts are exact
// integers, but the numeric columns interleave with the binary ones, so the
// combine step must reproduce the oracle's summation ORDER, not just its
// terms:
//
//   * The binary columns between two consecutive numeric columns form a
//     *segment*; the oracle adds `count` many exact 1.0 terms there.  When
//     the running sum is an integer with |sum| small enough that every
//     intermediate is exactly representable, `sum += count` equals the
//     term-by-term loop; otherwise the combine replays the `count` adds of
//     1.0 exactly (a binade walk in util/bitset_dot_body.inc, masked
//     vector adds in the AVX-512 prefix).  Not rare: on the paper shape the
//     trailing count has median 5 and max 45.
//   * Between segments the numeric products are added in column order from
//     the dense side storage.  Adding `q*0.0` for a column the row does not
//     touch is an exact no-op (the sum starts at +0.0 and products are
//     finite by construction, so signed zeros cannot leak).
//
// Conformance.  The representation only engages when both sides satisfy the
// layout: row/query values at binary columns are exactly 1.0, numeric
// values are finite, and query indices >= cols are skipped (matching the
// oracle's bounds guard).  Anything else falls back to the CSR path, which
// is always correct.
//
// SIMD.  The per-row work is pluggable via BitsetDotOps so
// svm/kernel_backends.cpp can install AVX2/AVX-512 popcount
// implementations.  The fused dot_rows entry (popcount + combine) is
// stamped into every backend from util/bitset_dot_body.inc, so the
// floating-point operation sequence is literally the same source everywhere
// — cross-backend bit-identity holds by construction (the equivalence
// suites still enforce it) and only the popcount instructions differ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/sparse_vector.h"

namespace wtp::util {

struct CsrView;

/// Non-owning view of a bitset block: `row_count * words_per_row` words plus
/// `row_count * numeric_cols.size()` dense numeric values.  Valid over a
/// BitsetStorage or over memory-mapped model blobs (svm/model_io v2).
struct BitsetView {
  std::size_t cols = 0;
  std::size_t row_count = 0;
  std::size_t words_per_row = 0;
  std::span<const std::uint64_t> words;         ///< row-major, row_count * words_per_row
  std::span<const std::uint32_t> numeric_cols;  ///< ascending, < cols
  std::span<const double> numeric_values;       ///< row-major, row_count * numeric_cols.size()

  [[nodiscard]] const std::uint64_t* row_words(std::size_t i) const noexcept {
    return words.data() + i * words_per_row;
  }
  [[nodiscard]] const double* row_numeric(std::size_t i) const noexcept {
    return numeric_values.data() + i * numeric_cols.size();
  }
  /// Two views share a layout when queries encoded against one are valid
  /// against the other (same column count and numeric column set).
  [[nodiscard]] bool same_layout(const BitsetView& other) const noexcept;

  /// View of rows [begin, begin + count) — same layout, sliced storage.
  [[nodiscard]] BitsetView rows_slice(std::size_t begin,
                                      std::size_t count) const noexcept {
    return BitsetView{cols,
                      count,
                      words_per_row,
                      words.subspan(begin * words_per_row, count * words_per_row),
                      numeric_cols,
                      numeric_values.subspan(begin * numeric_cols.size(),
                                             count * numeric_cols.size())};
  }
};

/// A query encoded against a specific layout: words + dense numeric values
/// aligned with the layout's numeric_cols.  Reusable scratch — encode()
/// reuses capacity across calls.
struct BitsetQuery {
  std::vector<std::uint64_t> words;
  std::vector<double> numeric;

  /// Encodes (indices, values) against `layout`.  Returns false (query not
  /// conforming — caller must use the CSR path) when a value at a binary
  /// column is not exactly 1.0 or a value at a numeric column is not
  /// finite.  Indices >= layout.cols are skipped like the scalar oracle.
  bool encode(const BitsetView& layout, std::span<const std::uint32_t> indices,
              std::span<const double> values);
  bool encode(const BitsetView& layout, const SparseVector& query);
};

/// Pluggable integer word kernels.  Every backend produces mathematically
/// (hence bit-) identical counts; only speed differs.
struct BitsetDotOps {
  const char* name;
  /// popcount(a & b) over n words.
  std::uint64_t (*and_popcount)(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n);
  /// out[r] = popcount(query & rows[r]) for n_rows rows of w words each.
  void (*and_popcount_rows)(const std::uint64_t* query, const std::uint64_t* rows,
                            std::size_t w, std::size_t n_rows, std::uint64_t* out);
  /// out[q * n_rows + r] = popcount(queries[q] & rows[r]): the blocked
  /// mini-popcount-GEMM behind kernel_block.
  void (*and_popcount_block)(const std::uint64_t* queries, std::size_t n_queries,
                             const std::uint64_t* rows, std::size_t n_rows,
                             std::size_t w, std::uint64_t* out);
  /// Fused dot of one encoded query against every row: AND+popcount plus the
  /// order-exact combine, out[r] = query . row_r bit-identical to
  /// CsrView::dot_all.  `query_numeric` holds one value per layout numeric
  /// column; `out` must have room for row_count results.
  void (*dot_rows)(const BitsetView& m, const std::uint64_t* query_words,
                   const double* query_numeric, double* out);

  // Overlap-stage kernels of the identification cascade (index/cascade.h,
  // DESIGN §10).  Per-position hit counts are bit-sliced: `planes` holds
  // n_planes planes of `words` words each, and bit b of
  // planes[i * words + w] is bit i of the count at position 64 * w + b.
  /// Overwrites the planes with the per-position sum of n_columns column
  /// bitsets of `words` words each.  n_planes >= bit_width(n_columns), so
  /// no count overflows.
  void (*overlap_count)(const std::uint64_t* const* columns,
                        std::size_t n_columns, std::size_t words,
                        std::size_t n_planes, std::uint64_t* planes);
  /// hist[h - 1] += the positions in words [begin, end) whose count is h,
  /// for every 1 <= h <= max_hits.
  void (*overlap_histogram)(const std::uint64_t* planes, std::size_t n_planes,
                            std::size_t words, std::size_t begin,
                            std::size_t end, std::size_t max_hits,
                            std::uint32_t* hist);
  /// out[w - begin] = the positions in words [begin, end) whose count lies
  /// in [lo, hi].
  void (*overlap_select)(const std::uint64_t* planes, std::size_t n_planes,
                         std::size_t words, std::size_t begin, std::size_t end,
                         std::uint64_t lo, std::uint64_t hi,
                         std::uint64_t* out);
};

/// Portable backend (std::popcount).  The reference the SIMD backends are
/// tested against — and the bit-exactness oracle's twin: counts are exact
/// integers either way.
[[nodiscard]] const BitsetDotOps& scalar_bitset_ops() noexcept;

/// Owning bitset block built from CSR storage.
class BitsetStorage {
 public:
  /// More numeric columns than this and the dense side defeats the point;
  /// build() refuses and the matrix stays CSR-only.
  static constexpr std::size_t kMaxNumericColumns = 16;

  /// Builds the dual representation of `matrix`.  With an empty
  /// `numeric_cols` hint the numeric set is auto-detected (a column is
  /// numeric iff any stored value != 1.0); a non-empty hint fixes the set
  /// (ascending, schema-derived) and rows must conform to it.  Returns
  /// nullopt when the matrix is not representable: cols == 0, too many
  /// numeric columns, non-finite numeric values, or (hinted) a non-1.0
  /// value at a binary column.
  [[nodiscard]] static std::optional<BitsetStorage> build(
      const CsrView& matrix, std::span<const std::uint32_t> numeric_cols = {});

  [[nodiscard]] BitsetView view() const noexcept {
    return BitsetView{cols_, rows_, words_per_row_, words_, numeric_cols_,
                      numeric_values_};
  }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t words_per_row() const noexcept { return words_per_row_; }
  [[nodiscard]] std::span<const std::uint32_t> numeric_cols() const noexcept {
    return numeric_cols_;
  }

 private:
  BitsetStorage() = default;

  std::size_t cols_ = 0;
  std::size_t rows_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> numeric_cols_;
  std::vector<double> numeric_values_;
};

/// Dot of an encoded query against every row: out[r] = query . row_r,
/// bit-identical to CsrView::dot_all with the query's original entries.
void bitset_dot_rows(const BitsetView& matrix, const BitsetQuery& query,
                     std::span<double> out,
                     const BitsetDotOps& ops = scalar_bitset_ops());
/// Row `i` of the matrix as the query (rows are conforming by construction,
/// so this never falls back).
void bitset_dot_rows(const BitsetView& matrix, std::size_t i, std::span<double> out,
                     const BitsetDotOps& ops = scalar_bitset_ops());

/// A block of queries encoded against one layout.  Queries that do not
/// conform are flagged (ok(q) == false) and left to the caller's CSR
/// fallback.  When the query matrix carries its own bitset with the SAME
/// layout, its storage is borrowed zero-copy instead of re-encoded.
class BitsetQueryBlock {
 public:
  void encode(const BitsetView& layout, const CsrView& queries,
              const BitsetView* queries_bitset = nullptr);

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] bool all_ok() const noexcept { return all_ok_; }
  [[nodiscard]] bool ok(std::size_t q) const noexcept {
    return all_ok_ || ok_[q] != 0;
  }
  [[nodiscard]] const std::uint64_t* query_words(std::size_t q) const noexcept {
    return words_.data() + q * words_per_row_;
  }
  [[nodiscard]] const double* query_numeric(std::size_t q) const noexcept {
    return numeric_.data() + q * numeric_count_;
  }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

 private:
  std::size_t count_ = 0;
  std::size_t words_per_row_ = 0;
  std::size_t numeric_count_ = 0;
  bool all_ok_ = true;
  std::span<const std::uint64_t> words_;
  std::span<const double> numeric_;
  std::vector<char> ok_;
  std::vector<std::uint64_t> owned_words_;
  std::vector<double> owned_numeric_;
  BitsetQuery row_scratch_;
};

/// Blocked dot: out[q * matrix.row_count + r] = query_q . row_r for every
/// conforming query; rows of `out` for non-conforming queries are left
/// untouched.  Bit-identical per query to bitset_dot_rows.
void bitset_dot_block(const BitsetView& matrix, const BitsetQueryBlock& queries,
                      std::span<double> out,
                      const BitsetDotOps& ops = scalar_bitset_ops());

}  // namespace wtp::util
