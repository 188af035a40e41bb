#include "util/bitset_view.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/feature_matrix.h"

namespace wtp::util {

namespace {

std::uint64_t sc_and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

void sc_and_popcount_rows(const std::uint64_t* query, const std::uint64_t* rows,
                          std::size_t w, std::size_t n_rows, std::uint64_t* out) {
  for (std::size_t r = 0; r < n_rows; ++r) {
    out[r] = sc_and_popcount(query, rows + r * w, w);
  }
}

void sc_and_popcount_block(const std::uint64_t* queries, std::size_t n_queries,
                           const std::uint64_t* rows, std::size_t n_rows,
                           std::size_t w, std::uint64_t* out) {
  for (std::size_t q = 0; q < n_queries; ++q) {
    sc_and_popcount_rows(queries + q * w, rows, w, n_rows, out + q * n_rows);
  }
}

// Stamp the fused dot + order-exact combine for the portable backend.
#define WTP_DOT_FN(name) sc_##name
#define WTP_DOT_ATTR
#define WTP_DOT_POPCOUNT(x) static_cast<std::uint64_t>(std::popcount(x))
#define WTP_DOT_ROW_TOTAL(q, r, w) sc_and_popcount((q), (r), (w))
#include "util/bitset_dot_body.inc"
#undef WTP_DOT_FN
#undef WTP_DOT_ATTR
#undef WTP_DOT_POPCOUNT
#undef WTP_DOT_ROW_TOTAL

#define WTP_OVL_FN(name) sc_##name
#define WTP_OVL_ATTR
#define WTP_OVL_POPCOUNT(x) std::popcount(x)
#include "util/overlap_body.inc"
#undef WTP_OVL_FN
#undef WTP_OVL_ATTR
#undef WTP_OVL_POPCOUNT

constexpr BitsetDotOps kScalarOps{"scalar",
                                  &sc_and_popcount,
                                  &sc_and_popcount_rows,
                                  &sc_and_popcount_block,
                                  &sc_dot_rows,
                                  &sc_overlap_count,
                                  &sc_overlap_histogram,
                                  &sc_overlap_select};

}  // namespace

const BitsetDotOps& scalar_bitset_ops() noexcept { return kScalarOps; }

bool BitsetView::same_layout(const BitsetView& other) const noexcept {
  return cols == other.cols && words_per_row == other.words_per_row &&
         numeric_cols.size() == other.numeric_cols.size() &&
         std::equal(numeric_cols.begin(), numeric_cols.end(),
                    other.numeric_cols.begin());
}

bool BitsetQuery::encode(const BitsetView& layout,
                         std::span<const std::uint32_t> indices,
                         std::span<const double> values) {
  words.assign(layout.words_per_row, 0);
  numeric.assign(layout.numeric_cols.size(), 0.0);
  const auto& ncols = layout.numeric_cols;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::uint32_t idx = indices[k];
    if (idx >= layout.cols) continue;  // oracle's bounds guard
    const double value = values[k];
    const auto it = std::lower_bound(ncols.begin(), ncols.end(), idx);
    if (it != ncols.end() && *it == idx) {
      if (!std::isfinite(value)) return false;
      numeric[static_cast<std::size_t>(it - ncols.begin())] = value;
    } else {
      if (value != 1.0) return false;
      words[idx >> 6] |= std::uint64_t{1} << (idx & 63U);
    }
  }
  return true;
}

bool BitsetQuery::encode(const BitsetView& layout, const SparseVector& query) {
  words.assign(layout.words_per_row, 0);
  numeric.assign(layout.numeric_cols.size(), 0.0);
  const auto& ncols = layout.numeric_cols;
  for (const auto& entry : query.entries()) {
    if (entry.index >= layout.cols) continue;
    const std::uint32_t idx = static_cast<std::uint32_t>(entry.index);
    const auto it = std::lower_bound(ncols.begin(), ncols.end(), idx);
    if (it != ncols.end() && *it == idx) {
      if (!std::isfinite(entry.value)) return false;
      numeric[static_cast<std::size_t>(it - ncols.begin())] = entry.value;
    } else {
      if (entry.value != 1.0) return false;
      words[idx >> 6] |= std::uint64_t{1} << (idx & 63U);
    }
  }
  return true;
}

std::optional<BitsetStorage> BitsetStorage::build(
    const CsrView& matrix, std::span<const std::uint32_t> numeric_cols) {
  const std::size_t cols = matrix.cols;
  if (cols == 0) return std::nullopt;
  const std::size_t words_per_row = (cols + 63) / 64;
  // Past ~16K columns the words block stops being a win for sparse rows.
  if (words_per_row > 256) return std::nullopt;

  // Per-column numeric marks: hinted, or auto-detected (a column is numeric
  // iff any stored value differs from exactly 1.0).
  std::vector<std::uint8_t> is_numeric(cols, 0);
  if (!numeric_cols.empty()) {
    for (const std::uint32_t c : numeric_cols) {
      if (c < cols) is_numeric[c] = 1;
    }
  } else {
    for (std::size_t k = 0; k < matrix.values.size(); ++k) {
      if (matrix.values[k] != 1.0) is_numeric[matrix.indices[k]] = 1;
    }
  }

  BitsetStorage storage;
  storage.cols_ = cols;
  storage.rows_ = matrix.rows();
  storage.words_per_row_ = words_per_row;
  for (std::uint32_t c = 0; c < cols; ++c) {
    if (is_numeric[c]) storage.numeric_cols_.push_back(c);
  }
  if (storage.numeric_cols_.size() > kMaxNumericColumns) return std::nullopt;

  // Column -> numeric slot map for the fill pass.
  std::vector<std::int32_t> slot(cols, -1);
  for (std::size_t k = 0; k < storage.numeric_cols_.size(); ++k) {
    slot[storage.numeric_cols_[k]] = static_cast<std::int32_t>(k);
  }

  const std::size_t k_count = storage.numeric_cols_.size();
  storage.words_.assign(storage.rows_ * words_per_row, 0);
  storage.numeric_values_.assign(storage.rows_ * k_count, 0.0);
  for (std::size_t r = 0; r < storage.rows_; ++r) {
    std::uint64_t* row_words = storage.words_.data() + r * words_per_row;
    double* row_numeric = storage.numeric_values_.data() + r * k_count;
    const auto idx = matrix.row_indices(r);
    const auto val = matrix.row_values(r);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const std::uint32_t c = idx[k];
      const std::int32_t s = slot[c];
      if (s >= 0) {
        if (!std::isfinite(val[k])) return std::nullopt;
        row_numeric[s] = val[k];
      } else {
        if (val[k] != 1.0) return std::nullopt;  // hinted layout violated
        row_words[c >> 6] |= std::uint64_t{1} << (c & 63U);
      }
    }
  }
  return storage;
}

void bitset_dot_rows(const BitsetView& matrix, const BitsetQuery& query,
                     std::span<double> out, const BitsetDotOps& ops) {
  if (matrix.row_count == 0) return;
  ops.dot_rows(matrix, query.words.data(), query.numeric.data(), out.data());
}

void bitset_dot_rows(const BitsetView& matrix, std::size_t i, std::span<double> out,
                     const BitsetDotOps& ops) {
  if (matrix.row_count == 0) return;
  ops.dot_rows(matrix, matrix.row_words(i), matrix.row_numeric(i), out.data());
}

void BitsetQueryBlock::encode(const BitsetView& layout, const CsrView& queries,
                              const BitsetView* queries_bitset) {
  count_ = queries.rows();
  words_per_row_ = layout.words_per_row;
  numeric_count_ = layout.numeric_cols.size();
  if (queries_bitset != nullptr && queries_bitset->same_layout(layout)) {
    // Same layout: the queries' own bitset rows ARE their encodings.
    words_ = queries_bitset->words;
    numeric_ = queries_bitset->numeric_values;
    all_ok_ = true;
    ok_.clear();
    return;
  }
  owned_words_.assign(count_ * words_per_row_, 0);
  owned_numeric_.assign(count_ * numeric_count_, 0.0);
  ok_.assign(count_, 0);
  all_ok_ = true;
  for (std::size_t q = 0; q < count_; ++q) {
    if (row_scratch_.encode(layout, queries.row_indices(q), queries.row_values(q))) {
      ok_[q] = 1;
      std::copy(row_scratch_.words.begin(), row_scratch_.words.end(),
                owned_words_.begin() + q * words_per_row_);
      std::copy(row_scratch_.numeric.begin(), row_scratch_.numeric.end(),
                owned_numeric_.begin() + q * numeric_count_);
    } else {
      all_ok_ = false;
    }
  }
  words_ = owned_words_;
  numeric_ = owned_numeric_;
}

void bitset_dot_block(const BitsetView& matrix, const BitsetQueryBlock& queries,
                      std::span<double> out, const BitsetDotOps& ops) {
  const std::size_t n = matrix.row_count;
  const std::size_t nq = queries.count();
  if (n == 0 || nq == 0) return;
  for (std::size_t q = 0; q < nq; ++q) {
    if (!queries.ok(q)) continue;
    ops.dot_rows(matrix, queries.query_words(q), queries.query_numeric(q),
                 out.data() + q * n);
  }
}

}  // namespace wtp::util
