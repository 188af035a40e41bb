// IdentificationPlane: the candidate-pruning cascade between serve and the
// per-user SVM scorers (DESIGN §10).
//
// The paper identifies a window by fanning it out to every user's one-class
// model — O(users) kernel_row work per window.  Its own sparsity
// observation (users touch ≈18/105 categories, ≈17/257 subtypes) makes
// support overlap a strong prune signal, so the plane runs four stages of
// strictly increasing cost and strictly decreasing candidate count:
//
//   1. overlap   — support overlap on the bag-of-words identity columns
//                  (category/supertype/subtype/application): score =
//                  Σ 1/√|support(u)| over the query's columns in u's
//                  support, counted over per-column user bitsets.  The
//                  work is O(query identity columns × users / 64) word
//                  operations: linear in the population, but 64 users per
//                  operation, and no per-user scatter or sort.
//   2. centroid  — distance to the user's SV mean, sparse form of the
//                  oneclass centroid gate (query-constant terms dropped).
//   3. gaussian  — diagonal-covariance Mahalanobis distance over the user's
//                  SV block, sparse form of the oneclass gaussian gate.
//   4. svm       — full kernel_row decisions for the survivors only;
//                  argmax over those decisions.
//
// Stage 1 never scores users one at a time.  A score is 1/√s added once
// per hit (s = the user's identity-support size), a function of (hits, s)
// alone, so the bitsets are laid out class-major: users grouped by s, each
// class padded to whole 64-bit words (one bit per user per identity column,
// 10.8 MB at 10^5 users).  Per query the stage counts hits 64 users per
// word into bit-sliced counters, histograms them per class, finds the score
// of the overlap_keep-th best candidate, and keeps the users above it plus
// the lowest catalog indices tied at it — exactly the set a selection by
// (score desc, catalog index asc) keeps.
//
// Stages 2 and 3 are bound by memory latency, not arithmetic: each
// survivor is a random user whose gate entries sit in cold lines of the
// SoA arrays below, so both loops prefetch the offsets of the survivor 16
// ahead and the entry ranges of the one 6 ahead.  A zero query entry adds
// exactly +0 to the gaussian distance, so that loop has no branch on it
// and still scores bit-identically.  Packed per-user records, huge pages,
// per-user support bitmaps and interleaving several users' loops were
// measured and did not help (DESIGN §10).
//
// Stages 1-3 are rank-only: they choose WHICH users reach the SVMs, never
// what those SVMs decide, so a cascade argmax can differ from the
// exhaustive argmax only if the true best user is pruned upstream.  The
// keep-sizes are sized so that never happens (the no-false-prune invariant
// is asserted against exhaustive fan-out at every scale in
// bench/identification_scale).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "index/mapped_store.h"
#include "obs/registry.h"
#include "util/sparse_vector.h"

namespace wtp::util {
struct BitsetDotOps;
}

namespace wtp::index {

class IdentificationPlane;

namespace detail {
/// Stage 1 of identify() alone: the catalog indices that reach the centroid
/// gate, ascending, computed with the dispatched bitset backend.  The seam
/// the posting-walk oracle in tests/index is compared through.
[[nodiscard]] std::vector<std::uint32_t> overlap_survivors(
    const IdentificationPlane& plane,
    std::span<const std::uint32_t> query_indices,
    std::span<const double> query_values);

/// Stages 1-3 of identify() alone: the catalog indices that reach the SVM
/// stage, ascending.  The seam the plain-loop gate oracle in tests/index is
/// compared through.
[[nodiscard]] std::vector<std::uint32_t> gate_survivors(
    const IdentificationPlane& plane,
    std::span<const std::uint32_t> query_indices,
    std::span<const double> query_values);
}  // namespace detail

struct CascadeConfig {
  /// Survivor budgets per stage; each stage keeps min(budget, incoming).
  /// 0 disables the stage (passes everyone through).
  std::size_t overlap_keep = 1024;
  std::size_t centroid_keep = 256;
  std::size_t final_keep = 64;
  /// Users with fewer than this many matching identity columns never enter
  /// stage-1 ranking.  0 ranks every user (overlap stage only reorders).
  std::size_t min_overlap = 1;
  /// Variance floor of the gaussian gate (mirrors oneclass::GaussianModel).
  /// Must be > 0 with 1/floor finite in f32; the plane throws otherwise.
  double variance_floor = 1e-4;
  /// Metrics sink; null = a private registry owned by the plane.
  obs::Registry* registry = nullptr;
};

struct IdentificationResult {
  /// Catalog index of the argmax user, or npos when the catalog is empty.
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();
  std::size_t best = npos;
  double best_decision = -std::numeric_limits<double>::infinity();
  /// Survivor counts after each stage (stage 4 'scored' = kernel_row calls).
  std::size_t overlap_survivors = 0;
  std::size_t centroid_survivors = 0;
  std::size_t gaussian_survivors = 0;
  std::size_t scored = 0;
  /// Catalog indices whose decision value was >= 0, ascending.
  std::vector<std::uint32_t> accepted;
  /// Per-stage wall clock of this identify() call (overlap, centroid,
  /// gaussian, svm) — the slow-decision attribution feed.  All zero on the
  /// exhaustive path (no stages to attribute).
  std::int64_t stage_ns[4] = {0, 0, 0, 0};
  std::int64_t total_ns = 0;
};

class IdentificationPlane {
 public:
  /// Builds the column bitsets and gate statistics over `catalog` (one pass
  /// over every SV block).  The catalog must outlive the plane.
  IdentificationPlane(const ProfileCatalog& catalog, CascadeConfig config = {});
  ~IdentificationPlane();  // out-of-line: Metrics is incomplete here

  /// Full cascade.  Thread-safe (per-thread scratch); the query's squared
  /// norm is the caller's (serve computes it once per window).
  [[nodiscard]] IdentificationResult identify(
      std::span<const std::uint32_t> query_indices,
      std::span<const double> query_values, double query_sqnorm) const;
  [[nodiscard]] IdentificationResult identify(const util::SparseVector& x) const;

  /// Exhaustive fan-out over the same catalog and scoring path — the ground
  /// truth the cascade is equivalence-checked against.
  [[nodiscard]] IdentificationResult identify_exhaustive(
      std::span<const std::uint32_t> query_indices,
      std::span<const double> query_values, double query_sqnorm) const;
  [[nodiscard]] IdentificationResult identify_exhaustive(
      const util::SparseVector& x) const;

  [[nodiscard]] const ProfileCatalog& catalog() const noexcept { return *catalog_; }
  [[nodiscard]] const CascadeConfig& config() const noexcept { return config_; }
  [[nodiscard]] obs::Registry& registry() const noexcept { return *registry_; }

 private:
  struct Metrics;
  friend std::vector<std::uint32_t> detail::overlap_survivors(
      const IdentificationPlane&, std::span<const std::uint32_t>,
      std::span<const double>);
  friend std::vector<std::uint32_t> detail::gate_survivors(
      const IdentificationPlane&, std::span<const std::uint32_t>,
      std::span<const double>);

  void build(const ProfileCatalog& catalog);
  /// Stage 1: replaces `survivors` with the overlap stage's survivors, in
  /// no particular order.
  void overlap_stage(std::span<const std::uint32_t> query_indices,
                     std::span<const double> query_values,
                     const util::BitsetDotOps& ops,
                     std::vector<std::uint32_t>& survivors) const;
  /// Stages 2 and 3 over the query scattered into `dense`: each shrinks
  /// `survivors` to its keep-size best by gate score (scratch `score`, one
  /// slot per user), or leaves it as is when it is already within budget.
  void centroid_stage(std::span<const double> dense,
                      std::vector<std::uint32_t>& survivors,
                      std::span<float> score) const;
  void gaussian_stage(std::span<const double> dense,
                      std::vector<std::uint32_t>& survivors,
                      std::span<float> score) const;
  [[nodiscard]] IdentificationResult score_survivors(
      std::span<const std::uint32_t> survivors,
      std::span<const std::uint32_t> query_indices,
      std::span<const double> query_values, double query_sqnorm) const;

  const ProfileCatalog* catalog_;
  CascadeConfig config_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  std::unique_ptr<Metrics> metrics_;

  std::size_t dimension_ = 0;
  std::size_t prune_start_ = 0;  ///< first bag-of-words identity column

  // Class-major column bitsets.  Users are grouped into classes by their
  // identity-support size s (the number of identity columns in the SV
  // support); class c owns words [class_word_[c], class_word_[c + 1]) of
  // every column, its users at consecutive positions in ascending catalog
  // order from the class's first bit, the rest of its last word padding.
  // Bit p of column_bits_[(col - prune_start_) * column_words_ + p / 64]
  // says whether the user at position p has col in its support.
  std::size_t column_words_ = 0;
  std::vector<std::uint64_t> column_bits_;
  std::vector<std::size_t> class_word_;     ///< per class + 1 sentinel
  std::vector<std::uint32_t> class_users_;  ///< users per class
  std::vector<float> class_inv_sqrt_;       ///< per class, 1/√s (0 if s = 0)
  std::vector<std::uint32_t> position_user_;  ///< catalog index per position

  // Per-user gate statistics over the SV block, SoA (f32: the gates only
  // rank, exact arithmetic lives in stage 4).  gate_cols_[gate_offsets_[u]
  // .. gate_offsets_[u+1]) = the user's support columns, ascending.
  std::vector<std::size_t> gate_offsets_;
  std::vector<std::uint32_t> gate_cols_;
  std::vector<float> gate_mean_;     ///< μ_j over SV rows, aligned with gate_cols_
  std::vector<float> gate_inv_var_;  ///< 1/max(σ²_j, floor)
  std::vector<float> mean_sqnorm_;   ///< per user, Σ μ_j²
  std::vector<float> gauss_base_;    ///< per user, Σ μ_j² · inv_var_j
};

}  // namespace wtp::index
