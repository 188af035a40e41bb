#include "index/cascade.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "features/schema.h"
#include "svm/kernel.h"
#include "util/bitset_view.h"

namespace wtp::index {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

/// Per-thread scratch shared by every plane on the thread.
struct Scratch {
  std::vector<double> dense;      ///< query scattered densely over columns
  std::vector<float> score;       ///< per-user gate score (stages 2-3)
  std::vector<std::uint32_t> survivors;
};

Scratch& scratch_for(std::size_t users, std::size_t dimension) {
  thread_local Scratch scratch;
  if (scratch.dense.size() < dimension) scratch.dense.resize(dimension, 0.0);
  if (scratch.score.size() < users) scratch.score.resize(users, 0.0f);
  return scratch;
}

/// Writes the query's in-range entries into the all-zero `dense`.
void scatter_query(std::span<double> dense,
                   std::span<const std::uint32_t> indices,
                   std::span<const double> values, std::size_t dimension) {
  for (std::size_t k = 0; k < indices.size(); ++k) {
    if (indices[k] < dimension) dense[indices[k]] = values[k];
  }
}

/// Returns `dense` to all zeros after scatter_query.
void clear_query(std::span<double> dense,
                 std::span<const std::uint32_t> indices,
                 std::size_t dimension) {
  for (const std::uint32_t col : indices) {
    if (col < dimension) dense[col] = 0.0;
  }
}

/// The best not yet merged hit count of one support-size class.
struct ClassHead {
  float score;
  std::uint32_t cls;
  std::uint32_t hits;
};

/// Per-thread scratch of the overlap stage.
struct OverlapScratch {
  std::vector<const std::uint64_t*> columns;  ///< the query's column bitsets
  std::vector<std::uint64_t> planes;          ///< bit-sliced hit counts
  std::vector<std::uint32_t> hist;      ///< per class, users with 0..q hits
  std::vector<float> table;             ///< per class, score of 0..q hits
  std::vector<std::uint64_t> mask;      ///< one class's selected positions
  std::vector<ClassHead> heap;          ///< max-heap by score, one per class
  std::vector<ClassHead> cutoff_group;  ///< the (class, hits) at the cutoff
  std::vector<std::size_t> above_from;  ///< per class, lowest hits above it
  std::vector<std::uint32_t> ties;      ///< users tied at the cutoff
};

/// The overlap kernels of the dispatched bitset backend.  With the bitset
/// plane disabled for kernel dots (WTP_KERNEL_BACKEND=csr) the overlap stage
/// still needs counts, so it takes the portable scalar set.
const util::BitsetDotOps& overlap_ops() {
  const util::BitsetDotOps* ops = svm::kernel_dispatch();
  return ops != nullptr ? *ops : util::scalar_bitset_ops();
}

/// A query as index/value spans over thread-local buffers, valid until the
/// next call on the same thread.
struct QuerySpans {
  std::span<const std::uint32_t> indices;
  std::span<const double> values;
};

QuerySpans spans_of(const util::SparseVector& x) {
  thread_local std::vector<std::uint32_t> indices;
  thread_local std::vector<double> values;
  indices.clear();
  values.clear();
  for (const auto& entry : x.entries()) {
    indices.push_back(static_cast<std::uint32_t>(entry.index));
    values.push_back(entry.value);
  }
  return {indices, values};
}

/// Look-ahead of the gate loops, in survivors.  Each survivor is a random
/// user whose gate entries sit in cold cache lines, reached through its
/// gate_offsets_ entry: the loop fetches the offsets kFarAhead survivors
/// ahead, and the entry ranges they point at kNearAhead survivors ahead, by
/// which time those offsets are cached.
constexpr std::size_t kFarAhead = 16;
constexpr std::size_t kNearAhead = 6;

/// Prefetches every cache line of [begin, end) for reading.
template <typename T>
void prefetch_range(const T* begin, const T* end) {
  constexpr std::uintptr_t kLine = 64;
  const auto first = reinterpret_cast<std::uintptr_t>(begin) & ~(kLine - 1);
  const auto last = reinterpret_cast<std::uintptr_t>(end);
  for (std::uintptr_t line = first; line < last; line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

/// Shrinks `candidates` to its `keep` best by (score desc, index asc) — the
/// ascending-index tie-break keeps stage output deterministic.
void keep_top(std::vector<std::uint32_t>& candidates,
              std::span<const float> score, std::size_t keep) {
  if (keep == 0 || candidates.size() <= keep) return;
  const auto better = [&score](std::uint32_t a, std::uint32_t b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return a < b;
  };
  std::nth_element(candidates.begin(), candidates.begin() + (keep - 1),
                   candidates.end(), better);
  candidates.resize(keep);
}

}  // namespace

struct IdentificationPlane::Metrics {
  obs::Counter* windows;
  obs::Counter* overlap_survivors;
  obs::Counter* centroid_survivors;
  obs::Counter* gaussian_survivors;
  obs::Counter* kernel_row_calls;
  obs::Counter* exhaustive_windows;
  obs::Counter* exhaustive_kernel_row_calls;
  obs::Timer* stage_overlap;
  obs::Timer* stage_centroid;
  obs::Timer* stage_gaussian;
  obs::Timer* stage_svm;
  obs::Timer* total;

  explicit Metrics(obs::Registry& registry) {
    const auto stage = [&registry](std::string_view value) {
      const obs::Label label{"stage", std::string{value}};
      return &registry.timer("index.stage_ns", std::span{&label, 1});
    };
    const auto survivors = [&registry](std::string_view value) {
      const obs::Label label{"stage", std::string{value}};
      return &registry.counter("index.survivors", std::span{&label, 1});
    };
    windows = &registry.counter("index.windows");
    overlap_survivors = survivors("overlap");
    centroid_survivors = survivors("centroid");
    gaussian_survivors = survivors("gaussian");
    kernel_row_calls = &registry.counter("index.kernel_row_calls");
    exhaustive_windows = &registry.counter("index.exhaustive_windows");
    exhaustive_kernel_row_calls =
        &registry.counter("index.exhaustive_kernel_row_calls");
    stage_overlap = stage("overlap");
    stage_centroid = stage("centroid");
    stage_gaussian = stage("gaussian");
    stage_svm = stage("svm");
    total = &registry.timer("index.identify_ns");
  }
};

IdentificationPlane::IdentificationPlane(const ProfileCatalog& catalog,
                                         CascadeConfig config)
    : catalog_{&catalog}, config_{config} {
  if (config_.registry != nullptr) {
    registry_ = config_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  // The gaussian gate's inverse variances are stored as f32; a floor whose
  // inverse overflows f32 would turn a zero query entry's +0 term into NaN.
  if (!(config_.variance_floor > 0.0) ||
      !std::isfinite(static_cast<float>(1.0 / config_.variance_floor))) {
    throw std::invalid_argument{
        "IdentificationPlane: variance_floor must be > 0 with a finite f32 "
        "inverse"};
  }
  metrics_ = std::make_unique<Metrics>(*registry_);
  build(catalog);
}

IdentificationPlane::~IdentificationPlane() = default;

void IdentificationPlane::build(const ProfileCatalog& catalog) {
  const std::size_t n = catalog.size();
  dimension_ = catalog.schema().dimension();
  prune_start_ = catalog.schema().group_offset(features::FeatureGroup::kCategory);

  std::vector<std::uint32_t> support(n, 0);  // identity columns per user
  mean_sqnorm_.resize(n, 0.0f);
  gauss_base_.resize(n, 0.0f);
  gate_offsets_.clear();
  gate_offsets_.reserve(n + 1);
  gate_offsets_.push_back(0);

  std::vector<double> sum(dimension_, 0.0);
  std::vector<double> sum_sq(dimension_, 0.0);
  std::vector<char> seen(dimension_, 0);
  std::vector<std::uint32_t> touched;

  for (std::size_t u = 0; u < n; ++u) {
    const svm::ModelView view = catalog.model(u);
    const util::CsrView& svs = view.support_vectors;
    const std::size_t m = svs.rows();
    for (std::size_t r = 0; r < m; ++r) {
      const auto indices = svs.row_indices(r);
      const auto values = svs.row_values(r);
      for (std::size_t k = 0; k < indices.size(); ++k) {
        const std::uint32_t col = indices[k];
        if (col >= dimension_) continue;  // blob validated against its own cols
        if (!seen[col]) {
          seen[col] = 1;
          touched.push_back(col);
        }
        sum[col] += values[k];
        sum_sq[col] += values[k] * values[k];
      }
    }
    std::sort(touched.begin(), touched.end());

    const double inv_m = m > 0 ? 1.0 / static_cast<double>(m) : 0.0;
    double mean_sqnorm = 0.0;
    double gauss_base = 0.0;
    std::uint32_t identity_cols = 0;
    for (const std::uint32_t col : touched) {
      const double mean = sum[col] * inv_m;
      const double variance =
          std::max(sum_sq[col] * inv_m - mean * mean, 0.0);
      const double inv_var = 1.0 / std::max(variance, config_.variance_floor);
      gate_cols_.push_back(col);
      gate_mean_.push_back(static_cast<float>(mean));
      gate_inv_var_.push_back(static_cast<float>(inv_var));
      mean_sqnorm += mean * mean;
      gauss_base += mean * mean * inv_var;
      if (col >= prune_start_) ++identity_cols;
      sum[col] = 0.0;
      sum_sq[col] = 0.0;
      seen[col] = 0;
    }
    mean_sqnorm_[u] = static_cast<float>(mean_sqnorm);
    gauss_base_[u] = static_cast<float>(gauss_base);
    support[u] = identity_cols;
    gate_offsets_.push_back(gate_cols_.size());
    touched.clear();
  }

  // Class-major column bitsets: one class per distinct support size, each
  // padded to whole words so a class is a contiguous word range of every
  // column.
  std::vector<std::uint32_t> sizes{support.begin(), support.end()};
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  const std::size_t classes = sizes.size();
  std::vector<std::uint32_t> class_of(dimension_ + 1, 0);
  for (std::size_t c = 0; c < classes; ++c) {
    class_of[sizes[c]] = static_cast<std::uint32_t>(c);
  }
  class_users_.assign(classes, 0);
  for (std::size_t u = 0; u < n; ++u) ++class_users_[class_of[support[u]]];
  class_word_.assign(classes + 1, 0);
  class_inv_sqrt_.assign(classes, 0.0f);
  for (std::size_t c = 0; c < classes; ++c) {
    class_word_[c + 1] = class_word_[c] + (class_users_[c] + 63) / 64;
    if (sizes[c] > 0) {
      class_inv_sqrt_[c] = static_cast<float>(
          1.0 / std::sqrt(static_cast<double>(sizes[c])));
    }
  }
  column_words_ = class_word_.back();
  position_user_.assign(column_words_ * 64, 0);
  column_bits_.assign((dimension_ - prune_start_) * column_words_, 0);
  std::vector<std::size_t> cursor(classes);
  for (std::size_t c = 0; c < classes; ++c) cursor[c] = class_word_[c] * 64;
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t position = cursor[class_of[support[u]]]++;
    position_user_[position] = static_cast<std::uint32_t>(u);
    const std::uint64_t bit = std::uint64_t{1} << (position % 64);
    std::uint64_t* word = column_bits_.data() + position / 64;
    for (std::size_t k = gate_offsets_[u]; k < gate_offsets_[u + 1]; ++k) {
      const std::uint32_t col = gate_cols_[k];
      if (col >= prune_start_) word[(col - prune_start_) * column_words_] |= bit;
    }
  }
}

void IdentificationPlane::overlap_stage(
    std::span<const std::uint32_t> query_indices,
    std::span<const double> query_values, const util::BitsetDotOps& ops,
    std::vector<std::uint32_t>& survivors) const {
  // A user's score is 1/√s added once per hit (a query identity column in
  // its support), so it is a function of (hits, class) alone.  The stage
  // counts hits for every position, histograms them per class, finds the
  // score of the keep-th best candidate from the histogram, and selects the
  // users above it plus the lowest catalog indices among those tied at it:
  // the same set keep_top's (score desc, index asc) order keeps.
  const std::size_t n = catalog_->size();
  const std::size_t keep =
      config_.overlap_keep == 0 ? n : std::min(config_.overlap_keep, n);
  thread_local OverlapScratch scratch;
  survivors.clear();

  auto& columns = scratch.columns;
  columns.clear();
  for (std::size_t k = 0; k < query_indices.size(); ++k) {
    const std::uint32_t col = query_indices[k];
    if (col < prune_start_ || col >= dimension_ || query_values[k] == 0.0) {
      continue;
    }
    columns.push_back(column_bits_.data() +
                      (col - prune_start_) * column_words_);
  }
  const std::size_t q = columns.size();
  const std::size_t n_planes = static_cast<std::size_t>(std::bit_width(q));
  std::uint64_t touched = 0;
  const std::size_t classes = class_users_.size();
  const std::size_t stride = q + 1;
  auto& hist = scratch.hist;
  if (q > 0) {
    scratch.planes.resize(n_planes * column_words_);
    ops.overlap_count(columns.data(), q, column_words_, n_planes,
                      scratch.planes.data());
    hist.assign(classes * stride, 0);
    for (std::size_t c = 0; c < classes; ++c) {
      std::uint32_t* row = hist.data() + c * stride;
      ops.overlap_histogram(scratch.planes.data(), n_planes, column_words_,
                            class_word_[c], class_word_[c + 1], q, row + 1);
      std::uint32_t hit = 0;
      for (std::size_t h = 1; h <= q; ++h) hit += row[h];
      row[0] = class_users_[c] - hit;
      touched += hit;
    }
  }
  if (touched == 0) {
    // No identity overlap anywhere: every user scores 0, so the index
    // tie-break keeps the first ones — never a silent prune.
    survivors.resize(keep);
    std::iota(survivors.begin(), survivors.end(), 0u);
    return;
  }

  // Users with fewer than min_overlap hits do not compete; when that would
  // leave nobody, every touched user does.  min_overlap 0 ranks everyone.
  std::size_t min_hits = config_.min_overlap;
  std::uint64_t candidates = 0;
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t h = min_hits; h <= q; ++h) {
      candidates += hist[c * stride + h];
    }
  }
  if (candidates == 0) {
    min_hits = 1;
    candidates = touched;
  }

  // Appends up to `limit` users of class c whose hits lie in [lo, hi], in
  // ascending catalog order.  No count exceeds q, so "at least lo" passes
  // hi = kAll and the select kernels skip the upper comparison.
  constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  const auto emit = [&](std::size_t c, std::size_t lo, std::size_t hi,
                        std::size_t limit, std::vector<std::uint32_t>& out) {
    const std::size_t begin = class_word_[c];
    const std::size_t words = class_word_[c + 1] - begin;
    auto& mask = scratch.mask;
    mask.resize(words);
    ops.overlap_select(scratch.planes.data(), n_planes, column_words_, begin,
                       begin + words, lo, hi, mask.data());
    const std::size_t tail = class_users_[c] % 64;  // padding scores 0 hits
    if (tail != 0) mask[words - 1] &= (std::uint64_t{1} << tail) - 1;
    const std::uint32_t* users = position_user_.data() + begin * 64;
    for (std::size_t w = 0; w < words && limit > 0; ++w) {
      for (std::uint64_t bits = mask[w]; bits != 0 && limit > 0;
           bits &= bits - 1, --limit) {
        out.push_back(users[w * 64 + static_cast<std::size_t>(
                                         std::countr_zero(bits))]);
      }
    }
  };
  if (candidates <= keep) {
    for (std::size_t c = 0; c < classes; ++c) {
      emit(c, min_hits, kAll, kAll, survivors);
    }
    return;
  }

  // Scores per (class, hits), summed exactly as a per-user accumulation
  // would: 1/√s added `hits` times in float.
  auto& table = scratch.table;
  table.resize(classes * stride);
  for (std::size_t c = 0; c < classes; ++c) {
    float score = 0.0f;
    table[c * stride] = 0.0f;
    for (std::size_t h = 1; h <= q; ++h) {
      score += class_inv_sqrt_[c];
      table[c * stride + h] = score;
    }
  }

  // Cutoff: merge the classes' (hits, score) lists from the top — each is
  // sorted, since adding a positive float never lowers a sum — one score
  // at a time, until the users at or above the score reach keep.
  const auto lower = [](const ClassHead& a, const ClassHead& b) {
    return a.score < b.score;
  };
  // Highest populated hit count of class c at or below `from`, or kNone.
  constexpr std::size_t kNone = kAll;
  const auto populated = [&](std::size_t c, std::size_t from) {
    for (std::size_t h = from + 1; h-- > min_hits;) {
      if (hist[c * stride + h] != 0) return h;
    }
    return kNone;
  };
  auto& heap = scratch.heap;
  heap.clear();
  for (std::size_t c = 0; c < classes; ++c) {
    const std::size_t h = populated(c, q);
    if (h != kNone) {
      heap.push_back({table[c * stride + h], static_cast<std::uint32_t>(c),
                      static_cast<std::uint32_t>(h)});
    }
  }
  std::make_heap(heap.begin(), heap.end(), lower);
  auto& above_from = scratch.above_from;
  above_from.assign(classes, kNone);
  auto& cutoff_group = scratch.cutoff_group;
  std::size_t taken = 0;
  while (!heap.empty()) {
    const float cutoff = heap.front().score;
    cutoff_group.clear();
    std::size_t tied_users = 0;
    while (!heap.empty() && heap.front().score == cutoff) {
      std::pop_heap(heap.begin(), heap.end(), lower);
      const ClassHead head = heap.back();
      heap.pop_back();
      cutoff_group.push_back(head);
      tied_users += hist[head.cls * stride + head.hits];
      if (head.hits > min_hits) {
        const std::size_t h = populated(head.cls, head.hits - 1);
        if (h != kNone) {
          heap.push_back({table[head.cls * stride + h], head.cls,
                          static_cast<std::uint32_t>(h)});
          std::push_heap(heap.begin(), heap.end(), lower);
        }
      }
    }
    if (taken + tied_users >= keep) break;
    taken += tied_users;
    for (const ClassHead& head : cutoff_group) {
      above_from[head.cls] = head.hits;
    }
  }

  survivors.reserve(keep);
  for (std::size_t c = 0; c < classes; ++c) {
    if (above_from[c] != kNone) emit(c, above_from[c], kAll, kAll, survivors);
  }
  // Of the users tied at the cutoff, the lowest catalog indices fill the
  // rest; each class yields its tied users in ascending index order.
  const std::size_t room = keep - taken;
  auto& ties = scratch.ties;
  ties.clear();
  for (const ClassHead& head : cutoff_group) {
    emit(head.cls, head.hits, head.hits, room, ties);
  }
  if (ties.size() > room) {
    std::nth_element(ties.begin(),
                     ties.begin() + static_cast<std::ptrdiff_t>(room),
                     ties.end());
    ties.resize(room);
  }
  survivors.insert(survivors.end(), ties.begin(), ties.end());
}

void IdentificationPlane::centroid_stage(
    std::span<const double> dense, std::vector<std::uint32_t>& survivors,
    std::span<float> score) const {
  // score = 2 x·μ − ||μ||², the user-dependent part of −||x − μ||² (higher
  // = closer to the user's SV mean).  The loop is bound by the cold misses
  // on each survivor's entries, not by its arithmetic, so it runs the
  // two-level look-ahead (kFarAhead, kNearAhead).
  if (config_.centroid_keep == 0 || survivors.size() <= config_.centroid_keep) {
    return;
  }
  const std::size_t count = survivors.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kFarAhead < count) {
      __builtin_prefetch(gate_offsets_.data() + survivors[i + kFarAhead]);
    }
    if (i + kNearAhead < count) {
      const std::uint32_t ahead = survivors[i + kNearAhead];
      const std::size_t begin = gate_offsets_[ahead];
      const std::size_t end = gate_offsets_[ahead + 1];
      prefetch_range(gate_cols_.data() + begin, gate_cols_.data() + end);
      prefetch_range(gate_mean_.data() + begin, gate_mean_.data() + end);
      __builtin_prefetch(mean_sqnorm_.data() + ahead);
    }
    const std::uint32_t u = survivors[i];
    double dot = 0.0;
    for (std::size_t k = gate_offsets_[u]; k < gate_offsets_[u + 1]; ++k) {
      dot += dense[gate_cols_[k]] * gate_mean_[k];
    }
    score[u] = static_cast<float>(2.0 * dot - mean_sqnorm_[u]);
  }
  keep_top(survivors, score, config_.centroid_keep);
}

void IdentificationPlane::gaussian_stage(
    std::span<const double> dense, std::vector<std::uint32_t>& survivors,
    std::span<float> score) const {
  // score = −Mahalanobis² up to the query-constant term floor⁻¹·||x||²
  // (dropped: it cannot change ranks), with the centroid stage's look-ahead.
  // A zero query entry x (either sign) adds exactly +0, (0·0 − 2·0·μ)·iv −
  // 0·0·floor⁻¹ with μ, iv and floor⁻¹ finite, to a distance that starts at
  // gauss_base ≥ +0, so the loop needs no branch on x to score exactly as
  // one that skips the zeros.
  if (config_.final_keep == 0 || survivors.size() <= config_.final_keep) {
    return;
  }
  const double inv_floor = 1.0 / config_.variance_floor;
  const std::size_t count = survivors.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kFarAhead < count) {
      __builtin_prefetch(gate_offsets_.data() + survivors[i + kFarAhead]);
    }
    if (i + kNearAhead < count) {
      const std::uint32_t ahead = survivors[i + kNearAhead];
      const std::size_t begin = gate_offsets_[ahead];
      const std::size_t end = gate_offsets_[ahead + 1];
      prefetch_range(gate_cols_.data() + begin, gate_cols_.data() + end);
      prefetch_range(gate_mean_.data() + begin, gate_mean_.data() + end);
      prefetch_range(gate_inv_var_.data() + begin, gate_inv_var_.data() + end);
      __builtin_prefetch(gauss_base_.data() + ahead);
    }
    const std::uint32_t u = survivors[i];
    double distance = gauss_base_[u];
    for (std::size_t k = gate_offsets_[u]; k < gate_offsets_[u + 1]; ++k) {
      const double x = dense[gate_cols_[k]];
      const double mean = gate_mean_[k];
      distance += (x * x - 2.0 * x * mean) * gate_inv_var_[k] -
                  x * x * inv_floor;
    }
    score[u] = static_cast<float>(-distance);
  }
  keep_top(survivors, score, config_.final_keep);
}

IdentificationResult IdentificationPlane::score_survivors(
    std::span<const std::uint32_t> survivors,
    std::span<const std::uint32_t> query_indices,
    std::span<const double> query_values, double query_sqnorm) const {
  IdentificationResult result;
  result.scored = survivors.size();
  // One bitset encoding of the query serves every survivor whose SV block
  // shares the schema layout (all of them, for same-store catalogs) — the
  // encode cost is paid once per window, not once per scored user.
  svm::EncodedQueryCache query_cache{query_indices, query_values};
  for (const std::uint32_t u : survivors) {
    const double decision =
        catalog_->model(u).decision_value(query_indices, query_values,
                                          query_sqnorm, &query_cache);
    if (decision > result.best_decision) {
      result.best_decision = decision;
      result.best = u;
    }
    if (decision >= 0.0) result.accepted.push_back(u);
  }
  return result;
}

IdentificationResult IdentificationPlane::identify(
    std::span<const std::uint32_t> query_indices,
    std::span<const double> query_values, double query_sqnorm) const {
  const auto total_start = Clock::now();
  const std::size_t n = catalog_->size();
  Scratch& scratch = scratch_for(n, dimension_);
  metrics_->windows->add();

  // Stage 1: support overlap over the column bitsets.
  auto stage_start = Clock::now();
  auto& survivors = scratch.survivors;
  overlap_stage(query_indices, query_values, overlap_ops(), survivors);
  IdentificationResult result;
  result.stage_ns[0] = static_cast<std::int64_t>(elapsed_ns(stage_start));
  metrics_->stage_overlap->record_ns(static_cast<double>(result.stage_ns[0]));
  result.overlap_survivors = survivors.size();
  metrics_->overlap_survivors->add(survivors.size());

  // Scatter the query densely once for both gate stages.
  scatter_query(scratch.dense, query_indices, query_values, dimension_);

  // Stage 2: centroid gate.
  stage_start = Clock::now();
  centroid_stage(scratch.dense, survivors, scratch.score);
  result.stage_ns[1] = static_cast<std::int64_t>(elapsed_ns(stage_start));
  metrics_->stage_centroid->record_ns(static_cast<double>(result.stage_ns[1]));
  result.centroid_survivors = survivors.size();
  metrics_->centroid_survivors->add(survivors.size());

  // Stage 3: diagonal gaussian gate.
  stage_start = Clock::now();
  gaussian_stage(scratch.dense, survivors, scratch.score);
  result.stage_ns[2] = static_cast<std::int64_t>(elapsed_ns(stage_start));
  metrics_->stage_gaussian->record_ns(static_cast<double>(result.stage_ns[2]));
  result.gaussian_survivors = survivors.size();
  metrics_->gaussian_survivors->add(survivors.size());

  // Unscatter before the (potentially slow) SVM stage.
  clear_query(scratch.dense, query_indices, dimension_);

  // Stage 4: full decisions for the survivors, ascending catalog order so
  // the first-max tie-break matches exhaustive fan-out exactly.
  stage_start = Clock::now();
  std::sort(survivors.begin(), survivors.end());
  IdentificationResult scored =
      score_survivors(survivors, query_indices, query_values, query_sqnorm);
  result.stage_ns[3] = static_cast<std::int64_t>(elapsed_ns(stage_start));
  metrics_->stage_svm->record_ns(static_cast<double>(result.stage_ns[3]));
  metrics_->kernel_row_calls->add(scored.scored);

  result.best = scored.best;
  result.best_decision = scored.best_decision;
  result.scored = scored.scored;
  result.accepted = std::move(scored.accepted);
  result.total_ns = static_cast<std::int64_t>(elapsed_ns(total_start));
  metrics_->total->record_ns(static_cast<double>(result.total_ns));
  return result;
}

IdentificationResult IdentificationPlane::identify(
    const util::SparseVector& x) const {
  const QuerySpans query = spans_of(x);
  return identify(query.indices, query.values, x.squared_norm());
}

IdentificationResult IdentificationPlane::identify_exhaustive(
    std::span<const std::uint32_t> query_indices,
    std::span<const double> query_values, double query_sqnorm) const {
  const std::size_t n = catalog_->size();
  Scratch& scratch = scratch_for(n, dimension_);
  auto& survivors = scratch.survivors;
  survivors.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    survivors[u] = static_cast<std::uint32_t>(u);
  }
  metrics_->exhaustive_windows->add();
  IdentificationResult result =
      score_survivors(survivors, query_indices, query_values, query_sqnorm);
  result.overlap_survivors = n;
  result.centroid_survivors = n;
  result.gaussian_survivors = n;
  metrics_->exhaustive_kernel_row_calls->add(result.scored);
  return result;
}

IdentificationResult IdentificationPlane::identify_exhaustive(
    const util::SparseVector& x) const {
  const QuerySpans query = spans_of(x);
  return identify_exhaustive(query.indices, query.values, x.squared_norm());
}

std::vector<std::uint32_t> detail::overlap_survivors(
    const IdentificationPlane& plane,
    std::span<const std::uint32_t> query_indices,
    std::span<const double> query_values) {
  std::vector<std::uint32_t> survivors;
  plane.overlap_stage(query_indices, query_values, overlap_ops(), survivors);
  std::sort(survivors.begin(), survivors.end());
  return survivors;
}

std::vector<std::uint32_t> detail::gate_survivors(
    const IdentificationPlane& plane,
    std::span<const std::uint32_t> query_indices,
    std::span<const double> query_values) {
  std::vector<std::uint32_t> survivors;
  plane.overlap_stage(query_indices, query_values, overlap_ops(), survivors);
  Scratch& scratch = scratch_for(plane.catalog_->size(), plane.dimension_);
  scatter_query(scratch.dense, query_indices, query_values, plane.dimension_);
  plane.centroid_stage(scratch.dense, survivors, scratch.score);
  plane.gaussian_stage(scratch.dense, survivors, scratch.score);
  clear_query(scratch.dense, query_indices, plane.dimension_);
  std::sort(survivors.begin(), survivors.end());
  return survivors;
}

}  // namespace wtp::index
