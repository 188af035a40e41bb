// Overlap-stage kernels of the SIMD bitset backends (DESIGN §10): the
// bit-sliced hit count, per-class histogram and range selection behind the
// identification cascade's first stage, the overlap_* entries of the
// popcnt/avx2/avx512 BitsetDotOps in svm/kernel_backends.cpp.
//
// Each backend stamps util/overlap_body.inc under its target attribute;
// avx2 and avx512 plug vector loops into its hooks, and the stamped
// word-at-a-time body finishes the words that do not fill a vector.  They
// live in a translation unit of their own: compiled beside the dot kernels
// in kernel_backends.cpp they changed how GCC inlined those, and the dot
// kernels ran slower.
#include <algorithm>
#include <bit>
#include <cstdint>

#include "svm/kernel_backends.h"
#include "util/bitset_view.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

#include "svm/simd_popcount.h"

namespace wtp::svm::detail {

namespace {

using std::size_t;
using std::uint32_t;
using std::uint64_t;

// ---------------------------------------------------------------- popcnt --

#define WTP_OVL_FN(name) popcnt_stamp_##name
#define WTP_OVL_ATTR __attribute__((target("popcnt")))
#define WTP_OVL_POPCOUNT(x) __builtin_popcountll(x)
#include "util/overlap_body.inc"
#undef WTP_OVL_FN
#undef WTP_OVL_ATTR
#undef WTP_OVL_POPCOUNT

// ------------------------------------------------------------------ avx2 --

/// Vector loop of overlap_count: the counters of four words held in NP
/// registers while every column streams through them.
template <size_t NP>
__attribute__((target("avx2,popcnt"))) size_t avx2_vector_count(
    const uint64_t* const* columns, size_t n_columns, size_t words,
    uint64_t* planes) {
  const size_t vector_words = words & ~size_t{3};
  for (size_t w = 0; w < vector_words; w += 4) {
    __m256i count[NP];
    for (size_t i = 0; i < NP; ++i) count[i] = _mm256_setzero_si256();
    for (size_t q = 0; q < n_columns; ++q) {
      __m256i carry =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(columns[q] + w));
      for (size_t i = 0; i < NP; ++i) {
        const __m256i next = _mm256_and_si256(count[i], carry);
        count[i] = _mm256_xor_si256(count[i], carry);
        carry = next;
      }
    }
    for (size_t i = 0; i < NP; ++i) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(planes + i * words + w),
                          count[i]);
    }
  }
  return vector_words;
}

/// WTP_OVL_COUNT_PREFIX: the register loop for up to 8 planes (queries
/// with at most 255 identity columns); wider counts take the body's
/// word-at-a-time loop.
__attribute__((target("avx2,popcnt"))) size_t avx2_overlap_count_prefix(
    const uint64_t* const* columns, size_t n_columns, size_t words,
    size_t n_planes, uint64_t* planes) {
  switch (n_planes) {
#define WTP_OVL_FIXED_CASE(np) \
  case np:                     \
    return avx2_vector_count<np>(columns, n_columns, words, planes);
    WTP_OVL_FIXED_CASE(1)
    WTP_OVL_FIXED_CASE(2)
    WTP_OVL_FIXED_CASE(3)
    WTP_OVL_FIXED_CASE(4)
    WTP_OVL_FIXED_CASE(5)
    WTP_OVL_FIXED_CASE(6)
    WTP_OVL_FIXED_CASE(7)
    WTP_OVL_FIXED_CASE(8)
#undef WTP_OVL_FIXED_CASE
    default: return 0;
  }
}

/// Vector twin of overlap_ge_word over words [w, w + 4).
__attribute__((target("avx2,popcnt"))) inline __m256i avx2_vector_ge(
    const uint64_t* planes, size_t n_planes, size_t words, size_t w,
    uint64_t t) {
  if (t == 0) return _mm256_set1_epi64x(-1);
  if (n_planes < 64 && (t >> n_planes) != 0) return _mm256_setzero_si256();
  __m256i gt = _mm256_setzero_si256();
  __m256i eq = _mm256_set1_epi64x(-1);
  for (size_t i = n_planes; i-- > 0;) {
    const __m256i plane = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(planes + i * words + w));
    if ((t >> i) & 1) {
      eq = _mm256_and_si256(eq, plane);
    } else {
      gt = _mm256_or_si256(gt, _mm256_and_si256(eq, plane));
      eq = _mm256_andnot_si256(plane, eq);
    }
  }
  return _mm256_or_si256(gt, eq);
}

/// Vector loop of overlap_select (lo <= hi): four words per step; returns
/// the first word not covered.
__attribute__((target("avx2,popcnt"))) size_t avx2_overlap_select_prefix(
    const uint64_t* planes, size_t n_planes, size_t words, size_t begin,
    size_t end, uint64_t lo, uint64_t hi, uint64_t* out) {
  size_t w = begin;
  for (; w + 4 <= end; w += 4) {
    const __m256i above_hi =
        hi == ~uint64_t{0}
            ? _mm256_setzero_si256()
            : avx2_vector_ge(planes, n_planes, words, w, hi + 1);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + (w - begin)),
        _mm256_andnot_si256(above_hi,
                            avx2_vector_ge(planes, n_planes, words, w, lo)));
  }
  return w;
}

/// One level of the histogram's binary walk, four words per vector:
/// `prefix` holds the positions whose count bits >= I match `value`'s; each
/// leaf (I == 0) adds its popcount, summed per 64-bit lane, to the bin of
/// its count.
template <size_t I>
__attribute__((target("avx2,popcnt"))) inline void avx2_vector_leaves(
    const __m256i (*literal)[2], __m256i prefix, size_t value, __m256i* bins) {
  if constexpr (I == 0) {
    bins[value] = _mm256_add_epi64(
        bins[value],
        _mm256_sad_epu8(avx2_byte_popcount(prefix), _mm256_setzero_si256()));
  } else {
    avx2_vector_leaves<I - 1>(
        literal, _mm256_and_si256(prefix, literal[I - 1][0]), value, bins);
    avx2_vector_leaves<I - 1>(
        literal, _mm256_and_si256(prefix, literal[I - 1][1]),
        value | (size_t{1} << (I - 1)), bins);
  }
}

/// The histogram for counts below 2^LOW, four words per step: the
/// positions whose planes >= LOW are all 0 (one AND chain), split by a
/// fully unrolled binary walk over the LOW low planes (literal[i] = the
/// plane and its complement), so every count value is one leaf — 2^(LOW+1)
/// ANDs and 2^LOW popcounts per step, no data-dependent branch.  Returns
/// the first word not covered.
template <size_t LOW>
__attribute__((target("avx2,popcnt"))) size_t avx2_vector_histogram(
    const uint64_t* planes, size_t n_planes, size_t words, size_t begin,
    size_t end, size_t max_hits, uint32_t* hist) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  __m256i bins[size_t{1} << LOW];
  for (__m256i& bin : bins) bin = _mm256_setzero_si256();
  size_t w = begin;
  for (; w + 4 <= end; w += 4) {
    __m256i literal[LOW][2];
    for (size_t i = 0; i < LOW; ++i) {
      const __m256i plane = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(planes + i * words + w));
      literal[i][0] = _mm256_andnot_si256(plane, ones);
      literal[i][1] = plane;
    }
    __m256i high_zero = ones;
    for (size_t i = LOW; i < n_planes; ++i) {
      high_zero = _mm256_andnot_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(planes + i * words + w)),
          high_zero);
    }
    avx2_vector_leaves<LOW>(literal, high_zero, 0, bins);
  }
  for (size_t h = 1; h <= max_hits; ++h) {
    const __m128i lanes = _mm_add_epi64(_mm256_castsi256_si128(bins[h]),
                                        _mm256_extracti128_si256(bins[h], 1));
    hist[h - 1] += static_cast<uint32_t>(_mm_cvtsi128_si64(lanes) +
                                         _mm_extract_epi64(lanes, 1));
  }
  return w;
}

/// WTP_OVL_HISTOGRAM_PREFIX: the unrolled walk for up to 127 hits (queries
/// with fewer than 128 identity columns); wider ones are left to the body.
__attribute__((target("avx2,popcnt"))) size_t avx2_overlap_histogram_prefix(
    const uint64_t* planes, size_t n_planes, size_t words, size_t begin,
    size_t end, size_t max_hits, uint32_t* hist) {
  if (n_planes < 64) {
    max_hits = std::min(max_hits, (size_t{1} << n_planes) - 1);
  }
  switch (std::bit_width(max_hits)) {
#define WTP_OVL_FIXED_CASE(low)                                         \
  case low:                                                            \
    return avx2_vector_histogram<low>(planes, n_planes, words, begin, \
                                      end, max_hits, hist);
    WTP_OVL_FIXED_CASE(1)
    WTP_OVL_FIXED_CASE(2)
    WTP_OVL_FIXED_CASE(3)
    WTP_OVL_FIXED_CASE(4)
    WTP_OVL_FIXED_CASE(5)
    WTP_OVL_FIXED_CASE(6)
    WTP_OVL_FIXED_CASE(7)
#undef WTP_OVL_FIXED_CASE
    default:
      return begin;
  }
}

#define WTP_OVL_FN(name) avx2_stamp_##name
#define WTP_OVL_ATTR __attribute__((target("avx2,popcnt")))
#define WTP_OVL_POPCOUNT(x) __builtin_popcountll(x)
#define WTP_OVL_COUNT_PREFIX avx2_overlap_count_prefix
#define WTP_OVL_SELECT_PREFIX avx2_overlap_select_prefix
#define WTP_OVL_HISTOGRAM_PREFIX avx2_overlap_histogram_prefix
#include "util/overlap_body.inc"
#undef WTP_OVL_FN
#undef WTP_OVL_ATTR
#undef WTP_OVL_POPCOUNT
#undef WTP_OVL_COUNT_PREFIX
#undef WTP_OVL_SELECT_PREFIX
#undef WTP_OVL_HISTOGRAM_PREFIX

// ---------------------------------------------------------------- avx512 --

// GCC 12's _mm256_undefined_si256 (inlined through _mm512_reduce_add_epi64
// and the maskz loads) trips -Wmaybe-uninitialized on a variable the
// intrinsic defines as intentionally undefined; silence just this section.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

#define WTP_AVX512_ATTR \
  __attribute__((target("avx512f,avx512vpopcntdq,popcnt")))

/// Vector loop of overlap_count: the counters of eight words held in NP
/// registers while every column streams through them.
template <size_t NP>
WTP_AVX512_ATTR size_t avx512_vector_count(
    const uint64_t* const* columns, size_t n_columns, size_t words,
    uint64_t* planes) {
  const size_t vector_words = words & ~size_t{7};
  for (size_t w = 0; w < vector_words; w += 8) {
    __m512i count[NP];
    for (size_t i = 0; i < NP; ++i) count[i] = _mm512_setzero_si512();
    for (size_t q = 0; q < n_columns; ++q) {
      __m512i carry = _mm512_loadu_si512(columns[q] + w);
      for (size_t i = 0; i < NP; ++i) {
        const __m512i next = _mm512_and_si512(count[i], carry);
        count[i] = _mm512_xor_si512(count[i], carry);
        carry = next;
      }
    }
    for (size_t i = 0; i < NP; ++i) {
      _mm512_storeu_si512(planes + i * words + w, count[i]);
    }
  }
  return vector_words;
}

/// WTP_OVL_COUNT_PREFIX: the register loop for up to 8 planes (queries
/// with at most 255 identity columns); wider counts take the body's
/// word-at-a-time loop.
WTP_AVX512_ATTR size_t
avx512_overlap_count_prefix(const uint64_t* const* columns, size_t n_columns,
                            size_t words, size_t n_planes, uint64_t* planes) {
  switch (n_planes) {
#define WTP_OVL_FIXED_CASE(np) \
  case np:                     \
    return avx512_vector_count<np>(columns, n_columns, words, planes);
    WTP_OVL_FIXED_CASE(1)
    WTP_OVL_FIXED_CASE(2)
    WTP_OVL_FIXED_CASE(3)
    WTP_OVL_FIXED_CASE(4)
    WTP_OVL_FIXED_CASE(5)
    WTP_OVL_FIXED_CASE(6)
    WTP_OVL_FIXED_CASE(7)
    WTP_OVL_FIXED_CASE(8)
#undef WTP_OVL_FIXED_CASE
    default: return 0;
  }
}

/// Vector twin of overlap_ge_word over words [w, w + 8).
WTP_AVX512_ATTR inline __m512i
avx512_vector_ge(const uint64_t* planes, size_t n_planes, size_t words,
                 size_t w, uint64_t t) {
  if (t == 0) return _mm512_set1_epi64(-1);
  if (n_planes < 64 && (t >> n_planes) != 0) return _mm512_setzero_si512();
  __m512i gt = _mm512_setzero_si512();
  __m512i eq = _mm512_set1_epi64(-1);
  for (size_t i = n_planes; i-- > 0;) {
    const __m512i plane = _mm512_loadu_si512(planes + i * words + w);
    if ((t >> i) & 1) {
      eq = _mm512_and_si512(eq, plane);
    } else {
      gt = _mm512_or_si512(gt, _mm512_and_si512(eq, plane));
      eq = _mm512_andnot_si512(plane, eq);
    }
  }
  return _mm512_or_si512(gt, eq);
}

/// Vector loop of overlap_select (lo <= hi): eight words per step; returns
/// the first word not covered.
WTP_AVX512_ATTR size_t
avx512_overlap_select_prefix(const uint64_t* planes, size_t n_planes,
                             size_t words, size_t begin, size_t end,
                             uint64_t lo, uint64_t hi, uint64_t* out) {
  size_t w = begin;
  for (; w + 8 <= end; w += 8) {
    const __m512i above_hi =
        hi == ~uint64_t{0}
            ? _mm512_setzero_si512()
            : avx512_vector_ge(planes, n_planes, words, w, hi + 1);
    _mm512_storeu_si512(
        out + (w - begin),
        _mm512_andnot_si512(above_hi,
                            avx512_vector_ge(planes, n_planes, words, w, lo)));
  }
  return w;
}

/// avx2_vector_leaves, eight words per vector.
template <size_t I>
WTP_AVX512_ATTR inline void avx512_vector_leaves(const __m512i (*literal)[2],
                                                 __m512i prefix, size_t value,
                                                 __m512i* bins) {
  if constexpr (I == 0) {
    bins[value] = _mm512_add_epi64(bins[value], _mm512_popcnt_epi64(prefix));
  } else {
    avx512_vector_leaves<I - 1>(
        literal, _mm512_and_si512(prefix, literal[I - 1][0]), value, bins);
    avx512_vector_leaves<I - 1>(
        literal, _mm512_and_si512(prefix, literal[I - 1][1]),
        value | (size_t{1} << (I - 1)), bins);
  }
}

/// avx2_vector_histogram, eight words per step; masked loads cover the
/// last partial step (lanes past `end` read as count 0,
/// whose bin is never reported).
template <size_t LOW>
WTP_AVX512_ATTR void avx512_vector_histogram(
    const uint64_t* planes, size_t n_planes, size_t words, size_t begin,
    size_t end, size_t max_hits, uint32_t* hist) {
  const __m512i ones = _mm512_set1_epi64(-1);
  __m512i bins[size_t{1} << LOW];
  for (__m512i& bin : bins) bin = _mm512_setzero_si512();
  for (size_t w = begin; w < end; w += 8) {
    const __mmask8 lanes =
        end - w >= 8 ? static_cast<__mmask8>(0xFF)
                     : static_cast<__mmask8>((1U << (end - w)) - 1);
    __m512i literal[LOW][2];
    for (size_t i = 0; i < LOW; ++i) {
      const __m512i plane =
          _mm512_maskz_loadu_epi64(lanes, planes + i * words + w);
      literal[i][0] = _mm512_andnot_si512(plane, ones);
      literal[i][1] = plane;
    }
    __m512i high_zero = ones;
    for (size_t i = LOW; i < n_planes; ++i) {
      high_zero = _mm512_andnot_si512(
          _mm512_maskz_loadu_epi64(lanes, planes + i * words + w), high_zero);
    }
    avx512_vector_leaves<LOW>(literal, high_zero, 0, bins);
  }
  for (size_t h = 1; h <= max_hits; ++h) {
    hist[h - 1] += static_cast<uint32_t>(_mm512_reduce_add_epi64(bins[h]));
  }
}

/// WTP_OVL_HISTOGRAM_PREFIX: the unrolled walk for up to 127 hits (queries
/// with fewer than 128 identity columns); wider ones are left to the body.
WTP_AVX512_ATTR size_t
avx512_overlap_histogram_prefix(const uint64_t* planes, size_t n_planes,
                                size_t words, size_t begin, size_t end,
                                size_t max_hits, uint32_t* hist) {
  if (n_planes < 64) {
    max_hits = std::min(max_hits, (size_t{1} << n_planes) - 1);
  }
  switch (std::bit_width(max_hits)) {
#define WTP_OVL_FIXED_CASE(low)                                    \
  case low:                                                       \
    avx512_vector_histogram<low>(planes, n_planes, words, begin, \
                                 end, max_hits, hist);            \
    return end;
    WTP_OVL_FIXED_CASE(1)
    WTP_OVL_FIXED_CASE(2)
    WTP_OVL_FIXED_CASE(3)
    WTP_OVL_FIXED_CASE(4)
    WTP_OVL_FIXED_CASE(5)
    WTP_OVL_FIXED_CASE(6)
    WTP_OVL_FIXED_CASE(7)
#undef WTP_OVL_FIXED_CASE
    default:
      return begin;
  }
}

#define WTP_OVL_FN(name) avx512_stamp_##name
#define WTP_OVL_ATTR WTP_AVX512_ATTR
#define WTP_OVL_POPCOUNT(x) __builtin_popcountll(x)
#define WTP_OVL_COUNT_PREFIX avx512_overlap_count_prefix
#define WTP_OVL_SELECT_PREFIX avx512_overlap_select_prefix
#define WTP_OVL_HISTOGRAM_PREFIX avx512_overlap_histogram_prefix
#include "util/overlap_body.inc"
#undef WTP_OVL_FN
#undef WTP_OVL_ATTR
#undef WTP_OVL_POPCOUNT
#undef WTP_OVL_COUNT_PREFIX
#undef WTP_OVL_SELECT_PREFIX
#undef WTP_OVL_HISTOGRAM_PREFIX
#undef WTP_AVX512_ATTR

#pragma GCC diagnostic pop

}  // namespace

// The exported entries are plain functions (no target attribute, so the
// declarations in kernel_backends.h name them) calling into the stamps.
#define WTP_OVL_EXPORT(backend)                                              \
  void backend##_overlap_count(const uint64_t* const* columns,               \
                               size_t n_columns, size_t words,               \
                               size_t n_planes, uint64_t* planes) {          \
    backend##_stamp_overlap_count(columns, n_columns, words, n_planes,       \
                                  planes);                                   \
  }                                                                          \
  void backend##_overlap_histogram(const uint64_t* planes, size_t n_planes,  \
                                   size_t words, size_t begin, size_t end,   \
                                   size_t max_hits, uint32_t* hist) {        \
    backend##_stamp_overlap_histogram(planes, n_planes, words, begin, end,   \
                                      max_hits, hist);                       \
  }                                                                          \
  void backend##_overlap_select(const uint64_t* planes, size_t n_planes,     \
                                size_t words, size_t begin, size_t end,      \
                                uint64_t lo, uint64_t hi, uint64_t* out) {   \
    backend##_stamp_overlap_select(planes, n_planes, words, begin, end, lo,  \
                                   hi, out);                                 \
  }
WTP_OVL_EXPORT(popcnt)
WTP_OVL_EXPORT(avx2)
WTP_OVL_EXPORT(avx512)
#undef WTP_OVL_EXPORT

}  // namespace wtp::svm::detail

#endif  // x86
