// SIMD bitset dot backends behind the kernel_dispatch seam (DESIGN §11).
//
// Each backend implements util::BitsetDotOps — AND+popcount over 64-bit
// words plus the fused dot_rows (popcount + order-exact combine) — with
// per-function target attributes, so one translation unit compiled without
// global -mavx* flags carries every variant and the dispatcher picks one at
// startup via __builtin_cpu_supports.  The combine is stamped from
// util/bitset_dot_body.inc, the same source every backend (including the
// scalar reference) compiles, which is why every backend is bit-identical
// by construction (the equivalence suites still enforce it); compiling it
// under the target attribute keeps the replay's segment popcounts on
// hardware POPCNT.
//
//   scalar — std::popcount, no target requirements (the reference).
//   popcnt — hardware POPCNT over one word at a time.
//   avx2   — Mula's vpshufb nibble-LUT popcount, 4 words per iteration,
//            accumulated with vpsadbw (no byte-counter overflow to manage).
//   avx512 — vpopcntdq, 8 words per iteration (AVX-512F + VPOPCNTDQ).
//
// Each backend's table also carries the identification cascade's
// overlap-stage kernels (DESIGN §10), compiled in svm/overlap_backends.cpp.
#include "svm/kernel_backends.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "util/bitset_view.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

#include "svm/simd_popcount.h"
#define WTP_X86 1
#else
#define WTP_X86 0
#endif

namespace wtp::svm::detail {

namespace {

using std::size_t;
using std::uint64_t;

// ---------------------------------------------------------------- scalar --

bool always_supported() { return true; }

// ---------------------------------------------------------------- popcnt --
#if WTP_X86

__attribute__((target("popcnt"))) uint64_t pc_and_popcount(const uint64_t* a,
                                                           const uint64_t* b,
                                                           size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return total;
}

__attribute__((target("popcnt"))) void pc_and_popcount_rows(
    const uint64_t* query, const uint64_t* rows, size_t w, size_t n_rows,
    uint64_t* out) {
  for (size_t r = 0; r < n_rows; ++r) {
    const uint64_t* row = rows + r * w;
    uint64_t total = 0;
    for (size_t i = 0; i < w; ++i) {
      total += static_cast<uint64_t>(__builtin_popcountll(query[i] & row[i]));
    }
    out[r] = total;
  }
}

__attribute__((target("popcnt"))) void pc_and_popcount_block(
    const uint64_t* queries, size_t n_queries, const uint64_t* rows,
    size_t n_rows, size_t w, uint64_t* out) {
  for (size_t q = 0; q < n_queries; ++q) {
    pc_and_popcount_rows(queries + q * w, rows, w, n_rows, out + q * n_rows);
  }
}

bool popcnt_supported() { return __builtin_cpu_supports("popcnt") != 0; }

#define WTP_DOT_FN(name) pc_##name
#define WTP_DOT_ATTR __attribute__((target("popcnt")))
#define WTP_DOT_POPCOUNT(x) static_cast<uint64_t>(__builtin_popcountll(x))
#define WTP_DOT_ROW_TOTAL(q, r, w) pc_and_popcount((q), (r), (w))
#include "util/bitset_dot_body.inc"
#undef WTP_DOT_FN
#undef WTP_DOT_ATTR
#undef WTP_DOT_POPCOUNT
#undef WTP_DOT_ROW_TOTAL

// ------------------------------------------------------------------ avx2 --

__attribute__((target("avx2,popcnt"))) inline uint64_t avx2_and_popcount_one(
    const uint64_t* a, const uint64_t* b, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    acc = _mm256_add_epi64(
        acc, _mm256_sad_epu8(avx2_byte_popcount(v), _mm256_setzero_si256()));
  }
  const __m128i lanes = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                      _mm256_extracti128_si256(acc, 1));
  uint64_t total = static_cast<uint64_t>(_mm_cvtsi128_si64(lanes)) +
                   static_cast<uint64_t>(_mm_extract_epi64(lanes, 1));
  for (; i < n; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return total;
}

__attribute__((target("avx2,popcnt"))) uint64_t avx2_and_popcount(
    const uint64_t* a, const uint64_t* b, size_t n) {
  return avx2_and_popcount_one(a, b, n);
}

__attribute__((target("avx2,popcnt"))) void avx2_and_popcount_rows(
    const uint64_t* query, const uint64_t* rows, size_t w, size_t n_rows,
    uint64_t* out) {
  for (size_t r = 0; r < n_rows; ++r) {
    out[r] = avx2_and_popcount_one(query, rows + r * w, w);
  }
}

/// Blocked mini-popcount-GEMM: two queries share each loaded row vector, so
/// the row block streams from cache half as often per query.
__attribute__((target("avx2,popcnt"))) void avx2_and_popcount_block(
    const uint64_t* queries, size_t n_queries, const uint64_t* rows,
    size_t n_rows, size_t w, uint64_t* out) {
  size_t q = 0;
  for (; q + 2 <= n_queries; q += 2) {
    const uint64_t* q0 = queries + q * w;
    const uint64_t* q1 = q0 + w;
    uint64_t* out0 = out + q * n_rows;
    uint64_t* out1 = out0 + n_rows;
    for (size_t r = 0; r < n_rows; ++r) {
      const uint64_t* row = rows + r * w;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      size_t i = 0;
      for (; i + 4 <= w; i += 4) {
        const __m256i rv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
        const __m256i v0 = _mm256_and_si256(
            rv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q0 + i)));
        const __m256i v1 = _mm256_and_si256(
            rv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q1 + i)));
        acc0 = _mm256_add_epi64(
            acc0, _mm256_sad_epu8(avx2_byte_popcount(v0), _mm256_setzero_si256()));
        acc1 = _mm256_add_epi64(
            acc1, _mm256_sad_epu8(avx2_byte_popcount(v1), _mm256_setzero_si256()));
      }
      const __m128i l0 = _mm_add_epi64(_mm256_castsi256_si128(acc0),
                                       _mm256_extracti128_si256(acc0, 1));
      const __m128i l1 = _mm_add_epi64(_mm256_castsi256_si128(acc1),
                                       _mm256_extracti128_si256(acc1, 1));
      uint64_t t0 = static_cast<uint64_t>(_mm_cvtsi128_si64(l0)) +
                    static_cast<uint64_t>(_mm_extract_epi64(l0, 1));
      uint64_t t1 = static_cast<uint64_t>(_mm_cvtsi128_si64(l1)) +
                    static_cast<uint64_t>(_mm_extract_epi64(l1, 1));
      for (; i < w; ++i) {
        t0 += static_cast<uint64_t>(__builtin_popcountll(q0[i] & row[i]));
        t1 += static_cast<uint64_t>(__builtin_popcountll(q1[i] & row[i]));
      }
      out0[r] = t0;
      out1[r] = t1;
    }
  }
  for (; q < n_queries; ++q) {
    avx2_and_popcount_rows(queries + q * w, rows, w, n_rows, out + q * n_rows);
  }
}

bool avx2_supported() {
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("popcnt") != 0;
}

#define WTP_DOT_FN(name) avx2_##name
#define WTP_DOT_ATTR __attribute__((target("avx2,popcnt")))
#define WTP_DOT_POPCOUNT(x) static_cast<uint64_t>(__builtin_popcountll(x))
#define WTP_DOT_ROW_TOTAL(q, r, w) avx2_and_popcount_one((q), (r), (w))
#include "util/bitset_dot_body.inc"
#undef WTP_DOT_FN
#undef WTP_DOT_ATTR
#undef WTP_DOT_POPCOUNT
#undef WTP_DOT_ROW_TOTAL

// ---------------------------------------------------------------- avx512 --

// GCC 12's _mm256_undefined_si256 (inlined through _mm512_reduce_add_epi64
// and the maskz loads) trips -Wmaybe-uninitialized on a variable the
// intrinsic defines as intentionally undefined; silence just this section.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

// avx512f implies FMA, so every function in this section pins
// fp-contract=off: GCC's vector mul/add intrinsics are plain operators and
// the stamped replay's `sum += q*r` is scalar code — either would otherwise
// fuse into vfmadd and single-round products the baseline-ISA oracle (and
// the scalar/popcnt/avx2 backends, whose targets have no FMA) round twice.
// One shared attribute set also keeps cross-function inlining legal.
#define WTP_AVX512_ATTR                                      \
  __attribute__((target("avx512f,avx512vpopcntdq,popcnt"),   \
                 optimize("-ffp-contract=off")))

WTP_AVX512_ATTR inline uint64_t
avx512_and_popcount_one(const uint64_t* a, const uint64_t* b, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_and_si512(_mm512_loadu_si512(a + i),
                                       _mm512_loadu_si512(b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  if (i < n) {
    // Masked tail: one partial vector instead of up to 7 scalar words (the
    // paper shape is 14 words/row — a scalar tail would cover 6 of them).
    const __mmask8 tail = static_cast<__mmask8>((1U << (n - i)) - 1);
    const __m512i v = _mm512_and_si512(_mm512_maskz_loadu_epi64(tail, a + i),
                                       _mm512_maskz_loadu_epi64(tail, b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  return static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
}

WTP_AVX512_ATTR uint64_t
avx512_and_popcount(const uint64_t* a, const uint64_t* b, size_t n) {
  return avx512_and_popcount_one(a, b, n);
}

WTP_AVX512_ATTR void
avx512_and_popcount_rows(const uint64_t* query, const uint64_t* rows, size_t w,
                         size_t n_rows, uint64_t* out) {
  for (size_t r = 0; r < n_rows; ++r) {
    out[r] = avx512_and_popcount_one(query, rows + r * w, w);
  }
}

WTP_AVX512_ATTR void
avx512_and_popcount_block(const uint64_t* queries, size_t n_queries,
                          const uint64_t* rows, size_t n_rows, size_t w,
                          uint64_t* out) {
  size_t q = 0;
  for (; q + 2 <= n_queries; q += 2) {
    const uint64_t* q0 = queries + q * w;
    const uint64_t* q1 = q0 + w;
    uint64_t* out0 = out + q * n_rows;
    uint64_t* out1 = out0 + n_rows;
    for (size_t r = 0; r < n_rows; ++r) {
      const uint64_t* row = rows + r * w;
      __m512i acc0 = _mm512_setzero_si512();
      __m512i acc1 = _mm512_setzero_si512();
      size_t i = 0;
      for (; i + 8 <= w; i += 8) {
        const __m512i rv = _mm512_loadu_si512(row + i);
        acc0 = _mm512_add_epi64(
            acc0, _mm512_popcnt_epi64(_mm512_and_si512(rv, _mm512_loadu_si512(q0 + i))));
        acc1 = _mm512_add_epi64(
            acc1, _mm512_popcnt_epi64(_mm512_and_si512(rv, _mm512_loadu_si512(q1 + i))));
      }
      uint64_t t0 = static_cast<uint64_t>(_mm512_reduce_add_epi64(acc0));
      uint64_t t1 = static_cast<uint64_t>(_mm512_reduce_add_epi64(acc1));
      for (; i < w; ++i) {
        t0 += static_cast<uint64_t>(__builtin_popcountll(q0[i] & row[i]));
        t1 += static_cast<uint64_t>(__builtin_popcountll(q1[i] & row[i]));
      }
      out0[r] = t0;
      out1[r] = t1;
    }
  }
  for (; q < n_queries; ++q) {
    avx512_and_popcount_rows(queries + q * w, rows, w, n_rows,
                             out + q * n_rows);
  }
}

bool avx512_supported() {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vpopcntdq") != 0 &&
         __builtin_cpu_supports("popcnt") != 0;
}

/// Vectorized prefix for the fused dot (WTP_DOT_VECTOR_PREFIX hook in
/// bitset_dot_body.inc).  Requires the paper layout: exactly three numeric
/// columns on consecutive bits of word 0.  Consecutive numeric columns mean
/// the middle replay segments are structurally empty (numeric bits are never
/// set in the words), so the combine for EVERY row is the same flat
/// sequence: (double)p0, +q0*r0, +q1*r1, +q2*r2, then `tail` literal +1.0
/// adds, where tail is the row's AND-popcount past the numeric columns.
/// That sequence runs lane-parallel over groups of 8 rows; a partial last
/// group runs on a zero-padded copy, so every row takes this path.
///
/// The trailing 1.0-run is a masked vaddpd loop to the group's longest
/// tail: iteration i adds +1.0 to exactly the lanes whose tail exceeds i.
/// Each lane therefore performs the oracle's literal sequence of adds, and
/// a masked-off lane is untouched, so no binade bookkeeping is needed and
/// the result is bit-identical to the scalar loop by construction.  Long
/// runs are common, not rare: on the paper shape 61% of window x support
/// vector rows have a tail above 4 (median 5, max 45).
///
/// Returns the number of rows handled: all of them, or 0 when the layout
/// does not match and the caller's scalar loop takes every row.
///
/// fp-contract must stay off here: GCC's mul/add intrinsics lower to plain
/// vector operators, and letting them fuse into vfmadd would single-round
/// the products the baseline-ISA oracle rounds twice.
WTP_AVX512_ATTR size_t
avx512_dot_rows_prefix(const util::BitsetView& m, const uint64_t* qw,
                       const double* qn, double* out) {
  constexpr uint64_t kShortRun = 4;
  if (m.numeric_cols.size() != 3) return 0;
  const std::uint32_t c0 = m.numeric_cols[0];
  if (m.numeric_cols[1] != c0 + 1 || m.numeric_cols[2] != c0 + 2 ||
      m.numeric_cols[2] >= 64) {
    return 0;
  }
  const size_t n = m.row_count;
  const size_t w = m.words_per_row;
  // One full + one masked vector per row keeps the totals loop flat; wider
  // layouts than 1024 columns take the scalar specialized loop instead.
  if (w > 16) return 0;
  const __mmask8 wmask0 =
      w >= 8 ? static_cast<__mmask8>(0xFF)
             : static_cast<__mmask8>((1U << w) - 1);
  const __mmask8 wtail =
      w > 8 ? static_cast<__mmask8>((1U << (w - 8)) - 1)
            : static_cast<__mmask8>(0);
  const __m512i qv0 = _mm512_maskz_loadu_epi64(wmask0, qw);
  const __m512i qv1 = wtail != 0 ? _mm512_maskz_loadu_epi64(wtail, qw + 8)
                                 : _mm512_setzero_si512();
  const __m512i vrow_step = _mm512_setr_epi64(
      0, static_cast<long long>(w), static_cast<long long>(2 * w),
      static_cast<long long>(3 * w), static_cast<long long>(4 * w),
      static_cast<long long>(5 * w), static_cast<long long>(6 * w),
      static_cast<long long>(7 * w));
  const __m512i vqw0 = _mm512_set1_epi64(static_cast<long long>(qw[0]));
  const __m512i vmask0 =
      _mm512_set1_epi64(static_cast<long long>((uint64_t{1} << c0) - 1));
  const __m512d vqn0 = _mm512_set1_pd(qn[0]);
  const __m512d vqn1 = _mm512_set1_pd(qn[1]);
  const __m512d vqn2 = _mm512_set1_pd(qn[2]);
  const __m512d vone = _mm512_set1_pd(1.0);
  const __m512i vone_i = _mm512_set1_epi64(1);
  // Stride-3 deinterleave of 24 row-major numeric doubles into one vector
  // per column: lanes below 16 come from permutex2var(z0, z1), the rest are
  // merged in from z2.
  const __m512i idx_a0 = _mm512_setr_epi64(0, 3, 6, 9, 12, 15, 0, 0);
  const __m512i idx_b0 = _mm512_setr_epi64(0, 0, 0, 0, 0, 0, 2, 5);
  const __m512i idx_a1 = _mm512_setr_epi64(1, 4, 7, 10, 13, 0, 0, 0);
  const __m512i idx_b1 = _mm512_setr_epi64(0, 0, 0, 0, 0, 0, 3, 6);
  const __m512i idx_a2 = _mm512_setr_epi64(2, 5, 8, 11, 14, 0, 0, 0);
  const __m512i idx_b2 = _mm512_setr_epi64(0, 0, 0, 0, 0, 1, 4, 7);
  // Scratch for a partial last group: zero rows have zero totals and zero
  // numerics, and their results are dropped.
  alignas(64) uint64_t pad_words[8 * 16];
  alignas(64) double pad_numeric[24];
  alignas(64) double pad_out[8];
  for (size_t r = 0; r < n; r += 8) {
    const size_t count = std::min<size_t>(8, n - r);
    const uint64_t* rw = m.words.data() + r * w;
    const double* rn = m.numeric_values.data() + r * 3;
    double* dst = out + r;
    if (count < 8) {
      std::fill(std::copy(rw, rw + count * w, pad_words), pad_words + 8 * w,
                uint64_t{0});
      std::fill(std::copy(rn, rn + count * 3, pad_numeric), pad_numeric + 24,
                0.0);
      rw = pad_words;
      rn = pad_numeric;
      dst = pad_out;
    }
    // AND+popcount accumulators for 8 rows, horizontally summed by one
    // qword transpose-add tree — no per-row reduce, no store-forward trip
    // through a scalar buffer.
    __m512i acc[8];
    for (size_t t = 0; t < 8; ++t) {
      const uint64_t* row = rw + t * w;
      acc[t] = _mm512_popcnt_epi64(
          _mm512_and_si512(qv0, _mm512_maskz_loadu_epi64(wmask0, row)));
      if (wtail != 0) {
        acc[t] = _mm512_add_epi64(
            acc[t], _mm512_popcnt_epi64(_mm512_and_si512(
                        qv1, _mm512_maskz_loadu_epi64(wtail, row + 8))));
      }
    }
    const __m512i s01 = _mm512_add_epi64(_mm512_unpacklo_epi64(acc[0], acc[1]),
                                         _mm512_unpackhi_epi64(acc[0], acc[1]));
    const __m512i s23 = _mm512_add_epi64(_mm512_unpacklo_epi64(acc[2], acc[3]),
                                         _mm512_unpackhi_epi64(acc[2], acc[3]));
    const __m512i s45 = _mm512_add_epi64(_mm512_unpacklo_epi64(acc[4], acc[5]),
                                         _mm512_unpackhi_epi64(acc[4], acc[5]));
    const __m512i s67 = _mm512_add_epi64(_mm512_unpacklo_epi64(acc[6], acc[7]),
                                         _mm512_unpackhi_epi64(acc[6], acc[7]));
    const __m512i q0123 =
        _mm512_add_epi64(_mm512_shuffle_i64x2(s01, s23, 0x88),
                         _mm512_shuffle_i64x2(s01, s23, 0xDD));
    const __m512i q4567 =
        _mm512_add_epi64(_mm512_shuffle_i64x2(s45, s67, 0x88),
                         _mm512_shuffle_i64x2(s45, s67, 0xDD));
    const __m512i vtot =
        _mm512_add_epi64(_mm512_shuffle_i64x2(q0123, q4567, 0x88),
                         _mm512_shuffle_i64x2(q0123, q4567, 0xDD));
    const __m512i a0 = _mm512_and_si512(
        _mm512_i64gather_epi64(vrow_step, rw, 8), vqw0);
    const __m512i p0 = _mm512_popcnt_epi64(_mm512_and_si512(a0, vmask0));
    const __m512d z0 = _mm512_loadu_pd(rn);
    const __m512d z1 = _mm512_loadu_pd(rn + 8);
    const __m512d z2 = _mm512_loadu_pd(rn + 16);
    const __m512d rn0 = _mm512_mask_permutexvar_pd(
        _mm512_permutex2var_pd(z0, idx_a0, z1), 0xC0, idx_b0, z2);
    const __m512d rn1 = _mm512_mask_permutexvar_pd(
        _mm512_permutex2var_pd(z0, idx_a1, z1), 0xE0, idx_b1, z2);
    const __m512d rn2 = _mm512_mask_permutexvar_pd(
        _mm512_permutex2var_pd(z0, idx_a2, z1), 0xE0, idx_b2, z2);
    // p0 <= 64, so the int32 convert (plain AVX-512F, no DQ) is exact.
    __m512d sums = _mm512_cvtepi32_pd(_mm512_cvtepi64_epi32(p0));
    sums = _mm512_add_pd(sums, _mm512_mul_pd(vqn0, rn0));
    sums = _mm512_add_pd(sums, _mm512_mul_pd(vqn1, rn1));
    sums = _mm512_add_pd(sums, _mm512_mul_pd(vqn2, rn2));
    // The trailing 1.0-run, literally: pass i adds +1.0 to the lanes whose
    // tail exceeds i.  The first kShortRun passes are unrolled and run
    // unconditionally, so short runs take no data-dependent branch; longer
    // ones loop on to the group's longest tail.  (One loop over
    // max(kShortRun, longest) passes measured ~8% slower on both short and
    // paper-shape tails.)
    const __m512i tail = _mm512_sub_epi64(vtot, p0);
    __m512i done = _mm512_setzero_si512();
    for (uint64_t i = 0; i < kShortRun; ++i) {
      sums = _mm512_mask_add_pd(sums, _mm512_cmpgt_epu64_mask(tail, done),
                                sums, vone);
      done = _mm512_add_epi64(done, vone_i);
    }
    if (_mm512_cmpgt_epu64_mask(tail, done) != 0) {
      const uint64_t longest =
          static_cast<uint64_t>(_mm512_reduce_max_epu64(tail));
      for (uint64_t i = kShortRun; i < longest; ++i) {
        sums = _mm512_mask_add_pd(sums, _mm512_cmpgt_epu64_mask(tail, done),
                                  sums, vone);
        done = _mm512_add_epi64(done, vone_i);
      }
    }
    _mm512_storeu_pd(dst, sums);
    if (count < 8) std::copy(pad_out, pad_out + count, out + r);
  }
  return n;
}

#define WTP_DOT_VECTOR_PREFIX avx512_dot_rows_prefix
#define WTP_DOT_FN(name) avx512_##name
#define WTP_DOT_ATTR WTP_AVX512_ATTR
#define WTP_DOT_POPCOUNT(x) static_cast<uint64_t>(__builtin_popcountll(x))
#define WTP_DOT_ROW_TOTAL(q, r, w) avx512_and_popcount_one((q), (r), (w))
#include "util/bitset_dot_body.inc"
#undef WTP_DOT_VECTOR_PREFIX
#undef WTP_DOT_FN
#undef WTP_DOT_ATTR
#undef WTP_DOT_POPCOUNT
#undef WTP_DOT_ROW_TOTAL
#undef WTP_AVX512_ATTR

#pragma GCC diagnostic pop

const util::BitsetDotOps kPopcntOps{"popcnt",
                                    &pc_and_popcount,
                                    &pc_and_popcount_rows,
                                    &pc_and_popcount_block,
                                    &pc_dot_rows,
                                    &popcnt_overlap_count,
                                    &popcnt_overlap_histogram,
                                    &popcnt_overlap_select};
const util::BitsetDotOps kAvx2Ops{"avx2",
                                  &avx2_and_popcount,
                                  &avx2_and_popcount_rows,
                                  &avx2_and_popcount_block,
                                  &avx2_dot_rows,
                                  &avx2_overlap_count,
                                  &avx2_overlap_histogram,
                                  &avx2_overlap_select};
const util::BitsetDotOps kAvx512Ops{"avx512",
                                    &avx512_and_popcount,
                                    &avx512_and_popcount_rows,
                                    &avx512_and_popcount_block,
                                    &avx512_dot_rows,
                                    &avx512_overlap_count,
                                    &avx512_overlap_histogram,
                                    &avx512_overlap_select};
#endif  // WTP_X86

}  // namespace

std::span<const KernelBackend> kernel_backends() noexcept {
#if WTP_X86
  static const std::array<KernelBackend, 4> kBackends{{
      {&kAvx512Ops, &avx512_supported},
      {&kAvx2Ops, &avx2_supported},
      {&kPopcntOps, &popcnt_supported},
      {&util::scalar_bitset_ops(), &always_supported},
  }};
#else
  static const std::array<KernelBackend, 1> kBackends{{
      {&util::scalar_bitset_ops(), &always_supported},
  }};
#endif
  return kBackends;
}

}  // namespace wtp::svm::detail
