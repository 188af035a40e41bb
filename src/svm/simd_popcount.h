// Byte-wise AVX2 popcount shared by the bitset dot kernels
// (svm/kernel_backends.cpp) and the overlap-stage kernels
// (svm/overlap_backends.cpp).  x86 only; include after <immintrin.h>.
#pragma once

#include <immintrin.h>

namespace wtp::svm::detail {

/// popcount of every byte of `v` via two nibble table lookups.
__attribute__((target("avx2"))) inline __m256i avx2_byte_popcount(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1,
                       2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

}  // namespace wtp::svm::detail
