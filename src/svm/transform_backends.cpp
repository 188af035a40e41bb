// SIMD kernel-transform backends behind the dispatch seam (DESIGN §14).
//
// Each backend implements detail::TransformOps — the in-place per-element
// transforms that turn a tile of raw dot products into kernel values — with
// per-function target attributes, so one translation unit compiled without
// global -mavx* flags carries every variant and kernel.cpp's dispatcher
// picks one at startup via __builtin_cpu_supports (same machinery and the
// same WTP_KERNEL_BACKEND override as the bitset dot backends).
//
// Every function here is compiled with fp-contract pinned OFF: GCC's vector
// mul/add intrinsics are plain operators and would otherwise fuse into
// vfmadd, single-rounding products the baseline-ISA scalar oracle rounds
// twice.  The only fused steps are the explicit FMAs of the relaxed tier.
//
//   EXACT (rbf_exp_args / affine_args / poly_transform / exp / tanh): pure
//   IEEE arithmetic mirroring svm/kernel_scalar_body.h expression for
//   expression.  VMAXPD(u, 0) replays the scalar clamp `u > 0.0 ? u : 0.0`
//   exactly: it returns the second operand when the first is NaN (NaN → 0,
//   like the ternary) and for ±0.0 vs +0.0 returns the second operand
//   (+0.0), which is also what the ternary produces.  powi is stamped
//   lane-parallel from svm/powi_body.inc and exp/tanh from
//   svm/exp_body.inc — the in-repo transcendentals (exp <= 1 ULP, tanh
//   <= 4 ULP of glibc), so the exact tier is vectorized end to end and every
//   output is bit-identical to kernel_eval on every backend by
//   construction; the dispatch and transform suites enforce it.
//
//   RELAXED (relaxed_exp / relaxed_tanh): the same exp_body.inc stamps with
//   fused Horner steps, only run under TransformMode::kRelaxed, whose
//   contract is a documented ULP bound (exp <= 4, tanh <= 8), not
//   bit-identity.  The scalar backend has no FMA, so its relaxed entries
//   are the exact ones.
//
//   scalar — kernel_scalar_body.h loops (the reference).
//   avx2   — 4 lanes; needs avx2 and FMA (the relaxed stamps), so
//            supported() checks both.
//   avx512 — 8 lanes (AVX-512F only; no VPOPCNTDQ requirement here, though
//            every AVX-512 host we target has both).
#include "svm/kernel_backends.h"

#include <array>
#include <cstddef>

#include "svm/kernel_scalar_body.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define WTP_X86 1
#else
#define WTP_X86 0
#endif

namespace wtp::svm::detail {

namespace {

using std::size_t;

// ---------------------------------------------------------------- scalar --

bool always_supported() { return true; }

void sc_rbf_exp_args(double gamma, double x_sqnorm, const double* sq_norms,
                     double* inout, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    inout[j] = rbf_exp_arg(gamma, x_sqnorm, sq_norms[j], inout[j]);
  }
}

void sc_affine_args(double gamma, double coef0, double* inout, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    inout[j] = affine_arg(gamma, coef0, inout[j]);
  }
}

void sc_poly_transform(double gamma, double coef0, int degree, double* inout,
                       size_t n) {
  for (size_t j = 0; j < n; ++j) {
    inout[j] = poly_element(gamma, coef0, degree, inout[j]);
  }
}

void sc_exp_inplace(double* inout, size_t n) {
  for (size_t j = 0; j < n; ++j) inout[j] = kernel_exp(inout[j]);
}

void sc_tanh_inplace(double* inout, size_t n) {
  for (size_t j = 0; j < n; ++j) inout[j] = kernel_tanh(inout[j]);
}

const TransformOps kScalarTransformOps{
    "scalar",       &sc_rbf_exp_args, &sc_affine_args, &sc_poly_transform,
    &sc_exp_inplace, &sc_tanh_inplace, &sc_exp_inplace, &sc_tanh_inplace};

#if WTP_X86

// ------------------------------------------------------------------ avx2 --

#define WTP_TX2 \
  __attribute__((target("avx2,fma"), optimize("-ffp-contract=off")))

#define WTP_POWI_FN powi4
#define WTP_POWI_VEC __m256d
#define WTP_POWI_ONE _mm256_set1_pd(1.0)
#define WTP_POWI_MUL(a, b) _mm256_mul_pd((a), (b))
#define WTP_POWI_ATTR WTP_TX2
#include "svm/powi_body.inc"
#undef WTP_POWI_FN
#undef WTP_POWI_VEC
#undef WTP_POWI_ONE
#undef WTP_POWI_MUL
#undef WTP_POWI_ATTR

/// exp_scale on 4 lanes: k sits in the low 32-bit half of each lane, and
/// the 64-bit shift by 52 keeps only that half's low 12 bits.
WTP_TX2 inline __m256d exp_scale4(__m256d p, __m256d shifted) {
  const __m256i k = _mm256_castpd_si256(shifted);
  const __m256i k1 = _mm256_srai_epi32(k, 1);
  const __m256i bias = _mm256_set1_epi32(1023);
  const __m256d s1 = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_add_epi32(k1, bias), 52));
  const __m256d s2 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi32(_mm256_sub_epi32(k, k1), bias), 52));
  return _mm256_mul_pd(_mm256_mul_pd(p, s1), s2);
}

#define WTP_EXP_FN exp4
#define WTP_TANH_FN tanh4
#define WTP_EXP_VEC __m256d
#define WTP_EXP_ATTR WTP_TX2
#define WTP_EXP_SET1(c) _mm256_set1_pd(c)
#define WTP_EXP_ADD(a, b) _mm256_add_pd((a), (b))
#define WTP_EXP_SUB(a, b) _mm256_sub_pd((a), (b))
#define WTP_EXP_MUL(a, b) _mm256_mul_pd((a), (b))
#define WTP_EXP_DIV(a, b) _mm256_div_pd((a), (b))
#define WTP_EXP_FMA(a, b, c) _mm256_fmadd_pd((a), (b), (c))
#define WTP_EXP_SCALE(p, k, shifted) exp_scale4((p), (shifted))
#define WTP_EXP_MAX(a, b) _mm256_max_pd((a), (b))
#define WTP_EXP_MIN(a, b) _mm256_min_pd((a), (b))
#define WTP_EXP_LT_SELECT(a, b, t, e) \
  _mm256_blendv_pd((e), (t), _mm256_cmp_pd((a), (b), _CMP_LT_OQ))
#define WTP_EXP_ABS(x) _mm256_andnot_pd(_mm256_set1_pd(-0.0), (x))
#define WTP_EXP_OR_SIGN(v, x) \
  _mm256_or_pd((v), _mm256_and_pd((x), _mm256_set1_pd(-0.0)))
#include "svm/exp_body.inc"

WTP_TX2 void avx2_rbf_exp_args(double gamma, double x_sqnorm,
                               const double* sq_norms, double* inout,
                               size_t n) {
  const __m256d vng = _mm256_set1_pd(-gamma);
  const __m256d vx = _mm256_set1_pd(x_sqnorm);
  const __m256d vtwo = _mm256_set1_pd(2.0);
  const __m256d vzero = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d dot = _mm256_loadu_pd(inout + j);
    const __m256d ysq = _mm256_loadu_pd(sq_norms + j);
    // (x² + y²) - 2·dot, then max(·, 0): same order, same clamp semantics
    // as rbf_exp_arg (NaN and -0.0 both resolve to +0.0 under VMAXPD).
    const __m256d sq_dist = _mm256_sub_pd(_mm256_add_pd(vx, ysq),
                                          _mm256_mul_pd(vtwo, dot));
    _mm256_storeu_pd(inout + j,
                     _mm256_mul_pd(vng, _mm256_max_pd(sq_dist, vzero)));
  }
  for (; j < n; ++j) {
    inout[j] = rbf_exp_arg(gamma, x_sqnorm, sq_norms[j], inout[j]);
  }
}

WTP_TX2 void avx2_affine_args(double gamma, double coef0, double* inout,
                              size_t n) {
  const __m256d vg = _mm256_set1_pd(gamma);
  const __m256d vc = _mm256_set1_pd(coef0);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d dot = _mm256_loadu_pd(inout + j);
    _mm256_storeu_pd(inout + j, _mm256_add_pd(_mm256_mul_pd(vg, dot), vc));
  }
  for (; j < n; ++j) inout[j] = affine_arg(gamma, coef0, inout[j]);
}

WTP_TX2 void avx2_poly_transform(double gamma, double coef0, int degree,
                                 double* inout, size_t n) {
  const __m256d vg = _mm256_set1_pd(gamma);
  const __m256d vc = _mm256_set1_pd(coef0);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d dot = _mm256_loadu_pd(inout + j);
    const __m256d base = _mm256_add_pd(_mm256_mul_pd(vg, dot), vc);
    _mm256_storeu_pd(inout + j, powi4(base, degree));
  }
  for (; j < n; ++j) inout[j] = poly_element(gamma, coef0, degree, inout[j]);
}

/// The < 4-element tail runs the scalar stamp: the same operation sequence,
/// so exact-tier tails stay bit-identical (relaxed tails are unfused).
template <bool kFused>
WTP_TX2 void avx2_exp_inplace(double* inout, size_t n) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(inout + j, exp4<kFused>(_mm256_loadu_pd(inout + j)));
  }
  for (; j < n; ++j) inout[j] = kernel_exp(inout[j]);
}

template <bool kFused>
WTP_TX2 void avx2_tanh_inplace(double* inout, size_t n) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(inout + j, tanh4<kFused>(_mm256_loadu_pd(inout + j)));
  }
  for (; j < n; ++j) inout[j] = kernel_tanh(inout[j]);
}

bool avx2_transform_supported() {
  // The relaxed stamps use FMA; require it up front rather than splitting
  // the backend in two (every AVX2 CPU since Haswell has FMA).
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
}

const TransformOps kAvx2TransformOps{
    "avx2",
    &avx2_rbf_exp_args,
    &avx2_affine_args,
    &avx2_poly_transform,
    &avx2_exp_inplace<false>,
    &avx2_tanh_inplace<false>,
    &avx2_exp_inplace<true>,
    &avx2_tanh_inplace<true>};

// ---------------------------------------------------------------- avx512 --

// GCC 12's maskz loads can trip -Wmaybe-uninitialized the same way the dot
// backends do; silence just this section.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

// avx512f implies FMA, so fp-contract is pinned off here too.
#define WTP_TX512 \
  __attribute__((target("avx512f"), optimize("-ffp-contract=off")))

#define WTP_POWI_FN powi8
#define WTP_POWI_VEC __m512d
#define WTP_POWI_ONE _mm512_set1_pd(1.0)
#define WTP_POWI_MUL(a, b) _mm512_mul_pd((a), (b))
#define WTP_POWI_ATTR WTP_TX512
#include "svm/powi_body.inc"
#undef WTP_POWI_FN
#undef WTP_POWI_VEC
#undef WTP_POWI_ONE
#undef WTP_POWI_MUL
#undef WTP_POWI_ATTR

/// Sign-bit splitting in the integer domain: vandpd/vorpd are AVX-512DQ,
/// which the avx512f-only target here does not include.
WTP_TX512 inline __m512i sign_mask8() {
  return _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ULL));
}

#define WTP_EXP_FN exp8
#define WTP_TANH_FN tanh8
#define WTP_EXP_VEC __m512d
#define WTP_EXP_ATTR WTP_TX512
#define WTP_EXP_SET1(c) _mm512_set1_pd(c)
#define WTP_EXP_ADD(a, b) _mm512_add_pd((a), (b))
#define WTP_EXP_SUB(a, b) _mm512_sub_pd((a), (b))
#define WTP_EXP_MUL(a, b) _mm512_mul_pd((a), (b))
#define WTP_EXP_DIV(a, b) _mm512_div_pd((a), (b))
#define WTP_EXP_FMA(a, b, c) _mm512_fmadd_pd((a), (b), (c))
#define WTP_EXP_SCALE(p, k, shifted) _mm512_scalef_pd((p), (k))
#define WTP_EXP_MAX(a, b) _mm512_max_pd((a), (b))
#define WTP_EXP_MIN(a, b) _mm512_min_pd((a), (b))
#define WTP_EXP_LT_SELECT(a, b, t, e) \
  _mm512_mask_mov_pd((e), _mm512_cmp_pd_mask((a), (b), _CMP_LT_OQ), (t))
#define WTP_EXP_ABS(x)  \
  _mm512_castsi512_pd(  \
      _mm512_andnot_si512(sign_mask8(), _mm512_castpd_si512(x)))
#define WTP_EXP_OR_SIGN(v, x)                            \
  _mm512_castsi512_pd(_mm512_or_si512(                   \
      _mm512_castpd_si512(v),                            \
      _mm512_and_si512(_mm512_castpd_si512(x), sign_mask8())))
#include "svm/exp_body.inc"

WTP_TX512 void avx512_rbf_exp_args(double gamma, double x_sqnorm,
                                   const double* sq_norms, double* inout,
                                   size_t n) {
  const __m512d vng = _mm512_set1_pd(-gamma);
  const __m512d vx = _mm512_set1_pd(x_sqnorm);
  const __m512d vtwo = _mm512_set1_pd(2.0);
  const __m512d vzero = _mm512_setzero_pd();
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d dot = _mm512_loadu_pd(inout + j);
    const __m512d ysq = _mm512_loadu_pd(sq_norms + j);
    const __m512d sq_dist =
        _mm512_sub_pd(_mm512_add_pd(vx, ysq), _mm512_mul_pd(vtwo, dot));
    _mm512_storeu_pd(inout + j,
                     _mm512_mul_pd(vng, _mm512_max_pd(sq_dist, vzero)));
  }
  if (j < n) {
    const __mmask8 tail = static_cast<__mmask8>((1U << (n - j)) - 1);
    const __m512d dot = _mm512_maskz_loadu_pd(tail, inout + j);
    const __m512d ysq = _mm512_maskz_loadu_pd(tail, sq_norms + j);
    const __m512d sq_dist =
        _mm512_sub_pd(_mm512_add_pd(vx, ysq), _mm512_mul_pd(vtwo, dot));
    _mm512_mask_storeu_pd(inout + j, tail,
                          _mm512_mul_pd(vng, _mm512_max_pd(sq_dist, vzero)));
  }
}

WTP_TX512 void avx512_affine_args(double gamma, double coef0, double* inout,
                                  size_t n) {
  const __m512d vg = _mm512_set1_pd(gamma);
  const __m512d vc = _mm512_set1_pd(coef0);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d dot = _mm512_loadu_pd(inout + j);
    _mm512_storeu_pd(inout + j, _mm512_add_pd(_mm512_mul_pd(vg, dot), vc));
  }
  if (j < n) {
    const __mmask8 tail = static_cast<__mmask8>((1U << (n - j)) - 1);
    const __m512d dot = _mm512_maskz_loadu_pd(tail, inout + j);
    _mm512_mask_storeu_pd(inout + j, tail,
                          _mm512_add_pd(_mm512_mul_pd(vg, dot), vc));
  }
}

WTP_TX512 void avx512_poly_transform(double gamma, double coef0, int degree,
                                     double* inout, size_t n) {
  const __m512d vg = _mm512_set1_pd(gamma);
  const __m512d vc = _mm512_set1_pd(coef0);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d dot = _mm512_loadu_pd(inout + j);
    const __m512d base = _mm512_add_pd(_mm512_mul_pd(vg, dot), vc);
    _mm512_storeu_pd(inout + j, powi8(base, degree));
  }
  if (j < n) {
    const __mmask8 tail = static_cast<__mmask8>((1U << (n - j)) - 1);
    const __m512d dot = _mm512_maskz_loadu_pd(tail, inout + j);
    const __m512d base = _mm512_add_pd(_mm512_mul_pd(vg, dot), vc);
    _mm512_mask_storeu_pd(inout + j, tail, powi8(base, degree));
  }
}

/// Masked tails: dead lanes load 0.0 (exp(0) = 1, tanh(0) = 0, no traps)
/// and are masked off on the store; live lanes run the full-vector stamp.
template <bool kFused>
WTP_TX512 void avx512_exp_inplace(double* inout, size_t n) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm512_storeu_pd(inout + j, exp8<kFused>(_mm512_loadu_pd(inout + j)));
  }
  if (j < n) {
    const __mmask8 tail = static_cast<__mmask8>((1U << (n - j)) - 1);
    _mm512_mask_storeu_pd(
        inout + j, tail, exp8<kFused>(_mm512_maskz_loadu_pd(tail, inout + j)));
  }
}

template <bool kFused>
WTP_TX512 void avx512_tanh_inplace(double* inout, size_t n) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm512_storeu_pd(inout + j, tanh8<kFused>(_mm512_loadu_pd(inout + j)));
  }
  if (j < n) {
    const __mmask8 tail = static_cast<__mmask8>((1U << (n - j)) - 1);
    _mm512_mask_storeu_pd(
        inout + j, tail,
        tanh8<kFused>(_mm512_maskz_loadu_pd(tail, inout + j)));
  }
}

#pragma GCC diagnostic pop

bool avx512_transform_supported() {
  return __builtin_cpu_supports("avx512f") != 0;
}

const TransformOps kAvx512TransformOps{
    "avx512",
    &avx512_rbf_exp_args,
    &avx512_affine_args,
    &avx512_poly_transform,
    &avx512_exp_inplace<false>,
    &avx512_tanh_inplace<false>,
    &avx512_exp_inplace<true>,
    &avx512_tanh_inplace<true>};

#endif  // WTP_X86

}  // namespace

std::span<const TransformBackend> transform_backends() noexcept {
#if WTP_X86
  static const std::array<TransformBackend, 3> kBackends{{
      {&kAvx512TransformOps, &avx512_transform_supported},
      {&kAvx2TransformOps, &avx2_transform_supported},
      {&kScalarTransformOps, &always_supported},
  }};
#else
  static const std::array<TransformBackend, 1> kBackends{{
      {&kScalarTransformOps, &always_supported},
  }};
#endif
  return kBackends;
}

const TransformOps& scalar_transform_ops() noexcept {
  return kScalarTransformOps;
}

}  // namespace wtp::svm::detail
