// The ONE scalar definition of the per-element kernel arithmetic
// (DESIGN §14).  kernel_eval, kernel_self, kernel_transform's scalar
// backend, and the SIMD transform tails all stamp their per-element bodies
// from these inlines, so exact-tier bit-identity across entry points is by
// construction: there is no second copy of the expressions to drift.
//
// Every helper preserves the historical expression ORDER of kernel_eval
// (svm/kernel.cpp), which is the repo-wide oracle:
//
//   polynomial  powi(gamma * dot + coef0, degree)
//   rbf         kernel_exp(-gamma * max(sq_dist, 0)),
//               sq_dist = (x_sqnorm + y_sqnorm) - (2.0 * dot)
//   sigmoid     kernel_tanh(gamma * dot + coef0)
//
// kernel_exp/kernel_tanh are the in-repo transcendentals of
// svm/exp_body.inc, not libm's, so kernel values are fixed by this source
// rather than by the host's C library.  The SIMD stamps in
// svm/transform_backends.cpp mirror these expressions with fp-contract
// pinned off, so a vector lane performs the same two-round mul+add the
// baseline-ISA scalar build does.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace wtp::svm::detail {

#define WTP_POWI_FN powi
#define WTP_POWI_VEC double
#define WTP_POWI_ONE 1.0
#define WTP_POWI_MUL(a, b) ((a) * (b))
#define WTP_POWI_ATTR
#include "svm/powi_body.inc"
#undef WTP_POWI_FN
#undef WTP_POWI_VEC
#undef WTP_POWI_ONE
#undef WTP_POWI_MUL
#undef WTP_POWI_ATTR

// ------------------------------------------------- exp/tanh constants --

inline constexpr double kExpLog2e = 1.44269504088896340736;
/// 1.5 * 2^52: adding it rounds x*log2e to the nearest integer (ties to
/// even) and leaves that integer in the low mantissa bits.
inline constexpr double kExpShift = 0x1.8p52;
/// ln 2 split so k*ln2_hi is exact for |k| < 2^11 (Cody–Waite).
inline constexpr double kExpLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kExpLn2Lo = 1.90821492927058770002e-10;
/// exp's argument clamp: exp(kExpHi) overflows to +inf and exp(kExpLo)
/// rounds to 0, as every argument beyond them does.
inline constexpr double kExpHi = 709.79;
inline constexpr double kExpLo = -745.2;
/// 1/i! for exp(r), |r| <= ln2/2 (truncation < 0.1 ULP).
inline constexpr double kExpTaylor[14] = {
    1.0,                    1.0,
    1.0 / 2,                1.0 / 6,
    1.0 / 24,               1.0 / 120,
    1.0 / 720,              1.0 / 5040,
    1.0 / 40320,            1.0 / 362880,
    1.0 / 3628800,          1.0 / 39916800,
    1.0 / 479001600,        1.0 / 6227020800.0,
};
/// 1/(i+1)! for expm1(u)/u, |u| <= 0.7.
inline constexpr double kExpm1Taylor[16] = {
    1.0,                    1.0 / 2,
    1.0 / 6,                1.0 / 24,
    1.0 / 120,              1.0 / 720,
    1.0 / 5040,             1.0 / 40320,
    1.0 / 362880,           1.0 / 3628800,
    1.0 / 39916800,         1.0 / 479001600,
    1.0 / 6227020800.0,     1.0 / 87178291200.0,
    1.0 / 1307674368000.0,  1.0 / 20922789888000.0,
};
/// tanh's cutover between the expm1 and exp branches.
inline constexpr double kTanhSmall = 0.35;

/// 2^e as a double from the low 12 bits of `biased` (= e + 1023).
inline double exp_pow2(std::uint32_t biased) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(biased) << 52);
}

/// p * 2^k, k the int32 in the low bits of `shifted`: two power-of-two
/// factors that stay normal for every k in [-1075, 1024], so only the
/// second product rounds.  Unsigned arithmetic so a NaN lane's garbage k
/// wraps instead of overflowing.
inline double exp_scale(double p, double shifted) {
  const auto k =
      static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(shifted));
  const std::uint32_t k1 = static_cast<std::uint32_t>(
      static_cast<std::int32_t>(k) >> 1);
  return (p * exp_pow2(k1 + 1023)) * exp_pow2(k - k1 + 1023);
}

#define WTP_EXP_FN kernel_exp_stamp
#define WTP_TANH_FN kernel_tanh_stamp
#define WTP_EXP_VEC double
#define WTP_EXP_ATTR
#define WTP_EXP_SET1(c) (c)
#define WTP_EXP_ADD(a, b) ((a) + (b))
#define WTP_EXP_SUB(a, b) ((a) - (b))
#define WTP_EXP_MUL(a, b) ((a) * (b))
#define WTP_EXP_DIV(a, b) ((a) / (b))
#define WTP_EXP_FMA(a, b, c) std::fma((a), (b), (c))
#define WTP_EXP_SCALE(p, k, shifted) exp_scale((p), (shifted))
#define WTP_EXP_MAX(a, b) ((a) > (b) ? (a) : (b))
#define WTP_EXP_MIN(a, b) ((a) < (b) ? (a) : (b))
#define WTP_EXP_LT_SELECT(a, b, t, e) ((a) < (b) ? (t) : (e))
#define WTP_EXP_ABS(x) \
  std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) & ~(1ULL << 63))
#define WTP_EXP_OR_SIGN(v, x)                          \
  std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) | \
                        (std::bit_cast<std::uint64_t>(x) & (1ULL << 63)))
#include "svm/exp_body.inc"

/// The exact-tier exp and tanh: what kernel_eval, kernel_self and every
/// transform backend's exact entries compute, bit for bit.
inline double kernel_exp(double x) { return kernel_exp_stamp<false>(x); }
inline double kernel_tanh(double x) { return kernel_tanh_stamp<false>(x); }

/// gamma * dot + coef0 — the polynomial/sigmoid pre-scale.
inline double affine_arg(double gamma, double coef0, double dot) {
  return gamma * dot + coef0;
}

/// -gamma * max(sq_dist, 0) with sq_dist = x² + y² - 2·dot — the RBF
/// exponent, clamp included (catastrophic cancellation near x == y can make
/// sq_dist a tiny negative; NaN also clamps to 0, matching the ternary).
inline double rbf_exp_arg(double gamma, double x_sqnorm, double y_sqnorm,
                          double dot) {
  const double sq_dist = x_sqnorm + y_sqnorm - 2.0 * dot;
  return -gamma * (sq_dist > 0.0 ? sq_dist : 0.0);
}

/// The full polynomial element: powi(gamma * dot + coef0, degree).
inline double poly_element(double gamma, double coef0, int degree,
                           double dot) {
  return powi(affine_arg(gamma, coef0, dot), degree);
}

}  // namespace wtp::svm::detail
