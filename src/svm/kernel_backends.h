// Internal registries of SIMD kernel backends.
//
//   kernel_backends()    — bitset dot backends (svm/kernel_backends.cpp),
//                          AND+popcount over the bitset plane (DESIGN §11),
//                          plus the cascade's overlap-stage kernels
//                          (DESIGN §10).
//   transform_backends() — kernel-transform backends
//                          (svm/transform_backends.cpp), the vectorized
//                          tail that turns raw dots into kernel values
//                          (DESIGN §14).
//
// kernel.cpp's dispatch seam selects from these lists; tests iterate them
// to run every host-supported backend against the scalar oracle.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>

#include "util/bitset_view.h"

namespace wtp::svm::detail {

struct KernelBackend {
  const util::BitsetDotOps* ops;
  /// Runtime CPU check; the backend may only be invoked when this is true.
  bool (*supported)();
};

/// All compiled-in backends, fastest first ("avx512", "avx2", "popcnt",
/// "scalar").  The scalar entry is always last and always supported.
[[nodiscard]] std::span<const KernelBackend> kernel_backends() noexcept;

/// The overlap_* entries of the popcnt/avx2/avx512 backends, defined in
/// svm/overlap_backends.cpp (x86 only; callable only where the backend's
/// supported() is true).
using OverlapCountFn =
    std::remove_pointer_t<decltype(util::BitsetDotOps::overlap_count)>;
using OverlapHistogramFn =
    std::remove_pointer_t<decltype(util::BitsetDotOps::overlap_histogram)>;
using OverlapSelectFn =
    std::remove_pointer_t<decltype(util::BitsetDotOps::overlap_select)>;
OverlapCountFn popcnt_overlap_count, avx2_overlap_count, avx512_overlap_count;
OverlapHistogramFn popcnt_overlap_histogram, avx2_overlap_histogram,
    avx512_overlap_histogram;
OverlapSelectFn popcnt_overlap_select, avx2_overlap_select,
    avx512_overlap_select;

/// One kernel-transform backend: in-place per-element ops over a tile of
/// raw dot products (DESIGN §14).
///
/// The first three entries are the EXACT tier: pure mul/add/max arithmetic
/// stamped from svm/kernel_scalar_body.h with fp-contract pinned off, so
/// every backend is bit-identical to the scalar expressions in kernel_eval.
/// The last two are the RELAXED tier: vectorized exp/tanh stamped from
/// svm/relaxed_math.h, only ever invoked when the effective TransformMode
/// is kRelaxed (the exact tier calls libm per element instead).
struct TransformOps {
  const char* name;
  /// inout[j] = -gamma * max(x_sqnorm + sq_norms[j] - 2*inout[j], 0) —
  /// the RBF exponent with the cancellation clamp (NaN clamps to 0 too).
  void (*rbf_exp_args)(double gamma, double x_sqnorm, const double* sq_norms,
                       double* inout, std::size_t n);
  /// inout[j] = gamma * inout[j] + coef0 — the sigmoid/polynomial pre-scale.
  void (*affine_args)(double gamma, double coef0, double* inout,
                      std::size_t n);
  /// inout[j] = powi(gamma * inout[j] + coef0, degree) — the full polynomial
  /// transform, lane-parallel repeated squaring (no libm involved).
  void (*poly_transform)(double gamma, double coef0, int degree, double* inout,
                         std::size_t n);
  /// Relaxed tier: inout[j] = relaxed_exp(inout[j]) (see relaxed_math.h for
  /// the ULP contract).
  void (*exp_inplace)(double* inout, std::size_t n);
  /// Relaxed tier: inout[j] = relaxed_tanh(inout[j]).
  void (*tanh_inplace)(double* inout, std::size_t n);
};

struct TransformBackend {
  const TransformOps* ops;
  /// Runtime CPU check; the backend may only be invoked when this is true.
  bool (*supported)();
};

/// All compiled-in transform backends, fastest first ("avx512", "avx2",
/// "scalar").  The scalar entry is always last and always supported.
[[nodiscard]] std::span<const TransformBackend> transform_backends() noexcept;

/// The always-available scalar reference backend (also the fallback when a
/// requested backend is unsupported).
[[nodiscard]] const TransformOps& scalar_transform_ops() noexcept;

}  // namespace wtp::svm::detail
