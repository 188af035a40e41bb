// Transform plane (DESIGN §14): the in-repo exp/tanh, adversarial
// exact-tier edges, and the relaxed tier's contracts.
//
// In-repo exp/tanh (svm/exp_body.inc): dense sweeps against libm over
// [-745, 710] report the max ULP (exp <= 1, tanh <= 4), the specials and
// cut points match libm, and every backend's vector stamp is bit-identical
// to the scalar stamp, tails included.
//
// Exact tier: kernel_transform must equal per-pair kernel_eval BITWISE on
// every dispatched backend, including the hostile inputs the clamp and the
// fp-contract pinning exist for — catastrophic cancellation around
// sq_dist == 0, denormal dots, and ±inf/NaN propagation.
//
// Relaxed tier: opt-in only (mode plumbing tested here), documented
// max-ULP bounds (exp <= 4, tanh <= 8) verified against libm on every
// backend, specials preserved, and training pinned to the exact tier
// regardless of the process mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "svm/kernel.h"
#include "svm/kernel_backends.h"
#include "svm/kernel_scalar_body.h"
#include "svm/one_class_svm.h"
#include "util/feature_matrix.h"
#include "util/rng.h"
#include "util/sparse_vector.h"

namespace wtp::svm {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// Restores the env-selected backend and transform mode however a test exits.
struct TransformGuard {
  ~TransformGuard() {
    set_kernel_backend_for_testing("");
    set_transform_mode(TransformMode::kDefault);
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// ULP distance between two finite doubles of the same sign (monotone
/// integer mapping of the IEEE ordering).
std::uint64_t ulp_distance(double a, double b) {
  const auto key = [](double v) {
    const std::int64_t raw = std::bit_cast<std::int64_t>(v);
    return raw >= 0 ? raw : std::numeric_limits<std::int64_t>::min() - raw;
  };
  const std::int64_t ka = key(a);
  const std::int64_t kb = key(b);
  return static_cast<std::uint64_t>(ka > kb ? ka - kb : kb - ka);
}

/// A supported backend's vector stamps, applied in place.
using InplaceFn = void (*)(double*, std::size_t);

/// Max ULP distance of `fn` from `libm` over `n + 1` evenly spaced points
/// of [lo, hi]; NaN/inf mismatches count as an unbounded distance.
std::uint64_t max_ulp_sweep(double (*fn)(double), double (*libm)(double),
                            double lo, double hi, std::size_t n,
                            double* worst_x) {
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i <= n; ++i) {
    const double x = lo + (hi - lo) * (static_cast<double>(i) /
                                       static_cast<double>(n));
    const double want = libm(x);
    const double got = fn(x);
    const std::uint64_t ulps =
        std::isfinite(want) == std::isfinite(got)
            ? (std::isfinite(want) ? ulp_distance(want, got)
                                   : (bits(want) == bits(got) ? 0 : ~0ULL))
            : ~0ULL;
    if (ulps > worst) {
      worst = ulps;
      *worst_x = x;
    }
  }
  return worst;
}

double libm_exp(double x) { return std::exp(x); }
double libm_tanh(double x) { return std::tanh(x); }

/// The in-repo exp is within 1 ULP of libm over the whole finite-result
/// range, subnormal outputs included (4M points; the bound also held over
/// 110M points in development).
TEST(Transform, KernelExpWithinOneUlpOfLibm) {
  double worst_x = 0.0;
  const std::uint64_t worst = max_ulp_sweep(
      &detail::kernel_exp, &libm_exp, -745.2, 710.0, 4'000'000, &worst_x);
  std::printf("kernel_exp: max %llu ULP of libm over [-745.2, 710] (x=%.17g)\n",
              static_cast<unsigned long long>(worst), worst_x);
  RecordProperty("max_ulp", static_cast<int>(std::min<std::uint64_t>(worst, 1000)));
  EXPECT_LE(worst, 1u) << "x=" << worst_x;
  // The subnormal-output band alone, densely: one rounding into the
  // subnormal format, never two.
  const std::uint64_t sub = max_ulp_sweep(&detail::kernel_exp, &libm_exp,
                                          -745.2, -708.3, 1'000'000, &worst_x);
  EXPECT_LE(sub, 1u) << "x=" << worst_x;
}

/// The in-repo tanh holds its documented 4 ULP bound (the relaxed tier's
/// is 8): densely over the working range, both branches and the cutover,
/// and across [-745, 710] where it saturates to ±1.
TEST(Transform, KernelTanhWithinFourUlpOfLibm) {
  double worst_x = 0.0;
  std::uint64_t worst = max_ulp_sweep(&detail::kernel_tanh, &libm_tanh, -20.0,
                                      20.0, 4'000'000, &worst_x);
  double wide_x = 0.0;
  const std::uint64_t wide = max_ulp_sweep(
      &detail::kernel_tanh, &libm_tanh, -745.0, 710.0, 1'000'000, &wide_x);
  if (wide > worst) {
    worst = wide;
    worst_x = wide_x;
  }
  std::printf("kernel_tanh: max %llu ULP of libm (x=%.17g)\n",
              static_cast<unsigned long long>(worst), worst_x);
  RecordProperty("max_ulp", static_cast<int>(std::min<std::uint64_t>(worst, 1000)));
  EXPECT_LE(worst, 4u) << "x=" << worst_x;
}

/// The largest x whose exp is finite (ln DBL_MAX rounded down).
constexpr double kLargestFinite = 709.78271289338397;

/// Specials and cut points: each result equals libm's bit for bit.
TEST(Transform, KernelExpTanhSpecialsMatchLibm) {
  const double min_normal = std::numeric_limits<double>::min();
  const double exp_cases[] = {
      0.0, -0.0, kInf, -kInf,
      kLargestFinite, std::nextafter(kLargestFinite, kInf),  // overflow cut
      detail::kExpHi, 709.0, 1e300, -1e300,
      -708.39641853226408,                   // exp(x) = DBL_MIN
      std::nextafter(-708.39641853226408, -kInf),  // first subnormal
      -720.0, -740.0,
      -745.1332191019411,   // exp(x) rounds up to the smallest subnormal
      -745.13321910194122,  // exp(x) = 2^-1075, a tie that rounds to 0
      detail::kExpLo, std::nextafter(detail::kExpLo, -kInf), -800.0,
      1e-300, -1e-300, std::numeric_limits<double>::denorm_min()};
  for (const double x : exp_cases) {
    EXPECT_EQ(bits(detail::kernel_exp(x)), bits(std::exp(x)))
        << "exp x=" << x << " got=" << detail::kernel_exp(x)
        << " want=" << std::exp(x);
  }
  EXPECT_LT(std::exp(-708.5), min_normal);  // the case list reaches subnormals
  EXPECT_TRUE(std::isnan(detail::kernel_exp(kNan)));
  EXPECT_TRUE(std::isnan(detail::kernel_exp(-kNan)));
  const double tanh_cases[] = {0.0,   -0.0,  kInf,  -kInf, detail::kTanhSmall,
                               -detail::kTanhSmall,
                               std::nextafter(detail::kTanhSmall, 0.0),
                               1e-300, -1e-300,
                               std::numeric_limits<double>::denorm_min(),
                               19.0,  -19.0, 400.0, -400.0, 1e300};
  for (const double x : tanh_cases) {
    EXPECT_LE(ulp_distance(detail::kernel_tanh(x), std::tanh(x)), 4u)
        << "tanh x=" << x;
  }
  for (const double x : {0.0, -0.0, kInf, -kInf, 1e-300, -1e-300, 400.0}) {
    EXPECT_EQ(bits(detail::kernel_tanh(x)), bits(std::tanh(x))) << x;
  }
  EXPECT_TRUE(std::isnan(detail::kernel_tanh(kNan)));
}

/// Inputs for the cross-backend identity check: the working ranges, the
/// whole finite range, cut points and specials.
std::vector<double> stamp_args() {
  std::vector<double> args;
  util::Rng rng{90210};
  for (std::size_t i = 0; i < 3000; ++i) {
    args.push_back(-rng.uniform() * 60.0);
    args.push_back((rng.uniform() - 0.5) * 1460.0);
    args.push_back((rng.uniform() - 0.5) * 2.0);
    args.push_back(-708.0 - rng.uniform() * 37.3);  // subnormal results
  }
  const double edges[] = {0.0,   -0.0, kInf, -kInf, kNan, -kNan,
                          kLargestFinite, std::nextafter(kLargestFinite, kInf),
                          detail::kExpHi, detail::kExpLo, -745.1332191019411,
                          -720.0,
                          detail::kTanhSmall, -detail::kTanhSmall, 1e300,
                          -1e300, std::numeric_limits<double>::denorm_min()};
  args.insert(args.end(), std::begin(edges), std::end(edges));
  return args;
}

/// Every backend's exact exp/tanh stamp equals the scalar stamp bit for bit
/// — full vectors and every tail length 1–15 (the AVX2 scalar tail, the
/// AVX-512 masked tail), from unaligned starts.
TEST(Transform, ExpTanhStampsBitIdenticalAcrossBackends) {
  const std::vector<double> args = stamp_args();
  std::vector<double> buf(args.size() + 1);
  for (const auto& backend : detail::transform_backends()) {
    if (!backend.supported()) continue;
    const detail::TransformOps& ops = *backend.ops;
    const std::pair<InplaceFn, double (*)(double)> stamps[] = {
        {ops.exp_inplace, &detail::kernel_exp},
        {ops.tanh_inplace, &detail::kernel_tanh}};
    for (const auto& [vector_fn, scalar_fn] : stamps) {
      for (std::size_t len = 1; len <= 40; ++len) {
        for (std::size_t start = 0; start + len <= args.size(); start += 97) {
          double* data = buf.data() + 1;  // odd offset: unaligned loads
          std::copy_n(args.begin() + static_cast<std::ptrdiff_t>(start), len,
                      data);
          vector_fn(data, len);
          for (std::size_t j = 0; j < len; ++j) {
            ASSERT_EQ(bits(scalar_fn(args[start + j])), bits(data[j]))
                << ops.name << " len=" << len << " x=" << args[start + j];
          }
        }
      }
      // One long call: the main loop over every argument at once.
      std::copy(args.begin(), args.end(), buf.begin());
      vector_fn(buf.data(), args.size());
      for (std::size_t j = 0; j < args.size(); ++j) {
        ASSERT_EQ(bits(scalar_fn(args[j])), bits(buf[j]))
            << ops.name << " x=" << args[j];
      }
    }
  }
}

/// Dense two-entry vectors so dots/norms are exactly the values we pick.
util::SparseVector vec2(double a, double b) {
  return util::SparseVector{{{0, a}, {1, b}}};
}

/// Transform == per-pair kernel_eval, bitwise, on the given rows/queries,
/// for every supported backend and every kernel in `kernels`.
void expect_transform_matches_eval(std::span<const util::SparseVector> rows,
                                   std::span<const util::SparseVector> queries,
                                   std::span<const KernelParams> kernels,
                                   std::size_t dim, const char* tag) {
  // Bitwise identity is the EXACT tier's contract; pin it so the suite
  // stays green when CI exports WTP_TRANSFORM_MODE=relaxed.
  set_transform_mode(TransformMode::kExact);
  auto matrix = util::FeatureMatrix::from_rows(rows, dim);
  std::vector<double> out(rows.size());
  for (const auto& params : kernels) {
    for (const auto backend : supported_kernel_backends()) {
      set_kernel_backend_for_testing(backend);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const double sqn = queries[q].squared_norm();
        kernel_row(params, matrix, queries[q], sqn, out);
        for (std::size_t r = 0; r < rows.size(); ++r) {
          const double oracle =
              kernel_eval(params, queries[q], rows[r], sqn,
                          rows[r].squared_norm());
          ASSERT_EQ(bits(oracle), bits(out[r]))
              << tag << " " << describe(params) << " backend=" << backend
              << " q=" << q << " row=" << r << " oracle=" << oracle
              << " got=" << out[r];
        }
      }
    }
  }
}

std::vector<KernelParams> all_kernels() {
  return {
      {KernelType::kLinear, 1.0, 0.0, 3},
      {KernelType::kPolynomial, 0.5, 1.0, 3},
      {KernelType::kRbf, 0.25, 0.0, 3},
      {KernelType::kSigmoid, 0.1, 0.5, 3},
  };
}

/// Catastrophic cancellation around sq_dist == 0: near-identical vectors
/// whose x² + y² - 2·dot lands exactly at zero, at tiny negatives (the
/// clamp's reason to exist), and at tiny positives — the SIMD VMAXPD clamp
/// must pick the same side as the scalar ternary every time.
TEST(Transform, RbfClampCancellationEdgeBitwise) {
  TransformGuard guard;
  std::vector<util::SparseVector> rows;
  // Identical pairs: sq_dist is an exact 0 (or a rounding-noise negative).
  rows.push_back(vec2(1.0 / 3.0, 2.0 / 7.0));
  rows.push_back(vec2(0.1, 0.2));
  // One-ULP perturbations straddle the clamp threshold.
  rows.push_back(vec2(std::nextafter(1.0 / 3.0, 1.0), 2.0 / 7.0));
  rows.push_back(vec2(1.0 / 3.0, std::nextafter(2.0 / 7.0, 0.0)));
  // -0.0 valued entry: sq_dist may be -0.0, which must clamp to +0.0.
  rows.push_back(vec2(-0.0, 0.0));
  rows.push_back(vec2(0.0, 0.0));
  std::vector<util::SparseVector> queries;
  queries.push_back(vec2(1.0 / 3.0, 2.0 / 7.0));
  queries.push_back(vec2(0.1, 0.2));
  queries.push_back(vec2(-0.0, 0.0));
  const std::vector<KernelParams> kernels{
      {KernelType::kRbf, 0.25, 0.0, 3},
      {KernelType::kRbf, 1e300, 0.0, 3},  // huge gamma amplifies any slip
  };
  expect_transform_matches_eval(rows, queries, kernels, 4, "clamp");
  // Spot-check the semantic: exact self-similarity is exp(-gamma*0) = 1.
  auto matrix = util::FeatureMatrix::from_rows(
      std::span<const util::SparseVector>{rows}, 4);
  std::vector<double> out(rows.size());
  for (const auto backend : supported_kernel_backends()) {
    set_kernel_backend_for_testing(backend);
    kernel_row(kernels[0], matrix, queries[0], queries[0].squared_norm(), out);
    EXPECT_EQ(out[0], 1.0) << backend;
  }
}

/// Denormal dots and norms: the argument assembly must not flush or
/// double-round differently across backends.
TEST(Transform, DenormalDotsBitwise) {
  TransformGuard guard;
  const double denorm = 0x1p-1060;  // deep subnormal product territory
  std::vector<util::SparseVector> rows;
  rows.push_back(vec2(0x1p-530, 0x1p-530));
  rows.push_back(vec2(denorm, 0.0));
  rows.push_back(vec2(std::numeric_limits<double>::denorm_min(), 1.0));
  rows.push_back(vec2(-0x1p-530, 0x1p-1000));
  std::vector<util::SparseVector> queries;
  queries.push_back(vec2(0x1p-530, -0x1p-530));
  queries.push_back(vec2(1.0, std::numeric_limits<double>::denorm_min()));
  queries.push_back(vec2(denorm, denorm));
  const auto kernels = all_kernels();
  expect_transform_matches_eval(rows, queries, kernels, 4, "denormal");
}

/// ±inf / NaN inputs: the transform must propagate exactly what the scalar
/// oracle propagates (RBF's clamp maps a NaN sq_dist to 0 -> kernel 1).
TEST(Transform, InfNanPropagationBitwise) {
  TransformGuard guard;
  std::vector<util::SparseVector> rows;
  rows.push_back(vec2(kInf, 1.0));
  rows.push_back(vec2(-kInf, 2.0));
  rows.push_back(vec2(kNan, 0.5));
  rows.push_back(vec2(std::numeric_limits<double>::max(), 1.0));
  rows.push_back(vec2(1.0, -1.0));
  std::vector<util::SparseVector> queries;
  queries.push_back(vec2(1.0, 1.0));
  queries.push_back(vec2(kInf, 0.0));
  queries.push_back(vec2(kNan, 1.0));
  queries.push_back(vec2(-std::numeric_limits<double>::max(), 2.0));
  const auto kernels = all_kernels();
  expect_transform_matches_eval(rows, queries, kernels, 4, "specials");
}

/// Paper-shape randomized sweep of the same oracle identity, so the edge
/// tests above are anchored by bulk coverage at the real layout.
TEST(Transform, RandomizedPaperShapeBitwise) {
  TransformGuard guard;
  util::Rng rng{20260809};
  std::vector<util::SparseVector> rows;
  std::vector<util::SparseVector> queries;
  for (std::size_t i = 0; i < 40; ++i) {
    std::vector<util::SparseVector::Entry> entries;
    for (std::size_t k = 0; k < 25; ++k) {
      entries.push_back({9 + rng.uniform_index(834), 1.0});
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    entries.erase(std::unique(entries.begin(), entries.end(),
                              [](const auto& a, const auto& b) {
                                return a.index == b.index;
                              }),
                  entries.end());
    entries.push_back({6, rng.uniform() * 3.0});
    entries.push_back({7, (rng.uniform() - 0.5) * 10.0});
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    auto v = util::SparseVector{std::move(entries)};
    (i % 5 == 0 ? queries : rows).push_back(std::move(v));
  }
  const auto kernels = all_kernels();
  expect_transform_matches_eval(rows, queries, kernels, 843, "paper");
}

// ---------------------------------------------------------- relaxed tier --

/// Argument sweep for the relaxed exp: the RBF exponent range plus edges.
std::vector<double> exp_args() {
  std::vector<double> args;
  util::Rng rng{77};
  for (std::size_t i = 0; i < 20000; ++i) {
    args.push_back(-rng.uniform() * 60.0);  // typical RBF exponents
  }
  for (std::size_t i = 0; i < 5000; ++i) {
    args.push_back((rng.uniform() - 0.5) * 1419.0);  // full finite range
  }
  const double edges[] = {0.0,    -0.0,   1e-300, -1e-300, 0.5,    -0.5,
                          709.78, -745.0, -708.3, 708.5,   -745.13, 1.0};
  args.insert(args.end(), std::begin(edges), std::end(edges));
  return args;
}

/// Applies `fn` to a copy of `args` and returns the result.
std::vector<double> run_inplace(InplaceFn fn, const std::vector<double>& args) {
  std::vector<double> out = args;
  fn(out.data(), out.size());
  return out;
}

/// Every backend's relaxed exp stamp within its documented bound of
/// std::exp: <= 4 ULP for normal results, one extra double-rounding allowed
/// in the subnormal range.
TEST(Transform, RelaxedExpUlpBound) {
  const std::vector<double> args = exp_args();
  for (const auto& backend : detail::transform_backends()) {
    if (!backend.supported()) continue;
    const std::vector<double> got =
        run_inplace(backend.ops->relaxed_exp_inplace, args);
    std::uint64_t worst = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const double want = std::exp(args[i]);
      const bool subnormal = want < std::numeric_limits<double>::min();
      const std::uint64_t ulps = ulp_distance(want, got[i]);
      ASSERT_LE(ulps, subnormal ? 8u : 4u)
          << backend.ops->name << " x=" << args[i] << " want=" << want
          << " got=" << got[i];
      if (!subnormal) worst = std::max(worst, ulps);
    }
    EXPECT_LE(worst, 4u) << backend.ops->name;
    const std::vector<double> specials =
        run_inplace(backend.ops->relaxed_exp_inplace, {kInf, -kInf, kNan, 800.0, -800.0});
    EXPECT_EQ(specials[0], kInf);
    EXPECT_EQ(specials[1], 0.0);
    EXPECT_TRUE(std::isnan(specials[2]));
    EXPECT_EQ(specials[3], kInf);
    EXPECT_EQ(specials[4], 0.0);
  }
}

/// Every backend's relaxed tanh within <= 8 ULP of std::tanh, both
/// branches and specials.
TEST(Transform, RelaxedTanhUlpBound) {
  util::Rng rng{78};
  std::vector<double> args;
  for (std::size_t i = 0; i < 20000; ++i) {
    args.push_back((rng.uniform() - 0.5) * 8.0);  // sigmoid working range
  }
  for (std::size_t i = 0; i < 5000; ++i) {
    args.push_back((rng.uniform() - 0.5) * 0.8);  // dense around the cutover
  }
  const double edges[] = {0.35,  -0.35, 0.3499999, 1e-300, -1e-300,
                          20.0,  -20.0, 400.0,     -400.0, 0.0,
                          -0.0,  1.0,   -1.0};
  args.insert(args.end(), std::begin(edges), std::end(edges));
  for (const auto& backend : detail::transform_backends()) {
    if (!backend.supported()) continue;
    const std::vector<double> got =
        run_inplace(backend.ops->relaxed_tanh_inplace, args);
    for (std::size_t i = 0; i < args.size(); ++i) {
      ASSERT_LE(ulp_distance(std::tanh(args[i]), got[i]), 8u)
          << backend.ops->name << " x=" << args[i] << " got=" << got[i];
    }
    const std::vector<double> specials =
        run_inplace(backend.ops->relaxed_tanh_inplace, {kInf, -kInf, kNan, 0.0, -0.0});
    EXPECT_EQ(specials[0], 1.0);
    EXPECT_EQ(specials[1], -1.0);
    EXPECT_TRUE(std::isnan(specials[2]));
    EXPECT_EQ(bits(specials[3]), bits(0.0));
    EXPECT_EQ(bits(specials[4]), bits(-0.0));
  }
}

/// The SIMD relaxed stamps (through kernel_transform under kRelaxed) hold
/// the same ULP bounds vs libm on every backend — lanes may differ from the
/// scalar stamp by the FMA in the Horner chain, but never from libm by more
/// than the documented bound.
TEST(Transform, RelaxedBackendsWithinUlpBoundOfLibm) {
  TransformGuard guard;
  util::Rng rng{79};
  const std::size_t n = 1500;  // crosses the transform tile
  std::vector<double> dots(n);
  std::vector<double> sq_norms(n);
  std::vector<std::size_t> offsets(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    dots[j] = (rng.uniform() - 0.3) * 30.0;
    sq_norms[j] = rng.uniform() * 40.0;
  }
  const util::CsrView view{843, {}, {}, offsets, sq_norms};
  const double x_sqnorm = 17.25;
  KernelParams rbf{KernelType::kRbf, 0.05, 0.0, 3};
  rbf.transform = TransformMode::kRelaxed;
  KernelParams sig{KernelType::kSigmoid, 0.1, 0.5, 3};
  sig.transform = TransformMode::kRelaxed;
  std::vector<double> out(n);
  for (const auto backend : supported_kernel_backends()) {
    set_kernel_backend_for_testing(backend);
    std::copy(dots.begin(), dots.end(), out.begin());
    kernel_transform(rbf, view, x_sqnorm, out);
    for (std::size_t j = 0; j < n; ++j) {
      const double arg = detail::rbf_exp_arg(rbf.gamma, x_sqnorm, sq_norms[j],
                                             dots[j]);
      ASSERT_LE(ulp_distance(std::exp(arg), out[j]), 4u)
          << "backend=" << backend << " j=" << j;
    }
    std::copy(dots.begin(), dots.end(), out.begin());
    kernel_transform(sig, view, x_sqnorm, out);
    for (std::size_t j = 0; j < n; ++j) {
      const double arg = detail::affine_arg(sig.gamma, sig.coef0, dots[j]);
      ASSERT_LE(ulp_distance(std::tanh(arg), out[j]), 8u)
          << "backend=" << backend << " j=" << j;
    }
  }
}

/// Relaxed is opt-in only: the default mode is exact, the env/setter and
/// per-params override plumbing resolves as documented.
TEST(Transform, RelaxedModeIsOptIn) {
  TransformGuard guard;
  if (std::getenv("WTP_TRANSFORM_MODE") != nullptr) {
    GTEST_SKIP() << "WTP_TRANSFORM_MODE is exported; the default-resolution "
                    "assertions below would read the override, not the "
                    "built-in default";
  }
  set_transform_mode(TransformMode::kDefault);
  // No WTP_TRANSFORM_MODE in the test environment: default resolves exact.
  EXPECT_EQ(transform_mode(), TransformMode::kExact);
  KernelParams params{KernelType::kRbf, 0.25, 0.0, 3};
  EXPECT_EQ(effective_transform_mode(params), TransformMode::kExact);
  params.transform = TransformMode::kRelaxed;
  EXPECT_EQ(effective_transform_mode(params), TransformMode::kRelaxed);
  params.transform = TransformMode::kDefault;
  set_transform_mode(TransformMode::kRelaxed);
  EXPECT_EQ(transform_mode(), TransformMode::kRelaxed);
  EXPECT_EQ(effective_transform_mode(params), TransformMode::kRelaxed);
  // A per-model exact override wins over a relaxed process mode.
  params.transform = TransformMode::kExact;
  EXPECT_EQ(effective_transform_mode(params), TransformMode::kExact);
  EXPECT_EQ(to_string(TransformMode::kRelaxed), "relaxed");
  EXPECT_EQ(parse_transform_mode("relaxed"), TransformMode::kRelaxed);
  EXPECT_EQ(parse_transform_mode("EXACT"), TransformMode::kExact);
  EXPECT_THROW((void)parse_transform_mode("fast"), std::runtime_error);
}

/// The transform field is an execution hint: it does not participate in
/// KernelParams equality (grid-search dedup, model identity).
TEST(Transform, ModeExcludedFromParamsEquality) {
  KernelParams a{KernelType::kRbf, 0.25, 0.0, 3};
  KernelParams b = a;
  b.transform = TransformMode::kRelaxed;
  EXPECT_EQ(a, b);
  b.gamma = 0.5;
  EXPECT_FALSE(a == b);
}

/// Training under a relaxed process mode must produce the exact-mode model:
/// the solver pins the exact tier, so support vectors, coefficients, and
/// rho are bit-identical across modes.
TEST(Transform, TrainingPinnedToExactTier) {
  TransformGuard guard;
  util::Rng rng{31337};
  std::vector<util::SparseVector> data;
  for (std::size_t i = 0; i < 60; ++i) {
    std::vector<util::SparseVector::Entry> entries;
    entries.push_back({0, rng.uniform() * 2.0});
    entries.push_back({1, rng.uniform() * 2.0 + 1.0});
    entries.push_back({2 + rng.uniform_index(20), 1.0});
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    data.emplace_back(std::move(entries));
  }
  OneClassSvmConfig config;
  config.nu = 0.3;
  config.kernel = {KernelType::kRbf, 0.1, 0.0, 3};
  set_transform_mode(TransformMode::kExact);
  const auto exact = OneClassSvmModel::train(data, config, 22);
  set_transform_mode(TransformMode::kRelaxed);
  const auto relaxed = OneClassSvmModel::train(data, config, 22);
  ASSERT_EQ(exact.coefficients().size(), relaxed.coefficients().size());
  for (std::size_t i = 0; i < exact.coefficients().size(); ++i) {
    EXPECT_EQ(bits(exact.coefficients()[i]), bits(relaxed.coefficients()[i]));
  }
  EXPECT_EQ(bits(exact.rho()), bits(relaxed.rho()));
  EXPECT_EQ(exact.support_vectors().rows(), relaxed.support_vectors().rows());
}

/// End-to-end sanity for the relaxed tier on decision functions: values
/// move by at most a hair, accept/reject never flips on clearly-signed
/// windows.  (The bench asserts the stronger zero-argmax-flip property on
/// the paper-shape replay.)
TEST(Transform, RelaxedDecisionValuesStayClose) {
  TransformGuard guard;
  util::Rng rng{424242};
  std::vector<util::SparseVector> data;
  for (std::size_t i = 0; i < 50; ++i) {
    std::vector<util::SparseVector::Entry> entries;
    entries.push_back({0, rng.uniform()});
    entries.push_back({1 + rng.uniform_index(30), 1.0});
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    data.emplace_back(std::move(entries));
  }
  OneClassSvmConfig config;
  config.nu = 0.25;
  config.kernel = {KernelType::kRbf, 0.2, 0.0, 3};
  const auto model = OneClassSvmModel::train(data, config, 31);
  auto queries = util::FeatureMatrix::from_rows(
      std::span<const util::SparseVector>{data}, 31);
  std::vector<double> exact_out(data.size());
  std::vector<double> relaxed_out(data.size());
  set_transform_mode(TransformMode::kExact);
  model.decision_values(queries, exact_out);
  set_transform_mode(TransformMode::kRelaxed);
  model.decision_values(queries, relaxed_out);
  for (std::size_t i = 0; i < data.size(); ++i) {
    // Coefficients sum to nu*l; 4 ULP of each kernel value keeps the
    // decision within ~1e-14 of exact at this scale.
    EXPECT_NEAR(exact_out[i], relaxed_out[i], 1e-12) << i;
  }
}

}  // namespace
}  // namespace wtp::svm
