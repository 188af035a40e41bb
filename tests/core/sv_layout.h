// Helpers for the support-vector layout tests (profile store and serving
// engine): a profile whose auto-detected bitset layout misses a schema
// numeric column, windows that only conform to the schema layout, and a
// bit-for-bit decision check against the CSR oracle.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/profiler.h"
#include "core/test_trace.h"
#include "svm/kernel.h"
#include "util/sparse_vector.h"

namespace wtp::core::testing {

/// `profile`'s support-vector bitset, or nullptr when the block has none.
inline const util::BitsetStorage* sv_bitset(const UserProfile& profile) {
  return std::visit(
      [](const auto& model) { return model.support_vectors().bitset(); },
      profile.model());
}

/// Numeric layout of `profile`'s support-vector bitset; nullopt when the
/// block has none.
inline std::optional<std::vector<std::uint32_t>> sv_layout(
    const UserProfile& profile) {
  const util::BitsetStorage* bits = sv_bitset(profile);
  if (bits == nullptr) return std::nullopt;
  const auto cols = bits->numeric_cols();
  return std::vector<std::uint32_t>{cols.begin(), cols.end()};
}

/// `window` with `column` set to `value` (added when absent).
inline util::SparseVector with_value(const util::SparseVector& window,
                                     std::size_t column, double value) {
  std::vector<util::SparseVector::Entry> entries;
  for (const auto& entry : window.entries()) {
    if (entry.index != column) entries.push_back(entry);
  }
  entries.push_back({column, value});
  return util::SparseVector{std::move(entries)};
}

/// The schema numeric column the helpers below flatten.
inline std::uint32_t flattened_column() {
  return tiny_dataset().schema().numeric_columns()[1];
}

/// An RBF OC-SVM profile for `user` trained on windows whose flattened
/// column is exactly 1.0: its auto-detected layout (a column is numeric
/// only if some stored value != 1.0) treats that column as binary.
inline UserProfile profile_without_numeric_column(const std::string& user) {
  const features::WindowConfig window{60, 30};
  const std::uint32_t column = flattened_column();
  std::vector<util::SparseVector> windows;
  for (const auto& w : tiny_dataset().train_windows(user, window)) {
    windows.push_back(with_value(w, column, 1.0));
  }
  ProfileParams params;
  params.type = ClassifierType::kOcSvm;
  params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
  params.regularizer = 0.1;
  return UserProfile::train(user, windows,
                            tiny_dataset().schema().dimension(), params);
}

/// `user`'s test windows with a fraction in the flattened column: they do
/// not conform to profile_without_numeric_column's auto-detected layout.
inline std::vector<util::SparseVector> fractional_windows(
    const std::string& user) {
  const features::WindowConfig window{60, 30};
  std::vector<util::SparseVector> out;
  for (const auto& w : tiny_dataset().test_windows(user, window)) {
    out.push_back(with_value(w, flattened_column(), 0.375));
  }
  return out;
}

/// `profile`'s decision on every window, on every backend the host
/// supports, equals the CSR oracle's bit for bit.  Pins the exact transform
/// tier and restores the environment's backend and tier afterwards.
inline void expect_decisions_match_csr(
    const UserProfile& profile, std::span<const util::SparseVector> windows) {
  svm::set_transform_mode(svm::TransformMode::kExact);
  std::vector<double> oracle;
  svm::set_kernel_backend_for_testing("csr");
  for (const auto& w : windows) oracle.push_back(profile.decision_value(w));
  for (const auto backend : svm::supported_kernel_backends()) {
    svm::set_kernel_backend_for_testing(backend);
    for (std::size_t i = 0; i < windows.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(profile.decision_value(windows[i])),
                std::bit_cast<std::uint64_t>(oracle[i]))
          << "backend=" << backend << " window " << i;
    }
  }
  svm::set_kernel_backend_for_testing("");
  svm::set_transform_mode(svm::TransformMode::kDefault);
}

}  // namespace wtp::core::testing
