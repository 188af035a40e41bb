#include "core/profiler.h"

#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "util/strings.h"

namespace wtp::core {

std::string_view to_string(ClassifierType type) noexcept {
  switch (type) {
    case ClassifierType::kOcSvm: return "oc-svm";
    case ClassifierType::kSvdd: return "svdd";
  }
  return "?";
}

UserProfile UserProfile::train(std::string user_id,
                               const util::FeatureMatrix& windows,
                               std::size_t dimension, const ProfileParams& params) {
  if (params.type == ClassifierType::kOcSvm) {
    svm::OneClassSvmConfig config;
    config.nu = params.regularizer;
    config.kernel = params.kernel;
    return UserProfile{std::move(user_id), params,
                       svm::OneClassSvmModel::train(windows, config, dimension)};
  }
  svm::SvddConfig config;
  config.c = params.regularizer;
  config.kernel = params.kernel;
  return UserProfile{std::move(user_id), params,
                     svm::SvddModel::train(windows, config, dimension)};
}

UserProfile UserProfile::train(std::string user_id,
                               std::span<const util::SparseVector> windows,
                               std::size_t dimension, const ProfileParams& params) {
  return train(std::move(user_id), util::FeatureMatrix::from_rows(windows),
               dimension, params);
}

double UserProfile::decision_value(const util::SparseVector& window) const {
  return decision_value(window, window.squared_norm());
}

double UserProfile::decision_value(const util::SparseVector& window,
                                   double window_sqnorm,
                                   svm::EncodedQueryCache* cache) const {
  return std::visit(
      [&](const auto& model) {
        return model.decision_value(window, window_sqnorm, cache);
      },
      model_);
}

void UserProfile::set_bitset_layout(std::span<const std::uint32_t> numeric_cols) {
  std::visit([&](auto& model) { model.set_bitset_layout(numeric_cols); },
             model_);
}

void UserProfile::decision_values(const util::FeatureMatrix& windows,
                                  std::span<double> out) const {
  std::visit([&](const auto& model) { model.decision_values(windows, out); },
             model_);
}

double UserProfile::acceptance_ratio(
    std::span<const util::SparseVector> windows) const {
  if (windows.empty()) return 0.0;
  std::size_t accepted = 0;
  for (const auto& window : windows) {
    if (accepts(window)) ++accepted;
  }
  return static_cast<double>(accepted) / static_cast<double>(windows.size());
}

double UserProfile::acceptance_ratio(const util::FeatureMatrix& windows,
                                     double slack) const {
  if (windows.empty()) return 0.0;
  thread_local std::vector<double> values;
  values.resize(windows.rows());
  std::visit([&](const auto& model) { model.decision_values(windows, values); },
             model_);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < windows.rows(); ++i) {
    if (values[i] >= -slack) ++accepted;
  }
  return static_cast<double>(accepted) / static_cast<double>(windows.rows());
}

std::size_t UserProfile::support_vector_count() const {
  return std::visit(
      [](const auto& model) { return model.support_vectors().rows(); }, model_);
}

void UserProfile::save(std::ostream& out) const {
  out << "user " << user_id_ << '\n';
  out << "classifier " << to_string(params_.type) << '\n';
  out.precision(17);
  out << "regularizer " << params_.regularizer << '\n';
  std::visit([&out](const auto& model) { svm::save_model(out, model); }, model_);
}

UserProfile UserProfile::load(std::istream& in) {
  std::string key;
  std::string user_id;
  std::string classifier;
  double regularizer = 0.0;
  if (!(in >> key >> user_id) || key != "user") {
    throw std::runtime_error{"UserProfile::load: expected 'user <id>' line"};
  }
  if (!(in >> key >> classifier) || key != "classifier") {
    throw std::runtime_error{"UserProfile::load: expected 'classifier <type>' line"};
  }
  if (!(in >> key >> regularizer) || key != "regularizer") {
    throw std::runtime_error{"UserProfile::load: expected 'regularizer <v>' line"};
  }
  in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');

  svm::AnySvmModel model = svm::load_model(in);
  ProfileParams params;
  if (classifier == "oc-svm") {
    params.type = ClassifierType::kOcSvm;
  } else if (classifier == "svdd") {
    params.type = ClassifierType::kSvdd;
  } else {
    throw std::runtime_error{"UserProfile::load: unknown classifier '" + classifier + "'"};
  }
  params.regularizer = regularizer;
  params.kernel = std::visit([](const auto& m) { return m.kernel(); }, model);
  return UserProfile{std::move(user_id), params, std::move(model)};
}

}  // namespace wtp::core
