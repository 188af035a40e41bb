#include "core/profile_store.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "features/schema_io.h"

namespace wtp::core {

namespace {

constexpr const char* kMagic = "wtp_profile_store v1";

}  // namespace

ProfileStore::ProfileStore(features::WindowConfig window,
                           features::FeatureSchema schema,
                           std::vector<UserProfile> profiles)
    : window_{window}, schema_{std::move(schema)}, profiles_{std::move(profiles)} {
  // Profiles trained on auto-detected layouts (a column is numeric only if
  // some stored value != 1.0) can miss schema numeric columns, which splits
  // the store across layouts and leaves windows non-conforming.  One schema
  // layout for every SV block keeps all dots on the bitset plane.
  const std::vector<std::uint32_t> numeric_cols = schema_.numeric_columns();
  for (auto& profile : profiles_) profile.set_bitset_layout(numeric_cols);
  find_index_.resize(profiles_.size());
  std::iota(find_index_.begin(), find_index_.end(), std::size_t{0});
  std::sort(find_index_.begin(), find_index_.end(),
            [this](std::size_t a, std::size_t b) {
              return profiles_[a].user_id() < profiles_[b].user_id();
            });
}

std::vector<std::string> ProfileStore::user_ids() const {
  std::vector<std::string> ids;
  ids.reserve(profiles_.size());
  for (const auto& profile : profiles_) ids.push_back(profile.user_id());
  return ids;
}

const UserProfile* ProfileStore::find(const std::string& user) const {
  const auto it = std::lower_bound(
      find_index_.begin(), find_index_.end(), user,
      [this](std::size_t index, const std::string& key) {
        return profiles_[index].user_id() < key;
      });
  if (it == find_index_.end() || profiles_[*it].user_id() != user) return nullptr;
  return &profiles_[*it];
}

void ProfileStore::save(std::ostream& out) const {
  out << kMagic << '\n';
  out << "window " << window_.duration_s << ' ' << window_.shift_s << '\n';
  features::save_schema(out, schema_);
  out << "profiles " << profiles_.size() << '\n';
  for (const auto& profile : profiles_) profile.save(out);
}

void ProfileStore::save_file(const std::string& path) const {
  std::ofstream out{path};
  if (!out) {
    throw std::runtime_error{"ProfileStore::save_file: cannot open '" + path + "'"};
  }
  save(out);
}

ProfileStore ProfileStore::load(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    throw std::runtime_error{"ProfileStore::load: missing magic line"};
  }
  features::WindowConfig window;
  {
    if (!std::getline(in, line)) {
      throw std::runtime_error{"ProfileStore::load: missing window line"};
    }
    std::istringstream fields{line};
    std::string key;
    if (!(fields >> key >> window.duration_s >> window.shift_s) || key != "window") {
      throw std::runtime_error{"ProfileStore::load: malformed window line '" + line + "'"};
    }
  }
  features::FeatureSchema schema = features::load_schema(in);
  std::size_t count = 0;
  {
    if (!std::getline(in, line)) {
      throw std::runtime_error{"ProfileStore::load: missing profiles line"};
    }
    std::istringstream fields{line};
    std::string key;
    if (!(fields >> key >> count) || key != "profiles") {
      throw std::runtime_error{"ProfileStore::load: malformed profiles line '" + line + "'"};
    }
  }
  std::vector<UserProfile> profiles;
  profiles.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    profiles.push_back(UserProfile::load(in));
  }
  return ProfileStore{window, std::move(schema), std::move(profiles)};
}

ProfileStore ProfileStore::load_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error{"ProfileStore::load_file: cannot open '" + path + "'"};
  }
  try {
    return load(in);
  } catch (const std::exception& e) {
    // Parse errors name the malformed line but not which file it came from;
    // tools loading several stores need the offending path.
    throw std::runtime_error{std::string{e.what()} + " (while loading '" + path +
                             "')"};
  }
}

}  // namespace wtp::core
