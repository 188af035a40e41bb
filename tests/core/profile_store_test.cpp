#include "core/profile_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/sv_layout.h"
#include "core/test_trace.h"

namespace wtp::core {
namespace {

const features::WindowConfig kWindow{60, 30};

ProfileStore make_store() {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  std::vector<UserProfile> profiles;
  for (const auto& user : dataset.user_ids()) {
    ProfileParams params;
    params.type = user.size() % 2 ? ClassifierType::kOcSvm : ClassifierType::kSvdd;
    params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
    params.regularizer = 0.1;
    profiles.push_back(UserProfile::train(user,
                                          dataset.train_windows(user, kWindow),
                                          dataset.schema().dimension(), params));
  }
  return ProfileStore{kWindow, dataset.schema(), std::move(profiles)};
}

TEST(ProfileStore, ExposesComponents) {
  const ProfileStore store = make_store();
  EXPECT_EQ(store.window(), kWindow);
  EXPECT_EQ(store.profiles().size(), testing::tiny_dataset().user_count());
  EXPECT_EQ(store.user_ids(), testing::tiny_dataset().user_ids());
  EXPECT_EQ(store.schema().dimension(), testing::tiny_dataset().schema().dimension());
}

TEST(ProfileStore, FindLocatesProfiles) {
  const ProfileStore store = make_store();
  const std::string user = store.user_ids().front();
  const UserProfile* found = store.find(user);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->user_id(), user);
  EXPECT_EQ(store.find("nobody"), nullptr);
}

TEST(ProfileStore, FindNegativeLookupsAtEveryBoundary) {
  const ProfileStore store = make_store();
  auto sorted = store.user_ids();
  std::sort(sorted.begin(), sorted.end());
  // Before the first id, past the last id, a strict prefix of an existing
  // id, and an existing id with a suffix: all must miss without touching a
  // neighbouring profile.
  EXPECT_EQ(store.find(""), nullptr);
  EXPECT_EQ(store.find("\x01"), nullptr);
  EXPECT_EQ(store.find(sorted.back() + "~"), nullptr);
  const std::string& first = sorted.front();
  if (first.size() > 1) {
    EXPECT_EQ(store.find(first.substr(0, first.size() - 1)), nullptr);
  }
  EXPECT_EQ(store.find(first + "_suffix"), nullptr);
}

TEST(ProfileStore, FindResolvesDuplicateUserIds) {
  // Duplicate ids are legal in store order (the store is positional; find
  // is a convenience): find must return a profile carrying the id, and
  // every other id must stay reachable.
  const ProfileStore base = make_store();
  std::vector<UserProfile> profiles{base.profiles().begin(),
                                    base.profiles().end()};
  const std::string dup = profiles.front().user_id();
  profiles.push_back(profiles.front());
  const ProfileStore store{kWindow, base.schema(), std::move(profiles)};

  const UserProfile* found = store.find(dup);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->user_id(), dup);
  for (const auto& user : base.user_ids()) {
    ASSERT_NE(store.find(user), nullptr) << user;
  }
}

TEST(ProfileStore, RoundTripPreservesEverything) {
  const ProfileStore store = make_store();
  std::stringstream stream;
  store.save(stream);
  const ProfileStore loaded = ProfileStore::load(stream);

  EXPECT_EQ(loaded.window(), store.window());
  EXPECT_EQ(loaded.schema().dimension(), store.schema().dimension());
  EXPECT_EQ(loaded.user_ids(), store.user_ids());

  // Decisions must be bit-identical through the round trip.
  const ProfilingDataset& dataset = testing::tiny_dataset();
  for (const auto& user : store.user_ids()) {
    const auto windows = dataset.test_windows(user, kWindow);
    ASSERT_DOUBLE_EQ(loaded.find(user)->acceptance_ratio(windows),
                     store.find(user)->acceptance_ratio(windows));
  }
}

TEST(ProfileStore, FileRoundTrip) {
  const ProfileStore store = make_store();
  const std::string path = ::testing::TempDir() + "/wtp_profile_store_test.wtp";
  store.save_file(path);
  const ProfileStore loaded = ProfileStore::load_file(path);
  EXPECT_EQ(loaded.profiles().size(), store.profiles().size());
  EXPECT_THROW((void)ProfileStore::load_file(path + ".missing"), std::runtime_error);
}

TEST(ProfileStore, RejectsMalformedInput) {
  std::stringstream missing_magic{"window 60 30\n"};
  EXPECT_THROW((void)ProfileStore::load(missing_magic), std::runtime_error);

  std::stringstream bad_window{"wtp_profile_store v1\nwindow sixty thirty\n"};
  EXPECT_THROW((void)ProfileStore::load(bad_window), std::runtime_error);

  std::stringstream truncated;
  make_store().save(truncated);
  std::string text = truncated.str();
  text.resize(text.size() / 2);
  std::stringstream half{text};
  EXPECT_THROW((void)ProfileStore::load(half), std::runtime_error);
}

TEST(ProfileStore, LoadFailureNamesOffendingPath) {
  const std::string path = ::testing::TempDir() + "/malformed_store.wtp";
  {
    std::ofstream out{path};
    out << "wtp_profile_store v1\nwindow sixty thirty\n";
  }
  try {
    (void)ProfileStore::load_file(path);
    FAIL() << "malformed store accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(path), std::string::npos)
        << "error does not name the file: " << e.what();
  }
}

TEST(ProfileStore, EmptyStoreRoundTrips) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const ProfileStore store{kWindow, dataset.schema(), {}};
  std::stringstream stream;
  store.save(stream);
  const ProfileStore loaded = ProfileStore::load(stream);
  EXPECT_TRUE(loaded.profiles().empty());
}

/// A profile trained on windows that never carry a fraction in one schema
/// numeric column auto-detects a layout without it.  Every store — built
/// directly or loaded — gives its SV blocks the schema layout, so windows
/// with a fraction there (non-conforming before) score on the bitset plane,
/// bit-identical to the CSR oracle.
TEST(ProfileStore, GivesEverySvBlockTheSchemaLayout) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const std::vector<std::uint32_t> schema_layout =
      dataset.schema().numeric_columns();
  const std::string user = dataset.user_ids().front();
  const UserProfile trained = testing::profile_without_numeric_column(user);
  const util::BitsetStorage* before = testing::sv_bitset(trained);
  ASSERT_NE(before, nullptr);
  const auto before_cols = before->numeric_cols();
  ASSERT_EQ(std::count(before_cols.begin(), before_cols.end(),
                       testing::flattened_column()),
            0);
  const auto windows = testing::fractional_windows(user);
  ASSERT_FALSE(windows.empty());
  util::BitsetQuery query;
  for (const auto& window : windows) {
    ASSERT_FALSE(query.encode(before->view(), window));
  }

  std::vector<UserProfile> profiles{make_store().profiles()};
  profiles.front() = trained;
  const ProfileStore store{kWindow, dataset.schema(), std::move(profiles)};
  std::stringstream stream;
  store.save(stream);
  const ProfileStore loaded = ProfileStore::load(stream);
  for (const ProfileStore* s : {&store, &loaded}) {
    for (const auto& profile : s->profiles()) {
      EXPECT_EQ(testing::sv_layout(profile), schema_layout) << profile.user_id();
    }
    const UserProfile& normalized = *s->find(user);
    for (const auto& window : windows) {
      EXPECT_TRUE(query.encode(testing::sv_bitset(normalized)->view(), window));
    }
    testing::expect_decisions_match_csr(normalized, windows);
  }
}

}  // namespace
}  // namespace wtp::core
