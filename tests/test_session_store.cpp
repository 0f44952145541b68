// SessionStore journal persistence: a journal that cannot be written is
// counted and logged, and the in-memory store keeps serving resumes; a
// journal larger than the store's bound is trimmed on load; a reload keeps
// the least-recently-touched order.
#include "peerhood/session_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

namespace peerhood {
namespace {

namespace fs = std::filesystem;

SessionRecord record(std::uint64_t id) {
  SessionRecord r;
  r.session_id = id;
  r.peer = MacAddress::from_index(id);
  r.service = "echo";
  return r;
}

// A fresh scratch directory under the system temp dir, removed on exit.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "session_store_XXXXXX").string();
    if (::mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ignored;
    if (!path_.empty()) fs::remove_all(path_, ignored);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

TEST(SessionStore, JournalRoundTripsThroughTheFile) {
  const ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string journal = (dir.path() / "journal").string();
  {
    SessionStore store;
    store.bind_file(journal);
    store.put(record(1));
    store.put(record(2));
    ASSERT_TRUE(store.update_frontier(2, 17, 9));
    EXPECT_EQ(store.persist_failures(), 0u);
  }
  SessionStore restarted;
  restarted.bind_file(journal);
  ASSERT_EQ(restarted.size(), 2u);
  const SessionRecord* resumed = restarted.find(2);
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->next_seq, 17u);
  EXPECT_EQ(resumed->expected, 9u);
  EXPECT_EQ(resumed->service, "echo");
}

TEST(SessionStore, UnwritableJournalIsCountedAndTheStoreKeepsWorking) {
  const ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  SessionStore store;
  store.bind_file((dir.path() / "missing" / "journal").string());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.persist_failures(), 0u) << "nothing written yet";

  store.put(record(1));
  EXPECT_EQ(store.persist_failures(), 1u);
  ASSERT_TRUE(store.update_frontier(1, 5, 3));
  store.put(record(2));
  store.erase(2);
  EXPECT_EQ(store.persist_failures(), 4u) << "every mutation's write failed";

  const SessionRecord* kept = store.find(1);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->next_seq, 5u);
  EXPECT_EQ(kept->expected, 3u);
  EXPECT_EQ(store.find(2), nullptr);
  EXPECT_FALSE(fs::exists(dir.path() / "missing"));
}

TEST(SessionStore, RefusedRenameIsCounted) {
  const ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  // The journal path is a non-empty directory: the temp file is written
  // next to it, but renaming it over the directory fails.
  const fs::path journal = dir.path() / "journal";
  ASSERT_TRUE(fs::create_directory(journal));
  std::ofstream{journal / "occupant"} << "x";

  SessionStore store;
  store.bind_file(journal.string());
  store.put(record(1));
  EXPECT_EQ(store.persist_failures(), 1u);
  EXPECT_NE(store.find(1), nullptr);
  EXPECT_TRUE(fs::is_directory(journal));
}

TEST(SessionStore, OversizedJournalIsTrimmedToCapacityOnLoad) {
  const ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string journal = (dir.path() / "journal").string();
  {
    SessionStore large{8};
    large.bind_file(journal);
    for (std::uint64_t id = 1; id <= 8; ++id) large.put(record(id));
    ASSERT_EQ(large.size(), 8u);
  }
  SessionStore small{3};
  small.bind_file(journal);
  EXPECT_EQ(small.size(), 3u);
  EXPECT_EQ(small.evictions(), 5u);
  // The journal lists records least recent first; they were put in id
  // order, so the lowest ids load as least recent and go first.
  EXPECT_EQ(small.find(5), nullptr);
  EXPECT_NE(small.find(6), nullptr);
  EXPECT_NE(small.find(8), nullptr);
  // The bound holds from here on: one insert, one eviction.
  small.put(record(9));
  EXPECT_EQ(small.size(), 3u);
  EXPECT_EQ(small.evictions(), 6u);
  EXPECT_EQ(small.persist_failures(), 0u);

  SessionStore reread{8};
  reread.bind_file(journal);
  EXPECT_EQ(reread.size(), 3u) << "the trimmed store was written back";
  EXPECT_EQ(reread.evictions(), 0u);
}

TEST(SessionStore, ReloadKeepsLeastRecentlyTouchedOrder) {
  const ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string journal = (dir.path() / "journal").string();
  {
    SessionStore store{2};
    store.bind_file(journal);
    store.put(record(1));
    store.put(record(2));
    // Record 1 is now the most recently touched, record 2 the least.
    ASSERT_TRUE(store.update_frontier(1, 5, 7));
  }
  SessionStore restarted{2};
  restarted.bind_file(journal);
  ASSERT_EQ(restarted.size(), 2u);
  restarted.put(record(3));
  EXPECT_EQ(restarted.evictions(), 1u);
  EXPECT_EQ(restarted.find(2), nullptr) << "the least recent record goes";
  const SessionRecord* kept = restarted.find(1);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->next_seq, 5u);
  EXPECT_EQ(kept->expected, 7u);
  EXPECT_NE(restarted.find(3), nullptr);
}

}  // namespace
}  // namespace peerhood
