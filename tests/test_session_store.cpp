// SessionStore journal persistence: a journal that cannot be written is
// counted and logged, and the in-memory store keeps serving resumes; a
// journal larger than the store's bound is trimmed on load; a reload keeps
// the least-recently-touched order, which random operations keep equal to
// a reference deque's.
#include "peerhood/session_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/rng.hpp"

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

// The session ids of a journal file, in line order (least recent first).
std::vector<std::uint64_t> journal_ids(const std::string& path) {
  std::vector<std::uint64_t> ids;
  std::ifstream in{path};
  std::string tag;
  std::uint64_t id = 0;
  std::string rest;
  while (in >> tag >> id && std::getline(in, rest)) ids.push_back(id);
  return ids;
}

TEST(SessionStore, RandomizedOperationsKeepTheReferenceLruOrder) {
  const ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string journal = (dir.path() / "journal").string();
  constexpr std::size_t kCapacity = 8;
  constexpr std::int64_t kIds = 14;
  SessionStore store{kCapacity};
  store.bind_file(journal);
  // The reference: a deque in LRU order, least recent first, plus each
  // record's frontier.
  std::deque<std::uint64_t> order;
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> frontier;
  std::uint64_t evictions = 0;
  Rng rng{2024};
  for (std::uint64_t step = 1; step <= 600; ++step) {
    const auto id = static_cast<std::uint64_t>(rng.uniform_int(1, kIds));
    const auto it = std::find(order.begin(), order.end(), id);
    const double roll = rng.next_double();
    if (roll < 0.4) {
      if (it != order.end()) {
        order.erase(it);
      } else if (order.size() >= kCapacity) {
        frontier.erase(order.front());
        order.pop_front();
        ++evictions;
      }
      order.push_back(id);
      frontier[id] = {1, 1};
      store.put(record(id));
    } else if (roll < 0.8) {
      const bool known = it != order.end();
      ASSERT_EQ(store.update_frontier(id, step, 2 * step), known);
      if (known) {
        order.erase(it);
        order.push_back(id);
        frontier[id] = {step, 2 * step};
      }
    } else {
      if (it != order.end()) {
        order.erase(it);
        frontier.erase(id);
      }
      store.erase(id);
    }
    const std::vector<std::uint64_t> expected(order.begin(), order.end());
    ASSERT_EQ(journal_ids(journal), expected) << "step " << step;
    ASSERT_EQ(store.size(), order.size());
    ASSERT_EQ(store.evictions(), evictions);
    for (std::uint64_t probe = 1; probe <= kIds; ++probe) {
      const SessionRecord* found = store.find(probe);
      const auto known = frontier.find(probe);
      ASSERT_EQ(found != nullptr, known != frontier.end()) << probe;
      if (found == nullptr) continue;
      EXPECT_EQ(found->next_seq, known->second.first);
      EXPECT_EQ(found->expected, known->second.second);
    }
  }
  ASSERT_GT(evictions, 0u);
  ASSERT_FALSE(order.empty());

  // A reload keeps the order: touching the most recent record rewrites the
  // journal without reordering it...
  SessionStore reloaded{kCapacity};
  reloaded.bind_file(journal);
  ASSERT_EQ(reloaded.size(), order.size());
  ASSERT_TRUE(reloaded.update_frontier(order.back(), 7, 7));
  EXPECT_EQ(journal_ids(journal),
            std::vector<std::uint64_t>(order.begin(), order.end()));
  // ...and new records evict the old ones least recent first.
  std::uint64_t fresh = 1000;
  while (reloaded.size() < kCapacity) reloaded.put(record(fresh++));
  for (const std::uint64_t victim : order) {
    ASSERT_NE(reloaded.find(victim), nullptr) << victim;
    reloaded.put(record(fresh++));
    EXPECT_EQ(reloaded.find(victim), nullptr) << victim;
  }
}

}  // namespace
}  // namespace peerhood
