#include "peerhood/session_store.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/log.hpp"

namespace peerhood {

void SessionStore::bind_file(const std::string& path) {
  path_ = path;
  if (path_.empty()) return;
  std::ifstream in{path_};
  if (!in) return;  // first incarnation: nothing journalled yet
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields{line};
    std::string tag;
    SessionRecord record;
    std::uint64_t peer64 = 0;
    fields >> tag >> record.session_id >> peer64 >> record.next_seq >>
        record.expected;
    if (!fields || tag != "v1") continue;  // torn/foreign line: skip it
    record.peer = MacAddress::from_u64(peer64);
    fields.ignore(1);
    std::getline(fields, record.service);
    upsert(std::move(record));
  }
  // A journal written under a larger bound (or by a foreign writer) must
  // not leave the store over capacity: put() evicts only one record per
  // insert, so an oversized load would never shrink back.
  if (capacity_ == 0 || records_.size() <= capacity_) return;
  while (records_.size() > capacity_) evict_lru();
  persist();
}

void SessionStore::persist() {
  if (path_.empty()) return;
  // Whole-file rewrite through a temp + rename: the journal on disk is
  // always a complete snapshot, never a torn one (the store is bounded, so
  // the rewrite is a few KB at most). A failed step leaves the previous
  // journal in place.
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out{tmp, std::ios::trunc};
    if (!out) {
      persist_failed("open");
      return;
    }
    // Least recent first: bind_file() re-touches lines in file order, so
    // a reload restores the LRU order along with the records.
    for (const Entry* entry = oldest_; entry != nullptr;
         entry = entry->newer) {
      const SessionRecord& record = entry->record;
      out << "v1 " << record.session_id << ' ' << record.peer.as_u64() << ' '
          << record.next_seq << ' ' << record.expected << ' '
          << record.service << '\n';
    }
    out.flush();
    if (!out) {
      persist_failed("write");
      out.close();
      std::remove(tmp.c_str());
      return;
    }
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) persist_failed("rename");
}

void SessionStore::persist_failed(const char* step) {
  ++persist_failures_;
  // The store has no clock of its own; the line is stamped at time zero.
  log(LogLevel::kError, SimTime{}, "session_store", "journal ", step,
      " failed for ", path_, ": ", std::strerror(errno), " (",
      persist_failures_, " failed writes)");
}

void SessionStore::upsert(SessionRecord record) {
  const std::uint64_t id = record.session_id;
  const auto [it, inserted] = records_.try_emplace(id);
  it->second.record = std::move(record);
  if (inserted) {
    link_newest(it->second);
  } else {
    touch(it->second);
  }
}

void SessionStore::touch(Entry& entry) {
  unlink(entry);
  link_newest(entry);
}

void SessionStore::link_newest(Entry& entry) {
  entry.older = newest_;
  entry.newer = nullptr;
  (newest_ != nullptr ? newest_->newer : oldest_) = &entry;
  newest_ = &entry;
}

void SessionStore::unlink(Entry& entry) {
  (entry.older != nullptr ? entry.older->newer : oldest_) = entry.newer;
  (entry.newer != nullptr ? entry.newer->older : newest_) = entry.older;
}

void SessionStore::evict_lru() {
  const std::uint64_t victim = oldest_->record.session_id;
  unlink(*oldest_);
  records_.erase(victim);
  ++evictions_;
}

void SessionStore::put(SessionRecord record) {
  const std::uint64_t id = record.session_id;
  if (records_.find(id) == records_.end() && records_.size() >= capacity_ &&
      capacity_ > 0) {
    evict_lru();
  }
  upsert(std::move(record));
  persist();
}

bool SessionStore::update_frontier(std::uint64_t session_id,
                                   std::uint64_t next_seq,
                                   std::uint64_t expected) {
  const auto it = records_.find(session_id);
  if (it == records_.end()) return false;
  it->second.record.next_seq = next_seq;
  it->second.record.expected = expected;
  touch(it->second);
  persist();
  return true;
}

const SessionRecord* SessionStore::find(std::uint64_t session_id) const {
  const auto it = records_.find(session_id);
  return it == records_.end() ? nullptr : &it->second.record;
}

void SessionStore::erase(std::uint64_t session_id) {
  const auto it = records_.find(session_id);
  if (it != records_.end()) {
    unlink(it->second);
    records_.erase(it);
  }
  persist();
}

}  // namespace peerhood
