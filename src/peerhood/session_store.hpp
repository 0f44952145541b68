// SessionStore — the daemon's crash-survivable session journal.
//
// Everything else a daemon holds is volatile: a crash wipes DeviceStorage,
// plugin baselines and the engine's live session map. This journal is the
// one sliver of state that outlives a crash: per session, the resume
// frontier of its reliable channel — the next sequence it would send and the
// next it expects to receive. A restarted daemon honours kResumeRestart by
// looking the session up here; the channel it accepts for the session is
// made reliable and resumes at exactly that frontier
// (ReliableChannel::journal_to), so the surviving peer replays its unacked
// outbox and the session continues with exactly-once in-order delivery.
//
// The store is bounded (crash storms must not grow it without limit): when
// full, the least-recently-touched record is dropped and counted — a client
// resuming such a session is refused with kUnknownSession and falls back to
// a fresh connect, which is degraded service, not a protocol violation.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/mac_address.hpp"

namespace peerhood {

struct SessionRecord {
  std::uint64_t session_id{0};
  MacAddress peer;
  std::string service;
  // The reliability engine's resume frontier: our next outgoing sequence and
  // the next incoming sequence we expect (== cumulative ack + 1).
  std::uint64_t next_seq{1};
  std::uint64_t expected{1};
};

class SessionStore {
 public:
  explicit SessionStore(std::size_t capacity = 64) : capacity_{capacity} {}

  // The recency list points into the record map's nodes.
  SessionStore(const SessionStore&) = delete;
  SessionStore& operator=(const SessionStore&) = delete;

  // Optional file persistence — the journal of a *real* daemon process.
  // bind_file() loads every record a previous incarnation journalled at
  // `path` (the kill -9 restart path) in its recency order, trimming the
  // least recent down to capacity (counted in evictions()), then rewrites
  // the file on each mutation via write-temp + rename, so the on-disk
  // journal is always a complete, uncorrupted snapshot: a crash between a
  // delivery and its journal write loses at most the newest frontier — the
  // at-least-once boundary the resume protocol's dedup absorbs. Empty path
  // (the default, and every sim scenario) keeps the store purely
  // in-memory. A journal write that fails (temp file not opened,
  // write/flush failed, rename refused) is logged and counted; the
  // in-memory store keeps working.
  //
  // Durability boundary: nothing is fsynced. The temp + rename leaves a
  // complete journal in the kernel's page cache, which survives the
  // process dying (kill -9, a crash) but not the machine losing power or
  // the kernel crashing: the file may then hold an older journal or, on
  // some filesystems, be empty. persist() runs on every mutation — each
  // frontier update of every reliable session — so an fsync per write
  // would put a disk flush on the data path; durable writes belong with
  // the append-only log that replaces the whole-file rewrite.
  void bind_file(const std::string& path);

  // Inserts or overwrites the record and marks it most recently touched.
  void put(SessionRecord record);
  // Updates just the frontier of an existing record; false if unknown.
  bool update_frontier(std::uint64_t session_id, std::uint64_t next_seq,
                       std::uint64_t expected);
  [[nodiscard]] const SessionRecord* find(std::uint64_t session_id) const;
  void erase(std::uint64_t session_id);

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  // Records evicted because the journal was full.
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  // Journal rewrites that did not reach the disk (see bind_file).
  [[nodiscard]] std::uint64_t persist_failures() const {
    return persist_failures_;
  }

 private:
  // A record and its neighbours in LRU order. The order is a doubly linked
  // list threaded through the map's nodes (which never move), so marking a
  // record most recent is O(1) and allocates nothing.
  struct Entry {
    SessionRecord record;
    Entry* older{nullptr};
    Entry* newer{nullptr};
  };

  // Inserts or overwrites the record and marks it most recently touched.
  void upsert(SessionRecord record);
  // Marks the record most recently touched.
  void touch(Entry& entry);
  void link_newest(Entry& entry);
  void unlink(Entry& entry);
  // Drops the least-recently-touched record; precondition: !records_.empty().
  void evict_lru();
  void persist();
  void persist_failed(const char* step);

  std::size_t capacity_;
  std::string path_;
  std::map<std::uint64_t, Entry> records_;
  Entry* oldest_{nullptr};
  Entry* newest_{nullptr};
  std::uint64_t evictions_{0};
  std::uint64_t persist_failures_{0};
};

}  // namespace peerhood
