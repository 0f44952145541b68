// Test-support oracle: the pre-arena event queue, kept as a reference
// implementation: std::priority_queue of (time, seq) entries plus an
// unordered_map from EventId to a std::function action — one map-node
// allocation per event and a heap-allocated closure for captures beyond
// std::function's tiny inline buffer.
//
// The randomized parity tests drive it and the pooled sim::EventQueue
// through identical schedule/cancel/fire interleavings and require
// identical (time, insertion-order) fire sequences; bench_event_core uses it
// as the baseline for the schedule→fire hot loop. It lives under tests/
// (bench targets get tests/ on their include path) so no production header
// carries it.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/sim_time.hpp"

namespace peerhood::sim {

class ReferenceEventQueue {
 public:
  using EventId = std::uint64_t;

  EventId schedule(SimTime at, std::function<void()> action) {
    const EventId id = next_id_++;
    heap_.push(Entry{at, next_seq_++, id});
    actions_.emplace(id, std::move(action));
    ++live_count_;
    return id;
  }

  void cancel(EventId id) {
    if (actions_.erase(id) > 0) --live_count_;
  }

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  [[nodiscard]] SimTime next_time() const {
    drop_cancelled();
    assert(!heap_.empty());
    return heap_.top().at;
  }

  SimTime run_next() {
    drop_cancelled();
    assert(!heap_.empty());
    const Entry entry = heap_.top();
    heap_.pop();
    auto node = actions_.extract(entry.id);
    assert(!node.empty());
    --live_count_;
    node.mapped()();
    return entry.at;
  }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    EventId id;

    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void drop_cancelled() const {
    while (!heap_.empty() && !actions_.contains(heap_.top().id)) {
      heap_.pop();
    }
  }

  mutable std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_map<EventId, std::function<void()>> actions_;
  std::uint64_t next_seq_{1};
  EventId next_id_{1};
  std::size_t live_count_{0};
};

}  // namespace peerhood::sim
