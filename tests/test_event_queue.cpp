#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "reference_event_queue.hpp"

namespace peerhood::sim {
namespace {

SimTime at(double s) { return SimTime{} + seconds(s); }

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at(3.0), [&] { order.push_back(3); });
  q.schedule(at(1.0), [&] { order.push_back(1); });
  q.schedule(at(2.0), [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableForEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(at(1.0), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(at(1.0), [&] { ran = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelOneOfMany) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at(1.0), [&] { order.push_back(1); });
  const EventId id = q.schedule(at(2.0), [&] { order.push_back(2); });
  q.schedule(at(3.0), [&] { order.push_back(3); });
  q.cancel(id);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelFiredIdIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(at(1.0), [] {});
  q.run_next();
  q.cancel(id);  // must not crash or underflow the live count
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
  EventQueue q;
  q.cancel(9999);
  q.cancel(kInvalidEvent);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(at(1.0), [] {});
  q.schedule(at(5.0), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), at(5.0));
}

TEST(EventQueue, RunNextReturnsScheduledTime) {
  EventQueue q;
  q.schedule(at(2.5), [] {});
  EXPECT_EQ(q.run_next(), at(2.5));
}

TEST(EventQueue, EventMaySchedule) {
  EventQueue q;
  int fired = 0;
  q.schedule(at(1.0), [&] {
    ++fired;
    q.schedule(at(2.0), [&] { ++fired; });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(at(1.0), [] {});
  q.schedule(at(2.0), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_EQ(q.size(), 0u);
}

// A stale id must never touch the newer event occupying its recycled slot:
// the generation half of the id disambiguates.
TEST(EventQueue, StaleIdCannotCancelRecycledSlot) {
  EventQueue q;
  bool first = false;
  bool second = false;
  const EventId a = q.schedule(at(1.0), [&] { first = true; });
  q.cancel(a);  // releases a's slot
  const EventId b = q.schedule(at(2.0), [&] { second = true; });
  // The pool is LIFO, so b reuses a's slot — same slot index, new generation.
  EXPECT_EQ(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b));
  EXPECT_NE(a, b);
  q.cancel(a);  // stale: must be a no-op
  q.cancel(a);
  while (!q.empty()) q.run_next();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(EventQueue, StaleIdAfterFireCannotCancelRecycledSlot) {
  EventQueue q;
  const EventId a = q.schedule(at(1.0), [] {});
  (void)q.run_next();  // fires a, releasing its slot
  bool second = false;
  const EventId b = q.schedule(at(2.0), [&] { second = true; });
  EXPECT_EQ(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b));
  q.cancel(a);  // refers to the fired event, not the new occupant
  EXPECT_EQ(q.size(), 1u);
  (void)q.run_next();
  EXPECT_TRUE(second);
}

// Heavy recycling: slots are scheduled, fired or cancelled and re-scheduled
// many times. Cancelling an id whose event already fired (its slot possibly
// recycled) must be a strict no-op, so every scheduled event is accounted
// for exactly once: fired or observably cancelled.
TEST(EventQueue, SlotRecyclingKeepsIdsFresh) {
  EventQueue q;
  Rng rng{99};
  std::vector<EventId> issued;  // every id ever returned, fired or not
  int scheduled = 0;
  int fired = 0;
  int cancelled = 0;
  for (int round = 0; round < 3000; ++round) {
    const int action = static_cast<int>(rng.uniform_int(0, 2));
    if (action == 0 || q.empty()) {
      issued.push_back(q.schedule(at(rng.uniform(0.0, 10.0)), [&] { ++fired; }));
      ++scheduled;
    } else if (action == 1) {
      // Cancel a random id from the full history — most are stale.
      const auto index = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(issued.size()) - 1));
      const std::size_t size_before = q.size();
      q.cancel(issued[index]);
      if (q.size() != size_before) ++cancelled;
    } else {
      (void)q.run_next();
    }
  }
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired + cancelled, scheduled);
  EXPECT_GT(fired, 0);
  EXPECT_GT(cancelled, 0);
}

// The acceptance-criteria parity test: >= 10k mixed schedule/cancel/fire
// operations driven identically through the pooled queue and the retained
// pre-arena reference implementation must produce identical
// (time, insertion-order) fire sequences.
TEST(EventQueue, RandomizedParityWithReferenceQueue) {
  EventQueue pooled;
  ReferenceEventQueue reference;
  // (tag, fire-time) logs, one per implementation.
  std::vector<std::pair<int, SimTime>> pooled_log;
  std::vector<std::pair<int, SimTime>> reference_log;
  // Live events tracked as (pooled id, reference id) pairs so a random
  // cancel hits the *same* logical event in both queues.
  std::vector<std::pair<EventId, ReferenceEventQueue::EventId>> live;

  Rng rng{2024};
  SimTime now{};
  int next_tag = 0;
  constexpr int kOps = 12'000;
  // Delay mix covering every horizon the simulator produces: zero-delay
  // bursts and microsecond delays (deferrals, same-time ties), ~30 ms frame
  // latencies, keepalive/inquiry-scale timers up to 30 s, long timers up to
  // 80 s, and occasional *past* deadlines that land ahead of everything
  // already pending.
  const auto random_when = [&rng, &now] {
    const double roll = rng.next_double();
    if (roll < 0.25) return now;
    if (roll < 0.55) return now + microseconds(rng.uniform_int(0, 50));
    if (roll < 0.70) return now + microseconds(rng.uniform_int(20'000, 60'000));
    if (roll < 0.85) {
      return now + microseconds(rng.uniform_int(60'000, 30'000'000));
    }
    if (roll < 0.92) {
      return now + microseconds(rng.uniform_int(30'000'000, 80'000'000));
    }
    return SimTime{} + microseconds(rng.uniform_int(
                           0, now.since_epoch.count() + 1));  // past or near 0
  };
  for (int op = 0; op < kOps; ++op) {
    const int choice = static_cast<int>(rng.uniform_int(0, 9));
    if (choice < 6) {  // schedule (60%), duplicate times are common
      const SimTime when = random_when();
      const int tag = next_tag++;
      const EventId pid = pooled.schedule(
          when, [tag, &pooled_log] { pooled_log.emplace_back(tag, SimTime{}); });
      const auto rid = reference.schedule(
          when, [tag, &reference_log] {
            reference_log.emplace_back(tag, SimTime{});
          });
      live.emplace_back(pid, rid);
    } else if (choice < 8) {  // cancel (20%)
      if (live.empty()) continue;
      const auto index = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      pooled.cancel(live[index].first);
      reference.cancel(live[index].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
    } else {  // fire (20%)
      if (pooled.empty()) continue;
      ASSERT_FALSE(reference.empty());
      ASSERT_EQ(pooled.next_time(), reference.next_time());
      const SimTime tp = pooled.run_next();
      const SimTime tr = reference.run_next();
      ASSERT_EQ(tp, tr);
      ASSERT_FALSE(pooled_log.empty());
      pooled_log.back().second = tp;
      reference_log.back().second = tr;
      now = tp;
    }
  }
  while (!pooled.empty()) {
    ASSERT_FALSE(reference.empty());
    const SimTime tp = pooled.run_next();
    const SimTime tr = reference.run_next();
    ASSERT_EQ(tp, tr);
    pooled_log.back().second = tp;
    reference_log.back().second = tr;
  }
  EXPECT_TRUE(reference.empty());
  ASSERT_EQ(pooled.size(), 0u);
  EXPECT_EQ(pooled_log, reference_log);
  EXPECT_GE(pooled_log.size(), 5'000u);
}

// Scheduling behind the last fired time (legal on the raw queue; the
// Simulator clamps it) must still fire in global (time, insertion-order)
// order.
TEST(EventQueue, PastTimeScheduleFiresInGlobalOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at(5.0), [&] { order.push_back(5); });
  EXPECT_EQ(q.run_next(), at(5.0));  // clock now at 5s
  q.schedule(at(5.0), [&] { order.push_back(50); });   // same instant
  q.schedule(at(1.0), [&] { order.push_back(1); });    // in the past
  q.schedule(at(5.0), [&] { order.push_back(51); });   // same instant again
  q.schedule(at(7.0), [&] { order.push_back(7); });
  EXPECT_EQ(q.next_time(), at(1.0));
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{5, 1, 50, 51, 7}));
}

// A cancel storm that empties the queue must not strand cancelled events'
// storage: the arena is reclaimed and fully reused by later schedules.
TEST(EventQueue, CancelStormReleasesAndReusesSlots) {
  EventQueue q;
  std::vector<EventId> first;
  for (int i = 0; i < 100; ++i) {
    first.push_back(q.schedule(at(1.0 + i), [] {}));
  }
  for (const EventId id : first) q.cancel(id);
  EXPECT_TRUE(q.empty());
  // The next wave must recycle the same 100 slots (same indices, new gens).
  std::vector<EventId> second;
  for (int i = 0; i < 100; ++i) {
    second.push_back(q.schedule(at(2.0 + i), [] {}));
  }
  std::vector<std::uint32_t> first_slots;
  std::vector<std::uint32_t> second_slots;
  for (const EventId id : first) {
    first_slots.push_back(static_cast<std::uint32_t>(id));
  }
  for (const EventId id : second) {
    second_slots.push_back(static_cast<std::uint32_t>(id));
  }
  std::sort(first_slots.begin(), first_slots.end());
  std::sort(second_slots.begin(), second_slots.end());
  EXPECT_EQ(first_slots, second_slots);
  int fired = 0;
  while (!q.empty()) {
    q.run_next();
    ++fired;
  }
  EXPECT_EQ(fired, 100);
}

// Millisecond-scale events scheduled out of order fire in time order.
TEST(EventQueue, NearAndFarEventsInterleave) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime{} + milliseconds(100), [&] { order.push_back(100); });
  q.schedule(SimTime{} + milliseconds(1), [&] { order.push_back(1); });
  q.schedule(SimTime{} + milliseconds(50), [&] { order.push_back(50); });
  q.schedule(SimTime{} + milliseconds(2), [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 50, 100}));
}

// Timers from 1 ms to 60 s — frame latencies, keepalive/inquiry periods
// and long timers — fire in exact time order whatever the schedule order.
TEST(EventQueue, MixedHorizonTimersFireInOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime{} + seconds(60.0), [&] { order.push_back(7); });
  q.schedule(SimTime{} + seconds(10.0), [&] { order.push_back(5); });
  q.schedule(SimTime{} + milliseconds(500), [&] { order.push_back(3); });
  q.schedule(SimTime{} + milliseconds(1), [&] { order.push_back(1); });
  q.schedule(SimTime{} + milliseconds(40), [&] { order.push_back(2); });
  q.schedule(SimTime{} + seconds(30.0), [&] { order.push_back(6); });
  q.schedule(SimTime{} + milliseconds(900), [&] { order.push_back(4); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

// A timer scheduled 5 s ahead and an event scheduled 1 ms ahead of the
// same timestamp must fire in insertion order: the tie is broken by
// sequence, not by how far ahead each was scheduled.
TEST(EventQueue, LongTimerKeepsInsertionOrderOnTimestampTie) {
  EventQueue q;
  std::vector<int> order;
  const SimTime tie = SimTime{} + seconds(5.0);
  q.schedule(tie, [&] { order.push_back(1); });  // 5 s ahead
  q.schedule(SimTime{} + seconds(4.999), [&, tie] {
    // Scheduled 1 ms ahead, after the first timer has already been pending
    // for ~5 s.
    q.schedule(tie, [&] { order.push_back(2); });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Cancelling timers anywhere in a 30 s horizon must account for every
// event exactly once across heavy churn, and leave the arena reusable.
TEST(EventQueue, MixedHorizonCancelAndRecycle) {
  EventQueue q;
  Rng rng{7};
  int fired = 0;
  std::vector<EventId> ids;
  for (int round = 0; round < 2000; ++round) {
    ids.push_back(q.schedule(
        SimTime{} + microseconds(rng.uniform_int(0, 30'000'000)),
        [&] { ++fired; }));
    if (round % 3 == 0) {
      q.cancel(ids[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(ids.size()) - 1))]);
    }
  }
  const auto pending = static_cast<int>(q.size());
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, pending);
  // The arena must be fully reclaimed: a fresh wave reuses recycled slots.
  const EventId again = q.schedule(SimTime{} + seconds(1.0), [] {});
  EXPECT_NE(again, kInvalidEvent);
  q.cancel(again);
}

// Events scheduled from inside a firing callback keep FIFO order among
// equal times, matching the reference contract.
TEST(EventQueue, ReschedulingCallbackKeepsInsertionOrder) {
  EventQueue q;
  std::vector<std::string> order;
  q.schedule(at(1.0), [&] {
    order.push_back("a");
    q.schedule(at(2.0), [&] { order.push_back("a2"); });
  });
  q.schedule(at(2.0), [&] { order.push_back("b"); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a2"}));
}

}  // namespace
}  // namespace peerhood::sim
