// Discrete-event scheduler. Events fire in (time, insertion-order) order;
// cancellation removes the event at once, in O(log n).
//
// Zero-allocation steady state: event storage is a pooled slot arena — a
// vector of slots recycled through a free list, each holding the event's
// InlineCallable (closures ≤ 48 B live inside the slot, no heap traffic).
// An EventId packs {slot index, slot generation} into a u64, so cancel and
// the fired/stale checks are a single array index + compare; there is no
// id → action map at all.
//
// The pending set is one indexed 4-ary min-heap (shallower than a binary
// heap, and the four children of a node share a cache line). An entry is
// 16 bytes: the time, biased so that unsigned order is time order, and one
// word holding the insertion sequence above the slot index (kSlotBits low
// bits). The pair compares as a single 128-bit key, and the sequence is
// unique, so no two keys tie. Schedule throws std::length_error rather than
// let either field overflow its bits, in every build type. A node's best
// child is picked by a branch-free tournament of the four keys. Pop uses
// Floyd's bottom-up descent: the hole left by the root walks down the
// best-child path to a leaf without comparing against the tail entry, and
// the tail then sifts up from there (it usually belongs near the bottom).
// Each live slot records its entry's heap position, so cancel removes the
// entry directly instead of leaving debris for the pop path. The simulator
// keeps a few dozen events pending (tens, rarely more than ~150), where one
// small heap beats any bucketed structure. Once the arena, free list and
// heap have grown to the scenario's high-water mark, schedule/cancel/fire
// allocate nothing; a fresh queue allocates nothing until its first
// schedule.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "sim/inline_callable.hpp"

namespace peerhood::sim {

// High 32 bits: slot generation (never 0); low 32 bits: slot index.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  // Throws std::length_error past the packing limits: 2^24 events pending
  // at once, or 2^40 schedules over the queue's life.
  EventId schedule(SimTime at, InlineCallable action);

  // Cancels a pending event. Safe to call on already-fired or invalid ids:
  // firing/cancelling bumps the slot's generation, so a stale id can never
  // match — even after the slot has been recycled for a newer event.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  // Time of the earliest pending event; only valid when !empty().
  [[nodiscard]] SimTime next_time() const {
    assert(!empty());
    return heap_.front().time();
  }

  // Pops and runs the earliest event; returns its scheduled time. The slot
  // is released *before* the action runs, so the action may freely schedule
  // (and even land in the slot it just vacated) or cancel.
  SimTime run_next();

 private:
  struct Slot {
    InlineCallable action;
    std::uint32_t gen{1};
    std::uint32_t heap_index{0};  // position of the slot's entry while live
  };

  // Low bits of Entry::seq_slot hold the slot index, the rest the sequence.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = ~std::uint64_t{0} >> kSlotBits;
  static constexpr std::uint64_t kTimeBias = std::uint64_t{1} << 63;

  __extension__ typedef unsigned __int128 Key;

  struct Entry {
    std::uint64_t biased_time;  // microseconds + kTimeBias
    std::uint64_t seq_slot;     // insertion order breaks timestamp ties

    [[nodiscard]] Key key() const {
      return (static_cast<Key>(biased_time) << 64) | seq_slot;
    }
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & kSlotMask);
    }
    [[nodiscard]] SimTime time() const {
      return SimTime{SimDuration{
          static_cast<SimDuration::rep>(biased_time - kTimeBias)}};
    }
  };
  static_assert(sizeof(Entry) == 16);

  [[nodiscard]] static constexpr std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  [[nodiscard]] static constexpr std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  [[nodiscard]] static constexpr EventId make_id(std::uint32_t gen,
                                                 std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  [[nodiscard]] std::uint32_t acquire_slot();
  // Invalidates all outstanding ids for `slot` and returns it to the pool.
  void release_slot(std::uint32_t slot);

  // Writes `entry` at heap position `i` and records the position in its slot.
  void place(std::size_t i, const Entry& entry);
  // Index of the earliest of the children starting at `first` (n = size).
  [[nodiscard]] std::size_t best_child(std::size_t first, std::size_t n) const;
  void sift_up(std::size_t i, Entry entry);
  void sift_down(std::size_t i, Entry entry);
  // Removes the root: Floyd's bottom-up descent, then the tail sifts up.
  void pop_root();
  // Removes the entry at heap position `i`, refilling the hole with the tail.
  void remove_at(std::size_t i);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> heap_;
  std::uint64_t next_seq_{1};
};

}  // namespace peerhood::sim
