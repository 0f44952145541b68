#include "sim/event_queue.hpp"

#include <stdexcept>

namespace peerhood::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  return slot;
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (++s.gen == 0) ++s.gen;  // generation 0 is reserved for kInvalidEvent
  free_slots_.push_back(slot);
}

EventId EventQueue::schedule(SimTime at, InlineCallable action) {
  if (next_seq_ > kMaxSeq ||
      (free_slots_.empty() && slots_.size() > kSlotMask)) {
    throw std::length_error("EventQueue: entry packing limit reached");
  }
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.action = std::move(action);
  const Entry entry{
      static_cast<std::uint64_t>(at.since_epoch.count()) + kTimeBias,
      (next_seq_++ << kSlotBits) | slot};
  heap_.emplace_back();
  sift_up(heap_.size() - 1, entry);
  return make_id(s.gen, slot);
}

void EventQueue::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size() || slots_[slot].gen != gen_of(id)) return;
  Slot& s = slots_[slot];
  s.action.reset();
  remove_at(s.heap_index);
  release_slot(slot);
}

SimTime EventQueue::run_next() {
  assert(!empty());
  const Entry top = heap_.front();
  pop_root();
  InlineCallable action = std::move(slots_[top.slot()].action);
  release_slot(top.slot());
  action();
  return top.time();
}

void EventQueue::place(std::size_t i, const Entry& entry) {
  heap_[i] = entry;
  slots_[entry.slot()].heap_index = static_cast<std::uint32_t>(i);
}

std::size_t EventQueue::best_child(std::size_t first, std::size_t n) const {
  if (first + 4 <= n) {
    // A full family: a two-round tournament of selects, no branches.
    const Key k0 = heap_[first].key();
    const Key k1 = heap_[first + 1].key();
    const Key k2 = heap_[first + 2].key();
    const Key k3 = heap_[first + 3].key();
    const bool right1 = k1 < k0;
    const bool right2 = k3 < k2;
    const Key left_best = right1 ? k1 : k0;
    const Key right_best = right2 ? k3 : k2;
    const std::size_t left = first + right1;
    const std::size_t right = first + 2 + right2;
    return right_best < left_best ? right : left;
  }
  std::size_t best = first;
  for (std::size_t c = first + 1; c < n; ++c) {
    if (heap_[c].key() < heap_[best].key()) best = c;
  }
  return best;
}

void EventQueue::sift_up(std::size_t i, Entry entry) {
  // Sift with a hole: shift parents down, write the entry once at the end.
  const Key key = entry.key();
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(key < heap_[parent].key())) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, entry);
}

void EventQueue::sift_down(std::size_t i, Entry entry) {
  const std::size_t n = heap_.size();
  const Key key = entry.key();
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    const std::size_t best = best_child(first_child, n);
    if (!(heap_[best].key() < key)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, entry);
}

void EventQueue::pop_root() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;  // the root was the tail
  std::size_t hole = 0;
  for (std::size_t first_child = 1; first_child < n;
       first_child = 4 * hole + 1) {
    const std::size_t best = best_child(first_child, n);
    place(hole, heap_[best]);
    hole = best;
  }
  sift_up(hole, last);
}

void EventQueue::remove_at(std::size_t i) {
  if (i == 0) {
    pop_root();
    return;
  }
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // the tail itself was removed
  // The tail may belong above or below the hole: a cancelled interior entry
  // can sit under a tail that is earlier than its parent.
  if (last.key() < heap_[(i - 1) / 4].key()) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

}  // namespace peerhood::sim
