#include "sim/event_queue.hpp"

#include <algorithm>

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
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.action = std::move(action);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{at, next_seq_++, slot});
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
  remove_at(0);
  InlineCallable action = std::move(slots_[top.slot].action);
  release_slot(top.slot);
  action();
  return top.at;
}

void EventQueue::place(std::size_t i, const Entry& entry) {
  heap_[i] = entry;
  slots_[entry.slot].heap_index = static_cast<std::uint32_t>(i);
}

void EventQueue::sift_up(std::size_t i, Entry entry) {
  // Sift with a hole: shift parents down, write the entry once at the end.
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(entry, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, entry);
}

void EventQueue::sift_down(std::size_t i, Entry entry) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t end_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < end_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], entry)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, entry);
}

void EventQueue::remove_at(std::size_t i) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // the tail itself was removed
  // The tail may belong above or below the hole: a cancelled interior entry
  // can sit under a tail that is earlier than its parent.
  if (i > 0 && before(last, heap_[(i - 1) / 4])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

}  // namespace peerhood::sim
