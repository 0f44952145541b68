// Proves the "zero-allocation event core" claim with a counting
// operator-new hook: a fresh queue or simulator allocates nothing until its
// first schedule, and once the slot arena, free list and heap have reached
// their high-water marks, scheduling and firing events whose closures fit
// InlineCallable's inline buffer performs no heap allocation at all.
// This TU overrides global operator new/delete; each test source builds
// into its own binary, so the hook is scoped to this suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  ++g_allocations;
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace peerhood::sim {
namespace {

// A 40-byte capture — the size class of the medium's frame-delivery closure
// ({this, from, to, tech, shared_ptr}), comfortably within the 48-byte
// inline buffer but far beyond std::function's.
struct FrameSizedCapture {
  std::uint64_t a, b, c, d;
  std::uint64_t* sink;
};

TEST(EventCoreAllocation, ConstructionAllocatesNothingUntilFirstSchedule) {
  const std::uint64_t before = g_allocations.load();
  {
    EventQueue q;
    Simulator sim{3};
    EXPECT_EQ(g_allocations.load() - before, 0u);
    q.schedule(SimTime{} + microseconds(1), [] {});
    sim.schedule_after(microseconds(1), [] {});
    EXPECT_GT(g_allocations.load() - before, 0u);  // the hook sees growth
  }
}

TEST(EventCoreAllocation, SteadyStateScheduleFireIsAllocationFree) {
  EventQueue q;
  std::uint64_t sink = 0;
  const FrameSizedCapture capture{1, 2, 3, 4, &sink};
  SimTime t{};

  // Warm-up: grow the arena, free list and heap to a 64-event high-water
  // mark, then drain.
  for (int i = 0; i < 64; ++i) {
    t += microseconds(1);
    q.schedule(t, [capture] { *capture.sink += capture.a; });
  }
  while (!q.empty()) (void)q.run_next();

  // Steady state: ping-style schedule→fire, then 32-deep bursts. Neither
  // pattern exceeds the warm high-water mark, so: zero allocations.
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10'000; ++i) {
    t += microseconds(1);
    q.schedule(t, [capture] { *capture.sink += capture.b; });
    (void)q.run_next();
  }
  for (int burst = 0; burst < 300; ++burst) {
    for (int i = 0; i < 32; ++i) {
      t += microseconds(1);
      q.schedule(t, [capture] { *capture.sink += capture.c; });
    }
    while (!q.empty()) (void)q.run_next();
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_GT(sink, 0u);
}

TEST(EventCoreAllocation, SteadyStateCancelIsAllocationFree) {
  EventQueue q;
  std::uint64_t sink = 0;
  const FrameSizedCapture capture{1, 2, 3, 4, &sink};
  SimTime t{};
  for (int i = 0; i < 64; ++i) {
    t += microseconds(1);
    q.schedule(t, [capture] { *capture.sink += capture.a; });
  }
  while (!q.empty()) (void)q.run_next();

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 5'000; ++i) {
    t += microseconds(1);
    const EventId keep = q.schedule(t, [capture] { *capture.sink += 1; });
    t += microseconds(1);
    const EventId drop = q.schedule(t, [capture] { *capture.sink += 1; });
    q.cancel(drop);
    (void)q.run_next();
    (void)keep;
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(EventCoreAllocation, SimulatorScheduleAfterIsAllocationFree) {
  Simulator sim{7};
  std::uint64_t sink = 0;
  const FrameSizedCapture capture{9, 8, 7, 6, &sink};
  for (int i = 0; i < 64; ++i) {
    sim.schedule_after(microseconds(i + 1),
                       [capture] { *capture.sink += capture.a; });
  }
  sim.run_all();

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10'000; ++i) {
    sim.schedule_after(microseconds(1),
                       [capture] { *capture.sink += capture.b; });
    (void)sim.step();
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

// Sanity check for the hook itself: an oversized capture *must* allocate
// (InlineCallable's documented heap fallback), proving the counter works.
TEST(EventCoreAllocation, OversizedCaptureAllocates) {
  EventQueue q;
  std::uint64_t sink = 0;
  struct Oversized {
    std::uint64_t words[8];
    std::uint64_t* sink;
  };
  const Oversized big{{1, 2, 3, 4, 5, 6, 7, 8}, &sink};
  static_assert(sizeof(Oversized) > InlineCallable::kInlineSize);
  const std::uint64_t before = g_allocations.load();
  q.schedule(SimTime{} + microseconds(1),
             [big] { *big.sink += big.words[0]; });
  EXPECT_GE(g_allocations.load() - before, 1u);
  (void)q.run_next();
  EXPECT_EQ(sink, 1u);
}

}  // namespace
}  // namespace peerhood::sim
