// E-event — the zero-allocation event core (ISSUE 2 tentpole).
//
// Measurements over the simulator kernel, each timed for the pooled
// arena+heap EventQueue and for ReferenceEventQueue — the test-support
// oracle (priority_queue + unordered_map + std::function), the same
// before/after pattern as in_range_of_brute for the spatial grid. All
// closures carry frame-delivery-sized (40 B) captures.
//
//  * schedule→fire hot loop (the acceptance headline, >= 2x): batches of
//    events at randomized near-horizon times (the window frame traffic
//    lives in) are scheduled and drained.
//  * zero-delay cascade: fire → schedule-at-now → fire, the deferred-action
//    pattern (teardown, handler release) — the worst case for a comparison
//    heap, since every near-now key sifts to the root.
//  * mixed-horizon steady state: a standing population with a realistic
//    delay mix (30% zero-delay, 35% ~30 ms frame latencies, 20% 500 ms
//    keepalives, 15% long timers).
//  * schedule→cancel: every event cancelled instead of fired (a generation
//    check in the pooled queue vs a map erase in the reference).
//  * frames/sec end to end: two in-range endpoints on a RadioMedium, each
//    frame flowing sender → shared-payload delivery event → handler, i.e.
//    the copy-free FramePtr path riding the pooled queue.
//
// Pass --smoke for a tiny workload (CI keeps BENCH_JSON emission alive).
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "reference_event_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/medium.hpp"

namespace {

using namespace peerhood;
using namespace peerhood::bench;
using Clock = std::chrono::steady_clock;

bool g_smoke = false;

// The size class of the medium's frame-delivery closure: {this, from, to,
// tech, shared_ptr} ≈ 40 bytes. Fits InlineCallable's 48-byte buffer; far
// beyond std::function's inline storage, so the reference queue pays a heap
// allocation per event on top of its map node.
struct FrameSizedCapture {
  std::uint64_t a, b, c, d;
  std::uint64_t* sink;
};

template <typename Queue>
double schedule_fire_ns_per_op(int batch, int batches) {
  Queue q;
  std::uint64_t sink = 0;
  const FrameSizedCapture cap{1, 2, 3, 4, &sink};
  Rng rng{42};
  SimTime now{};
  // Warm-up batch: grow arenas/heaps/hash tables to their high-water mark.
  for (int i = 0; i < batch; ++i) {
    q.schedule(now + microseconds(i), [cap] { *cap.sink += cap.a; });
  }
  while (!q.empty()) now = q.run_next();

  const auto begin = Clock::now();
  for (int b = 0; b < batches; ++b) {
    for (int i = 0; i < batch; ++i) {
      q.schedule(now + microseconds(rng.uniform_int(0, 1000)),
                 [cap] { *cap.sink += cap.a; });
    }
    while (!q.empty()) now = q.run_next();
  }
  const auto end = Clock::now();
  keep(sink);
  const double ns =
      std::chrono::duration<double, std::nano>(end - begin).count();
  return ns / (static_cast<double>(batch) * batches);
}

template <typename Queue>
double cascade_ns_per_op(int standing, int total) {
  Queue q;
  std::uint64_t sink = 0;
  const FrameSizedCapture cap{1, 2, 3, 4, &sink};
  SimTime now{};
  // A standing population of far timers keeps the pending set non-trivial.
  for (int i = 0; i < standing; ++i) {
    q.schedule(now + seconds(1000.0) + microseconds(i),
               [cap] { *cap.sink += cap.a; });
  }
  q.schedule(now + microseconds(1), [cap] { *cap.sink += cap.a; });
  now = q.run_next();
  const auto begin = Clock::now();
  for (int i = 0; i < total; ++i) {
    q.schedule(now, [cap] { *cap.sink += cap.a; });  // zero delay
    now = q.run_next();
  }
  const auto end = Clock::now();
  keep(sink);
  const double ns =
      std::chrono::duration<double, std::nano>(end - begin).count();
  return ns / total;
}

// Delay distribution mimicking a real scenario run: zero-delay deferrals,
// per-hop frame latencies, keepalive periods, inquiry cycles and a tail of
// arbitrary timers.
SimDuration realistic_delay(Rng& rng) {
  const double roll = rng.next_double();
  if (roll < 0.30) return SimDuration{0};
  if (roll < 0.65) {
    return milliseconds(30) + microseconds(rng.uniform_int(0, 2000));
  }
  if (roll < 0.85) return milliseconds(500);
  if (roll < 0.95) return seconds(rng.uniform(1.0, 5.0));
  return microseconds(rng.uniform_int(0, 1'000'000));
}

template <typename Queue>
double mixed_ns_per_op(int standing, int total) {
  Queue q;
  std::uint64_t sink = 0;
  const FrameSizedCapture cap{1, 2, 3, 4, &sink};
  Rng rng{44};
  SimTime now{};
  for (int i = 0; i < standing; ++i) {
    q.schedule(now + realistic_delay(rng), [cap] { *cap.sink += cap.a; });
  }
  const auto begin = Clock::now();
  for (int i = 0; i < total; ++i) {
    now = q.run_next();
    q.schedule(now + realistic_delay(rng), [cap] { *cap.sink += cap.a; });
  }
  const auto end = Clock::now();
  keep(sink);
  const double ns =
      std::chrono::duration<double, std::nano>(end - begin).count();
  return ns / total;
}

template <typename Queue>
double schedule_cancel_ns_per_op(int batch, int batches) {
  Queue q;
  std::uint64_t sink = 0;
  const FrameSizedCapture cap{1, 2, 3, 4, &sink};
  Rng rng{43};
  SimTime now{};
  // Both implementations use u64 ids (the pooled queue packs slot+generation).
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(batch));
  const auto begin = Clock::now();
  for (int b = 0; b < batches; ++b) {
    for (int i = 0; i < batch; ++i) {
      ids[static_cast<std::size_t>(i)] =
          q.schedule(now + microseconds(rng.uniform_int(0, 1000)),
                     [cap] { *cap.sink += cap.a; });
    }
    // Cancel newest-first so lazily dropped heap entries pile up, then let
    // an (empty) drain sweep them — the worst case for lazy removal.
    for (int i = batch - 1; i >= 0; --i) {
      q.cancel(ids[static_cast<std::size_t>(i)]);
    }
    while (!q.empty()) now = q.run_next();
  }
  const auto end = Clock::now();
  keep(sink);
  const double ns =
      std::chrono::duration<double, std::nano>(end - begin).count();
  return ns / (static_cast<double>(batch) * batches);
}

double frames_per_second(int frames_per_batch, int batches,
                         std::uint64_t* delivered_out) {
  sim::Simulator sim{9};
  sim::RadioMedium medium{sim};
  const MacAddress a = MacAddress::from_index(1);
  const MacAddress b = MacAddress::from_index(2);
  std::uint64_t delivered = 0;
  medium.register_endpoint(a, Technology::kBluetooth,
                           std::make_shared<sim::StaticPosition>(
                               sim::Vec2{0.0, 0.0}),
                           nullptr);
  medium.register_endpoint(
      b, Technology::kBluetooth,
      std::make_shared<sim::StaticPosition>(sim::Vec2{5.0, 0.0}),
      [&delivered](MacAddress, const Bytes& frame) {
        delivered += frame.size();
      });
  const Bytes payload(64, 0xAB);

  // Warm-up batch.
  for (int i = 0; i < frames_per_batch; ++i) {
    medium.send_frame(a, b, Technology::kBluetooth, payload);
  }
  sim.run_all();
  const std::uint64_t warm = delivered;

  const auto begin = Clock::now();
  for (int batch = 0; batch < batches; ++batch) {
    for (int i = 0; i < frames_per_batch; ++i) {
      medium.send_frame(a, b, Technology::kBluetooth, payload);
    }
    sim.run_all();
  }
  const auto end = Clock::now();
  *delivered_out = (delivered - warm) / payload.size();
  const double s = std::chrono::duration<double>(end - begin).count();
  return static_cast<double>(*delivered_out) / s;
}

void print_pair(const char* bench_name, double ref_ns, double pooled_ns,
                int scale) {
  const double speedup = pooled_ns > 0.0 ? ref_ns / pooled_ns : 0.0;
  std::printf("%-22s %12.1f ns/op\n", "reference (map+func)", ref_ns);
  std::printf("%-22s %12.1f ns/op\n", "pooled arena+heap", pooled_ns);
  std::printf("%-22s %11.2fx\n", "speedup", speedup);
  JsonRecord{bench_name}
      .field("scale", scale)
      .field("reference_ns_per_op", ref_ns)
      .field("pooled_ns_per_op", pooled_ns)
      .field("speedup", speedup)
      .emit();
}

void report_event_core() {
  const int batch = g_smoke ? 64 : 1024;
  const int batches = g_smoke ? 4 : 2000;

  heading("E-event  Schedule->fire hot loop: pooled arena vs reference queue");
  const double pooled_fire =
      schedule_fire_ns_per_op<sim::EventQueue>(batch, batches);
  const double ref_fire =
      schedule_fire_ns_per_op<sim::ReferenceEventQueue>(batch, batches);
  print_pair("event_core_schedule_fire", ref_fire, pooled_fire, batch);

  heading("E-event  Zero-delay cascade (deferred actions)");
  const int cascade_total = g_smoke ? 2'000 : 4'000'000;
  const double pooled_cascade =
      cascade_ns_per_op<sim::EventQueue>(1024, cascade_total);
  const double ref_cascade =
      cascade_ns_per_op<sim::ReferenceEventQueue>(1024, cascade_total);
  print_pair("event_core_cascade", ref_cascade, pooled_cascade, 1024);

  heading("E-event  Mixed-horizon steady state (incl. far timers)");
  const int mixed_total = g_smoke ? 2'000 : 4'000'000;
  const double pooled_mixed =
      mixed_ns_per_op<sim::EventQueue>(1024, mixed_total);
  const double ref_mixed =
      mixed_ns_per_op<sim::ReferenceEventQueue>(1024, mixed_total);
  print_pair("event_core_mixed", ref_mixed, pooled_mixed, 1024);

  heading("E-event  Schedule->cancel: generation check vs map erase");
  const double pooled_cancel =
      schedule_cancel_ns_per_op<sim::EventQueue>(batch, batches);
  const double ref_cancel =
      schedule_cancel_ns_per_op<sim::ReferenceEventQueue>(batch, batches);
  print_pair("event_core_schedule_cancel", ref_cancel, pooled_cancel, batch);

  heading("E-event  End-to-end frame delivery (copy-free FramePtr path)");
  std::uint64_t delivered = 0;
  const double fps = frames_per_second(g_smoke ? 256 : 20'000,
                                       g_smoke ? 2 : 10, &delivered);
  std::printf("%-22s %12.0f frames/s  (%llu frames)\n", "send->deliver", fps,
              static_cast<unsigned long long>(delivered));
  JsonRecord{"event_core_frames_per_sec"}
      .field("frames", static_cast<std::uint64_t>(delivered))
      .field("frames_per_sec", fps)
      .emit();

  note("These loops keep 1024 events standing; simulator scenarios keep a");
  note("few dozen. Zero steady-state allocations are asserted by");
  note("tests/test_event_alloc.cpp rather than measured here.");
}

}  // namespace

int main(int argc, char** argv) {
  g_smoke = smoke_flag(argc, argv);
  report_event_core();
  return 0;
}
