#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace peerhood::sim {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim{1};
  SimTime seen{};
  sim.schedule_after(seconds(5.0), [&] { seen = sim.now(); });
  sim.run_all();
  EXPECT_EQ(seen, SimTime{} + seconds(5.0));
  EXPECT_EQ(sim.now(), SimTime{} + seconds(5.0));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim{1};
  int fired = 0;
  sim.schedule_after(seconds(1.0), [&] { ++fired; });
  sim.schedule_after(seconds(10.0), [&] { ++fired; });
  sim.run_until(SimTime{} + seconds(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime{} + seconds(5.0));
  sim.run_until(SimTime{} + seconds(20.0));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunForComposes) {
  Simulator sim{1};
  std::vector<double> fire_times;
  for (int i = 1; i <= 4; ++i) {
    sim.schedule_after(seconds(i), [&, i] {
      fire_times.push_back(sim.now().seconds());
    });
  }
  sim.run_for(seconds(2.0));
  EXPECT_EQ(fire_times.size(), 2u);
  sim.run_for(seconds(2.0));
  EXPECT_EQ(fire_times.size(), 4u);
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim{1};
  sim.run_until(SimTime{} + seconds(10.0));
  bool ran = false;
  sim.schedule_at(SimTime{} + seconds(1.0), [&] { ran = true; });
  sim.run_all();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), SimTime{} + seconds(10.0));
}

// A negative delay clamps to now() like a past schedule_at time: the event
// fires at the current time and the clock (and every time observer) never
// sees time run backwards.
TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim{1};
  const SimTime five = SimTime{} + seconds(5.0);
  sim.run_until(five);
  std::vector<SimTime> observed;
  sim.add_time_observer([&] { observed.push_back(sim.now()); });
  SimTime fired_at{};
  sim.schedule_after(seconds(-2.0), [&] { fired_at = sim.now(); });
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(fired_at, five);
  EXPECT_EQ(sim.now(), five);
  EXPECT_TRUE(observed.empty());  // the clock did not move at all
  sim.schedule_after(seconds(1.0), [] {});
  sim.run_all();
  EXPECT_EQ(observed, (std::vector<SimTime>{five + seconds(1.0)}));
}

TEST(Simulator, CancelWorksThroughSimulator) {
  Simulator sim{1};
  bool ran = false;
  const EventId id = sim.schedule_after(seconds(1.0), [&] { ran = true; });
  sim.cancel(id);
  sim.run_all();
  EXPECT_FALSE(ran);
}

TEST(Simulator, ForkRngProducesDistinctStreams) {
  Simulator sim{99};
  Rng a = sim.fork_rng();
  Rng b = sim.fork_rng();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(PeriodicTask, FiresAtPeriod) {
  Simulator sim{1};
  int ticks = 0;
  PeriodicTask task;
  task.start(sim, seconds(1.0), [&] { ++ticks; }, seconds(1.0));
  sim.run_until(SimTime{} + seconds(5.5));
  EXPECT_EQ(ticks, 5);
}

TEST(PeriodicTask, InitialDelayZeroFiresImmediately) {
  Simulator sim{1};
  int ticks = 0;
  PeriodicTask task;
  task.start(sim, seconds(10.0), [&] { ++ticks; });
  sim.run_until(SimTime{} + seconds(0.5));
  EXPECT_EQ(ticks, 1);
}

TEST(PeriodicTask, StopPreventsFurtherTicks) {
  Simulator sim{1};
  int ticks = 0;
  PeriodicTask task;
  task.start(sim, seconds(1.0), [&] { ++ticks; }, seconds(1.0));
  sim.run_until(SimTime{} + seconds(2.5));
  task.stop();
  sim.run_until(SimTime{} + seconds(10.0));
  EXPECT_EQ(ticks, 2);
}

TEST(PeriodicTask, StopFromInsideTick) {
  Simulator sim{1};
  int ticks = 0;
  PeriodicTask task;
  task.start(sim, seconds(1.0), [&] {
    if (++ticks == 3) task.stop();
  }, seconds(1.0));
  sim.run_until(SimTime{} + seconds(10.0));
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTask, RestartAfterStop) {
  Simulator sim{1};
  int ticks = 0;
  PeriodicTask task;
  task.start(sim, seconds(1.0), [&] { ++ticks; }, seconds(1.0));
  sim.run_until(SimTime{} + seconds(1.5));
  task.stop();
  task.start(sim, seconds(1.0), [&] { ticks += 10; }, seconds(1.0));
  sim.run_until(SimTime{} + seconds(3.6));
  EXPECT_EQ(ticks, 21);  // 1 tick of the first run + 2 of the second
}

TEST(PeriodicTask, DestructionCancelsCleanly) {
  Simulator sim{1};
  int ticks = 0;
  {
    PeriodicTask task;
    task.start(sim, seconds(1.0), [&] { ++ticks; }, seconds(1.0));
    sim.run_until(SimTime{} + seconds(1.5));
  }
  sim.run_until(SimTime{} + seconds(10.0));
  EXPECT_EQ(ticks, 1);
}

}  // namespace
}  // namespace peerhood::sim
