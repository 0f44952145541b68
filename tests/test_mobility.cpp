#include "sim/mobility.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>

namespace peerhood::sim {
namespace {

SimTime at(double s) { return SimTime{} + seconds(s); }

TEST(StaticPosition, NeverMoves) {
  StaticPosition model{{3.0, 4.0}};
  EXPECT_EQ(model.position_at(at(0)), (Vec2{3.0, 4.0}));
  EXPECT_EQ(model.position_at(at(1e6)), (Vec2{3.0, 4.0}));
}

TEST(LinearMotion, MovesAtConstantVelocity) {
  LinearMotion model{{0.0, 0.0}, {1.0, 0.5}};
  const Vec2 p = model.position_at(at(10.0));
  EXPECT_DOUBLE_EQ(p.x, 10.0);
  EXPECT_DOUBLE_EQ(p.y, 5.0);
}

TEST(LinearMotion, HoldsUntilDeparture) {
  LinearMotion model{{5.0, 5.0}, {1.0, 0.0}, at(10.0)};
  EXPECT_EQ(model.position_at(at(3.0)), (Vec2{5.0, 5.0}));
  EXPECT_EQ(model.position_at(at(10.0)), (Vec2{5.0, 5.0}));
  const Vec2 p = model.position_at(at(15.0));
  EXPECT_DOUBLE_EQ(p.x, 10.0);
}

TEST(WaypointPath, InterpolatesLinearly) {
  WaypointPath model{{
      {at(0.0), {0.0, 0.0}},
      {at(10.0), {10.0, 0.0}},
      {at(20.0), {10.0, 10.0}},
  }};
  EXPECT_EQ(model.position_at(at(5.0)), (Vec2{5.0, 0.0}));
  EXPECT_EQ(model.position_at(at(15.0)), (Vec2{10.0, 5.0}));
}

TEST(WaypointPath, ClampsOutsideRange) {
  WaypointPath model{{
      {at(1.0), {1.0, 1.0}},
      {at(2.0), {2.0, 2.0}},
  }};
  EXPECT_EQ(model.position_at(at(0.0)), (Vec2{1.0, 1.0}));
  EXPECT_EQ(model.position_at(at(100.0)), (Vec2{2.0, 2.0}));
}

TEST(WaypointPath, ExactWaypointHit) {
  WaypointPath model{{
      {at(0.0), {0.0, 0.0}},
      {at(10.0), {10.0, 0.0}},
  }};
  EXPECT_EQ(model.position_at(at(10.0)), (Vec2{10.0, 0.0}));
}

TEST(RandomWaypoint, StaysInsideArea) {
  RandomWaypoint::Config config;
  config.area_min = {0.0, 0.0};
  config.area_max = {50.0, 30.0};
  RandomWaypoint model{config, {25.0, 15.0}, Rng{42}};
  for (double t = 0.0; t < 600.0; t += 1.0) {
    const Vec2 p = model.position_at(at(t));
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 50.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 30.0);
  }
}

TEST(RandomWaypoint, SpeedBounded) {
  RandomWaypoint::Config config;
  config.speed_min_mps = 0.5;
  config.speed_max_mps = 1.5;
  config.pause = SimDuration{0};
  RandomWaypoint model{config, {10.0, 10.0}, Rng{7}};
  Vec2 prev = model.position_at(at(0.0));
  for (double t = 0.1; t < 120.0; t += 0.1) {
    const Vec2 cur = model.position_at(at(t));
    const double speed = distance(prev, cur) / 0.1;
    EXPECT_LE(speed, 1.6);  // small tolerance over max speed
    prev = cur;
  }
}

TEST(RandomWaypoint, DeterministicForSameSeed) {
  RandomWaypoint::Config config;
  RandomWaypoint a{config, {1.0, 1.0}, Rng{5}};
  RandomWaypoint b{config, {1.0, 1.0}, Rng{5}};
  for (double t = 0.0; t < 100.0; t += 7.0) {
    EXPECT_EQ(a.position_at(at(t)), b.position_at(at(t)));
  }
}

TEST(RandomWaypoint, QueriesMayGoBackwards) {
  RandomWaypoint model{{}, {50.0, 50.0}, Rng{3}};
  const Vec2 late = model.position_at(at(500.0));
  const Vec2 early = model.position_at(at(10.0));
  const Vec2 late_again = model.position_at(at(500.0));
  EXPECT_EQ(late, late_again);
  (void)early;
}

// --- velocity_at (PR 5): analytic velocities vs finite differences ----------

// Central finite difference of position_at, the oracle every analytic
// velocity override must agree with (away from kinks).
Vec2 fd_velocity(const MobilityModel& model, SimTime t) {
  const SimDuration h = milliseconds(20);
  const Vec2 a = model.position_at(SimTime{t.since_epoch - h});
  const Vec2 b = model.position_at(t + h);
  return (b - a) * (1.0 / (2.0 * 0.020));
}

void expect_velocity_parity(const MobilityModel& model, double t_s,
                            double tol = 0.05) {
  const SimTime t = at(t_s);
  const Vec2 analytic = model.velocity_at(t);
  const Vec2 fd = fd_velocity(model, t);
  EXPECT_NEAR(analytic.x, fd.x, tol) << "t=" << t_s;
  EXPECT_NEAR(analytic.y, fd.y, tol) << "t=" << t_s;
}

TEST(VelocityAt, StaticIsZero) {
  StaticPosition model{{3.0, 4.0}};
  EXPECT_EQ(model.velocity_at(at(5.0)), (Vec2{0.0, 0.0}));
}

TEST(VelocityAt, LinearMatchesFiniteDifference) {
  LinearMotion model{{0.0, 0.0}, {1.0, -0.5}, at(10.0)};
  EXPECT_EQ(model.velocity_at(at(3.0)), (Vec2{0.0, 0.0}));
  expect_velocity_parity(model, 5.0);
  expect_velocity_parity(model, 20.0);
  EXPECT_EQ(model.velocity_at(at(20.0)), (Vec2{1.0, -0.5}));
}

TEST(VelocityAt, WaypointPathMatchesFiniteDifference) {
  WaypointPath model{{
      {at(0.0), {0.0, 0.0}},
      {at(10.0), {10.0, 0.0}},
      {at(20.0), {10.0, 10.0}},
  }};
  expect_velocity_parity(model, 5.0);
  expect_velocity_parity(model, 15.0);
  // Holding before the first and after the last waypoint: standing still.
  EXPECT_EQ((WaypointPath{{{at(5.0), {1.0, 1.0}}, {at(6.0), {2.0, 1.0}}}}
                 .velocity_at(at(1.0))),
            (Vec2{0.0, 0.0}));
  EXPECT_EQ(model.velocity_at(at(25.0)), (Vec2{0.0, 0.0}));
}

TEST(VelocityAt, RandomWaypointMatchesFiniteDifference) {
  RandomWaypoint::Config config;
  config.pause = seconds(1.0);
  RandomWaypoint model{config, {50.0, 50.0}, Rng{11}};
  // Probe generic instants; skip ones adjacent to a segment boundary where
  // the finite difference straddles the kink.
  for (double t = 3.0; t < 200.0; t += 7.3) {
    const Vec2 v0 = model.velocity_at(at(t - 0.05));
    const Vec2 v1 = model.velocity_at(at(t + 0.05));
    if (!(v0 == v1)) continue;  // kink inside the probe window
    expect_velocity_parity(model, t);
  }
}

TEST(VelocityAt, GaussMarkovMatchesFiniteDifference) {
  GaussMarkov model{{}, {50.0, 50.0}, Rng{5}};
  for (double t = 1.5; t < 60.0; t += 4.0) {
    const Vec2 v0 = model.velocity_at(at(t - 0.05));
    const Vec2 v1 = model.velocity_at(at(t + 0.05));
    if (!(v0 == v1)) continue;
    expect_velocity_parity(model, t);
  }
}

TEST(VelocityAt, GroupMemberMatchesFiniteDifference) {
  auto reference = std::make_shared<WaypointPath>(
      std::vector<WaypointPath::Waypoint>{
          {at(0.0), {0.0, 0.0}},
          {at(100.0), {50.0, 0.0}},
      });
  GroupMember member{reference, {1.0, 0.5}, {}, Rng{9}};
  for (double t = 2.1; t < 90.0; t += 6.7) {
    const Vec2 v0 = member.velocity_at(at(t - 0.05));
    const Vec2 v1 = member.velocity_at(at(t + 0.05));
    if (!(v0 == v1)) continue;
    expect_velocity_parity(member, t);
  }
}

// --- Gauss–Markov ------------------------------------------------------------

TEST(GaussMarkov, StaysInsideAreaAndDeterministic) {
  GaussMarkov::Config config;
  config.area_min = {0.0, 0.0};
  config.area_max = {40.0, 25.0};
  GaussMarkov a{config, {20.0, 12.0}, Rng{21}};
  GaussMarkov b{config, {20.0, 12.0}, Rng{21}};
  for (double t = 0.0; t < 400.0; t += 1.7) {
    const Vec2 p = a.position_at(at(t));
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 40.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 25.0);
    EXPECT_EQ(p, b.position_at(at(t)));
  }
}

TEST(GaussMarkov, MotionIsTemporallyCorrelated) {
  // With alpha near 1 the heading barely changes between updates — the
  // defining property vs random waypoint.
  GaussMarkov::Config config;
  config.area_min = {0.0, 0.0};
  config.area_max = {1000.0, 1000.0};  // far from edge steering
  config.alpha = 0.97;
  config.direction_sigma = 0.2;
  GaussMarkov model{config, {500.0, 500.0}, Rng{3}};
  int aligned = 0;
  int samples = 0;
  for (double t = 2.0; t < 60.0; t += 1.0) {
    const Vec2 v0 = model.velocity_at(at(t));
    const Vec2 v1 = model.velocity_at(at(t + 1.0));
    const double n0 = v0.norm();
    const double n1 = v1.norm();
    if (n0 < 1e-6 || n1 < 1e-6) continue;
    ++samples;
    const double cosine = (v0.x * v1.x + v0.y * v1.y) / (n0 * n1);
    if (cosine > 0.5) ++aligned;
  }
  ASSERT_GT(samples, 20);
  EXPECT_GT(aligned, samples * 8 / 10);
}

// --- Reference-point group mobility ------------------------------------------

TEST(GroupMember, TracksReferenceWithinDeviationRadius) {
  auto reference = std::make_shared<WaypointPath>(
      std::vector<WaypointPath::Waypoint>{
          {at(0.0), {0.0, 0.0}},
          {at(50.0), {25.0, 10.0}},
      });
  GroupMember::Config config;
  config.deviation_radius_m = 2.0;
  const Vec2 offset{3.0, -1.0};
  GroupMember member{reference, offset, config, Rng{17}};
  GroupMember twin{reference, offset, config, Rng{17}};
  for (double t = 0.0; t < 70.0; t += 0.9) {
    const Vec2 anchor = reference->position_at(at(t)) + offset;
    const Vec2 p = member.position_at(at(t));
    EXPECT_LE(distance(p, anchor), config.deviation_radius_m + 1e-9);
    EXPECT_EQ(p, twin.position_at(at(t)));
  }
}

TEST(GroupMember, ZeroDeviationIsExactlyReferencePlusOffset) {
  auto reference = std::make_shared<StaticPosition>(Vec2{4.0, 4.0});
  GroupMember::Config config;
  config.deviation_radius_m = 0.0;
  GroupMember member{reference, {1.0, 2.0}, config, Rng{1}};
  EXPECT_TRUE(member.is_static());
  EXPECT_EQ(member.position_at(at(9.0)), (Vec2{5.0, 6.0}));
}

// --- Segment pruning (PR 5 satellite) ----------------------------------------

TEST(RandomWaypoint, LongSimsKeepBoundedHistory) {
  RandomWaypoint::Config config;
  config.pause = seconds(0.5);
  RandomWaypoint model{config, {50.0, 50.0}, Rng{7}};
  for (double t = 0.0; t < 50'000.0; t += 5.0) {
    (void)model.position_at(at(t));
  }
  // Unpruned this walk would hold tens of thousands of segments.
  EXPECT_LE(model.segment_count(), 80u);
}

TEST(RandomWaypoint, BackwardQueryBehindPruneBaseIsStillExact) {
  RandomWaypoint::Config config;
  RandomWaypoint pruned{config, {50.0, 50.0}, Rng{13}};
  RandomWaypoint oracle{config, {50.0, 50.0}, Rng{13}};

  // Record early truth from the oracle (no pruning pressure yet).
  std::vector<std::pair<double, Vec2>> early;
  for (double t = 1.0; t < 300.0; t += 13.7) {
    early.emplace_back(t, oracle.position_at(at(t)));
  }
  // Drive the pruned walk far forward, discarding its early history.
  for (double t = 0.0; t < 20'000.0; t += 5.0) {
    (void)pruned.position_at(at(t));
  }
  ASSERT_LE(pruned.segment_count(), 80u);
  // Jumping back behind the prune base replays the walk deterministically.
  for (const auto& [t, expected] : early) {
    EXPECT_EQ(pruned.position_at(at(t)), expected) << "t=" << t;
  }
  // And the far future still matches a fresh extension after the rewind.
  EXPECT_EQ(pruned.position_at(at(20'000.0)), oracle.position_at(at(20'000.0)));
}

TEST(GaussMarkov, LongSimsKeepBoundedHistory) {
  GaussMarkov model{{}, {50.0, 50.0}, Rng{29}};
  for (double t = 0.0; t < 20'000.0; t += 2.0) {
    (void)model.position_at(at(t));
  }
  EXPECT_LE(model.segment_count(), 80u);
  // Backwards replay stays exact.
  GaussMarkov oracle{{}, {50.0, 50.0}, Rng{29}};
  EXPECT_EQ(model.position_at(at(10.0)), oracle.position_at(at(10.0)));
}

// --- Segment history: exact against a fresh model ----------------------------

// Drives one long-lived model through a random mix of forward steps,
// repeats, short backward jumps, long forward jumps (which prune the
// history) and jumps far back (behind the prune base). Every answer must be
// bit-equal to a fresh model's, queried at that time alone.
template <typename Make>
void expect_history_parity(const Make& make, std::uint64_t seed) {
  const std::shared_ptr<const MobilityModel> model = make();
  Rng pattern{seed};
  std::int64_t t_us = 0;
  for (int step = 0; step < 300; ++step) {
    const double roll = pattern.next_double();
    if (roll < 0.45) {
      t_us += pattern.uniform_int(1, 2'000'000);
    } else if (roll < 0.6) {
      // Repeat the previous time.
    } else if (roll < 0.8) {
      t_us -= pattern.uniform_int(1, 5'000'000);
      t_us = std::max<std::int64_t>(t_us, 0);
    } else if (roll < 0.9) {
      t_us += pattern.uniform_int(20'000'000, 150'000'000);
    } else {
      t_us = pattern.uniform_int(0, t_us / 2);
    }
    const SimTime t{microseconds(t_us)};
    const std::shared_ptr<const MobilityModel> fresh = make();
    if (pattern.next_double() < 0.5) {
      EXPECT_EQ(model->position_at(t), fresh->position_at(t))
          << "step " << step << " t_us " << t_us;
    } else {
      EXPECT_EQ(model->velocity_at(t), fresh->velocity_at(t))
          << "step " << step << " t_us " << t_us;
    }
  }
}

RandomWaypoint::Config small_area() {
  // Short segments, so the history crosses the prune watermark quickly.
  RandomWaypoint::Config config;
  config.area_max = {20.0, 20.0};
  config.pause = seconds(0.5);
  return config;
}

TEST(SegmentHistory, RandomWaypointMatchesFreshModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    expect_history_parity(
        [seed] {
          return std::make_shared<RandomWaypoint>(small_area(),
                                                  Vec2{5.0, 5.0}, Rng{seed});
        },
        seed);
  }
}

TEST(SegmentHistory, GaussMarkovMatchesFreshModel) {
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    expect_history_parity(
        [seed] {
          return std::make_shared<GaussMarkov>(GaussMarkov::Config{},
                                               Vec2{50.0, 50.0}, Rng{seed});
        },
        seed);
  }
}

TEST(SegmentHistory, GroupMemberMatchesFreshModel) {
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    expect_history_parity(
        [seed] {
          auto reference = std::make_shared<RandomWaypoint>(
              small_area(), Vec2{10.0, 10.0}, Rng{seed});
          return std::make_shared<GroupMember>(
              reference, Vec2{1.0, -1.0}, GroupMember::Config{},
              Rng{seed + 100});
        },
        seed);
  }
}

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, 4.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 6.0}));
  EXPECT_EQ(b - a, (Vec2{2.0, 2.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_DOUBLE_EQ(distance(a, b), std::hypot(2.0, 2.0));
}

}  // namespace
}  // namespace peerhood::sim
