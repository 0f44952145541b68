#include "sim/mobility.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>

#include "forwarding_model.hpp"

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

// --- Segment history: exact against a fresh model ----------------------------

// Drives one long-lived model through a random mix of forward steps,
// repeats, short backward jumps, long forward jumps (which prune the
// history) and jumps far back (behind the prune base). A quarter of the
// times are snapped onto a segment boundary: down to a multiple of
// `boundary`, or to `boundary` itself. Every answer must be bit-equal to a
// fresh model's, queried at that time alone.
template <typename Make>
void expect_history_parity(const Make& make, std::uint64_t seed,
                           SimDuration boundary) {
  const std::shared_ptr<const MobilityModel> model = make();
  Rng pattern{seed};
  std::int64_t t_us = 0;
  const std::int64_t boundary_us = boundary.count();
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
    if (pattern.next_double() < 0.25) {
      t_us = pattern.next_double() < 0.2 ? boundary_us
                                          : t_us / boundary_us * boundary_us;
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
  // The initial pause's end is the one boundary known in advance.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    expect_history_parity(
        [seed] {
          return std::make_shared<RandomWaypoint>(small_area(),
                                                  Vec2{5.0, 5.0}, Rng{seed});
        },
        seed, small_area().pause);
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
        seed, GroupMember::Config{}.update_interval);
  }
}

TEST(SegmentHistory, CopiedModelContinuesItsOwnWalk) {
  // Mid-walk, a copy must own its leg history, cursor and RNG stream, so
  // interleaved queries of the two never disturb each other.
  RandomWaypoint original{small_area(), {5.0, 5.0}, Rng{31}};
  (void)original.position_at(at(50.0));
  const RandomWaypoint copy = original;
  const RandomWaypoint fresh{small_area(), {5.0, 5.0}, Rng{31}};
  for (double t = 50.5; t < 150.0; t += 1.3) {
    EXPECT_EQ(copy.position_at(at(t)), fresh.position_at(at(t))) << t;
    EXPECT_EQ(original.velocity_at(at(t)), fresh.velocity_at(at(t))) << t;
  }
}

// At an exact segment boundary every model answers from the segment that
// departs there (the right-hand derivative of mobility.hpp), whether or not
// a later time was queried first.
template <typename Make>
void expect_boundary_ignores_history(const Make& make, SimTime boundary,
                                     SimTime later) {
  const std::shared_ptr<const MobilityModel> fresh = make();
  const std::shared_ptr<const MobilityModel> primed = make();
  (void)primed->position_at(later);
  EXPECT_EQ(primed->velocity_at(boundary), fresh->velocity_at(boundary));
  EXPECT_EQ(primed->position_at(boundary), fresh->position_at(boundary));
}

TEST(SegmentBoundary, RandomWaypointPauseEndIgnoresHistory) {
  // Default 2 s initial pause: at its end the walk has started.
  expect_boundary_ignores_history(
      [] {
        return std::make_shared<RandomWaypoint>(RandomWaypoint::Config{},
                                                Vec2{50.0, 50.0}, Rng{3});
      },
      at(2.0), at(3.0));
  RandomWaypoint model{{}, {50.0, 50.0}, Rng{3}};
  EXPECT_NE(model.velocity_at(at(2.0)), (Vec2{0.0, 0.0}));
}

TEST(SegmentBoundary, GroupMemberRetargetIgnoresHistory) {
  GroupMember::Config config;
  config.deviation_radius_m = 0.8;
  for (const double t : {4.0, 8.0, 12.0}) {
    expect_boundary_ignores_history(
        [config] {
          return std::make_shared<GroupMember>(
              std::make_shared<StaticPosition>(Vec2{10.0, 10.0}),
              Vec2{1.0, 0.0}, config, Rng{5});
        },
        at(t), at(t + 1.0));
  }
}

// --- Walk hash: the generated walks are pinned bit for bit ---------------

// FNV-1a over the bit patterns of position_at and velocity_at of one model,
// queried 3,000 times on a seeded schedule: forward steps, repeats, short
// and far backward jumps, far forward jumps (which prune the history), with
// a quarter of the times snapped onto a multiple of `boundary`. A change to
// a model's draw order, leg arithmetic or boundary convention changes the
// hash.
std::uint64_t walk_hash(const MobilityModel& model, std::uint64_t seed,
                        SimDuration boundary) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](Vec2 v) {
    for (const double d : {v.x, v.y}) {
      hash = (hash ^ std::bit_cast<std::uint64_t>(d)) * 0x100000001b3ULL;
    }
  };
  Rng pattern{seed};
  std::int64_t t_us = 0;
  const std::int64_t boundary_us = boundary.count();
  for (int step = 0; step < 3000; ++step) {
    const double roll = pattern.next_double();
    if (roll < 0.5) {
      t_us += pattern.uniform_int(1, 1'500'000);
    } else if (roll < 0.6) {
      // Repeat the previous time.
    } else if (roll < 0.8) {
      t_us = std::max<std::int64_t>(0, t_us - pattern.uniform_int(1, 5'000'000));
    } else if (roll < 0.9) {
      t_us += pattern.uniform_int(20'000'000, 400'000'000);
    } else {
      t_us = pattern.uniform_int(0, t_us / 2);
    }
    if (pattern.next_double() < 0.25) t_us = t_us / boundary_us * boundary_us;
    const SimTime t{microseconds(t_us)};
    mix(model.position_at(t));
    mix(model.velocity_at(t));
  }
  return hash;
}

TEST(WalkHash, GeneratedWalksAreBitStable) {
  const auto path = std::make_shared<WaypointPath>(
      std::vector<WaypointPath::Waypoint>{{at(0.0), {0.0, 0.0}},
                                          {at(10.0), {10.0, 0.0}},
                                          {at(30.0), {10.0, 30.0}}});
  const auto walk = std::make_shared<RandomWaypoint>(
      small_area(), Vec2{10.0, 10.0}, Rng{6});
  GroupMember::Config still;
  still.deviation_radius_m = 0.0;
  std::uint64_t random_default = 0;
  std::uint64_t random_small = 0;
  std::uint64_t group_path = 0;
  std::uint64_t group_walk = 0;
  std::uint64_t group_still = 0;
  // Each sum is over fresh models, so every seed's hash counts once.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    random_default += walk_hash(
        RandomWaypoint{{}, {50.0, 50.0}, Rng{seed}}, seed, seconds(2.0));
    random_small += walk_hash(
        RandomWaypoint{small_area(), {5.0, 5.0}, Rng{seed}}, seed,
        small_area().pause);
    group_path += walk_hash(
        GroupMember{path, {1.0, -1.0}, {}, Rng{seed + 100}}, seed,
        seconds(4.0));
    // Over a fresh walk, so the reference's own history does not depend
    // on the seeds before.
    group_walk += walk_hash(
        GroupMember{std::make_shared<RandomWaypoint>(*walk), {1.0, -1.0}, {},
                    Rng{seed + 200}},
        seed, seconds(4.0));
    group_still += walk_hash(
        GroupMember{std::make_shared<RandomWaypoint>(*walk), {2.0, 0.5},
                    still, Rng{seed + 300}},
        seed, small_area().pause);
  }
  EXPECT_EQ(random_default, 943118308762712251ULL);
  EXPECT_EQ(random_small, 18390587335224192518ULL);
  EXPECT_EQ(group_path, 10846265213145376449ULL);
  EXPECT_EQ(group_walk, 11593575834152295966ULL);
  EXPECT_EQ(group_still, 6730690878041790638ULL);
}

// --- max_speed(): the bound the medium's horizons rest on -----------------

constexpr double kUnbounded = std::numeric_limits<double>::infinity();

// |p(t2) - p(t1)| <= max_speed * (t2 - t1) + kPositionSlackM over seeded
// pairs in [0, 2 * horizon_us]: gaps from 1 us to `horizon_us`, a fifth of
// them starting on a multiple of `boundary` (a segment or waypoint edge)
// and a fifth ending on one. The model is queried in pair order, so its
// history goes forwards and back.
void expect_speed_bounded(const MobilityModel& model, std::uint64_t seed,
                          SimDuration boundary, std::int64_t horizon_us,
                          double slack_m = kPositionSlackM) {
  const double bound = model.max_speed();
  ASSERT_TRUE(std::isfinite(bound));
  Rng pattern{seed};
  const std::int64_t boundary_us = boundary.count();
  double tightest = 0.0;  // the largest |dp| / bound seen
  for (int pair = 0; pair < 3000; ++pair) {
    std::int64_t t1 = pattern.uniform_int(0, horizon_us);
    const double roll = pattern.next_double();
    const std::int64_t gap =
        roll < 0.4   ? pattern.uniform_int(1, 50)
        : roll < 0.7 ? pattern.uniform_int(1, 200'000)
                     : pattern.uniform_int(1, horizon_us);
    std::int64_t t2 = t1 + gap;
    const double snap = pattern.next_double();
    if (snap < 0.2) {
      t1 = t1 / boundary_us * boundary_us;
    } else if (snap < 0.4) {
      t2 = std::max(t1, t2 / boundary_us * boundary_us);
    }
    const Vec2 p1 = model.position_at(SimTime{microseconds(t1)});
    const Vec2 p2 = model.position_at(SimTime{microseconds(t2)});
    const double moved = distance(p1, p2);
    const double allowed =
        bound * static_cast<double>(t2 - t1) * 1e-6 + slack_m;
    EXPECT_LE(moved, allowed) << "pair " << pair << " t1_us " << t1
                              << " t2_us " << t2;
    if (t2 > t1) {
      tightest = std::max(tightest, moved / (static_cast<double>(t2 - t1) *
                                             1e-6));
    }
  }
  // The walk does move at (nearly) its bound: the test has teeth.
  if (bound > 0.0) EXPECT_GT(tightest, 0.3 * bound);
}

TEST(MaxSpeed, StaticAndLinear) {
  EXPECT_EQ(StaticPosition({1.0, 2.0}).max_speed(), 0.0);
  const LinearMotion linear{{0.0, 0.0}, {3.0, 4.0}, at(1.0)};
  EXPECT_EQ(linear.max_speed(), 5.0);
  expect_speed_bounded(linear, 1, seconds(1.0), 30'000'000);
}

TEST(MaxSpeed, WaypointPathIsItsFastestLeg) {
  // Legs at 1, 4 and 0.5 m/s, with a zero-span leg that stays put.
  const WaypointPath path{{{at(0.0), {0.0, 0.0}},
                           {at(2.0), {2.0, 0.0}},
                           {at(2.0), {2.0, 0.0}},
                           {at(3.0), {2.0, 4.0}},
                           {at(5.0), {2.0, 5.0}}}};
  EXPECT_DOUBLE_EQ(path.max_speed(), 4.0);
  expect_speed_bounded(path, 2, seconds(1.0), 6'000'000);
}

TEST(MaxSpeed, WaypointPathJumpIsUnbounded) {
  // Two waypoints at one instant, apart: the path jumps there.
  const WaypointPath path{{{at(0.0), {0.0, 0.0}},
                           {at(1.0), {1.0, 0.0}},
                           {at(1.0), {3.0, 0.0}},
                           {at(2.0), {3.0, 1.0}}}};
  EXPECT_EQ(path.max_speed(), kUnbounded);
  EXPECT_GT(distance(path.position_at(SimTime{microseconds(999'999)}),
                     path.position_at(at(1.0))),
            1.9);
}

TEST(MaxSpeed, RandomWaypointDefaultWalk) {
  const RandomWaypoint::Config config;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const RandomWaypoint walk{config, {50.0, 50.0}, Rng{seed}};
    EXPECT_EQ(walk.max_speed(), config.speed_max_mps);
    expect_speed_bounded(walk, seed, config.pause, 300'000'000);
  }
}

TEST(MaxSpeed, RandomWaypointLegsShorterThanAMillisecond) {
  // A half-millimetre area: every leg lasts under 1 ms, so the microsecond
  // cut of its travel time is a large share of it. Pauses of 1 ms and of
  // 1 us, the shortest that gives the cut back.
  for (const SimDuration pause : {milliseconds(1), microseconds(1)}) {
    RandomWaypoint::Config config;
    config.area_max = {5e-4, 5e-4};
    config.speed_min_mps = 1.0;
    config.speed_max_mps = 1.5;
    config.pause = pause;
    for (const std::uint64_t seed : {4u, 5u}) {
      const RandomWaypoint walk{config, {2e-4, 2e-4}, Rng{seed}};
      // The slack the cut needs: one microsecond at the top speed.
      expect_speed_bounded(walk, seed, pause, 100'000,
                           config.speed_max_mps * 1e-6 + 1e-12);
    }
  }
}

TEST(MaxSpeed, RandomWaypointWithoutPauseOrMinimumSpeedIsUnbounded) {
  RandomWaypoint::Config no_pause;
  no_pause.pause = SimDuration{0};
  EXPECT_EQ(RandomWaypoint(no_pause, {1.0, 1.0}, Rng{1}).max_speed(),
            kUnbounded);
  RandomWaypoint::Config standstill;
  standstill.speed_min_mps = 0.0;
  EXPECT_EQ(RandomWaypoint(standstill, {1.0, 1.0}, Rng{1}).max_speed(),
            kUnbounded);
}

TEST(MaxSpeed, GroupMemberAddsItsDeviation) {
  GroupMember::Config config;
  config.deviation_radius_m = 0.8;
  config.update_interval = seconds(4.0);
  const auto path = std::make_shared<WaypointPath>(
      std::vector<WaypointPath::Waypoint>{{at(0.0), {0.0, 0.0}},
                                          {at(10.0), {10.0, 0.0}},
                                          {at(30.0), {10.0, 30.0}}});
  const auto walk = std::make_shared<RandomWaypoint>(
      small_area(), Vec2{10.0, 10.0}, Rng{6});
  for (const auto& reference :
       {std::shared_ptr<const MobilityModel>{path},
        std::shared_ptr<const MobilityModel>{walk}}) {
    for (const std::uint64_t seed : {7u, 8u}) {
      const GroupMember member{reference, {1.0, -1.0}, config, Rng{seed}};
      EXPECT_DOUBLE_EQ(member.max_speed(), reference->max_speed() + 0.4);
      expect_speed_bounded(member, seed, config.update_interval, 60'000'000);
    }
  }
  // Without a deviation the member moves exactly as its reference.
  config.deviation_radius_m = 0.0;
  EXPECT_EQ(GroupMember(path, {}, config, Rng{1}).max_speed(),
            path->max_speed());
}

TEST(MaxSpeed, UnboundedModelsReportInfinity) {
  const auto unbounded = std::make_shared<testing::ForwardingModel>(
      std::make_shared<StaticPosition>(Vec2{}));
  EXPECT_EQ(unbounded->max_speed(), kUnbounded);
  // A member of an unbounded group is unbounded too.
  EXPECT_EQ(
      GroupMember(unbounded, {}, GroupMember::Config{}, Rng{2}).max_speed(),
      kUnbounded);
}

// A non-positive update interval used to make the walk append legs forever;
// the constructors refuse it.
TEST(MobilityConfig, NonPositiveUpdateIntervalIsRefused) {
  for (const SimDuration interval : {SimDuration{0}, SimDuration{-1}}) {
    GroupMember::Config group;
    group.update_interval = interval;
    const auto reference = std::make_shared<StaticPosition>(Vec2{});
    EXPECT_THROW(GroupMember(reference, {}, group, Rng{1}),
                 std::invalid_argument);
    // A deviation that never moves never extends, so it is allowed.
    group.deviation_radius_m = 0.0;
    const GroupMember still{reference, {2.0, 0.0}, group, Rng{1}};
    EXPECT_EQ(still.position_at(at(5.0)), (Vec2{2.0, 0.0}));
    EXPECT_EQ(still.max_speed(), 0.0);
  }
}

// A walk without a pause whose legs can only end where they depart used to
// append them forever; the constructor refuses each such config.
RandomWaypoint::Config no_pause_walk() {
  RandomWaypoint::Config config;
  config.pause = SimDuration{0};
  return config;
}

TEST(MobilityConfig, RandomWaypointWithoutSpeedOrPauseIsRefused) {
  RandomWaypoint::Config config = no_pause_walk();
  config.speed_min_mps = 0.0;
  config.speed_max_mps = 0.0;
  EXPECT_THROW(RandomWaypoint(config, {1.0, 1.0}, Rng{1}),
               std::invalid_argument);
  // With a pause every leg ends later than it departs.
  config.pause = milliseconds(1);
  const RandomWaypoint paused{config, {1.0, 1.0}, Rng{1}};
  (void)paused.position_at(at(10.0));
}

TEST(MobilityConfig, RandomWaypointAreaTooSmallForAMicrosecondIsRefused) {
  RandomWaypoint::Config config = no_pause_walk();
  config.area_max = {1e-7, 1e-7};  // crossed in 0.3 us at 0.5 m/s
  EXPECT_THROW(RandomWaypoint(config, {0.0, 0.0}, Rng{1}),
               std::invalid_argument);
  config.area_max = {5e-7, 0.0};  // crossed in exactly 1 us
  EXPECT_THROW(RandomWaypoint(config, {0.0, 0.0}, Rng{1}),
               std::invalid_argument);
  config.area_max = config.area_min;  // a single point
  EXPECT_THROW(RandomWaypoint(config, {0.0, 0.0}, Rng{1}),
               std::invalid_argument);
  // An area crossed in 2 us at the slowest speed can still travel.
  config.area_max = {1e-6, 0.0};
  const RandomWaypoint tiny{config, {0.0, 0.0}, Rng{1}};
  (void)tiny.position_at(at(0.001));
}

TEST(MobilityConfig, RandomWaypointNegativePauseIsRefused) {
  RandomWaypoint::Config config;
  config.pause = SimDuration{-1};
  EXPECT_THROW(RandomWaypoint(config, {1.0, 1.0}, Rng{1}),
               std::invalid_argument);
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
