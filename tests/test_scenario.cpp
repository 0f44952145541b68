// Scenario subsystem (PR 5): trace loading, MobilitySpec factories, and the
// declarative ScenarioRunner — setup, traffic, metrics, determinism.
#include <gtest/gtest.h>

#include "scenario/scenario.hpp"

namespace peerhood::scenario {
namespace {

TEST(WaypointTrace, ParsesTimedPositions) {
  const auto result = parse_waypoint_trace(
      "# a short corridor walk\n"
      "0 2.0 0.0\n"
      "60 2.0 0.0   # hold\n"
      "\n"
      "74 16.0 0.0\n");
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const auto& waypoints = result.value();
  ASSERT_EQ(waypoints.size(), 3u);
  EXPECT_EQ(waypoints[0].position, (sim::Vec2{2.0, 0.0}));
  EXPECT_EQ(waypoints[2].at, SimTime{} + seconds(74.0));
  EXPECT_EQ(waypoints[2].position, (sim::Vec2{16.0, 0.0}));

  // Round-trips into a WaypointPath model.
  sim::WaypointPath path{waypoints};
  EXPECT_EQ(path.position_at(SimTime{} + seconds(67.0)),
            (sim::Vec2{9.0, 0.0}));
}

TEST(WaypointTrace, RejectsMalformedInput) {
  EXPECT_FALSE(parse_waypoint_trace("").ok());
  EXPECT_FALSE(parse_waypoint_trace("# only comments\n").ok());
  EXPECT_FALSE(parse_waypoint_trace("0 1.0\n").ok());           // missing y
  EXPECT_FALSE(parse_waypoint_trace("0 1 2 3\n").ok());         // extra field
  EXPECT_FALSE(parse_waypoint_trace("5 1 1\n3 2 2\n").ok());    // time order
  EXPECT_FALSE(parse_waypoint_trace("-1 0 0\n").ok());          // negative t
}

TEST(WaypointTrace, MissingFileReportsError) {
  const auto result = load_waypoint_trace("/nonexistent/trace.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidArgument);
}

TEST(MobilitySpecBuild, EveryKindProducesAModel) {
  Rng rng{1};
  MobilitySpec spec;
  spec.kind = MobilitySpec::Kind::kStatic;
  spec.start = {1.0, 2.0};
  auto built = spec.build(rng.fork(), {1.0, 0.0});
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->position_at(SimTime{}), (sim::Vec2{2.0, 2.0}));
  EXPECT_TRUE(built->is_static());

  spec.kind = MobilitySpec::Kind::kTrace;
  spec.trace = "0 0 0\n10 5 0\n";
  built = spec.build(rng.fork());
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->position_at(SimTime{} + seconds(4.0)),
            (sim::Vec2{2.0, 0.0}));

  spec.kind = MobilitySpec::Kind::kGaussMarkov;
  EXPECT_NE(spec.build(rng.fork()), nullptr);
  spec.kind = MobilitySpec::Kind::kRandomWaypoint;
  EXPECT_NE(spec.build(rng.fork()), nullptr);

  // kGroup without a reference is a spec error.
  spec.kind = MobilitySpec::Kind::kGroup;
  EXPECT_EQ(spec.build(rng.fork()), nullptr);
  EXPECT_NE(spec.build(rng.fork(), {},
                       std::make_shared<sim::StaticPosition>(sim::Vec2{})),
            nullptr);
}

TEST(ScenarioRunner, CorridorRunsTrafficAndMeasures) {
  ScenarioRunner runner{corridor_walk(7, /*predictive=*/true)};
  ASSERT_TRUE(runner.setup().ok());
  runner.run();
  const ScenarioMetrics& m = runner.metrics();
  ASSERT_EQ(m.sessions.size(), 1u);
  EXPECT_TRUE(m.sessions[0].connected);
  // ~1 message/s over a 100+ s body, essentially all delivered.
  EXPECT_GT(m.total_sent(), 80u);
  EXPECT_LE(m.frames_lost(), 3u);
  EXPECT_GE(m.total_handovers(), 1u);
  EXPECT_GT(m.medium_frames, m.total_received());
  EXPECT_GT(m.quality_observer_evals, 0u);
}

TEST(ScenarioRunner, SameSeedIsDeterministic) {
  ScenarioRunner a{corridor_walk(3, true)};
  ScenarioRunner b{corridor_walk(3, true)};
  ASSERT_TRUE(a.setup().ok());
  ASSERT_TRUE(b.setup().ok());
  a.run();
  b.run();
  EXPECT_EQ(a.metrics().total_sent(), b.metrics().total_sent());
  EXPECT_EQ(a.metrics().total_received(), b.metrics().total_received());
  EXPECT_EQ(a.metrics().total_handovers(), b.metrics().total_handovers());
  EXPECT_EQ(a.metrics().medium_frames, b.metrics().medium_frames);
  EXPECT_DOUBLE_EQ(a.metrics().total_outage_s(),
                   b.metrics().total_outage_s());
}

TEST(ScenarioRunner, GroupScenarioBuildsAllMembersAndSessions) {
  ScenarioSpec spec = group_walk(5, /*predictive=*/true, 4);
  ScenarioRunner runner{std::move(spec)};
  ASSERT_TRUE(runner.setup().ok());
  // server0, bridge0, member0..3 all exist (node() throws on a miss).
  EXPECT_NO_THROW((void)runner.testbed().node("member3"));
  runner.run();
  EXPECT_EQ(runner.metrics().sessions.size(), 2u);
  EXPECT_GT(runner.metrics().total_sent(), 100u);
}

TEST(ScenarioRunner, UnknownServiceFailsSetup) {
  ScenarioSpec spec = corridor_walk(1, true);
  spec.sessions[0].service = "no-such-service";
  ScenarioRunner runner{std::move(spec)};
  EXPECT_FALSE(runner.setup().ok());
}

TEST(ScenarioRunner, ShardsOtherThanOneFailSetup) {
  ScenarioSpec spec = corridor_walk(1, true);
  EXPECT_EQ(spec.shards, 1u);
  spec.shards = 2;
  ScenarioRunner rejected{std::move(spec)};
  const Status status = rejected.setup();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(status.error().message.find("ScenarioSpec::shards"),
            std::string::npos);

  ScenarioRunner runner{corridor_walk(1, true)};
  ASSERT_TRUE(runner.setup().ok());
  runner.run();
  EXPECT_GT(runner.metrics().total_sent(), 0u);
}

}  // namespace
}  // namespace peerhood::scenario
