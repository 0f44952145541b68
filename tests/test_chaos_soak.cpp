// Chaos soak: the canned scenarios run under the full fault matrix — bursty
// (Gilbert–Elliott) loss above 10%, corruption, duplication, reorder jitter
// and one mid-run partition — across multiple seeds. The stack must keep its
// sessions alive: traffic flows again after the partition heals, discovery
// re-converges once the faults clear, and the whole run replays bit-identically
// from the same (seed, schedule) pair. Runs under ASan/UBSan in CI, so any
// memory error the fault paths provoke fails the suite.
#include <gtest/gtest.h>

#include "scenario/scenario.hpp"

namespace peerhood::scenario {
namespace {

// Bursty loss: stationary bad-state share p_g2b/(p_g2b+p_b2g) = 1/6, so the
// average loss rate is ~0.03*(5/6) + 0.6*(1/6) ~= 12% before quality
// coupling — comfortably above the 10% floor the soak demands.
sim::FaultProfile soak_profile() {
  sim::FaultProfile profile;
  profile.loss_good = 0.03;
  profile.loss_bad = 0.6;
  profile.p_good_to_bad = 0.05;
  profile.p_bad_to_good = 0.25;
  profile.quality_coupling = 0.5;
  profile.corrupt_prob = 0.02;
  profile.duplicate_prob = 0.05;
  profile.reorder_prob = 0.1;
  return profile;
}

// One mid-run partition: `isolated` is cut off from everything in `rest`
// during [20s, 30s) of the body. Traffic before 20s and after 30s proves the
// sessions survive the outage rather than merely predating it.
constexpr double kCutStart = 20.0;
constexpr double kCutEnd = 30.0;

FaultScheduleSpec soak_faults(std::vector<std::string> isolated,
                              std::vector<std::string> rest) {
  FaultScheduleSpec faults;
  faults.profiles.push_back({Technology::kBluetooth, soak_profile()});
  FaultScheduleSpec::Partition cut;
  cut.side_a = std::move(isolated);
  cut.side_b = std::move(rest);
  cut.start_s = kCutStart;
  cut.duration_s = kCutEnd - kCutStart;
  faults.partitions.push_back(cut);
  return faults;
}

struct SoakOutcome {
  ScenarioMetrics metrics;
  bool discovery_reconverged{false};
};

// Runs one scenario under the soak schedule, then clears the fault plane and
// checks that discovery re-converges: the (possibly evicted) client->server
// record is re-learned within a few fault-free rounds.
SoakOutcome run_soak(ScenarioSpec spec) {
  ScenarioRunner runner{std::move(spec)};
  const Status status = runner.setup();
  EXPECT_TRUE(status.ok()) << status.error().to_string();
  if (!status.ok()) return {};
  runner.run();

  SoakOutcome outcome;
  outcome.metrics = runner.metrics();

  // Faults heal: profiles back to fault-free, the partition window has
  // already expired. A few discovery rounds must restore the client's view
  // of its server.
  runner.testbed().medium().fault_plane().set_profile(Technology::kBluetooth,
                                                      sim::FaultProfile{});
  runner.testbed().run_discovery_rounds(4);
  node::Node& client =
      runner.testbed().node(runner.spec().sessions[0].client);
  const MacAddress server_mac =
      runner.testbed().node(runner.spec().sessions[0].server).mac();
  outcome.discovery_reconverged = client.daemon().storage().contains(server_mac);
  return outcome;
}

void check_fault_matrix_fired(const sim::FaultStats& stats) {
  // Every fault kind in the matrix must actually have fired — a soak that
  // silently runs fault-free proves nothing.
  EXPECT_GT(stats.frames_seen, 0u);
  EXPECT_GT(stats.loss_drops, 0u);
  EXPECT_GT(stats.burst_entries, 0u);
  EXPECT_GT(stats.blackout_drops, 0u);
  EXPECT_GT(stats.corrupted, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.reordered, 0u);
}

TEST(ChaosSoak, CorridorSurvivesFaultMatrixAcrossSeeds) {
  for (const std::uint64_t seed : {101u, 102u, 103u, 104u, 105u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ScenarioSpec spec = corridor_walk(seed, /*predictive=*/true);
    spec.faults = soak_faults({"walker"}, {"server", "bridge"});
    const SoakOutcome outcome = run_soak(std::move(spec));
    ASSERT_EQ(outcome.metrics.sessions.size(), 1u);
    const SessionMetrics& session = outcome.metrics.sessions[0];
    EXPECT_TRUE(session.connected);
    check_fault_matrix_fired(outcome.metrics.fault_stats);
    // Corrupted frames were caught by the transport's frame check, not
    // delivered as garbage.
    EXPECT_GT(outcome.metrics.net_stats.corrupt_drops, 0u);
    // Recovery: at most ~kCutEnd messages can have arrived before the
    // partition healed (1 msg/s), so clearing this floor means the session
    // delivered traffic *after* the faults' worst window.
    EXPECT_GT(session.received, static_cast<std::uint64_t>(kCutEnd) + 10);
    EXPECT_TRUE(outcome.discovery_reconverged);
  }
}

TEST(ChaosSoak, ChurnSurvivesFaultMatrixAcrossSeeds) {
  for (const std::uint64_t seed : {201u, 202u, 203u, 204u, 205u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ScenarioSpec spec = churn(seed, /*predictive=*/true);
    // Isolate both servers: every session must ride out the window on top
    // of the anchor churn that is already cycling routes.
    spec.faults = soak_faults({"srv"}, {"mob", "anchor"});
    const SoakOutcome outcome = run_soak(std::move(spec));
    ASSERT_EQ(outcome.metrics.sessions.size(), 2u);
    check_fault_matrix_fired(outcome.metrics.fault_stats);
    EXPECT_GT(outcome.metrics.net_stats.corrupt_drops, 0u);
    for (const SessionMetrics& session : outcome.metrics.sessions) {
      EXPECT_TRUE(session.connected);
    }
    // Post-heal recovery across the pair: at 1 msg/s per session, a pair
    // that died with the partition can have received at most kCutEnd*2
    // frames even on a lossless medium (in practice far fewer, the chaos
    // profile eats ~25%) — so clearing that ceiling proves frames arrived
    // *after* the faults' worst window.
    EXPECT_GT(outcome.metrics.total_received(),
              static_cast<std::uint64_t>(kCutEnd) * 2);
    EXPECT_TRUE(outcome.discovery_reconverged);
  }
}

TEST(ChaosSoak, SameSeedAndScheduleReplayIdentically) {
  const auto run_once = [] {
    ScenarioSpec spec = corridor_walk(77, /*predictive=*/true);
    spec.faults = soak_faults({"walker"}, {"server", "bridge"});
    return run_soak(std::move(spec));
  };
  const SoakOutcome a = run_once();
  const SoakOutcome b = run_once();
  EXPECT_EQ(a.metrics.total_sent(), b.metrics.total_sent());
  EXPECT_EQ(a.metrics.total_received(), b.metrics.total_received());
  EXPECT_EQ(a.metrics.total_handovers(), b.metrics.total_handovers());
  EXPECT_EQ(a.metrics.medium_frames, b.metrics.medium_frames);
  EXPECT_DOUBLE_EQ(a.metrics.total_outage_s(), b.metrics.total_outage_s());
  EXPECT_EQ(a.metrics.net_stats.corrupt_drops,
            b.metrics.net_stats.corrupt_drops);
  const sim::FaultStats& fa = a.metrics.fault_stats;
  const sim::FaultStats& fb = b.metrics.fault_stats;
  EXPECT_EQ(fa.frames_seen, fb.frames_seen);
  EXPECT_EQ(fa.loss_drops, fb.loss_drops);
  EXPECT_EQ(fa.blackout_drops, fb.blackout_drops);
  EXPECT_EQ(fa.corrupted, fb.corrupted);
  EXPECT_EQ(fa.duplicated, fb.duplicated);
  EXPECT_EQ(fa.reordered, fb.reordered);
  EXPECT_EQ(fa.burst_entries, fb.burst_entries);
}

// The fault-free regression guard: an empty FaultScheduleSpec must leave the
// run byte-identical to a build that never heard of the fault plane — the
// model is not even constructed, so no RNG stream shifts.
TEST(ChaosSoak, EmptyScheduleLeavesScenarioUntouched) {
  ScenarioSpec with_empty = corridor_walk(7, /*predictive=*/true);
  EXPECT_TRUE(with_empty.faults.empty());
  ScenarioRunner runner{std::move(with_empty)};
  ASSERT_TRUE(runner.setup().ok());
  runner.run();
  // Matches ScenarioRunner.CorridorRunsTrafficAndMeasures — the pre-fault
  // baseline assertions still hold bit-for-bit.
  EXPECT_FALSE(runner.testbed().medium().has_fault_plane());
  const sim::FaultStats& stats = runner.metrics().fault_stats;
  EXPECT_EQ(stats.frames_seen, 0u);
  EXPECT_EQ(runner.metrics().net_stats.corrupt_drops, 0u);
  EXPECT_GT(runner.metrics().total_sent(), 80u);
  EXPECT_LE(runner.metrics().frames_lost(), 3u);
}

}  // namespace
}  // namespace peerhood::scenario
