// Scenario subsystem: MobilitySpec factories and the declarative
// ScenarioRunner — setup, traffic, metrics, determinism.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "forwarding_model.hpp"
#include "scenario/scenario.hpp"

namespace peerhood::scenario {
namespace {

TEST(MobilitySpecBuild, EveryKindProducesAModel) {
  Rng rng{1};
  MobilitySpec spec;
  spec.kind = MobilitySpec::Kind::kStatic;
  spec.start = {1.0, 2.0};
  auto built = spec.build(rng.fork(), {1.0, 0.0});
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->position_at(SimTime{}), (sim::Vec2{2.0, 2.0}));
  EXPECT_TRUE(built->is_static());

  spec.kind = MobilitySpec::Kind::kWaypoints;
  spec.waypoints = {{SimTime{}, {0.0, 0.0}},
                    {SimTime{} + seconds(10.0), {5.0, 0.0}}};
  built = spec.build(rng.fork());
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->position_at(SimTime{} + seconds(4.0)),
            (sim::Vec2{2.0, 0.0}));

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

// --- Quality-plane work, pinned ----------------------------------------------

// The bursty-loss profile with corruption, duplication and reorder that
// bench_chaos calls full chaos.
sim::FaultProfile full_chaos() {
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

struct PlaneWork {
  std::uint64_t evaluations;
  std::uint64_t observer_evals;
  std::uint64_t events_emitted;
  std::uint64_t frames;
};

// Set-up plus body of one scenario: how often the medium measured a link,
// re-checked an observer, pushed a crossing and carried a frame.
PlaneWork run_and_count(ScenarioSpec spec) {
  ScenarioRunner runner{std::move(spec)};
  EXPECT_TRUE(runner.setup().ok());
  runner.run();
  const sim::QualityStats& quality = runner.testbed().medium().quality_stats();
  return {quality.evaluations, quality.observer_evals, quality.events_emitted,
          runner.testbed().medium().stats().frames};
}

// The group walk under full chaos with reliable sessions that keep
// re-planning a dead link: the shape the benchmark's mobility-chaos
// workload runs. Any change to how often the medium reads a link shows up
// here as an exact count.
ScenarioSpec chaos_group_walk(std::uint64_t seed) {
  ScenarioSpec spec = group_walk(seed, /*predictive=*/true, 4);
  spec.faults.profiles.push_back({Technology::kBluetooth, full_chaos()});
  for (SessionSpec& session : spec.sessions) {
    session.reliable = true;
    session.handover_config.reconnection_enabled = false;
    session.handover_config.direct_resume_enabled = true;
    session.handover_config.max_dead_link_passes = 1000;
  }
  return spec;
}

TEST(ScenarioRunner, ChaosGroupWalkQualityWorkIsPinned) {
  const PlaneWork work = run_and_count(chaos_group_walk(11));
  // Measurements only: re-checks inside a quiet horizon do not measure.
  // SACK recovery resends only the holes, and a stored device's service
  // check is one conditional exchange instead of four, so fewer frames
  // cross the lossy links and the fault plane's draws land on different
  // frames.
  EXPECT_EQ(work.evaluations, 2371u);
  EXPECT_EQ(work.observer_evals, 1817u);
  EXPECT_EQ(work.events_emitted, 3u);
  EXPECT_EQ(work.frames, 1990u);
}

// The office floor with relay daemons stopping and restarting: the shape of
// the benchmark's churn workload. Its discovery plane service-checks every
// stored device each loop, one conditional exchange per device.
TEST(ScenarioRunner, ChurnQualityWorkIsPinned) {
  const PlaneWork work =
      run_and_count(churn(11, /*predictive=*/true, /*nodes=*/12));
  EXPECT_EQ(work.evaluations, 1312u);
  EXPECT_EQ(work.observer_evals, 1843u);
  EXPECT_EQ(work.events_emitted, 15u);
  EXPECT_EQ(work.frames, 2918u);
}

// --- Horizon oracle ------------------------------------------------------------

// Every model behind a ForwardingModel: the medium proves nothing, so every
// observer re-check, frame delivery and keepalive tick measures.
class AlwaysMeasureRunner final : public ScenarioRunner {
 public:
  using ScenarioRunner::ScenarioRunner;

 private:
  std::shared_ptr<const sim::MobilityModel> adopt_model(
      std::shared_ptr<const sim::MobilityModel> model) const override {
    return std::make_shared<testing::ForwardingModel>(std::move(model));
  }
};

struct RunPrint {
  // Every ScenarioMetrics and TrafficStats field, doubles in hex.
  std::string outcome;
  std::uint64_t observer_evals{0};
  std::uint64_t events_emitted{0};
  std::uint64_t evaluations{0};
  // Every crossing pushed to an observer of each node pair.
  std::uint64_t event_hash{0};
  std::uint64_t event_count{0};
};

std::string describe(const ScenarioMetrics& m, const sim::TrafficStats& t) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const SessionMetrics& s : m.sessions) {
    out << "session " << s.connected << ' ' << s.sent << ' ' << s.received
        << ' ' << s.handovers << ' ' << s.predictions << ' '
        << s.predictive_handovers << ' ' << s.reconnections << ' '
        << s.restarts << ' ' << s.dup_or_reorder << ' ' << s.gaps << ' '
        << s.outage_episodes << ' ' << s.outage_s << ' '
        << s.handover_latency_sum_s << ' ' << s.handover_latency_count
        << '\n';
  }
  const sim::FaultStats& f = m.fault_stats;
  out << "body " << m.medium_frames << ' ' << m.medium_frame_bytes << ' '
      << m.quality_observer_evals << ' ' << m.quality_events << ' '
      << m.restart_resumes << ' ' << m.reliable_reorder_drops << ' '
      << m.reliable_malformed_frames << "\nfaults " << f.frames_seen << ' '
      << f.loss_drops << ' ' << f.blackout_drops << ' ' << f.corrupted << ' '
      << f.duplicated << ' ' << f.reordered << ' ' << f.burst_entries << ' '
      << f.node_crashes << ' ' << f.node_restarts << "\nnet "
      << m.net_stats.frames_checked << ' ' << m.net_stats.corrupt_drops << ' '
      << m.net_stats.send_queue_drops << ' '
      << m.net_stats.reconnect_attempts << "\ntraffic " << t.inquiries << ' '
      << t.inquiry_responses << ' ' << t.frames << ' ' << t.frame_bytes << ' '
      << t.drops << '\n';
  return out.str();
}

template <typename Runner>
RunPrint run_print(ScenarioSpec spec) {
  Runner runner{std::move(spec)};
  RunPrint print;
  const Status setup = runner.setup();
  if (!setup.ok()) {
    ADD_FAILURE() << setup.error().to_string();
    return print;
  }
  sim::RadioMedium& medium = runner.testbed().medium();
  print.event_hash = 0xcbf29ce484222325ULL;
  const auto mix = [&print](std::uint64_t word) {
    print.event_hash = (print.event_hash ^ word) * 0x100000001b3ULL;
  };
  // Watch every node pair at the paper's threshold, on top of the
  // sessions' own observers.
  const std::vector<node::Node*> nodes = runner.testbed().nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      (void)medium.observe_quality(
          nodes[i]->mac(), nodes[j]->mac(), Technology::kBluetooth,
          sim::LinkQualityModel::kDefaultThreshold,
          [&](const sim::LinkQualityEvent& e) {
            ++print.event_count;
            for (const std::uint64_t word :
                 {e.a.as_u64(), e.b.as_u64(),
                  static_cast<std::uint64_t>(e.edge),
                  static_cast<std::uint64_t>(e.quality),
                  std::bit_cast<std::uint64_t>(e.slope_per_s),
                  std::bit_cast<std::uint64_t>(e.distance_m),
                  std::bit_cast<std::uint64_t>(e.radial_speed_mps),
                  static_cast<std::uint64_t>(e.at.since_epoch.count())}) {
              mix(word);
            }
          });
    }
  }
  runner.run();
  const sim::QualityStats& quality = medium.quality_stats();
  print.outcome = describe(runner.metrics(), medium.stats());
  print.observer_evals = quality.observer_evals;
  print.events_emitted = quality.events_emitted;
  print.evaluations = quality.evaluations;
  return print;
}

// Proofs change no outcome: with and without them a scenario runs to the
// same metrics, traffic, re-check count and pushed crossings, and measures
// no more often.
template <typename MakeSpec>
void expect_horizons_invisible(const MakeSpec& make_spec,
                               std::uint64_t first_seed, int seeds) {
  std::uint64_t proven_evaluations = 0;
  std::uint64_t measured_evaluations = 0;
  std::uint64_t events = 0;
  for (std::uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
    const RunPrint proven = run_print<ScenarioRunner>(make_spec(seed));
    const RunPrint measured = run_print<AlwaysMeasureRunner>(make_spec(seed));
    EXPECT_EQ(proven.outcome, measured.outcome) << "seed " << seed;
    EXPECT_EQ(proven.observer_evals, measured.observer_evals)
        << "seed " << seed;
    EXPECT_EQ(proven.events_emitted, measured.events_emitted)
        << "seed " << seed;
    EXPECT_EQ(proven.event_hash, measured.event_hash) << "seed " << seed;
    EXPECT_EQ(proven.event_count, measured.event_count) << "seed " << seed;
    EXPECT_LE(proven.evaluations, measured.evaluations) << "seed " << seed;
    proven_evaluations += proven.evaluations;
    measured_evaluations += measured.evaluations;
    events += proven.event_count;
  }
  // The proofs do skip work, and the watched links do cross edges.
  EXPECT_LT(proven_evaluations, measured_evaluations);
  EXPECT_GT(events, 0u);
}

TEST(HorizonOracle, ChaosGroupWalk) {
  expect_horizons_invisible(chaos_group_walk, 1, 70);
}

TEST(HorizonOracle, Churn) {
  // As in the benchmark's churn workload: a client that starts out of its
  // server's range keeps retrying its first connect for 10 minutes.
  expect_horizons_invisible(
      [](std::uint64_t seed) {
        ScenarioSpec spec = churn(seed, true, /*n=*/12);
        spec.connect_deadline_s = 600.0;
        return spec;
      },
      1, 70);
}

TEST(HorizonOracle, CorridorWalk) {
  expect_horizons_invisible(
      [](std::uint64_t seed) { return corridor_walk(seed, true); }, 1, 60);
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
