// Crash soak: the canned scenarios run under the node-crash plane — the
// session server hard-crashes mid-run, an active bridge relay hard-crashes
// mid-relay, and MTBF/MTTR churn cycles relay nodes — across multiple seeds.
// Sessions run over ReliableChannel with the server-side SessionStore
// journal, so every surviving-endpoint session must resume with exactly-once
// in-order delivery (dup_or_reorder == 0, gaps == 0), discovery must
// re-converge after the dust settles, and the whole run must replay
// bit-identically from the same (seed, crash schedule) pair. Runs under
// ASan/UBSan/LSan in CI, so any memory error the crash paths provoke fails
// the suite.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace peerhood::scenario {
namespace {

// Crash scenarios keep the controller alive across the peer's downtime: no
// reconnection to another provider (it would abandon the journalled
// session), many dead-link passes (monitor ticks once per second, so the
// pass budget must outlast the longest downtime plus re-discovery), and the
// direct-resume path that turns a restarted peer's kUnknownSession into a
// kResumeRestart against its journal.
void make_crash_tolerant(SessionSpec& session) {
  session.reliable = true;
  session.handover_config.reconnection_enabled = false;
  session.handover_config.direct_resume_enabled = true;
  session.handover_config.max_dead_link_passes = 1000;
}

// The corridor server hard-crashes 30 s into the body and restarts 10 s
// later.
void add_server_crash(ScenarioSpec& spec) {
  CrashScheduleSpec::Crash crash;
  crash.targets = {"server"};
  crash.at_s = 30.0;
  crash.downtime_s = 10.0;
  spec.crashes.crashes.push_back(crash);
}

struct SoakOutcome {
  ScenarioMetrics metrics;
  bool discovery_reconverged{false};
};

// Runs one scenario under its crash schedule, then checks that discovery
// re-converges: every crash has healed by the end of the body (schedules in
// this suite keep downtime well inside the run), so a few extra rounds must
// restore the client's view of its server.
SoakOutcome run_soak(ScenarioSpec spec) {
  ScenarioRunner runner{std::move(spec)};
  const Status status = runner.setup();
  EXPECT_TRUE(status.ok()) << status.error().to_string();
  if (!status.ok()) return {};
  runner.run();

  SoakOutcome outcome;
  outcome.metrics = runner.metrics();
  runner.testbed().run_discovery_rounds(4);
  node::Node& client =
      runner.testbed().node(runner.spec().sessions[0].client);
  const MacAddress server_mac =
      runner.testbed().node(runner.spec().sessions[0].server).mac();
  outcome.discovery_reconverged = client.daemon().storage().contains(server_mac);
  return outcome;
}

// Exactly-once: the per-session counter carried in every payload never went
// backwards (no duplicate delivery, no reorder past the frontier) and never
// skipped forwards (no silent loss). `received` may trail `sent` by the
// frames still in flight (or in the reliable outbox) when the body ends.
void check_exactly_once(const SessionMetrics& session) {
  EXPECT_EQ(session.dup_or_reorder, 0u);
  EXPECT_EQ(session.gaps, 0u);
  EXPECT_LE(session.received, session.sent);
}

// --- Session server crashes mid-run ----------------------------------------
// The corridor's server hard-crashes during the stable traffic phase and
// restarts 10s later with a fresh epoch and empty engine. The walker's
// controller keeps retrying across the downtime; once the server answers
// kUnknownSession the library replays kResumeRestart from the SessionStore
// journal and delivery continues exactly-once. The walk then exercises an
// ordinary bridge handover on the *resumed* session.
TEST(CrashSoak, ServerCrashResumesFromJournalAcrossSeeds) {
  // Seed 306: the inquiry phases of the bridge and the static server lock,
  // so the bridge misses the server four loops in a row.
  for (const std::uint64_t seed : {301u, 302u, 303u, 306u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ScenarioSpec spec = corridor_walk(seed, /*predictive=*/true);
    make_crash_tolerant(spec.sessions[0]);
    add_server_crash(spec);

    const SoakOutcome outcome = run_soak(std::move(spec));
    ASSERT_EQ(outcome.metrics.sessions.size(), 1u);
    const SessionMetrics& session = outcome.metrics.sessions[0];
    EXPECT_TRUE(session.connected);
    EXPECT_EQ(outcome.metrics.fault_stats.node_crashes, 1u);
    EXPECT_EQ(outcome.metrics.fault_stats.node_restarts, 1u);
    // The recovery went through the journal, not a fresh session.
    EXPECT_GE(outcome.metrics.restart_resumes, 1u);
    EXPECT_EQ(session.restarts, 0u);
    check_exactly_once(session);
    // The body is ~133s at 1 msg/s; clearing this floor means delivery
    // resumed after the crash window instead of merely predating it, and
    // the small gap to `sent` is bounded by the in-flight tail.
    EXPECT_GT(session.received, 100u);
    EXPECT_GE(session.received + 15, session.sent);
    EXPECT_TRUE(outcome.discovery_reconverged);
  }
}

// A bounded seed swarm over the same server crash: 500 corridor walks, each
// of which must resume from the journal without the application restarting
// the session, and deliver exactly-once. Hand-picked seeds above miss rare
// repair sequences that a swarm finds (e.g. degradation on a still-open
// link with no bridge to dial).
TEST(CrashSoak, ServerCrashSwarm) {
  std::string broken;
  for (std::uint64_t seed = 1000; seed < 1500; ++seed) {
    ScenarioSpec spec = corridor_walk(seed, /*predictive=*/true);
    make_crash_tolerant(spec.sessions[0]);
    add_server_crash(spec);
    ScenarioRunner runner{std::move(spec)};
    const Status status = runner.setup();
    ASSERT_TRUE(status.ok()) << status.error().to_string();
    runner.run();
    for (const SessionMetrics& session : runner.metrics().sessions) {
      if (session.restarts != 0 || session.gaps != 0 ||
          session.dup_or_reorder != 0) {
        broken += " " + std::to_string(seed);
        break;
      }
    }
  }
  EXPECT_TRUE(broken.empty()) << "seeds that broke exactly-once:" << broken;
}

// --- Active bridge relay crashes mid-relay ----------------------------------
// The crash lands after the corridor walk, when the session is riding the
// bridge relay. Both relay legs die; the controller treats the crashed relay
// as a dead link and keeps re-planning until the restarted bridge (its own
// storage wiped by the crash) re-discovers the server and can relay again.
// The server kept the session alive throughout, so this is a plain resume —
// no journal needed — but delivery must still be exactly-once.
TEST(CrashSoak, BridgeRelayCrashRereoutesAcrossSeeds) {
  for (const std::uint64_t seed : {401u, 402u, 403u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ScenarioSpec spec = corridor_walk(seed, /*predictive=*/true);
    make_crash_tolerant(spec.sessions[0]);
    // Recovery needs two discovery cycles after the restart (the bridge
    // re-learns the server, then the walker re-fetches the bridge's
    // neighbour list) before the resume can route — give the body room.
    spec.duration_s += 25.0;
    CrashScheduleSpec::Crash crash;
    crash.targets = {"bridge"};
    crash.at_s = 106.0;  // walker parked at 12m, session bridged
    crash.downtime_s = 6.0;
    spec.crashes.crashes.push_back(crash);

    const SoakOutcome outcome = run_soak(std::move(spec));
    ASSERT_EQ(outcome.metrics.sessions.size(), 1u);
    const SessionMetrics& session = outcome.metrics.sessions[0];
    EXPECT_TRUE(session.connected);
    EXPECT_EQ(outcome.metrics.fault_stats.node_crashes, 1u);
    EXPECT_EQ(outcome.metrics.fault_stats.node_restarts, 1u);
    check_exactly_once(session);
    // At least the original walk handover plus the post-crash repair.
    EXPECT_GE(session.handovers, 2u);
    // Delivery continued after the relay came back: the pre-crash phase can
    // account for at most ~106 messages.
    EXPECT_GT(session.received, 110u);
    EXPECT_TRUE(outcome.discovery_reconverged);
  }
}

// --- MTBF/MTTR churn + a server crash under churn ---------------------------
// The office relays (anchors) crash and restart on seeded exponential
// clocks while both sessions run, and the session server itself takes one
// scheduled crash mid-run. Every surviving-endpoint session must come back
// exactly-once; the churn keeps tearing down the routes it comes back over.
TEST(CrashSoak, ChurnCrashesSurviveAcrossSeeds) {
  for (const std::uint64_t seed : {501u, 502u, 503u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ScenarioSpec spec = churn(seed, /*predictive=*/true);
    // Replace the daemon stop/start cycling with the crash plane's churn:
    // same nodes, but now a hard kill with volatile-state loss.
    spec.churn_interval_s = 0.0;
    for (SessionSpec& session : spec.sessions) make_crash_tolerant(session);
    CrashScheduleSpec::Churn churn_spec;
    churn_spec.targets = {"anchor"};
    churn_spec.mtbf_s = 25.0;
    churn_spec.mttr_s = 6.0;
    spec.crashes.churns.push_back(churn_spec);
    CrashScheduleSpec::Crash crash;
    crash.targets = {"srv0"};
    crash.at_s = 40.0;
    crash.downtime_s = 8.0;
    spec.crashes.crashes.push_back(crash);

    const SoakOutcome outcome = run_soak(std::move(spec));
    ASSERT_EQ(outcome.metrics.sessions.size(), 2u);
    EXPECT_GE(outcome.metrics.fault_stats.node_crashes, 2u);
    EXPECT_GE(outcome.metrics.fault_stats.node_restarts, 1u);
    std::uint64_t received = 0;
    for (const SessionMetrics& session : outcome.metrics.sessions) {
      EXPECT_TRUE(session.connected);
      check_exactly_once(session);
      received += session.received;
    }
    // Both sessions kept delivering across the crash storm: at 1 msg/s per
    // session over a 120s body, this floor cannot be met by the pre-crash
    // phase (<= 80 messages before the server's 40s crash) alone.
    EXPECT_GT(received, 120u);
    EXPECT_TRUE(outcome.discovery_reconverged);
  }
}

// --- Determinism ------------------------------------------------------------
// The same (seed, crash schedule) pair replays bit-identically: every
// application, medium, fault and recovery counter matches across two runs.
TEST(CrashSoak, SameSeedAndCrashScheduleReplayIdentically) {
  const auto run_once = [] {
    ScenarioSpec spec = corridor_walk(88, /*predictive=*/true);
    make_crash_tolerant(spec.sessions[0]);
    CrashScheduleSpec::Crash crash;
    crash.targets = {"server"};
    crash.at_s = 30.0;
    crash.downtime_s = 10.0;
    spec.crashes.crashes.push_back(crash);
    CrashScheduleSpec::Churn churn_spec;
    churn_spec.targets = {"bridge"};
    churn_spec.mtbf_s = 50.0;
    churn_spec.mttr_s = 4.0;
    churn_spec.start_s = 60.0;
    spec.crashes.churns.push_back(churn_spec);
    return run_soak(std::move(spec));
  };
  const SoakOutcome a = run_once();
  const SoakOutcome b = run_once();
  EXPECT_EQ(a.metrics.total_sent(), b.metrics.total_sent());
  EXPECT_EQ(a.metrics.total_received(), b.metrics.total_received());
  EXPECT_EQ(a.metrics.total_handovers(), b.metrics.total_handovers());
  EXPECT_EQ(a.metrics.medium_frames, b.metrics.medium_frames);
  EXPECT_DOUBLE_EQ(a.metrics.total_outage_s(), b.metrics.total_outage_s());
  EXPECT_EQ(a.metrics.restart_resumes, b.metrics.restart_resumes);
  EXPECT_EQ(a.metrics.fault_stats.node_crashes,
            b.metrics.fault_stats.node_crashes);
  EXPECT_EQ(a.metrics.fault_stats.node_restarts,
            b.metrics.fault_stats.node_restarts);
  ASSERT_EQ(a.metrics.sessions.size(), b.metrics.sessions.size());
  for (std::size_t i = 0; i < a.metrics.sessions.size(); ++i) {
    EXPECT_EQ(a.metrics.sessions[i].dup_or_reorder,
              b.metrics.sessions[i].dup_or_reorder);
    EXPECT_EQ(a.metrics.sessions[i].gaps, b.metrics.sessions[i].gaps);
    EXPECT_EQ(a.metrics.sessions[i].outage_episodes,
              b.metrics.sessions[i].outage_episodes);
  }
}

// The crash-free regression guard: an empty CrashScheduleSpec must leave the
// run byte-identical to a build that never heard of the crash plane — the
// plane is not even constructed, so no RNG stream shifts. Mirrors the
// chaos-soak guard (and ScenarioRunner.CorridorRunsTrafficAndMeasures): the
// pre-crash baseline assertions still hold bit-for-bit.
TEST(CrashSoak, EmptyCrashScheduleLeavesScenarioUntouched) {
  ScenarioSpec spec = corridor_walk(7, /*predictive=*/true);
  EXPECT_TRUE(spec.crashes.empty());
  ScenarioRunner runner{std::move(spec)};
  ASSERT_TRUE(runner.setup().ok());
  runner.run();
  EXPECT_FALSE(runner.testbed().medium().has_fault_plane());
  const sim::FaultStats& stats = runner.metrics().fault_stats;
  EXPECT_EQ(stats.frames_seen, 0u);
  EXPECT_EQ(stats.node_crashes, 0u);
  EXPECT_EQ(stats.node_restarts, 0u);
  EXPECT_EQ(runner.metrics().restart_resumes, 0u);
  EXPECT_EQ(runner.metrics().net_stats.corrupt_drops, 0u);
  EXPECT_GT(runner.metrics().total_sent(), 80u);
  EXPECT_LE(runner.metrics().frames_lost(), 3u);
}

}  // namespace
}  // namespace peerhood::scenario
