// End-to-end dynamic device discovery (Ch. 3): coverage exclusion solved,
// jump counts correct, routes propagate one hop per searching cycle, aging
// removes departed devices, legacy mode reproduces the pre-thesis limits.
#include <gtest/gtest.h>

#include "baseline/visibility.hpp"
#include "scenario_util.hpp"

namespace peerhood {
namespace {

using node::Testbed;
using testing::fast_node;
using testing::reliable_bluetooth;

// A line of nodes 8 m apart: with 10 m Bluetooth range only adjacent nodes
// are in mutual coverage — the Fig. 3.3 coverage-exclusion setup.
void build_line(Testbed& testbed, int n,
                MobilityClass mobility = MobilityClass::kStatic) {
  for (int i = 0; i < n; ++i) {
    testbed.add_node("n" + std::to_string(i), {8.0 * i, 0.0},
                     fast_node(mobility));
  }
}

TEST(DiscoveryIntegration, DirectNeighboursFoundFirstRound) {
  Testbed testbed{1};
  testbed.medium().configure(reliable_bluetooth());
  build_line(testbed, 3);
  testbed.run_discovery_rounds(2);
  auto& mid = testbed.node("n1");
  EXPECT_GE(mid.daemon().storage().direct_neighbours().size(), 2u);
}

TEST(DiscoveryIntegration, TotalEnvironmentAwarenessOnLine) {
  Testbed testbed{2};
  testbed.medium().configure(reliable_bluetooth());
  constexpr int kNodes = 5;
  build_line(testbed, kNodes);
  testbed.run_discovery_rounds(kNodes + 3);
  for (node::Node* node : testbed.nodes()) {
    EXPECT_EQ(node->daemon().storage().size(),
              static_cast<std::size_t>(kNodes - 1))
        << node->name() << " must know every other device";
  }
}

TEST(DiscoveryIntegration, JumpCountsMatchTopology) {
  Testbed testbed{3};
  testbed.medium().configure(reliable_bluetooth());
  build_line(testbed, 5);
  testbed.run_discovery_rounds(8);
  auto& a = testbed.node("n0");
  const auto expect_jump = [&](const std::string& name, int jump) {
    const auto record =
        a.daemon().storage().find(testbed.node(name).mac());
    ASSERT_TRUE(record.has_value()) << name;
    EXPECT_EQ(record->jump, jump) << name;
  };
  expect_jump("n1", 0);
  expect_jump("n2", 1);
  expect_jump("n3", 2);
  expect_jump("n4", 3);
}

TEST(DiscoveryIntegration, BridgeFieldsPointAlongTheLine) {
  Testbed testbed{4};
  testbed.medium().configure(reliable_bluetooth());
  build_line(testbed, 4);
  testbed.run_discovery_rounds(7);
  auto& a = testbed.node("n0");
  const auto far = a.daemon().storage().find(testbed.node("n3").mac());
  ASSERT_TRUE(far.has_value());
  EXPECT_EQ(far->bridge, testbed.node("n1").mac())
      << "first hop towards n3 is always n1";
  EXPECT_FALSE(far->is_direct());
}

TEST(DiscoveryIntegration, LegacyModeSuffersCoverageExclusion) {
  Testbed testbed{5};
  testbed.medium().configure(reliable_bluetooth());
  for (int i = 0; i < 5; ++i) {
    node::NodeOptions options = fast_node(MobilityClass::kStatic);
    options.daemon.propagate_routes = false;  // pre-thesis PeerHood [2]
    testbed.add_node("n" + std::to_string(i), {8.0 * i, 0.0}, options);
  }
  testbed.run_discovery_rounds(8);
  auto& a = testbed.node("n0");
  // Routable: only the direct neighbour.
  EXPECT_EQ(baseline::routable_device_count(a.daemon().storage()), 1u);
  // Visible (two-jump vision): direct neighbour + its neighbours = 2.
  EXPECT_EQ(baseline::visible_device_count(a.daemon().storage(), a.mac()), 2u);
}

TEST(DiscoveryIntegration, DynamicModeSeesEverything) {
  Testbed testbed{5};
  testbed.medium().configure(reliable_bluetooth());
  build_line(testbed, 5);
  testbed.run_discovery_rounds(8);
  auto& a = testbed.node("n0");
  EXPECT_EQ(baseline::routable_device_count(a.daemon().storage()), 4u);
}

TEST(DiscoveryIntegration, NonPeerHoodDevicesIgnored) {
  Testbed testbed{6};
  testbed.medium().configure(reliable_bluetooth());
  testbed.add_node("ph", {0.0, 0.0}, fast_node(MobilityClass::kStatic));
  node::NodeOptions alien = fast_node(MobilityClass::kStatic);
  alien.peerhood_capable = false;
  testbed.add_node("alien", {5.0, 0.0}, alien);
  testbed.run_discovery_rounds(3);
  EXPECT_FALSE(testbed.node("ph").daemon().storage().contains(
      testbed.node("alien").mac()));
  EXPECT_GT(testbed.node("ph")
                .daemon()
                .plugin(Technology::kBluetooth)
                ->stats()
                .non_peerhood,
            0u);
}

TEST(DiscoveryIntegration, DepartedDeviceAgedOutAndRoutesCascade) {
  Testbed testbed{7};
  testbed.medium().configure(reliable_bluetooth());
  testbed.add_node("a", {0.0, 0.0}, fast_node(MobilityClass::kStatic));
  // b walks away after 150 s, taking c (behind it) out of a's world.
  testbed.add_mobile_node(
      "b",
      std::make_shared<sim::WaypointPath>(std::vector<sim::WaypointPath::Waypoint>{
          {SimTime{} + seconds(0.0), {8.0, 0.0}},
          {SimTime{} + seconds(150.0), {8.0, 0.0}},
          {SimTime{} + seconds(180.0), {200.0, 0.0}},
      }),
      fast_node(MobilityClass::kDynamic));
  testbed.add_node("c", {16.0, 0.0}, fast_node(MobilityClass::kStatic));
  auto& a = testbed.node("a");
  const MacAddress b_mac = testbed.node("b").mac();
  const MacAddress c_mac = testbed.node("c").mac();
  ASSERT_TRUE(testing::run_until(
      testbed,
      [&] {
        return a.daemon().storage().contains(b_mac) &&
               a.daemon().storage().contains(c_mac);
      },
      140.0))
      << "a must learn both b (direct) and c (via b) before the walk";
  // After the walk plus a few aging loops both records must be gone.
  testbed.sim().run_until(SimTime{} + seconds(330.0));
  EXPECT_FALSE(a.daemon().storage().contains(b_mac));
  EXPECT_FALSE(a.daemon().storage().contains(c_mac))
      << "route via the departed bridge must cascade away";
}

TEST(DiscoveryIntegration, StaticBridgePreferredOverDynamic) {
  // Diamond: a - {s(static), d(dynamic)} - t. Both middles reach t; the
  // route chosen for t must go through the static one (§3.4.3).
  Testbed testbed{8};
  testbed.medium().configure(reliable_bluetooth());
  testbed.add_node("a", {0.0, 0.0}, fast_node(MobilityClass::kStatic));
  testbed.add_node("s", {6.0, 4.0}, fast_node(MobilityClass::kStatic));
  testbed.add_node("d", {6.0, -4.0}, fast_node(MobilityClass::kDynamic));
  testbed.add_node("t", {12.0, 0.0}, fast_node(MobilityClass::kStatic));
  testbed.run_discovery_rounds(8);
  const auto record =
      testbed.node("a").daemon().storage().find(testbed.node("t").mac());
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->jump, 1);
  EXPECT_EQ(record->bridge, testbed.node("s").mac())
      << "static bridges form the backbone of the network";
}

TEST(DiscoveryIntegration, ServicesPropagateAcrossJumps) {
  Testbed testbed{9};
  testbed.medium().configure(reliable_bluetooth());
  build_line(testbed, 4);
  (void)testbed.node("n3").daemon().register_service(
      ServiceInfo{"picture.analyse", "compute", 0});
  testbed.run_discovery_rounds(7);
  const auto record = testbed.node("n0").daemon().storage().find(
      testbed.node("n3").mac());
  ASSERT_TRUE(record.has_value());
  EXPECT_TRUE(record->provides("picture.analyse"));
  // And through the library API:
  const auto services = testbed.node("n0").library().get_service_list();
  const bool seen = std::any_of(
      services.begin(), services.end(), [](const auto& pair) {
        return pair.second.name == "picture.analyse";
      });
  EXPECT_TRUE(seen);
}

TEST(DiscoveryIntegration, HiddenServicesNotListed) {
  Testbed testbed{10};
  testbed.medium().configure(reliable_bluetooth());
  build_line(testbed, 2);
  testbed.run_discovery_rounds(3);
  const auto services = testbed.node("n0").library().get_service_list();
  for (const auto& [device, service] : services) {
    EXPECT_NE(service.attribute, kHiddenAttribute)
        << "the bridge service must stay hidden from applications";
  }
}

TEST(DiscoveryIntegration, PropagationDelayGrowsWithHops) {
  // Fig. 3.10: a change k hops away needs ~k searching cycles to surface.
  Testbed testbed{11};
  testbed.medium().configure(reliable_bluetooth());
  build_line(testbed, 5);
  testbed.run_discovery_rounds(8);
  // New node appears next to n4 (5 hops from n0's end of the line).
  testbed.add_node("fresh", {8.0 * 4, 8.0}, fast_node(MobilityClass::kStatic));
  const double appeared = testbed.sim().now().seconds();

  auto& n4 = testbed.node("n4");
  auto& n0 = testbed.node("n0");
  const MacAddress fresh = testbed.node("fresh").mac();
  ASSERT_TRUE(testing::run_until(
      testbed, [&] { return n4.daemon().storage().contains(fresh); }, 120.0));
  const double near_time = testbed.sim().now().seconds() - appeared;
  ASSERT_TRUE(testing::run_until(
      testbed, [&] { return n0.daemon().storage().contains(fresh); }, 400.0));
  const double far_time = testbed.sim().now().seconds() - appeared;
  EXPECT_GT(far_time, near_time)
      << "distant nodes must learn strictly later (delay = jumps x cycle)";
}

// --- Conditional fetch / delta plane (PR 4) ---------------------------------

// A noise-free link model: static topologies reach a fixed point, so the
// discovery plane must settle into kNotModified steady state.
sim::LinkQualityModel noise_free_quality() {
  sim::LinkQualityModel model;
  model.noise = 0.0;
  return model;
}

// Between cycles every device update a cycle queued is decided: answered,
// or aborted by a failed exchange or a timeout with no retry left.
TEST(DiscoveryIntegration, EveryUpdateIsAnsweredOrAborted) {
  for (const bool unified : {false, true}) {
    Testbed testbed{3};
    sim::TechnologyParams bt = reliable_bluetooth();
    bt.fetch_failure_prob = 0.25;
    testbed.medium().configure(bt);
    for (int i = 0; i < 4; ++i) {
      node::NodeOptions options = fast_node(MobilityClass::kStatic);
      options.daemon.unified_fetch = unified;
      testbed.add_node("n" + std::to_string(i), {8.0 * i, 0.0}, options);
    }
    const Plugin& plugin =
        *testbed.node("n1").daemon().plugin(Technology::kBluetooth);
    testbed.run_for(120.0);
    ASSERT_TRUE(testing::run_until(
        testbed, [&] { return !plugin.cycle_active(); }, 30.0));
    const Plugin::Stats& s = plugin.stats();
    const std::uint64_t aborted =
        s.fetch_failures + s.fetch_timeouts - s.fetch_retries;
    EXPECT_GT(aborted, 0u) << "unified " << unified;
    EXPECT_GT(s.updates_answered, 0u) << "unified " << unified;
    EXPECT_EQ(s.updates_answered + aborted,
              s.responders - s.non_peerhood + s.epoch_invalidations)
        << "unified " << unified;
  }
}

TEST(DiscoveryDelta, DeltaPlaneConvergesLikeFullFetch) {
  // Two identically-seeded worlds, one with the conditional-fetch plane,
  // one with the paper's always-full fetch. The discovery outcome must be
  // identical.
  constexpr int kNodes = 5;
  auto build = [&](bool delta) {
    auto testbed = std::make_unique<Testbed>(11, noise_free_quality());
    testbed->medium().configure(reliable_bluetooth());
    for (int i = 0; i < kNodes; ++i) {
      node::NodeOptions options = fast_node(MobilityClass::kStatic);
      options.daemon.conditional_fetch = delta;
      testbed->add_node("n" + std::to_string(i), {8.0 * i, 0.0}, options);
    }
    testbed->run_discovery_rounds(kNodes + 4);
    return testbed;
  };
  const auto with_delta = build(true);
  const auto with_full = build(false);
  for (int i = 0; i < kNodes; ++i) {
    const std::string name = "n" + std::to_string(i);
    const auto delta_view =
        with_delta->node(name).daemon().storage().snapshot();
    const auto full_view = with_full->node(name).daemon().storage().snapshot();
    ASSERT_EQ(delta_view.size(), full_view.size()) << name;
    for (std::size_t r = 0; r < delta_view.size(); ++r) {
      EXPECT_EQ(delta_view[r].device, full_view[r].device) << name;
      EXPECT_EQ(delta_view[r].jump, full_view[r].jump) << name;
      EXPECT_EQ(delta_view[r].bridge, full_view[r].bridge) << name;
      EXPECT_EQ(delta_view[r].quality_sum, full_view[r].quality_sum) << name;
      EXPECT_EQ(delta_view[r].services, full_view[r].services) << name;
    }
  }
}

TEST(DiscoveryDelta, SteadyStateSettlesIntoNotModified) {
  Testbed testbed{12, noise_free_quality()};
  testbed.medium().configure(reliable_bluetooth());
  for (int i = 0; i < 3; ++i) {
    testbed.add_node("n" + std::to_string(i), {8.0 * i, 0.0},
                     fast_node(MobilityClass::kStatic));
  }
  testbed.run_discovery_rounds(8);

  auto& mid = testbed.node("n1");
  const std::uint32_t settled_gen = mid.daemon().storage().generation();
  const std::size_t settled_size = mid.daemon().storage().size();
  const auto before = mid.daemon().plugin(Technology::kBluetooth)->stats();

  testbed.run_discovery_rounds(4);

  const auto after = mid.daemon().plugin(Technology::kBluetooth)->stats();
  EXPECT_GT(after.not_modified, before.not_modified)
      << "an unchanged neighbourhood must be answered kNotModified";
  // The kNotModified path refreshes timestamps only — no analyzer /
  // reconcile pass, so the storage content generation must not move and
  // nothing may be aged out.
  EXPECT_EQ(mid.daemon().storage().generation(), settled_gen);
  EXPECT_EQ(mid.daemon().storage().size(), settled_size);
  // And the responder side serves those rounds from the shared cache.
  const auto& cache_stats = testbed.node("n0").daemon().snapshot_cache().stats();
  EXPECT_GT(cache_stats.not_modified, 0u);
}

TEST(DiscoveryDelta, ServiceChangePropagatesThroughDeltas) {
  Testbed testbed{13, noise_free_quality()};
  testbed.medium().configure(reliable_bluetooth());
  testbed.add_node("a", {0.0, 0.0}, fast_node(MobilityClass::kStatic));
  testbed.add_node("b", {8.0, 0.0}, fast_node(MobilityClass::kStatic));
  auto& a = testbed.node("a");
  auto& b = testbed.node("b");
  testbed.run_discovery_rounds(4);
  ASSERT_TRUE(a.daemon().storage().contains(b.mac()));

  // A new service bumps only the services generation; the requester must
  // pick it up via a delta (the full-fetch recheck interval is 5 s here, so
  // give it a couple of rounds).
  ASSERT_TRUE(b.daemon().register_service(ServiceInfo{"fresh.svc", "", 0}).ok());
  ASSERT_TRUE(testing::run_until(
      testbed,
      [&] {
        const auto record = a.daemon().storage().find(b.mac());
        return record.has_value() && record->provides("fresh.svc");
      },
      120.0))
      << "service change must reach the requester through the delta plane";
}

TEST(DiscoveryDelta, ResponderRestartInvalidatesBaselines) {
  Testbed testbed{14, noise_free_quality()};
  testbed.medium().configure(reliable_bluetooth());
  testbed.add_node("a", {0.0, 0.0}, fast_node(MobilityClass::kStatic));
  testbed.add_node("b", {8.0, 0.0}, fast_node(MobilityClass::kStatic));
  auto& a = testbed.node("a");
  auto& b = testbed.node("b");
  testbed.run_discovery_rounds(6);
  ASSERT_TRUE(a.daemon().storage().contains(b.mac()));

  // Restart b with different services: its generations regress and its epoch
  // changes. a's stale baseline must be ignored (full response), never
  // misread as "not modified".
  const std::uint64_t old_epoch = b.daemon().epoch();
  b.daemon().stop();
  ASSERT_TRUE(
      b.daemon().register_service(ServiceInfo{"after.restart", "", 0}).ok());
  b.daemon().start();
  EXPECT_NE(b.daemon().epoch(), old_epoch);
  ASSERT_TRUE(testing::run_until(
      testbed,
      [&] {
        const auto record = a.daemon().storage().find(b.mac());
        return record.has_value() && record->provides("after.restart");
      },
      200.0))
      << "restart must force full refetch despite matching generations";
}

}  // namespace
}  // namespace peerhood
