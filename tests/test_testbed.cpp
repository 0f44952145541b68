#include "node/testbed.hpp"

#include <gtest/gtest.h>

#include <set>

#include "scenario_util.hpp"

namespace peerhood::node {
namespace {

using testing::fast_node;
using testing::reliable_bluetooth;

TEST(Testbed, NodesGetUniqueMacs) {
  Testbed testbed{1};
  std::set<std::uint64_t> macs;
  for (int i = 0; i < 10; ++i) {
    Node& node = testbed.add_node("n" + std::to_string(i), {8.0 * i, 0.0});
    EXPECT_TRUE(macs.insert(node.mac().as_u64()).second);
  }
  EXPECT_EQ(testbed.macs().size(), 10u);
}

TEST(Testbed, NodeLookupByName) {
  Testbed testbed{2};
  testbed.add_node("alpha", {0.0, 0.0});
  testbed.add_node("beta", {5.0, 0.0});
  EXPECT_EQ(testbed.node("alpha").name(), "alpha");
  EXPECT_EQ(testbed.node("beta").name(), "beta");
  EXPECT_THROW((void)testbed.node("gamma"), std::out_of_range);
}

TEST(Testbed, DaemonStartsWithHiddenBridgeService) {
  Testbed testbed{3};
  Node& node = testbed.add_node("n", {0.0, 0.0});
  const auto& services = node.daemon().local_services();
  ASSERT_EQ(services.size(), 1u);
  EXPECT_EQ(services[0].name, bridge::kBridgeServiceName);
  EXPECT_EQ(services[0].attribute, kHiddenAttribute);
}

TEST(Testbed, BridgeDisabledOnRequest) {
  Testbed testbed{4};
  NodeOptions options;
  options.start_bridge = false;
  Node& node = testbed.add_node("n", {0.0, 0.0}, options);
  EXPECT_TRUE(node.daemon().local_services().empty());
}

TEST(Testbed, RunForAdvancesClock) {
  Testbed testbed{5};
  const double before = testbed.sim().now().seconds();
  testbed.run_for(12.5);
  EXPECT_DOUBLE_EQ(testbed.sim().now().seconds(), before + 12.5);
}

TEST(Testbed, ConnectBlockingTimesOutOnUnknownDevice) {
  Testbed testbed{6};
  testbed.medium().configure(reliable_bluetooth());
  Node& a = testbed.add_node("a", {0.0, 0.0}, fast_node(MobilityClass::kStatic));
  const auto result =
      a.connect_blocking(MacAddress::from_index(1234), "svc", {}, 10.0);
  EXPECT_FALSE(result.ok());
}

TEST(Testbed, MobilityClassAppliedToDaemon) {
  Testbed testbed{7};
  NodeOptions options;
  options.mobility = MobilityClass::kHybrid;
  Node& node = testbed.add_node("n", {0.0, 0.0}, options);
  EXPECT_EQ(node.daemon().self_info().mobility, MobilityClass::kHybrid);
}

TEST(Testbed, SessionIdsAreUniquePerDaemon) {
  Testbed testbed{8};
  Node& node = testbed.add_node("n", {0.0, 0.0});
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ids.insert(node.daemon().next_session_id()).second);
  }
}

TEST(Testbed, StoppedDaemonLeavesTheAir) {
  Testbed testbed{9};
  testbed.medium().configure(reliable_bluetooth());
  Node& a = testbed.add_node("a", {0.0, 0.0}, fast_node(MobilityClass::kStatic));
  Node& b = testbed.add_node("b", {5.0, 0.0}, fast_node(MobilityClass::kStatic));
  testbed.run_discovery_rounds(2);
  ASSERT_TRUE(a.daemon().storage().contains(b.mac()));
  b.daemon().stop();
  testbed.run_discovery_rounds(4);
  EXPECT_FALSE(a.daemon().storage().contains(b.mac()))
      << "aging must remove a stopped daemon";
}

}  // namespace
}  // namespace peerhood::node
