// Interconnection system tests (Ch. 4): PH_BRIDGE chains, even/odd relay
// pairing, acknowledgement propagation, capacity limits and retries.
#include <gtest/gtest.h>

#include "scenario_util.hpp"

namespace peerhood {
namespace {

using node::Testbed;
using testing::fast_node;
using testing::reliable_bluetooth;

// Line a(0) - b(8) - c(16): a and c are not in mutual coverage; b relays.
class BridgeTest : public ::testing::Test {
 protected:
  void build(std::uint64_t seed, int extra_hops = 0) {
    testbed_ = std::make_unique<Testbed>(seed);
    testbed_->medium().configure(reliable_bluetooth());
    a_ = &testbed_->add_node("a", {0.0, 0.0},
                             fast_node(MobilityClass::kDynamic));
    b_ = &testbed_->add_node("b", {8.0, 0.0},
                             fast_node(MobilityClass::kStatic));
    double x = 16.0;
    node::Node* last = &testbed_->add_node(
        "c", {x, 0.0}, fast_node(MobilityClass::kStatic));
    for (int i = 0; i < extra_hops; ++i) {
      x += 8.0;
      last = &testbed_->add_node("h" + std::to_string(i), {x, 0.0},
                                 fast_node(MobilityClass::kStatic));
    }
    end_ = last;
    (void)end_->library().register_service(
        ServiceInfo{"echo", "", 0},
        [this](ChannelPtr channel, const wire::ConnectRequest&) {
          server_channel_ = channel;
          // Ownership stays in the fixture; a handler owning its own channel
          // would be an unbreakable cycle (see common/handler_slot.hpp).
          channel->set_data_handler([raw = channel.get()](const Bytes& frame) {
            (void)raw->write(frame);
          });
        });
    testbed_->run_discovery_rounds(4 + extra_hops * 2);
  }

  std::unique_ptr<Testbed> testbed_;
  node::Node* a_{nullptr};
  node::Node* b_{nullptr};
  node::Node* end_{nullptr};
  ChannelPtr server_channel_;
};

TEST_F(BridgeTest, TwoHopConnectAndRelay) {
  build(1);
  ASSERT_FALSE(testbed_->medium().in_range(a_->mac(), end_->mac(),
                                           Technology::kBluetooth));
  auto result = a_->connect_blocking(end_->mac(), "echo");
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const ChannelPtr channel = result.value();

  Bytes reply;
  channel->set_data_handler([&](const Bytes& frame) { reply = frame; });
  ASSERT_TRUE(channel->write(Bytes{0xAA, 0xBB}).ok());
  testbed_->run_for(5.0);
  EXPECT_EQ(reply, (Bytes{0xAA, 0xBB}));

  const auto& stats = b_->bridge_service().stats();
  EXPECT_EQ(stats.established, 1u);
  EXPECT_GE(stats.relayed_frames, 2u) << "request and echo both cross b";
  EXPECT_EQ(b_->bridge_service().active_pairs(), 1);
}

TEST_F(BridgeTest, ServerSeesRealClientViaParams) {
  build(2);
  Library::ConnectOptions options;
  options.include_client_params = true;
  options.reconnect_service = "client.cb";
  auto result = a_->connect_blocking(end_->mac(), "echo", options);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(server_channel_, nullptr);
  // Transport-wise the server talks to the bridge; application-wise to a.
  EXPECT_EQ(server_channel_->peer(), a_->mac());
  EXPECT_EQ(server_channel_->connection()->remote_address().mac, b_->mac());
}

TEST_F(BridgeTest, PaperMessageLoop) {
  // §4.3 figure 4.5 style workload: 20 messages at 1 s intervals.
  build(3);
  auto result = a_->connect_blocking(end_->mac(), "echo");
  ASSERT_TRUE(result.ok());
  const ChannelPtr channel = result.value();
  int echoes = 0;
  channel->set_data_handler([&](const Bytes&) { ++echoes; });
  for (int i = 0; i < 20; ++i) {
    testbed_->sim().schedule_after(seconds(static_cast<double>(i)),
                                   [channel] {
                                     (void)channel->write(Bytes{0x55});
                                   });
  }
  testbed_->run_for(25.0);
  EXPECT_EQ(echoes, 20);
}

TEST_F(BridgeTest, ThreeHopChain) {
  build(4, /*extra_hops=*/1);  // a - b - c - h0
  auto result = a_->connect_blocking(end_->mac(), "echo", {}, 300.0);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  Bytes reply;
  result.value()->set_data_handler([&](const Bytes& f) { reply = f; });
  ASSERT_TRUE(result.value()->write(Bytes{7}).ok());
  testbed_->run_for(5.0);
  EXPECT_EQ(reply, (Bytes{7}));
  // Both intermediate bridges carried the pair.
  EXPECT_EQ(b_->bridge_service().stats().established, 1u);
  EXPECT_EQ(testbed_->node("c").bridge_service().stats().established, 1u);
}

TEST_F(BridgeTest, CloseTearsDownWholeChain) {
  build(5);
  auto result = a_->connect_blocking(end_->mac(), "echo");
  ASSERT_TRUE(result.ok());
  ASSERT_NE(server_channel_, nullptr);
  bool server_closed = false;
  server_channel_->set_close_handler([&] { server_closed = true; });
  result.value()->close();
  testbed_->run_for(5.0);
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(b_->bridge_service().active_pairs(), 0);
  EXPECT_EQ(b_->bridge_service().stats().closed_pairs, 1u);
}

TEST_F(BridgeTest, ServerCloseAlsoTearsDown) {
  build(6);
  auto result = a_->connect_blocking(end_->mac(), "echo");
  ASSERT_TRUE(result.ok());
  bool client_closed = false;
  result.value()->set_close_handler([&] { client_closed = true; });
  server_channel_->close();
  testbed_->run_for(5.0);
  EXPECT_TRUE(client_closed);
  EXPECT_EQ(b_->bridge_service().active_pairs(), 0);
}

TEST_F(BridgeTest, CapacityLimitRejects) {
  build(7);
  // Shrink b's capacity to zero and try to connect through it.
  b_->bridge_service().stop();
  bridge::BridgeConfig tiny;
  tiny.max_connections = 0;
  auto* constrained = new bridge::BridgeService(b_->daemon(), tiny);
  constrained->start();
  auto result = a_->connect_blocking(end_->mac(), "echo");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kCapacityExceeded);
  delete constrained;
}

TEST_F(BridgeTest, FailurePropagatesWhenDestinationGone) {
  build(8);
  // The far node's engine stops listening; the chain must report failure.
  end_->daemon().engine().stop();
  auto result = a_->connect_blocking(end_->mac(), "echo");
  ASSERT_FALSE(result.ok());
}

TEST_F(BridgeTest, RetryRecoversFromTransientFault) {
  build(9);
  // Re-enable stochastic faults with retry enabled: over many attempts the
  // bridge's retry must lift the end-to-end success rate above the
  // no-retry baseline. Determinism comes from the fixed seed.
  sim::TechnologyParams bt = reliable_bluetooth();
  bt.connect_failure_prob = 0.4;
  testbed_->medium().configure(bt);
  int ok = 0;
  for (int i = 0; i < 12; ++i) {
    auto result = a_->connect_blocking(end_->mac(), "echo", {}, 240.0);
    if (result.ok()) {
      ++ok;
      result.value()->close();
      testbed_->run_for(3.0);
    }
  }
  EXPECT_GT(b_->bridge_service().stats().retries, 0u);
  // Per-attempt success ≈ 0.6 (client hop, no retry) x 0.84 (bridge hop
  // with one retry) ≈ 0.5 — expect roughly half of 12 to succeed.
  EXPECT_GE(ok, 4);
}

TEST_F(BridgeTest, LoadFractionTracksPairs) {
  build(10);
  EXPECT_DOUBLE_EQ(b_->daemon().load_fraction(), 0.0);
  auto result = a_->connect_blocking(end_->mac(), "echo");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(b_->daemon().load_fraction(), 0.0);
  result.value()->close();
  testbed_->run_for(3.0);
  EXPECT_DOUBLE_EQ(b_->daemon().load_fraction(), 0.0);
}

TEST_F(BridgeTest, BridgeDoesNotInterpretTraffic) {
  build(11);
  auto result = a_->connect_blocking(end_->mac(), "echo");
  ASSERT_TRUE(result.ok());
  // Send bytes that look like protocol commands; the bridge must relay
  // them opaquely rather than parse them.
  Bytes tricky = wire::encode_fail(ErrorCode::kNoRoute, "fake");
  Bytes reply;
  result.value()->set_data_handler([&](const Bytes& f) { reply = f; });
  ASSERT_TRUE(result.value()->write(tricky).ok());
  testbed_->run_for(5.0);
  EXPECT_EQ(reply, tricky);
  EXPECT_TRUE(result.value()->open());
}

}  // namespace
}  // namespace peerhood
