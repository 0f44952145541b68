// Routing handover tests (§5.2): the Fig. 5.8 simulation — artificial link
// decay below threshold 230 for more than 3 samples triggers re-routing
// through a bridge — plus service reconnection and suppression paths.
#include <gtest/gtest.h>

#include "handover/handover.hpp"
#include "scenario_util.hpp"

namespace peerhood {
namespace {

using handover::HandoverConfig;
using handover::HandoverController;
using handover::HandoverEvent;
using node::Testbed;
using testing::fast_node;
using testing::reliable_bluetooth;

// Triangle from Fig. 5.8: client a, server s and bridge c all in mutual
// range; the a-s link is degraded artificially as in the paper.
class HandoverTest : public ::testing::Test {
 protected:
  void build(std::uint64_t seed) {
    testbed_ = std::make_unique<Testbed>(seed);
    testbed_->medium().configure(reliable_bluetooth());
    a_ = &testbed_->add_node("a", {0.0, 0.0},
                             fast_node(MobilityClass::kDynamic));
    // 4 m apart: expected quality ≈ 242, safely above the 230 threshold
    // (the threshold crossing sits at ~5.6 m of the 10 m range).
    s_ = &testbed_->add_node("s", {4.0, 0.0},
                             fast_node(MobilityClass::kStatic));
    c_ = &testbed_->add_node("c", {2.0, 3.0},
                             fast_node(MobilityClass::kStatic));
    (void)s_->library().register_service(
        ServiceInfo{"print", "", 0},
        [this](ChannelPtr channel, const wire::ConnectRequest&) {
          server_channel_ = channel;
          channel->set_data_handler(
              [this](const Bytes&) { ++server_received_; });
        });
    testbed_->run_discovery_rounds(4);
  }

  ChannelPtr connect() {
    auto result = a_->connect_blocking(s_->mac(), "print");
    EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().to_string());
    return result.ok() ? result.value() : nullptr;
  }

  // The paper's §5.2.1 decay: start at 250, subtract 1 per second.
  void start_decay(const ChannelPtr& channel) {
    const double t0 = testbed_->sim().now().seconds();
    channel->connection()->set_quality_override([t0](SimTime now) {
      return static_cast<int>(250.0 - (now.seconds() - t0));
    });
  }

  std::unique_ptr<Testbed> testbed_;
  node::Node* a_{nullptr};
  node::Node* s_{nullptr};
  node::Node* c_{nullptr};
  ChannelPtr server_channel_;
  int server_received_{0};
};

TEST_F(HandoverTest, PlanFindsBridgeSeeingPeer) {
  build(1);
  const ChannelPtr channel = connect();
  ASSERT_NE(channel, nullptr);
  HandoverController controller{a_->library(), channel, {}};
  controller.refresh_plan();
  const auto bridge = controller.planned_bridge();
  ASSERT_TRUE(bridge.has_value());
  EXPECT_EQ(*bridge, c_->mac());
}

TEST_F(HandoverTest, DecayTriggersRoutingHandover) {
  build(2);
  const ChannelPtr channel = connect();
  ASSERT_NE(channel, nullptr);
  start_decay(channel);

  HandoverController controller{a_->library(), channel, {}};
  std::vector<HandoverEvent::Kind> events;
  controller.set_event_handler([&](const HandoverEvent& event) {
    events.push_back(event.kind);
  });
  controller.start();

  // Quality falls below 230 at t≈20 s; low-count >3 needs 4 more samples;
  // then the bridge connection takes a couple of seconds.
  testbed_->run_for(60.0);
  ASSERT_EQ(controller.stats().handovers, 1u);
  EXPECT_TRUE(channel->open());
  // New transport goes through the bridge c.
  EXPECT_EQ(channel->connection()->remote_address().mac, c_->mac());
  EXPECT_EQ(std::count(events.begin(), events.end(),
                       HandoverEvent::Kind::kDegradationDetected),
            1);
  EXPECT_EQ(std::count(events.begin(), events.end(),
                       HandoverEvent::Kind::kHandoverComplete),
            1);
  EXPECT_GE(controller.stats().samples, 20u);
}

TEST_F(HandoverTest, SessionSurvivesHandover) {
  build(3);
  const ChannelPtr channel = connect();
  ASSERT_NE(channel, nullptr);
  start_decay(channel);
  HandoverController controller{a_->library(), channel, {}};
  controller.start();
  testbed_->run_for(60.0);
  ASSERT_EQ(controller.stats().handovers, 1u);
  // Traffic still reaches the same server-side session.
  const int before = server_received_;
  ASSERT_TRUE(channel->write(Bytes{1}).ok());
  testbed_->run_for(5.0);
  EXPECT_EQ(server_received_, before + 1);
  ASSERT_NE(server_channel_, nullptr);
  EXPECT_EQ(server_channel_->session_id(), channel->session_id());
}

TEST_F(HandoverTest, GoodLinkNeverTriggers) {
  build(4);
  const ChannelPtr channel = connect();
  ASSERT_NE(channel, nullptr);
  HandoverController controller{a_->library(), channel, {}};
  controller.start();
  testbed_->run_for(60.0);
  EXPECT_EQ(controller.stats().handovers, 0u);
  EXPECT_EQ(controller.stats().degradations, 0u);
  EXPECT_EQ(controller.state(), handover::HandoverState::kMonitor);
}

TEST_F(HandoverTest, LowCountNeedsConsecutiveSamples) {
  build(5);
  const ChannelPtr channel = connect();
  ASSERT_NE(channel, nullptr);
  // Oscillates per sample: 3 low samples, then 2 good — never more than 3
  // consecutive lows, so the >3 trigger must stay silent. (Counter-based to
  // be independent of monitor phase.)
  auto counter = std::make_shared<int>(0);
  channel->connection()->set_quality_override([counter](SimTime) {
    const int phase = (*counter)++ % 5;
    return phase < 3 ? 210 : 250;
  });
  HandoverController controller{a_->library(), channel, {}};
  controller.start();
  testbed_->run_for(60.0);
  EXPECT_EQ(controller.stats().degradations, 0u);
}

TEST_F(HandoverTest, SendingFlagSuppressesRepair) {
  build(6);
  const ChannelPtr channel = connect();
  ASSERT_NE(channel, nullptr);
  channel->set_sending(false);  // §5.3: upload finished, waiting for result
  start_decay(channel);
  HandoverController controller{a_->library(), channel, {}};
  std::vector<HandoverEvent::Kind> events;
  controller.set_event_handler(
      [&](const HandoverEvent& e) { events.push_back(e.kind); });
  controller.start();
  testbed_->run_for(60.0);
  EXPECT_EQ(controller.stats().handovers, 0u);
  EXPECT_GE(controller.stats().suppressed, 1u);
  EXPECT_TRUE(std::count(events.begin(), events.end(),
                         HandoverEvent::Kind::kRepairSuppressed) > 0);
}

TEST_F(HandoverTest, ReconnectsToAlternativeProviderWhenNoBridge) {
  build(7);
  // Second provider of the same service, reachable from a but out of s's
  // range — otherwise s2 itself could serve as a routing-handover bridge.
  auto& s2 = testbed_->add_node("s2", {-7.0, 0.0},
                                fast_node(MobilityClass::kStatic));
  (void)s2.library().register_service(
      ServiceInfo{"print", "", 0},
      [](ChannelPtr channel, const wire::ConnectRequest&) {
        channel->set_data_handler([](const Bytes&) {});
      });
  // Remove the bridge so routing handover has no plan.
  c_->daemon().stop();
  testbed_->run_discovery_rounds(4);

  const ChannelPtr channel = connect();
  ASSERT_NE(channel, nullptr);
  // Kill the link outright (server walks off / hard loss).
  channel->connection()->set_quality_override([](SimTime) { return 0; });

  HandoverController controller{a_->library(), channel};
  ChannelPtr replacement;
  int permission_asked = 0;
  controller.set_permission_callback(
      [&](std::function<void(bool)> grant) {
        ++permission_asked;
        grant(true);
      });
  controller.set_event_handler([&](const HandoverEvent& event) {
    if (event.kind == HandoverEvent::Kind::kReconnected) {
      replacement = event.new_channel;
    }
  });
  controller.start();
  testbed_->run_for(90.0);
  EXPECT_EQ(permission_asked, 1);
  ASSERT_NE(replacement, nullptr);
  EXPECT_EQ(replacement->peer(), s2.mac());
  EXPECT_NE(replacement->session_id(), channel->session_id())
      << "service reconnection is a brand-new session (§5.2.2)";
  EXPECT_EQ(controller.stats().reconnections, 1u);
}

TEST_F(HandoverTest, UserMayDeclineReconnection) {
  build(8);
  c_->daemon().stop();
  testbed_->run_discovery_rounds(3);
  const ChannelPtr channel = connect();
  ASSERT_NE(channel, nullptr);
  channel->connection()->set_quality_override([](SimTime) { return 0; });
  HandoverController controller{a_->library(), channel};
  bool gave_up = false;
  controller.set_permission_callback(
      [](std::function<void(bool)> grant) { grant(false); });
  controller.set_event_handler([&](const HandoverEvent& event) {
    if (event.kind == HandoverEvent::Kind::kGaveUp) gave_up = true;
  });
  controller.start();
  testbed_->run_for(60.0);
  EXPECT_TRUE(gave_up);
  EXPECT_EQ(controller.stats().reconnections, 0u);
}

TEST_F(HandoverTest, CrashTolerantSessionKeepsMonitoringOpenLinkWithoutPlan) {
  // A crash-tolerant session (direct resume on, reconnection off) whose link
  // degrades while still open, with no bridge to dial: the controller must
  // stay in monitor state. Giving up would hand the session to the
  // application's restart path although the link still carries frames.
  build(11);
  c_->daemon().stop();
  testbed_->run_discovery_rounds(4);
  const ChannelPtr channel = connect();
  ASSERT_NE(channel, nullptr);
  start_decay(channel);
  HandoverConfig config;
  config.reconnection_enabled = false;
  config.direct_resume_enabled = true;
  HandoverController controller{a_->library(), channel, config};
  controller.refresh_plan();
  ASSERT_FALSE(controller.planned_bridge().has_value());
  std::vector<HandoverEvent::Kind> events;
  controller.set_event_handler(
      [&](const HandoverEvent& e) { events.push_back(e.kind); });
  controller.start();
  testbed_->run_for(60.0);
  EXPECT_GE(controller.stats().degradations, 1u);
  EXPECT_EQ(std::count(events.begin(), events.end(),
                       HandoverEvent::Kind::kGaveUp),
            0);
  EXPECT_EQ(controller.state(), handover::HandoverState::kMonitor);
  EXPECT_EQ(controller.stats().direct_resumes, 0u);
  EXPECT_TRUE(channel->open());
}

TEST_F(HandoverTest, WalkingAwayScenario) {
  // Physical version of Fig. 5.4: the client walks away from the server
  // while staying near the bridge; the session must survive via routing
  // handover without any artificial decay.
  Testbed testbed{10};
  testbed.medium().configure(reliable_bluetooth());
  auto& server = testbed.add_node("server", {0.0, 0.0},
                                  fast_node(MobilityClass::kStatic));
  auto& bridge = testbed.add_node("bridge", {8.0, 0.0},
                                  fast_node(MobilityClass::kStatic));
  // Client starts next to the server, ends near the bridge but out of the
  // server's range (walking pace, 0.25 m/s — slow enough for discovery).
  auto& client = testbed.add_mobile_node(
      "client",
      std::make_shared<sim::WaypointPath>(
          std::vector<sim::WaypointPath::Waypoint>{
              {SimTime{} + seconds(0.0), {2.0, 0.0}},
              {SimTime{} + seconds(60.0), {2.0, 0.0}},
              {SimTime{} + seconds(116.0), {16.0, 0.0}},
          }),
      fast_node(MobilityClass::kDynamic));
  int received = 0;
  // Server-side sessions live in an explicit registry — a handler owning its
  // own channel would be an unbreakable cycle (see common/handler_slot.hpp).
  std::vector<ChannelPtr> server_sessions;
  (void)server.library().register_service(
      ServiceInfo{"print", "", 0},
      [&received, &server_sessions](ChannelPtr channel,
                                    const wire::ConnectRequest&) {
        server_sessions.push_back(std::move(channel));
        server_sessions.back()->set_data_handler(
            [&received](const Bytes&) { ++received; });
      });
  testbed.run_discovery_rounds(3);

  auto result = client.connect_blocking(server.mac(), "print");
  ASSERT_TRUE(result.ok());
  const ChannelPtr channel = result.value();
  HandoverController controller{client.library(), channel, {}};
  controller.start();

  // Write one message per second for the whole walk.
  for (int i = 0; i < 110; ++i) {
    testbed.sim().schedule_after(seconds(static_cast<double>(i)), [channel] {
      if (channel->open()) (void)channel->write(Bytes{1});
    });
  }
  testbed.run_for(130.0);
  EXPECT_GE(controller.stats().handovers, 1u);
  EXPECT_TRUE(channel->open());
  EXPECT_GT(received, 60);
}

}  // namespace
}  // namespace peerhood
