// Engine + Library: the Fig. 2.5 connect sequence, service dispatch,
// session registry and connection re-establishment.
#include <gtest/gtest.h>

#include "scenario_util.hpp"

namespace peerhood {
namespace {

using node::Testbed;
using testing::fast_node;
using testing::reliable_bluetooth;

class EngineLibraryTest : public ::testing::Test {
 protected:
  EngineLibraryTest() : testbed_{42} {
    testbed_.medium().configure(reliable_bluetooth());
    client_ = &testbed_.add_node("client", {0.0, 0.0},
                                 fast_node(MobilityClass::kDynamic));
    server_ = &testbed_.add_node("server", {5.0, 0.0},
                                 fast_node(MobilityClass::kStatic));
    // Echo service: send every frame straight back.
    (void)server_->library().register_service(
        ServiceInfo{"echo", "test", 0},
        [this](ChannelPtr channel, const wire::ConnectRequest&) {
          server_channels_.push_back(channel);
          // Ownership stays in the fixture vector; the echo handler must not
          // keep its own channel alive (see common/handler_slot.hpp).
          channel->set_data_handler([raw = channel.get()](const Bytes& frame) {
            (void)raw->write(frame);
          });
        });
    testbed_.run_discovery_rounds(3);
  }

  Testbed testbed_{42};
  node::Node* client_{nullptr};
  node::Node* server_{nullptr};
  std::vector<ChannelPtr> server_channels_;
};

TEST_F(EngineLibraryTest, ConnectAndEcho) {
  auto result = client_->connect_blocking(server_->mac(), "echo");
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const ChannelPtr channel = result.value();
  EXPECT_TRUE(channel->open());
  EXPECT_EQ(channel->peer(), server_->mac());
  EXPECT_EQ(channel->service(), "echo");

  Bytes reply;
  channel->set_data_handler([&](const Bytes& frame) { reply = frame; });
  ASSERT_TRUE(channel->write(Bytes{1, 2, 3}).ok());
  testbed_.run_for(5.0);
  EXPECT_EQ(reply, (Bytes{1, 2, 3}));
}

TEST_F(EngineLibraryTest, ServerSeesClientIdentity) {
  Library::ConnectOptions options;
  options.include_client_params = true;
  options.reconnect_service = "client.cb";
  auto result = client_->connect_blocking(server_->mac(), "echo", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(server_channels_.size(), 1u);
  EXPECT_EQ(server_channels_[0]->peer(), client_->mac());
  ASSERT_TRUE(server_channels_[0]->client_params.has_value());
  EXPECT_EQ(server_channels_[0]->client_params->reconnect_service,
            "client.cb");
  EXPECT_EQ(server_channels_[0]->session_id(), result.value()->session_id());
}

TEST_F(EngineLibraryTest, UnknownDeviceFails) {
  auto result =
      client_->connect_blocking(MacAddress::from_index(999), "echo");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kNoSuchDevice);
}

TEST_F(EngineLibraryTest, UnknownServiceFailsLocally) {
  auto result = client_->connect_blocking(server_->mac(), "nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kNoSuchService);
}

TEST_F(EngineLibraryTest, UnregisteredServiceRejectedByEngine) {
  Library::ConnectOptions options;
  options.skip_service_check = true;  // bypass the local storage check
  auto result = client_->connect_blocking(server_->mac(), "ghost", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kNoSuchService);
}

TEST_F(EngineLibraryTest, DuplicateServiceRegistrationRejected) {
  const Status again = server_->library().register_service(
      ServiceInfo{"echo", "", 0}, [](ChannelPtr, const wire::ConnectRequest&) {});
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, ErrorCode::kInvalidArgument);
}

TEST_F(EngineLibraryTest, ResumeSubstitutesServerConnection) {
  auto result = client_->connect_blocking(server_->mac(), "echo");
  ASSERT_TRUE(result.ok());
  const ChannelPtr channel = result.value();

  bool server_handover_seen = false;
  ASSERT_EQ(server_channels_.size(), 1u);
  server_channels_[0]->set_handover_handler(
      [&](const net::ConnectionPtr&) { server_handover_seen = true; });

  // Re-establish directly (same session id — the Engine matches it).
  std::optional<Status> resumed;
  client_->library().resume(server_->mac(), channel,
                            [&](Status s) { resumed = s; });
  testbed_.run_for(20.0);
  ASSERT_TRUE(resumed.has_value());
  ASSERT_TRUE(resumed->ok()) << resumed->error().to_string();
  EXPECT_TRUE(server_handover_seen);

  // The session still works end-to-end after substitution.
  Bytes reply;
  channel->set_data_handler([&](const Bytes& frame) { reply = frame; });
  ASSERT_TRUE(channel->write(Bytes{9}).ok());
  testbed_.run_for(5.0);
  EXPECT_EQ(reply, (Bytes{9}));
}

TEST_F(EngineLibraryTest, ResumeUnknownSessionFails) {
  auto result = client_->connect_blocking(server_->mac(), "echo");
  ASSERT_TRUE(result.ok());
  const ChannelPtr channel = result.value();
  // Drop the server-side session, then try to resume.
  server_->daemon().engine().unregister_session(channel->session_id());
  server_channels_.clear();
  std::optional<Status> resumed;
  client_->library().resume(server_->mac(), channel,
                            [&](Status s) { resumed = s; });
  testbed_.run_for(20.0);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_FALSE(resumed->ok());
}

// A dial retransmits its first frame until acknowledged, so an established
// server channel can receive a late copy of it: the bare request from a
// direct dial or from the last bridge's downstream dial, or the client's
// PH_BRIDGE, which the relay forwards opaquely once the chain is up. Every
// opening command must be swallowed and re-acked, never delivered as data.
TEST_F(EngineLibraryTest, LateOpeningFrameIsAbsorbedAndReacked) {
  const MacAddress relay = MacAddress::from_index(77);
  const wire::Command commands[] = {
      wire::Command::kConnect, wire::Command::kResume,
      wire::Command::kResumeRestart, wire::Command::kBridge};
  for (const wire::Command command : commands) {
    SCOPED_TRACE(static_cast<int>(command));
    auto result = client_->connect_blocking(server_->mac(), "echo");
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    const ChannelPtr channel = result.value();
    const ChannelPtr server_channel = server_channels_.back();
    std::vector<Bytes> delivered;
    server_channel->set_data_handler(
        [&](const Bytes& frame) { delivered.push_back(frame); });

    const wire::ConnectRequest request{channel->session_id(), "echo", {}};
    const Bytes frame =
        command == wire::Command::kBridge
            ? wire::encode_open(wire::Command::kConnect, relay,
                                server_->mac(), request)
            : wire::encode_open(command, server_->mac(), server_->mac(),
                                request);
    ASSERT_EQ(frame[0], static_cast<std::uint8_t>(command));
    ASSERT_TRUE(channel->connection()->write(frame).ok());
    testbed_.run_for(5.0);
    EXPECT_TRUE(delivered.empty());
    EXPECT_EQ(server_channel->stray_handshakes_absorbed(), 1u);
    // The re-ack is a duplicate PH_OK the client side swallows in turn.
    EXPECT_EQ(channel->stray_handshakes_absorbed(), 1u);
  }
}

TEST_F(EngineLibraryTest, EngineStatsCount) {
  (void)client_->connect_blocking(server_->mac(), "echo");
  const Engine::Stats& stats = server_->daemon().engine().stats();
  EXPECT_GE(stats.accepted, 1u);
  EXPECT_GE(stats.connects, 1u);
}

TEST_F(EngineLibraryTest, GetDeviceListMatchesStorage) {
  const auto list = client_->library().get_device_list();
  EXPECT_EQ(list.size(), client_->daemon().storage().size());
  ASSERT_FALSE(list.empty());
}

TEST_F(EngineLibraryTest, ChannelSendingFlagDefaultsTrue) {
  auto result = client_->connect_blocking(server_->mac(), "echo");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value()->sending());
  result.value()->set_sending(false);
  EXPECT_FALSE(result.value()->sending());
}

// Regression for the old mutable-erase-in-const find_session: expiry is now
// explicit. A const lookup never mutates the registry; prune_session removes
// exactly the expired entry and leaves live and unknown sessions alone.
TEST(EngineSessionRegistry, ExpiredWeakSessionIsPrunedExplicitly) {
  sim::Simulator sim{1};
  sim::RadioMedium medium{sim};
  net::SimNetwork network{medium};
  Engine engine{network, MacAddress::from_index(1)};

  auto live =
      std::make_shared<Channel>(7, "echo", MacAddress::from_index(2), nullptr);
  auto doomed =
      std::make_shared<Channel>(8, "echo", MacAddress::from_index(3), nullptr);
  engine.register_session(live);
  engine.register_session(doomed);
  EXPECT_EQ(engine.session_count(), 2u);

  doomed.reset();  // the channel expires; the registry entry goes stale
  EXPECT_EQ(engine.find_session(8), nullptr);
  EXPECT_EQ(engine.session_count(), 2u);  // const lookup must not mutate

  EXPECT_FALSE(engine.prune_session(7));   // live session: kept
  EXPECT_FALSE(engine.prune_session(99));  // unknown id: no-op
  EXPECT_EQ(engine.session_count(), 2u);

  EXPECT_TRUE(engine.prune_session(8));  // expired entry: removed
  EXPECT_EQ(engine.session_count(), 1u);
  EXPECT_FALSE(engine.prune_session(8));
  EXPECT_NE(engine.find_session(7), nullptr);
}

}  // namespace
}  // namespace peerhood
