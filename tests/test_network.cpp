#include "net/sim_network.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "forwarding_model.hpp"
#include "net/address.hpp"

namespace peerhood::net {
namespace {

using sim::Vec2;

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim_{123}, medium_{sim_}, net_{medium_} {
    // Deterministic establishment for most tests.
    sim::TechnologyParams bt = sim::bluetooth_params();
    bt.connect_failure_prob = 0.0;
    bt.connect_delay_min_s = 1.0;
    bt.connect_delay_max_s = 1.0;
    medium_.configure(bt);
  }

  MacAddress attach(std::uint64_t index, Vec2 position) {
    const MacAddress mac = MacAddress::from_index(index);
    net_.attach_interface(mac, Technology::kBluetooth,
                          std::make_shared<sim::StaticPosition>(position));
    return mac;
  }

  MacAddress attach_mobile(std::uint64_t index,
                           std::shared_ptr<const sim::MobilityModel> model) {
    const MacAddress mac = MacAddress::from_index(index);
    net_.attach_interface(mac, Technology::kBluetooth, std::move(model));
    return mac;
  }

  // Establishes a connection pair synchronously (drives the simulator).
  std::pair<ConnectionPtr, ConnectionPtr> make_pair(MacAddress from,
                                                    const NetAddress& to) {
    ConnectionPtr client;
    ConnectionPtr server;
    EXPECT_TRUE(
        net_.listen(to, [&server](ConnectionPtr c) { server = std::move(c); })
            .ok());
    net_.connect(from, to, [&client](Result<ConnectionPtr> r) {
      ASSERT_TRUE(r.ok()) << r.error().to_string();
      client = std::move(r).value();
    });
    sim_.run_for(seconds(5.0));
    EXPECT_NE(client, nullptr);
    EXPECT_NE(server, nullptr);
    return {client, server};
  }

  sim::Simulator sim_;
  sim::RadioMedium medium_;
  SimNetwork net_;
};

TEST_F(NetworkTest, DoubleBindListenIsAddressInUse) {
  // Same contract as the Posix backend: the first listener keeps the
  // address, the second bind reports kAddressInUse instead of silently
  // stealing or shadowing it.
  const MacAddress b = attach(2, {5.0, 0.0});
  const NetAddress addr{b, Technology::kBluetooth, 7};
  ASSERT_TRUE(net_.listen(addr, [](ConnectionPtr) {}).ok());
  const Status again = net_.listen(addr, [](ConnectionPtr) {});
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, ErrorCode::kAddressInUse);

  // Releasing the address makes it bindable again.
  net_.stop_listening(addr);
  EXPECT_TRUE(net_.listen(addr, [](ConnectionPtr) {}).ok());
}

TEST_F(NetworkTest, ConnectDeliversBothEnds) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {5.0, 0.0});
  auto [client, server] = make_pair(a, NetAddress{b, Technology::kBluetooth, 7});
  EXPECT_TRUE(client->open());
  EXPECT_TRUE(server->open());
  EXPECT_EQ(client->remote_address().mac, b);
  EXPECT_EQ(server->remote_address().mac, a);
  EXPECT_EQ(client->id(), server->id());
}

TEST_F(NetworkTest, ConnectTakesConfiguredDelay) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {5.0, 0.0});
  ASSERT_TRUE(net_.listen(NetAddress{b, Technology::kBluetooth, 7},
                          [](ConnectionPtr) {})
                  .ok());
  std::optional<double> resolved_at;
  net_.connect(a, NetAddress{b, Technology::kBluetooth, 7},
               [&](Result<ConnectionPtr> r) {
                 ASSERT_TRUE(r.ok());
                 resolved_at = sim_.now().seconds();
               });
  sim_.run_for(seconds(5.0));
  ASSERT_TRUE(resolved_at.has_value());
  EXPECT_NEAR(*resolved_at, 1.0, 1e-6);
}

TEST_F(NetworkTest, ConnectFailsWithoutListener) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {5.0, 0.0});
  std::optional<Error> error;
  net_.connect(a, NetAddress{b, Technology::kBluetooth, 99},
               [&](Result<ConnectionPtr> r) {
                 ASSERT_FALSE(r.ok());
                 error = r.error();
               });
  sim_.run_for(seconds(5.0));
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kConnectionFailed);
}

TEST_F(NetworkTest, ConnectFailsOutOfRange) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {100.0, 0.0});
  ASSERT_TRUE(net_.listen(NetAddress{b, Technology::kBluetooth, 7},
                          [](ConnectionPtr) {})
                  .ok());
  std::optional<Error> error;
  net_.connect(a, NetAddress{b, Technology::kBluetooth, 7},
               [&](Result<ConnectionPtr> r) {
                 if (!r.ok()) error = r.error();
               });
  sim_.run_for(seconds(5.0));
  ASSERT_TRUE(error.has_value());
}

TEST_F(NetworkTest, ConnectToSelfRejected) {
  const MacAddress a = attach(1, {0.0, 0.0});
  std::optional<Error> error;
  net_.connect(a, NetAddress{a, Technology::kBluetooth, 7},
               [&](Result<ConnectionPtr> r) {
                 if (!r.ok()) error = r.error();
               });
  sim_.run_for(seconds(1.0));
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kInvalidArgument);
}

TEST_F(NetworkTest, FailureInjection) {
  sim::TechnologyParams bt = sim::bluetooth_params();
  bt.connect_failure_prob = 1.0;
  medium_.configure(bt);
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {5.0, 0.0});
  ASSERT_TRUE(net_.listen(NetAddress{b, Technology::kBluetooth, 7},
                          [](ConnectionPtr) {})
                  .ok());
  std::optional<Error> error;
  net_.connect(a, NetAddress{b, Technology::kBluetooth, 7},
               [&](Result<ConnectionPtr> r) {
                 if (!r.ok()) error = r.error();
               });
  sim_.run_for(seconds(30.0));
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kConnectionFailed);
}

TEST_F(NetworkTest, DataFlowsBothWays) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {5.0, 0.0});
  auto [client, server] = make_pair(a, NetAddress{b, Technology::kBluetooth, 7});

  Bytes client_got;
  Bytes server_got;
  client->set_data_handler([&](const Bytes& d) { client_got = d; });
  server->set_data_handler([&](const Bytes& d) { server_got = d; });

  ASSERT_TRUE(client->write(Bytes{1, 2}).ok());
  ASSERT_TRUE(server->write(Bytes{3, 4}).ok());
  sim_.run_for(seconds(1.0));
  EXPECT_EQ(server_got, (Bytes{1, 2}));
  EXPECT_EQ(client_got, (Bytes{3, 4}));
}

TEST_F(NetworkTest, FramesBufferWithoutHandler) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {5.0, 0.0});
  auto [client, server] = make_pair(a, NetAddress{b, Technology::kBluetooth, 7});
  ASSERT_TRUE(client->write(Bytes{9}).ok());
  ASSERT_TRUE(client->write(Bytes{8}).ok());
  sim_.run_for(seconds(1.0));
  EXPECT_EQ(server->poll_frame(), (Bytes{9}));
  EXPECT_EQ(server->poll_frame(), (Bytes{8}));
  EXPECT_FALSE(server->poll_frame().has_value());
}

TEST_F(NetworkTest, SettingHandlerDrainsBuffer) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {5.0, 0.0});
  auto [client, server] = make_pair(a, NetAddress{b, Technology::kBluetooth, 7});
  ASSERT_TRUE(client->write(Bytes{7}).ok());
  sim_.run_for(seconds(1.0));
  std::vector<Bytes> got;
  server->set_data_handler([&](const Bytes& d) { got.push_back(d); });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (Bytes{7}));
}

TEST_F(NetworkTest, CloseNotifiesPeer) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {5.0, 0.0});
  auto [client, server] = make_pair(a, NetAddress{b, Technology::kBluetooth, 7});
  bool server_closed = false;
  server->set_close_handler([&] { server_closed = true; });
  client->close();
  EXPECT_FALSE(client->open());
  sim_.run_for(seconds(1.0));
  EXPECT_TRUE(server_closed);
  EXPECT_FALSE(server->open());
}

TEST_F(NetworkTest, LocalCloseDoesNotFireOwnHandler) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {5.0, 0.0});
  auto [client, server] = make_pair(a, NetAddress{b, Technology::kBluetooth, 7});
  bool fired = false;
  client->set_close_handler([&] { fired = true; });
  client->close();
  sim_.run_for(seconds(1.0));
  EXPECT_FALSE(fired);
}

TEST_F(NetworkTest, WriteAfterCloseFails) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {5.0, 0.0});
  auto [client, server] = make_pair(a, NetAddress{b, Technology::kBluetooth, 7});
  client->close();
  EXPECT_FALSE(client->write(Bytes{1}).ok());
}

TEST_F(NetworkTest, CoverageLossKillsConnection) {
  const MacAddress a = attach(1, {0.0, 0.0});
  // Walks out of the 10 m range at t = 10 s — after the connection is up
  // and the close handlers below are installed.
  const MacAddress b = attach_mobile(
      2, std::make_shared<sim::LinearMotion>(Vec2{2.0, 0.0}, Vec2{0.8, 0.0}));
  auto [client, server] = make_pair(a, NetAddress{b, Technology::kBluetooth, 7});
  bool client_lost = false;
  bool server_lost = false;
  client->set_close_handler([&] { client_lost = true; });
  server->set_close_handler([&] { server_lost = true; });
  sim_.run_for(seconds(10.0));
  EXPECT_TRUE(client_lost);
  EXPECT_TRUE(server_lost);
  EXPECT_FALSE(client->open());
}

TEST_F(NetworkTest, LinkQualityReflectsDistance) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {2.0, 0.0});
  const MacAddress c = attach(3, {9.0, 0.0});
  auto [ab_client, ab_server] =
      make_pair(a, NetAddress{b, Technology::kBluetooth, 7});
  auto [ac_client, ac_server] =
      make_pair(a, NetAddress{c, Technology::kBluetooth, 8});
  EXPECT_GT(ab_client->link_quality(), ac_client->link_quality());
}

TEST_F(NetworkTest, QualityOverrideReplacesSampling) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {1.0, 0.0});
  auto [client, server] = make_pair(a, NetAddress{b, Technology::kBluetooth, 7});
  // The §5.2.1 artificial decay: start at 250, minus 1 per second.
  const double t0 = sim_.now().seconds();
  client->set_quality_override([t0](SimTime now) {
    return static_cast<int>(250 - (now.seconds() - t0));
  });
  EXPECT_EQ(client->link_quality(), 250);
  sim_.run_for(seconds(30.0));
  EXPECT_EQ(client->link_quality(), 220);
}

TEST_F(NetworkTest, OverrideReachingZeroKillsConnection) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {1.0, 0.0});
  auto [client, server] = make_pair(a, NetAddress{b, Technology::kBluetooth, 7});
  const double t0 = sim_.now().seconds();
  client->set_quality_override([t0](SimTime now) {
    return static_cast<int>(5 - (now.seconds() - t0));
  });
  bool lost = false;
  server->set_close_handler([&] { lost = true; });
  sim_.run_for(seconds(10.0));
  EXPECT_TRUE(lost);
}

TEST_F(NetworkTest, DroppingLastHandleClosesConnection) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {5.0, 0.0});
  auto [client, server] = make_pair(a, NetAddress{b, Technology::kBluetooth, 7});
  bool server_lost = false;
  server->set_close_handler([&] { server_lost = true; });
  client.reset();  // RAII close
  sim_.run_for(seconds(2.0));
  EXPECT_TRUE(server_lost);
}

// How a connection between a static and a second endpoint dies in the
// keepalive tests below.
enum class Death {
  kClientDropped,  // the client's last handle goes at 3.3 s
  kOverrideZero,   // the client's quality override reads 0 from 3.3 s
  kWalkOut,        // the server end walks out of range at 10 s
};

// When the server end learns that its link died; `unbounded` hides both
// models' speed bounds, so every keepalive tick measures the range.
SimTime server_close_time(Death death, bool unbounded) {
  sim::Simulator sim{123};
  sim::RadioMedium medium{sim};
  SimNetwork net{medium};
  sim::TechnologyParams bt = sim::bluetooth_params();
  bt.connect_failure_prob = 0.0;
  bt.connect_delay_min_s = 1.0;
  bt.connect_delay_max_s = 1.0;
  medium.configure(bt);
  const MacAddress a = MacAddress::from_index(1);
  const MacAddress b = MacAddress::from_index(2);
  net.attach_interface(
      a, Technology::kBluetooth,
      testing::maybe_unbounded(std::make_shared<sim::StaticPosition>(Vec2{}),
                               unbounded));
  std::shared_ptr<const sim::MobilityModel> walk =
      death == Death::kWalkOut
          ? std::shared_ptr<const sim::MobilityModel>{std::make_shared<
                sim::LinearMotion>(Vec2{2.0, 0.0}, Vec2{0.8, 0.0})}
          : std::make_shared<sim::StaticPosition>(Vec2{3.0, 0.0});
  net.attach_interface(b, Technology::kBluetooth,
                       testing::maybe_unbounded(std::move(walk), unbounded));
  ConnectionPtr client;
  ConnectionPtr server;
  const NetAddress to{b, Technology::kBluetooth, 7};
  EXPECT_TRUE(net.listen(to, [&](ConnectionPtr c) { server = c; }).ok());
  net.connect(a, to, [&](Result<ConnectionPtr> r) {
    client = std::move(r).value();
  });
  sim.run_until(SimTime{} + seconds(3.3));
  EXPECT_NE(server, nullptr);
  SimTime closed{};
  server->set_close_handler([&] { closed = sim.now(); });
  if (death == Death::kClientDropped) client.reset();
  if (death == Death::kOverrideZero) {
    client->set_quality_override([](SimTime) { return 0; });
  }
  sim.run_until(SimTime{} + seconds(20.0));
  EXPECT_FALSE(server->open());
  return closed;
}

// The range horizon changes no teardown: the
// server end hears of it at the same instant as with every tick measuring,
// which for an override or a walk-out is the first keepalive tick after
// the death (ticks every 500 ms from the connect at 1 s).
TEST(SimKeepalive, TearsDownOnTheSameTickAsAlwaysMeasuring) {
  for (const Death death :
       {Death::kClientDropped, Death::kOverrideZero, Death::kWalkOut}) {
    EXPECT_EQ(server_close_time(death, false),
              server_close_time(death, true))
        << static_cast<int>(death);
  }
  EXPECT_EQ(server_close_time(Death::kOverrideZero, false),
            SimTime{} + seconds(3.5));
  EXPECT_EQ(server_close_time(Death::kWalkOut, false),
            SimTime{} + seconds(10.5));
  // The dropped client tells its peer in a close frame, one hop later.
  EXPECT_LT(server_close_time(Death::kClientDropped, false),
            SimTime{} + seconds(3.5));
}

TEST_F(NetworkTest, PairsAreReclaimed) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {5.0, 0.0});
  {
    auto [client, server] =
        make_pair(a, NetAddress{b, Technology::kBluetooth, 7});
    client->close();
  }
  sim_.run_for(seconds(2.0));
  EXPECT_EQ(net_.live_connection_count(), 0u);
}

TEST_F(NetworkTest, DatagramsRouteToHandler) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {5.0, 0.0});
  Bytes got;
  MacAddress got_from;
  net_.set_datagram_handler(b, Technology::kBluetooth,
                            [&](MacAddress from,
                                std::span<const std::uint8_t> payload) {
                              got.assign(payload.begin(), payload.end());
                              got_from = from;
                            });
  net_.send_datagram(a, b, Technology::kBluetooth,
                     make_datagram_frame(3, [](ByteWriter& writer) {
                       writer.raw(Bytes{5, 5, 5});
                     }));
  sim_.run_for(seconds(1.0));
  EXPECT_EQ(got, (Bytes{5, 5, 5}));
  EXPECT_EQ(got_from, a);
}

TEST_F(NetworkTest, StopListeningRefusesNewConnections) {
  const MacAddress a = attach(1, {0.0, 0.0});
  const MacAddress b = attach(2, {5.0, 0.0});
  const NetAddress addr{b, Technology::kBluetooth, 7};
  ASSERT_TRUE(net_.listen(addr, [](ConnectionPtr) {}).ok());
  net_.stop_listening(addr);
  std::optional<Error> error;
  net_.connect(a, addr, [&](Result<ConnectionPtr> r) {
    if (!r.ok()) error = r.error();
  });
  sim_.run_for(seconds(5.0));
  EXPECT_TRUE(error.has_value());
}

}  // namespace
}  // namespace peerhood::net
