// One connection contract, two backends: the same cases run over a
// SimNetwork pair (driven by Simulator::run_for) and a PosixNetwork loopback
// pair (driven by poll_once). Both backends share net::Connection's endpoint
// logic, so every case must hold on both.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "net/connection.hpp"
#include "net/posix_network.hpp"
#include "net/sim_network.hpp"
#include "sim/simulator.hpp"

namespace peerhood::net {
namespace {

constexpr auto kBluetooth = Technology::kBluetooth;

// Two static devices 5 m apart on one simulated medium, with deterministic
// 1 s connection establishment.
class SimBackend {
 public:
  SimBackend() : sim_{123}, medium_{sim_}, net_{medium_} {
    sim::TechnologyParams bt = sim::bluetooth_params();
    bt.connect_failure_prob = 0.0;
    bt.connect_delay_min_s = 1.0;
    bt.connect_delay_max_s = 1.0;
    medium_.configure(bt);
    net_.attach_interface(client_mac_, kBluetooth,
                          std::make_shared<sim::StaticPosition>(
                              sim::Vec2{0.0, 0.0}));
    net_.attach_interface(server_mac_, kBluetooth,
                          std::make_shared<sim::StaticPosition>(
                              sim::Vec2{5.0, 0.0}));
  }

  Network& client_net() { return net_; }
  Network& server_net() { return net_; }
  MacAddress client_mac() const { return client_mac_; }
  MacAddress server_mac() const { return server_mac_; }

  // Runs the simulation until `done` or 30 simulated seconds have passed.
  bool run_until(const std::function<bool()>& done) {
    const SimTime deadline = sim_.now() + seconds(30.0);
    while (!done() && sim_.now() < deadline) sim_.run_for(milliseconds(10));
    return done();
  }
  // Lets every in-flight frame, close and keepalive tick play out.
  void settle() { sim_.run_for(seconds(2.0)); }

 private:
  sim::Simulator sim_;
  sim::RadioMedium medium_;
  SimNetwork net_;
  MacAddress client_mac_{MacAddress::from_index(1)};
  MacAddress server_mac_{MacAddress::from_index(2)};
};

// Two real-socket backends on kernel-assigned loopback ports, pumped
// alternately.
class PosixBackend {
 public:
  PosixBackend()
      : client_{PosixNetwork::open(config(1)).value()},
        server_{PosixNetwork::open(config(2)).value()} {
    client_->add_peer({server_->mac(), "127.0.0.1", server_->udp_port(),
                       server_->tcp_port()});
    server_->add_peer({client_->mac(), "127.0.0.1", client_->udp_port(),
                       client_->tcp_port()});
    client_->attach_interface(client_->mac(), kBluetooth, nullptr);
    server_->attach_interface(server_->mac(), kBluetooth, nullptr);
  }

  Network& client_net() { return *client_; }
  Network& server_net() { return *server_; }
  MacAddress client_mac() const { return client_->mac(); }
  MacAddress server_mac() const { return server_->mac(); }

  // Pumps both event cores until `done` or a 5 s wall-clock deadline.
  bool run_until(const std::function<bool()>& done, int deadline_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      client_->poll_once(milliseconds(2));
      server_->poll_once(milliseconds(2));
    }
    return done();
  }
  void settle() { (void)run_until([] { return false; }, 100); }

 private:
  static PosixConfig config(std::uint64_t index) {
    PosixConfig config;
    config.mac = MacAddress::from_index(index);
    config.seed = index;
    return config;
  }

  std::unique_ptr<PosixNetwork> client_;
  std::unique_ptr<PosixNetwork> server_;
};

template <typename Backend>
class ConnectionContract : public ::testing::Test {
 protected:
  void SetUp() override {
    const NetAddress addr{backend_.server_mac(), kBluetooth, 42};
    ASSERT_TRUE(backend_.server_net()
                    .listen(addr, [this](ConnectionPtr c) {
                      server_ = std::move(c);
                    })
                    .ok());
    backend_.client_net().connect(
        backend_.client_mac(), addr, [this](Result<ConnectionPtr> result) {
          if (result.ok()) client_ = std::move(result).value();
        });
    ASSERT_TRUE(backend_.run_until(
        [this] { return client_ != nullptr && server_ != nullptr; }));
  }

  // Runs until the server's network has checked `count` more frames: a
  // frame that reached the server but sits in its receive queue.
  void await_server_frames(std::uint64_t count) {
    const std::uint64_t target =
        backend_.server_net().net_stats().frames_checked + count;
    ASSERT_TRUE(backend_.run_until([this, target] {
      return backend_.server_net().net_stats().frames_checked >= target;
    }));
  }

  // Declared first so the endpoints below are destroyed before it.
  Backend backend_;
  ConnectionPtr client_;
  ConnectionPtr server_;
};

using Backends = ::testing::Types<SimBackend, PosixBackend>;
TYPED_TEST_SUITE(ConnectionContract, Backends);

TYPED_TEST(ConnectionContract, FramesBufferedBeforeAHandlerDrainInOrder) {
  for (std::uint8_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(this->client_->write(Bytes{i}).ok());
  }
  this->await_server_frames(3);
  std::vector<Bytes> seen;
  this->server_->set_data_handler(
      [&seen](const Bytes& frame) { seen.push_back(frame); });
  EXPECT_EQ(seen, (std::vector<Bytes>{{1}, {2}, {3}}));
  // Later frames go straight to the handler.
  ASSERT_TRUE(this->client_->write(Bytes{4}).ok());
  ASSERT_TRUE(this->backend_.run_until([&seen] { return seen.size() == 4; }));
  EXPECT_EQ(seen.back(), Bytes{4});
}

TYPED_TEST(ConnectionContract, HandlerReplacingItselfMidDrainSeesEachFrameOnce) {
  for (std::uint8_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(this->client_->write(Bytes{i}).ok());
  }
  this->await_server_frames(3);
  std::vector<Bytes> first;
  std::vector<Bytes> second;
  Connection* server = this->server_.get();
  server->set_data_handler([&, server](const Bytes& frame) {
    first.push_back(frame);
    server->set_data_handler(
        [&second](const Bytes& f) { second.push_back(f); });
  });
  EXPECT_EQ(first, (std::vector<Bytes>{{1}}));
  EXPECT_EQ(second, (std::vector<Bytes>{{2}, {3}}));
  EXPECT_FALSE(server->poll_frame().has_value());
}

TYPED_TEST(ConnectionContract, LocalCloseDoesNotFireOwnCloseHandler) {
  int client_closes = 0;
  bool server_closed = false;
  this->client_->set_close_handler([&client_closes] { ++client_closes; });
  this->server_->set_close_handler([&server_closed] { server_closed = true; });
  this->client_->close();
  EXPECT_FALSE(this->client_->open());
  ASSERT_TRUE(this->backend_.run_until([&] { return server_closed; }));
  this->backend_.settle();
  EXPECT_EQ(client_closes, 0);
  const Status write = this->client_->write(Bytes{1});
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.error().code, ErrorCode::kConnectionClosed);
}

TYPED_TEST(ConnectionContract, PeerCloseFiresTheCloseHandlerOnce) {
  int server_closes = 0;
  this->server_->set_close_handler([&server_closes] { ++server_closes; });
  this->client_->close();
  ASSERT_TRUE(
      this->backend_.run_until([&server_closes] { return server_closes > 0; }));
  this->backend_.settle();
  EXPECT_EQ(server_closes, 1);
  EXPECT_FALSE(this->server_->open());
  EXPECT_EQ(this->server_->link_quality(), 0);
}

TYPED_TEST(ConnectionContract, DroppingTheLastHandleClosesThePeer) {
  bool server_closed = false;
  this->server_->set_close_handler([&server_closed] { server_closed = true; });
  this->client_.reset();
  ASSERT_TRUE(this->backend_.run_until([&] { return server_closed; }));
  EXPECT_FALSE(this->server_->open());
}

TYPED_TEST(ConnectionContract, AcceptThatWritesAndClosesStillConnects) {
  // A server that answers and hangs up at once: the connect succeeds, the
  // frame arrives and the close handler fires once, even when the ack, the
  // frame and the end of stream reach the client together.
  const NetAddress addr{this->backend_.server_mac(), kBluetooth, 43};
  ASSERT_TRUE(this->backend_.server_net()
                  .listen(addr,
                          [](ConnectionPtr c) {
                            ASSERT_TRUE(c->write(Bytes{7}).ok());
                            c->close();
                          })
                  .ok());
  ConnectionPtr client;
  std::vector<Bytes> seen;
  int closes = 0;
  bool failed = false;
  this->backend_.client_net().connect(
      this->backend_.client_mac(), addr, [&](Result<ConnectionPtr> result) {
        if (!result.ok()) {
          failed = true;
          return;
        }
        client = std::move(result).value();
        client->set_data_handler(
            [&seen](const Bytes& frame) { seen.push_back(frame); });
        client->set_close_handler([&closes] { ++closes; });
      });
  ASSERT_TRUE(
      this->backend_.run_until([&] { return failed || closes > 0; }));
  this->backend_.settle();
  EXPECT_FALSE(failed);
  EXPECT_EQ(seen, (std::vector<Bytes>{{7}}));
  EXPECT_EQ(closes, 1);
  EXPECT_FALSE(client->open());
}

TYPED_TEST(ConnectionContract, QualityOverrideDrivesLinkQuality) {
  const int live = this->client_->link_quality();
  EXPECT_GT(live, 0);
  this->client_->set_quality_override([](SimTime) { return 17; });
  EXPECT_EQ(this->client_->link_quality(), 17);
  this->client_->set_quality_override(nullptr);
  EXPECT_GT(this->client_->link_quality(), 0);
}

TYPED_TEST(ConnectionContract, OversizeWriteIsRefusedAndTheConnectionStaysOpen) {
  std::vector<Bytes> seen;
  this->server_->set_data_handler(
      [&seen](const Bytes& frame) { seen.push_back(frame); });

  const Status plain = this->client_->write(Bytes(kMaxConnPayload + 1, 0xAB));
  ASSERT_FALSE(plain.ok());
  EXPECT_EQ(plain.error().code, ErrorCode::kInvalidArgument);
  const Status with_room = this->client_->write_with_room(
      Bytes(kConnFrameHeaderSize + kMaxConnPayload + 1, 0xAB));
  ASSERT_FALSE(with_room.ok());
  EXPECT_EQ(with_room.error().code, ErrorCode::kInvalidArgument);
  EXPECT_TRUE(this->client_->open());

  // A maximal frame still round-trips, and so does the frame after it.
  Bytes maximal(kMaxConnPayload);
  for (std::size_t i = 0; i < maximal.size(); ++i) {
    maximal[i] = static_cast<std::uint8_t>(i * 7);
  }
  ASSERT_TRUE(this->client_->write(maximal).ok());
  Bytes roomy(kConnFrameHeaderSize, 0);
  roomy.push_back(5);
  ASSERT_TRUE(this->client_->write_with_room(std::move(roomy)).ok());
  ASSERT_TRUE(this->backend_.run_until([&seen] { return seen.size() == 2; }));
  EXPECT_EQ(seen[0], maximal);
  EXPECT_EQ(seen[1], Bytes{5});
  EXPECT_TRUE(this->server_->open());
  EXPECT_EQ(this->backend_.server_net().net_stats().corrupt_drops, 0u);
}

}  // namespace
}  // namespace peerhood::net
