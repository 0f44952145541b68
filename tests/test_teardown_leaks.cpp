// Teardown / ownership regression net (PR 3). Every scenario here ends with
// live session objects destroyed at an "interesting" phase — mid-handshake,
// mid-transfer, mid-handover, with frames in flight or retries pending — and
// the CI sanitize job runs this binary with LeakSanitizer fully on
// (`detect_leaks=1`, no suppressions): a reintroduced handler reference
// cycle or a callback that outlives its owner fails the job, not just the
// explicit EXPECTs below.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "handover/handover.hpp"
#include "net/posix_network.hpp"
#include "migration/task_client.hpp"
#include "migration/task_server.hpp"
#include "peerhood/channel.hpp"
#include "scenario_util.hpp"

namespace peerhood {
namespace {

using handover::HandoverController;
using migration::MigrationOutcome;
using migration::TaskClient;
using migration::TaskClientConfig;
using migration::TaskServer;
using migration::TaskServerConfig;
using node::Testbed;
using testing::fast_node;
using testing::reliable_bluetooth;

// A tracked capture: tests hand these to handlers and then assert (through
// the weak reference) that severing the handler released the capture.
struct Tracker {
  std::shared_ptr<int> strong = std::make_shared<int>(0);
  std::weak_ptr<int> weak = strong;

  // Keep only the handler's copy alive.
  void drop_local() { strong.reset(); }
  [[nodiscard]] bool released() const { return weak.expired(); }
};

// Two nodes in range with a connected "echo"-less session; the fixture keeps
// the server-side channels alive in an explicit registry.
class TeardownTest : public ::testing::Test {
 protected:
  void build(std::uint64_t seed) {
    testbed_ = std::make_unique<Testbed>(seed);
    testbed_->medium().configure(reliable_bluetooth());
    client_ = &testbed_->add_node("client", {0.0, 0.0},
                                  fast_node(MobilityClass::kDynamic));
    server_ = &testbed_->add_node("server", {5.0, 0.0},
                                  fast_node(MobilityClass::kStatic));
    (void)server_->library().register_service(
        ServiceInfo{"sink", "", 0},
        [this](ChannelPtr channel, const wire::ConnectRequest&) {
          server_channels_.push_back(std::move(channel));
        });
    testbed_->run_discovery_rounds(3);
  }

  ChannelPtr connect() {
    auto result = client_->connect_blocking(server_->mac(), "sink");
    EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().to_string());
    return result.ok() ? result.value() : nullptr;
  }

  std::unique_ptr<Testbed> testbed_;
  node::Node* client_{nullptr};
  node::Node* server_{nullptr};
  std::vector<ChannelPtr> server_channels_;
};

TEST_F(TeardownTest, ChannelCloseSeversHandlersImmediately) {
  build(1);
  const ChannelPtr channel = connect();
  ASSERT_NE(channel, nullptr);

  Tracker data_capture;
  Tracker close_capture;
  Tracker handover_capture;
  channel->set_data_handler([keep = data_capture.strong](const Bytes&) {});
  channel->set_close_handler([keep = close_capture.strong] {});
  channel->set_handover_handler(
      [keep = handover_capture.strong](const net::ConnectionPtr&) {});
  data_capture.drop_local();
  close_capture.drop_local();
  handover_capture.drop_local();
  ASSERT_FALSE(data_capture.released());

  channel->close();
  // Severing is synchronous: the captures are gone before any event runs.
  EXPECT_TRUE(data_capture.released());
  EXPECT_TRUE(close_capture.released());
  EXPECT_TRUE(handover_capture.released());
  EXPECT_TRUE(channel->closed());
  EXPECT_FALSE(channel->open());

  // A closed channel silently refuses new handlers instead of re-arming.
  Tracker late;
  channel->set_data_handler([keep = late.strong](const Bytes&) {});
  late.drop_local();
  EXPECT_TRUE(late.released());

  // close() is idempotent, from any side, any number of times.
  channel->close();
  EXPECT_TRUE(channel->closed());
}

TEST_F(TeardownTest, CloseHandlerFiresAtMostOnce) {
  build(2);
  const ChannelPtr channel = connect();
  ASSERT_NE(channel, nullptr);
  ASSERT_EQ(server_channels_.size(), 1u);

  int client_loss_reports = 0;
  channel->set_close_handler([&] {
    ++client_loss_reports;
    // Reentrant endpoint-side close from inside the transport-loss callback:
    // must not re-fire the handler or crash.
    channel->close();
  });

  // Transport side: the server endpoint closes; the client's keepalive and
  // the peer close frame both observe the death.
  server_channels_.front()->close();
  testbed_->run_for(5.0);
  EXPECT_EQ(client_loss_reports, 1);
  EXPECT_TRUE(channel->closed());
}

TEST_F(TeardownTest, CloseFromInsideDataHandlerMidTrain) {
  build(3);
  const ChannelPtr channel = connect();
  ASSERT_NE(channel, nullptr);
  ASSERT_EQ(server_channels_.size(), 1u);

  // The server sends a train of frames; the client closes the channel from
  // inside the first delivery. The remaining in-flight frames must land
  // harmlessly (connection closed, frames dropped), not crash or leak.
  int delivered = 0;
  channel->set_data_handler([&](const Bytes&) {
    ++delivered;
    channel->close();
  });
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server_channels_.front()->write(Bytes{std::uint8_t(i)}).ok());
  }
  testbed_->run_for(5.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(channel->closed());
}

TEST_F(TeardownTest, TeardownWithUndeliveredRxFrames) {
  build(4);
  const ChannelPtr channel = connect();
  ASSERT_NE(channel, nullptr);
  // Frames pile up in the connection's rx queue (no data handler installed)
  // and more are still in flight when everything is destroyed.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(server_channels_.front()->write(Bytes(64, 0x5A)).ok());
  }
  testbed_->run_for(0.01);  // some delivered into rx, some still in flight
  // Destroy in awkward order: server channels first, then the testbed with
  // the client channel still open. LSan asserts nothing survives.
  server_channels_.clear();
  testbed_.reset();
  EXPECT_FALSE(channel->open());
}

TEST_F(TeardownTest, CloseStopsTheReliabilityEngine) {
  build(5);
  // The engine's timers run on a simulator of their own, whose queue holds
  // nothing else.
  sim::Simulator engine_sim{5};
  const ChannelPtr channel = connect();
  ASSERT_NE(channel, nullptr);
  const ReliableChannel& reliable = channel->make_reliable(engine_sim);
  ASSERT_TRUE(channel->write(Bytes{1, 2, 3}).ok());
  ASSERT_EQ(reliable.unacked(), 1u);
  ASSERT_FALSE(engine_sim.idle()) << "the retransmit timer is armed";
  // Closing with the frame unacked cancels the engine's timers.
  channel->close();
  EXPECT_TRUE(engine_sim.idle());
  EXPECT_EQ(channel->write(Bytes{4}).error().code,
            ErrorCode::kConnectionClosed);
  EXPECT_EQ(reliable.unacked(), 1u);
}

TEST_F(TeardownTest, EngineStopClosesPendingHandshakes) {
  build(6);
  // Open a transport connection to the engine but never send the handshake
  // frame, then stop the engine: the pending connection must be severed and
  // closed, not parked forever.
  net::ConnectionPtr half_open;
  testbed_->network().connect(
      client_->mac(),
      net::NetAddress{server_->mac(), Technology::kBluetooth,
                      net::kPeerHoodEnginePort},
      [&](Result<net::ConnectionPtr> result) {
        if (result.ok()) half_open = std::move(result).value();
      });
  testbed_->run_for(10.0);
  ASSERT_NE(half_open, nullptr);
  ASSERT_TRUE(half_open->open());

  bool closed = false;
  half_open->set_close_handler([&] { closed = true; });
  server_->daemon().engine().stop();
  testbed_->run_for(5.0);
  EXPECT_TRUE(closed);
  EXPECT_FALSE(half_open->open());
}

TEST_F(TeardownTest, DialTimeoutReleasesHalfOpenConnection) {
  build(7);
  // A listener that accepts and never acknowledges: the library dial must
  // time out AND release the half-open connection (pre-PR 3 the handlers
  // stayed installed, pinning the connection in a cycle).
  server_->daemon().engine().stop();
  std::vector<net::ConnectionPtr> parked;
  const net::NetAddress engine_addr{server_->mac(), Technology::kBluetooth,
                                    net::kPeerHoodEnginePort};
  ASSERT_TRUE(testbed_->network()
                  .listen(engine_addr,
                          [&](net::ConnectionPtr conn) {
                            parked.push_back(std::move(conn));
                          })
                  .ok());

  Library::ConnectOptions options;
  options.timeout = seconds(10.0);
  Result<ChannelPtr> outcome = Error{ErrorCode::kCancelled, "pending"};
  client_->library().connect(server_->mac(), "sink", options,
                             [&](Result<ChannelPtr> result) {
                               outcome = std::move(result);
                             });
  testbed_->run_for(30.0);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kTimeout);
  // The abandoned dial closed its half-open connection; the parked server
  // end observed it.
  ASSERT_EQ(parked.size(), 1u);
  EXPECT_FALSE(parked.front()->open());
}

TEST_F(TeardownTest, CloseHandlerRearmsAcrossSubstitution) {
  build(8);
  const ChannelPtr channel = connect();
  ASSERT_NE(channel, nullptr);
  ASSERT_EQ(server_channels_.size(), 1u);

  int losses = 0;
  channel->set_close_handler([&] { ++losses; });
  server_channels_.front()->close();  // first transport dies
  testbed_->run_for(5.0);
  EXPECT_EQ(losses, 1);
  EXPECT_FALSE(channel->closed()) << "a transport loss is not a session end";

  // Substitute a fresh raw transport (what Library::resume does), then
  // kill it too: the new transport's death is a new loss and must be
  // reported again — fires-at-most-once is per transport, not per channel.
  const net::NetAddress addr{server_->mac(), Technology::kBluetooth, 999};
  net::ConnectionPtr server_end;
  net::ConnectionPtr client_end;
  ASSERT_TRUE(testbed_->network()
                  .listen(addr,
                          [&](net::ConnectionPtr conn) {
                            server_end = std::move(conn);
                          })
                  .ok());
  testbed_->network().connect(client_->mac(), addr,
                              [&](Result<net::ConnectionPtr> result) {
                                if (result.ok()) {
                                  client_end = std::move(result).value();
                                }
                              });
  testbed_->run_for(10.0);
  ASSERT_NE(server_end, nullptr);
  ASSERT_NE(client_end, nullptr);

  channel->replace_connection(client_end);
  EXPECT_TRUE(channel->open());
  server_end->close();  // second transport dies
  testbed_->run_for(5.0);
  EXPECT_EQ(losses, 2);
}

TEST_F(TeardownTest, RxDrainSurvivesHandlerDroppingLastReference) {
  build(9);
  // Raw transport pair (no channel wrapping it): the client end's only
  // strong reference is the local holder below.
  const net::NetAddress addr{server_->mac(), Technology::kBluetooth, 998};
  net::ConnectionPtr server_end;
  net::ConnectionPtr client_end;
  ASSERT_TRUE(testbed_->network()
                  .listen(addr,
                          [&](net::ConnectionPtr conn) {
                            server_end = std::move(conn);
                          })
                  .ok());
  testbed_->network().connect(client_->mac(), addr,
                              [&](Result<net::ConnectionPtr> result) {
                                if (result.ok()) {
                                  client_end = std::move(result).value();
                                }
                              });
  testbed_->run_for(10.0);
  ASSERT_NE(client_end, nullptr);

  // Buffer several frames with no handler armed...
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server_end->write(Bytes{std::uint8_t(i)}).ok());
  }
  testbed_->run_for(5.0);
  // ...then install a handler that destroys the connection from inside the
  // drain: the loop must stop without touching the freed object (ASan
  // guards the assert) and the undrained tail dies with the connection.
  int seen = 0;
  client_end->set_data_handler([&](const Bytes&) {
    ++seen;
    client_end.reset();
  });
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(client_end, nullptr);
  testbed_->run_for(5.0);  // the RAII close propagates to the server end
  EXPECT_FALSE(server_end->open());
}

TEST(TeardownScenario, BridgeChainMidTransfer) {
  // a - b - c chain relaying traffic; everything is destroyed with relay
  // frames in flight and the bridge pair still established. LSan owns the
  // assert: the relay handlers must not pin the connection pair.
  auto testbed = std::make_unique<Testbed>(20);
  testbed->medium().configure(reliable_bluetooth());
  auto& a = testbed->add_node("a", {0.0, 0.0},
                              fast_node(MobilityClass::kDynamic));
  testbed->add_node("b", {8.0, 0.0}, fast_node(MobilityClass::kStatic));
  auto& c = testbed->add_node("c", {16.0, 0.0},
                              fast_node(MobilityClass::kStatic));
  std::vector<ChannelPtr> server_sessions;
  int echoed = 0;
  (void)c.library().register_service(
      ServiceInfo{"echo", "", 0},
      [&](ChannelPtr channel, const wire::ConnectRequest&) {
        server_sessions.push_back(channel);
        channel->set_data_handler([raw = channel.get()](const Bytes& frame) {
          (void)raw->write(frame);
        });
      });
  testbed->run_discovery_rounds(6);

  auto result = a.connect_blocking(c.mac(), "echo", {}, 300.0);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const ChannelPtr channel = result.value();
  channel->set_data_handler([&](const Bytes&) { ++echoed; });
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(channel->write(Bytes(32, 0x11)).ok());
  }
  // A tick long enough for some frames to cross b but not the full round
  // trip of all of them — guaranteed in-flight traffic at teardown.
  testbed->run_for(0.05);
  testbed.reset();
  EXPECT_FALSE(channel->open());
  EXPECT_LT(echoed, 6);
}

TEST(TeardownScenario, ControllerDestroyedMidHandover) {
  // The handover controller dies while its resume-via-bridge dial is in
  // flight; the simulation keeps running long enough for the dial to
  // resolve against the destroyed controller (token guard, not UAF).
  Testbed testbed{21};
  testbed.medium().configure(reliable_bluetooth());
  auto& a = testbed.add_node("a", {0.0, 0.0},
                             fast_node(MobilityClass::kDynamic));
  auto& s = testbed.add_node("s", {4.0, 0.0},
                             fast_node(MobilityClass::kStatic));
  testbed.add_node("c", {2.0, 3.0}, fast_node(MobilityClass::kStatic));
  std::vector<ChannelPtr> server_sessions;
  (void)s.library().register_service(
      ServiceInfo{"print", "", 0},
      [&](ChannelPtr channel, const wire::ConnectRequest&) {
        server_sessions.push_back(std::move(channel));
      });
  testbed.run_discovery_rounds(4);

  auto result = a.connect_blocking(s.mac(), "print");
  ASSERT_TRUE(result.ok());
  const ChannelPtr channel = result.value();
  const double t0 = testbed.sim().now().seconds();
  channel->connection()->set_quality_override([t0](SimTime now) {
    return static_cast<int>(250.0 - (now.seconds() - t0));
  });

  auto controller =
      std::make_unique<HandoverController>(a.library(), channel, handover::HandoverConfig{});
  controller->start();
  // Run until the degradation fires and a route attempt is in flight but
  // not yet resolved (bridge dialing takes a couple of simulated seconds).
  const bool attempting = testing::run_until(
      testbed,
      [&] {
        return controller->stats().route_attempts >= 1 &&
               controller->stats().handovers == 0;
      },
      60.0);
  ASSERT_TRUE(attempting);
  controller.reset();
  testbed.run_for(60.0);  // resume resolves against the dead controller
  SUCCEED();
}

TEST(TeardownScenario, ControllerDestroyedFromInsideItsOwnEventHandler) {
  // The documented contract (handler_slot.hpp rule 3): an event handler may
  // destroy the controller outright — here from inside the monitor tick,
  // which exercises PeriodicTask's destroy-mid-tick tolerance as well as
  // emit()'s return-false protocol.
  Testbed testbed{24};
  testbed.medium().configure(reliable_bluetooth());
  auto& a = testbed.add_node("a", {0.0, 0.0},
                             fast_node(MobilityClass::kDynamic));
  auto& s = testbed.add_node("s", {4.0, 0.0},
                             fast_node(MobilityClass::kStatic));
  testbed.add_node("c", {2.0, 3.0}, fast_node(MobilityClass::kStatic));
  std::vector<ChannelPtr> server_sessions;
  (void)s.library().register_service(
      ServiceInfo{"print", "", 0},
      [&](ChannelPtr channel, const wire::ConnectRequest&) {
        server_sessions.push_back(std::move(channel));
      });
  testbed.run_discovery_rounds(4);

  auto result = a.connect_blocking(s.mac(), "print");
  ASSERT_TRUE(result.ok());
  const ChannelPtr channel = result.value();
  const double t0 = testbed.sim().now().seconds();
  channel->connection()->set_quality_override([t0](SimTime now) {
    return static_cast<int>(250.0 - (now.seconds() - t0));
  });

  auto controller = std::make_unique<HandoverController>(
      a.library(), channel, handover::HandoverConfig{});
  controller->set_event_handler([&](const handover::HandoverEvent& event) {
    if (event.kind == handover::HandoverEvent::Kind::kDegradationDetected) {
      controller.reset();  // destroy the controller from inside its tick
    }
  });
  controller->start();
  testbed.run_for(60.0);
  EXPECT_EQ(controller, nullptr);
}

TEST(TeardownScenario, MigrationActorsDestroyedMidFlight) {
  // TaskClient destroyed mid-upload, TaskServer destroyed while its
  // result-routing retry chain is still pending; the world keeps running.
  Testbed testbed{22};
  testbed.medium().configure(reliable_bluetooth());
  auto& server = testbed.add_node("server", {5.0, 0.0},
                                  fast_node(MobilityClass::kStatic));
  auto& client = testbed.add_node("client", {0.0, 0.0},
                                  fast_node(MobilityClass::kDynamic));
  TaskServerConfig server_config;
  server_config.result_routing.retry_base = seconds(5.0);
  auto task_server = std::make_unique<TaskServer>(server.library(),
                                                  server_config);
  task_server->start();
  testbed.run_discovery_rounds(3);

  TaskClientConfig config;
  config.spec.package_count = 50;
  config.spec.send_interval = seconds(1.0);
  config.spec.per_package_processing = milliseconds(100);
  auto task_client = std::make_unique<TaskClient>(
      client.library(), server.mac(), "picture.analyse", config);
  bool done = false;
  task_client->run([&](const MigrationOutcome&) { done = true; });
  testbed.run_for(10.0);  // mid-upload
  ASSERT_FALSE(done);
  task_client.reset();

  // The server session is now stuck; let its timeout/result path churn,
  // then kill the server too and keep the simulator running.
  testbed.run_for(30.0);
  task_server.reset();
  testbed.run_for(60.0);
  SUCCEED();
}

TEST(TeardownScenario, TestbedDestroyedMidHandshake) {
  // Connection accepted by the engine, handshake frame still in flight.
  auto testbed = std::make_unique<Testbed>(23);
  testbed->medium().configure(reliable_bluetooth());
  auto& a = testbed->add_node("a", {0.0, 0.0},
                              fast_node(MobilityClass::kDynamic));
  auto& b = testbed->add_node("b", {5.0, 0.0},
                              fast_node(MobilityClass::kStatic));
  std::vector<ChannelPtr> sessions;
  (void)b.library().register_service(
      ServiceInfo{"svc", "", 0},
      [&](ChannelPtr channel, const wire::ConnectRequest&) {
        sessions.push_back(std::move(channel));
      });
  testbed->run_discovery_rounds(3);

  bool resolved = false;
  a.library().connect(b.mac(), "svc", {},
                      [&](Result<ChannelPtr>) { resolved = true; });
  // Run into the establishment window (connect delay is 0.5-1.0 s): the
  // PH_CONNECT frame is in flight or freshly pending at the engine.
  testbed->run_for(0.9);
  testbed.reset();
  (void)resolved;  // either way — the point is leak-free teardown
  SUCCEED();
}

// --- Quality-observer lifecycle (PR 5) ---------------------------------------
// The predictive engine subscribes a quality observer on the medium; its
// callbacks follow the HandlerSlot rules: pin-before-call dispatch, an
// idempotent unsubscribe, and destruction of the subscribed controller from
// inside its own event chain must be safe.

namespace observer_teardown {

// Corridor walk whose client starts next to the server and leaves at 0.75
// m/s after `departure_s` — enough time for discovery and the connect.
struct Walkout {
  Walkout(std::uint64_t seed, double departure_s) : testbed{seed} {
    testbed.medium().configure(reliable_bluetooth());
    server = &testbed.add_node("server", {0.0, 0.0},
                               fast_node(MobilityClass::kStatic));
    testbed.add_node("bridge", {8.0, 0.0}, fast_node(MobilityClass::kStatic));
    client = &testbed.add_mobile_node(
        "client",
        std::make_shared<sim::LinearMotion>(
            sim::Vec2{2.0, 0.0}, sim::Vec2{0.75, 0.0},
            SimTime{} + seconds(departure_s)),
        fast_node(MobilityClass::kDynamic));
    (void)server->library().register_service(
        ServiceInfo{"sink", "", 0},
        [this](ChannelPtr channel, const wire::ConnectRequest&) {
          sessions.push_back(std::move(channel));
        });
    testbed.run_discovery_rounds(3);
  }

  Testbed testbed;
  node::Node* server{nullptr};
  node::Node* client{nullptr};
  std::vector<ChannelPtr> sessions;
};

TEST(QualityObserverTeardown, ControllerDestroyedFromInsideItsOwnEventChain) {
  Walkout walkout{91, 60.0};
  auto result = walkout.client->connect_blocking(walkout.server->mac(),
                                                 "sink");
  ASSERT_TRUE(result.ok());
  const ChannelPtr channel = result.value();

  auto controller = std::make_unique<HandoverController>(
      walkout.client->library(), channel, handover::HandoverConfig{});
  Tracker capture;
  controller->set_event_handler(
      [&controller, keep = capture.strong](const handover::HandoverEvent& e) {
        if (e.kind == handover::HandoverEvent::Kind::kPredictedLoss) {
          // Destroy the controller from inside the quality-event chain
          // (medium observer dispatch -> predictor -> app handler).
          controller.reset();
        }
      });
  capture.drop_local();
  controller->start();
  EXPECT_EQ(walkout.testbed.medium().quality_observer_count(), 1u);

  walkout.testbed.run_for(90.0);
  EXPECT_EQ(controller, nullptr) << "prediction should have fired";
  EXPECT_TRUE(capture.released());
  EXPECT_EQ(walkout.testbed.medium().quality_observer_count(), 0u);
  // The walk continues past the coverage edge with the observer slot
  // retired: no stale handler fires (ASan/LSan would flag it).
  walkout.testbed.run_for(30.0);
  SUCCEED();
}

TEST(QualityObserverTeardown, DestroyingArmedControllerDetachesObserver) {
  Walkout walkout{92, 60.0};
  auto result = walkout.client->connect_blocking(walkout.server->mac(),
                                                 "sink");
  ASSERT_TRUE(result.ok());
  const ChannelPtr channel = result.value();

  auto controller = std::make_unique<HandoverController>(
      walkout.client->library(), channel, handover::HandoverConfig{});
  controller->start();
  // Run until the observer pushed at least one crossing (predictor armed,
  // pre-dial possibly in flight), then destroy without stop(). The walk
  // departs at 60 s and crosses the arming threshold ~4 s later.
  walkout.testbed.sim().run_until(SimTime{} + seconds(65.0));
  EXPECT_GT(controller->stats().quality_events, 0u);
  controller.reset();
  EXPECT_EQ(walkout.testbed.medium().quality_observer_count(), 0u);
  // Whatever was in flight (resume dial, predictor tick) resolves against
  // the sentinel and the severed observer slot — leak- and UAF-free.
  walkout.testbed.run_for(60.0);
  SUCCEED();
}

TEST(QualityObserverTeardown, StopIsIdempotentAndReleasesObserver) {
  Walkout walkout{93, 200.0};
  auto result = walkout.client->connect_blocking(walkout.server->mac(),
                                                 "sink");
  ASSERT_TRUE(result.ok());
  HandoverController controller{walkout.client->library(), result.value(),
                                handover::HandoverConfig{}};
  controller.start();
  EXPECT_EQ(walkout.testbed.medium().quality_observer_count(), 1u);
  controller.stop();
  EXPECT_EQ(walkout.testbed.medium().quality_observer_count(), 0u);
  controller.stop();  // idempotent
  EXPECT_EQ(walkout.testbed.medium().quality_observer_count(), 0u);
}

}  // namespace observer_teardown

// --- Crash teardown (node crash plane) ---------------------------------------
// Node::crash() hard-kills a full stack at an "interesting" phase — with a
// handshake in flight, with unacked reliable frames outstanding, with a
// handover resume dialing through the crashed node — and the world keeps
// running, restarts, and tears down. ASan/LSan own the assert: the crash
// must sever every handler the dead stack installed, leak- and UAF-free.

namespace crash_teardown {

TEST(CrashTeardown, CrashMidHandshake) {
  auto testbed = std::make_unique<Testbed>(31);
  testbed->medium().configure(reliable_bluetooth());
  auto& a = testbed->add_node("a", {0.0, 0.0},
                              fast_node(MobilityClass::kDynamic));
  auto& b = testbed->add_node("b", {5.0, 0.0},
                              fast_node(MobilityClass::kStatic));
  std::vector<ChannelPtr> sessions;
  (void)b.library().register_service(
      ServiceInfo{"svc", "", 0},
      [&](ChannelPtr channel, const wire::ConnectRequest&) {
        sessions.push_back(std::move(channel));
      });
  testbed->run_discovery_rounds(3);

  bool resolved = false;
  a.library().connect(b.mac(), "svc", {},
                      [&](Result<ChannelPtr>) { resolved = true; });
  // Into the establishment window: the PH_CONNECT frame is in flight or
  // freshly pending at the engine when the responder dies.
  testbed->run_for(0.9);
  b.crash();
  testbed->run_for(90.0);  // dial retries exhaust against the dead node
  EXPECT_TRUE(resolved);
  b.restart();
  testbed->run_for(5.0);
  testbed.reset();
  SUCCEED();
}

TEST(CrashTeardown, CrashMidReliableTransfer) {
  auto testbed = std::make_unique<Testbed>(32);
  testbed->medium().configure(reliable_bluetooth());
  auto& a = testbed->add_node("a", {0.0, 0.0},
                              fast_node(MobilityClass::kDynamic));
  auto& b = testbed->add_node("b", {5.0, 0.0},
                              fast_node(MobilityClass::kStatic));
  std::vector<ChannelPtr> sessions;
  (void)b.library().register_service(
      ServiceInfo{"sink", "", 0},
      [&](ChannelPtr channel, const wire::ConnectRequest&) {
        channel->make_reliable(testbed->sim());
        sessions.push_back(std::move(channel));
      });
  testbed->run_discovery_rounds(3);

  auto result = a.connect_blocking(b.mac(), "sink");
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const ChannelPtr channel = result.value();
  const ReliableChannel& reliable = channel->make_reliable(testbed->sim());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(channel->write(Bytes(32, 0x42)).ok());
  }
  testbed->run_for(0.05);  // frames (and acks) in flight both ways
  b.crash();
  // The client engine keeps probing the dead link (backed-off retransmits
  // on a closed transport) — harmlessly.
  testbed->run_for(20.0);
  EXPECT_GT(reliable.unacked(), 0u);
  b.restart();
  testbed->run_for(10.0);
  // Teardown with the unacked tail still buffered and its timers pending:
  // the client channel outlives the testbed and its simulator.
  sessions.clear();
  testbed.reset();
  EXPECT_FALSE(channel->open());
}

TEST(CrashTeardown, ReliableChannelHeldOnlyByAPendingResumeDial) {
  // The last reference to a reliable channel with unacked frames and armed
  // timers sits in a resume dial queued on the simulator, so the channel
  // dies while the testbed destroys the event queue. Its engine must not
  // touch that queue on the way out.
  auto testbed = std::make_unique<Testbed>(35);
  testbed->medium().configure(reliable_bluetooth());
  auto& a = testbed->add_node("a", {0.0, 0.0},
                              fast_node(MobilityClass::kDynamic));
  auto& b = testbed->add_node("b", {5.0, 0.0},
                              fast_node(MobilityClass::kStatic));
  std::vector<ChannelPtr> sessions;
  (void)b.library().register_service(
      ServiceInfo{"sink", "", 0},
      [&](ChannelPtr channel, const wire::ConnectRequest&) {
        channel->make_reliable(testbed->sim());
        sessions.push_back(std::move(channel));
      });
  // Under the inquiry asymmetry (§3.4.2) a's first inquiries can each end
  // while b is inquiring; wait for the discovery this test builds on.
  ASSERT_TRUE(testing::run_until(
      *testbed, [&] { return a.daemon().storage().contains_direct(b.mac()); },
      120.0));

  auto result = a.connect_blocking(b.mac(), "sink");
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  ChannelPtr channel = std::move(result).value();
  const ReliableChannel& reliable = channel->make_reliable(testbed->sim());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(channel->write(Bytes(32, 0x42)).ok());
  }
  testbed->run_for(0.05);
  b.crash();
  testbed->run_for(1.0);
  ASSERT_GT(reliable.unacked(), 0u);

  bool resolved = false;
  a.library().resume(
      b.mac(), channel, [&resolved](Status) { resolved = true; },
      seconds(30.0));
  const std::weak_ptr<Channel> watch = channel;
  channel.reset();
  ASSERT_FALSE(watch.expired()) << "the dial holds the channel";
  sessions.clear();
  testbed.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(resolved);
}

TEST(CrashTeardown, CrashMidHandover) {
  // The resume-via-bridge dial is in flight *through* the node that
  // crashes; the dial must resolve against the dead relay (error, retry,
  // give-up) without touching freed state, and the controller survives to
  // be destroyed normally.
  Testbed testbed{33};
  testbed.medium().configure(reliable_bluetooth());
  auto& a = testbed.add_node("a", {0.0, 0.0},
                             fast_node(MobilityClass::kDynamic));
  auto& s = testbed.add_node("s", {4.0, 0.0},
                             fast_node(MobilityClass::kStatic));
  auto& c = testbed.add_node("c", {2.0, 3.0}, fast_node(MobilityClass::kStatic));
  std::vector<ChannelPtr> server_sessions;
  (void)s.library().register_service(
      ServiceInfo{"print", "", 0},
      [&](ChannelPtr channel, const wire::ConnectRequest&) {
        server_sessions.push_back(std::move(channel));
      });
  testbed.run_discovery_rounds(4);

  auto result = a.connect_blocking(s.mac(), "print");
  ASSERT_TRUE(result.ok());
  const ChannelPtr channel = result.value();
  const double t0 = testbed.sim().now().seconds();
  channel->connection()->set_quality_override([t0](SimTime now) {
    return static_cast<int>(250.0 - (now.seconds() - t0));
  });

  auto controller = std::make_unique<HandoverController>(
      a.library(), channel, handover::HandoverConfig{});
  controller->start();
  const bool attempting = testing::run_until(
      testbed,
      [&] {
        return controller->stats().route_attempts >= 1 &&
               controller->stats().handovers == 0;
      },
      60.0);
  ASSERT_TRUE(attempting);
  c.crash();  // the bridge being dialed dies mid-dial
  testbed.run_for(60.0);
  c.restart();
  testbed.run_for(30.0);
  controller.reset();
  SUCCEED();
}

TEST(CrashTeardown, CrashedNodeTornDownWhileStillDown) {
  // The testbed is destroyed with one node crashed (never restarted) and a
  // peer still holding a session to it: nothing the dead stack dropped may
  // survive, nothing the live stack holds may dangle.
  auto testbed = std::make_unique<Testbed>(34);
  testbed->medium().configure(reliable_bluetooth());
  auto& a = testbed->add_node("a", {0.0, 0.0},
                              fast_node(MobilityClass::kDynamic));
  auto& b = testbed->add_node("b", {5.0, 0.0},
                              fast_node(MobilityClass::kStatic));
  std::vector<ChannelPtr> sessions;
  (void)b.library().register_service(
      ServiceInfo{"svc", "", 0},
      [&](ChannelPtr channel, const wire::ConnectRequest&) {
        sessions.push_back(std::move(channel));
      });
  testbed->run_discovery_rounds(3);
  auto result = a.connect_blocking(b.mac(), "svc");
  ASSERT_TRUE(result.ok());
  const ChannelPtr channel = result.value();
  ASSERT_TRUE(channel->write(Bytes{1, 2, 3}).ok());
  testbed->run_for(0.01);  // frame in flight into the crash
  b.crash();
  EXPECT_TRUE(b.crashed());
  b.crash();  // idempotent
  testbed->run_for(2.0);
  testbed.reset();
  EXPECT_FALSE(channel->open());
}

}  // namespace crash_teardown

// --- PosixNetwork teardown (real sockets, LSan-audited) ----------------------
//
// The socket backend dies in messier ways than the simulator: file
// descriptors, kernel-buffered bytes and epoll registrations all outlive C++
// objects unless the destructor walks them down. Each case below destroys a
// PosixNetwork at an awkward phase; the sanitize job (ASan+LSan, UBSan)
// turns any leaked capture, fd-backed buffer or use-after-free into a
// failure even where the EXPECTs cannot see it.
namespace posix_teardown {

using net::ConnectionPtr;
using net::NetAddress;
using net::PosixConfig;
using net::PosixNetwork;

PosixConfig snappy_config(std::uint64_t index) {
  PosixConfig config;
  config.mac = MacAddress::from_index(index);
  config.seed = index;
  config.connect_timeout = milliseconds(100);
  config.connect_attempts = 3;
  config.connect_backoff_base = milliseconds(5);
  config.connect_backoff_cap = milliseconds(20);
  return config;
}

[[nodiscard]] bool pump_until(PosixNetwork& a, PosixNetwork& b,
                              const std::function<bool()>& done,
                              int deadline_ms = 3000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    a.poll_once(milliseconds(2));
    b.poll_once(milliseconds(2));
  }
  return done();
}

TEST(PosixTeardown, DestroyBackendUnderLiveSessions) {
  auto a = PosixNetwork::open(snappy_config(1)).value();
  auto b = PosixNetwork::open(snappy_config(2)).value();
  a->add_peer({b->mac(), "127.0.0.1", b->udp_port(), b->tcp_port()});
  b->add_peer({a->mac(), "127.0.0.1", a->udp_port(), a->tcp_port()});
  a->attach_interface(a->mac(), Technology::kBluetooth, nullptr);
  b->attach_interface(b->mac(), Technology::kBluetooth, nullptr);

  const NetAddress addr{b->mac(), Technology::kBluetooth, 7};
  ConnectionPtr server;
  ASSERT_TRUE(
      b->listen(addr, [&](ConnectionPtr c) { server = std::move(c); }).ok());
  ConnectionPtr client;
  a->connect(a->mac(), addr, [&](Result<ConnectionPtr> r) {
    if (r.ok()) client = std::move(r).value();
  });
  ASSERT_TRUE(pump_until(*a, *b, [&] { return client && server; }));

  // Armed handlers on both ends; the captures must not outlive the backend.
  Tracker data_capture;
  Tracker close_capture;
  client->set_data_handler([keep = data_capture.strong](const Bytes&) {});
  server->set_close_handler([keep = close_capture.strong] {});
  data_capture.drop_local();
  close_capture.drop_local();
  ASSERT_TRUE(client->write(Bytes{1, 2, 3}).ok());

  // Destroy the client's backend with the session live and a frame possibly
  // still in the kernel buffer. Endpoints survive the backend (shared_ptr)
  // but must be closed with handlers severed.
  a.reset();
  EXPECT_FALSE(client->open());
  EXPECT_TRUE(data_capture.released());
  EXPECT_FALSE(client->write(Bytes{9}).ok());

  // The peer backend notices the dead TCP side and walks its end down too.
  ASSERT_TRUE(pump_until(*b, *b, [&] { return !server->open(); }, 5000));
  b.reset();
  EXPECT_TRUE(close_capture.released());
  EXPECT_FALSE(server->open());
}

TEST(PosixTeardown, DestroyBackendWithHalfOpenConnects) {
  auto a = PosixNetwork::open(snappy_config(1)).value();
  a->attach_interface(a->mac(), Technology::kBluetooth, nullptr);
  // A peer whose TCP port is a black hole for this process: grab a bound
  // port and close it, so connects are refused / retried with backoff.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)), 0);
  socklen_t len = sizeof(sin);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&sin), &len), 0);
  const std::uint16_t dead_port = ntohs(sin.sin_port);
  ::close(probe);
  const MacAddress ghost = MacAddress::from_index(9);
  a->add_peer({ghost, "127.0.0.1", dead_port, dead_port});

  // Several in-flight connects, handler captures tracked. Destroying the
  // backend mid-retry must release them all without invoking any of them
  // after death.
  std::vector<Tracker> trackers(3);
  int fired = 0;
  for (Tracker& tracker : trackers) {
    a->connect(a->mac(), NetAddress{ghost, Technology::kBluetooth, 1},
               [&fired, keep = tracker.strong](Result<ConnectionPtr> r) {
                 EXPECT_FALSE(r.ok());
                 ++fired;
               });
    tracker.drop_local();
  }
  a->poll_once(milliseconds(5));  // let the first attempts hit the wire
  a.reset();
  for (Tracker& tracker : trackers) {
    EXPECT_TRUE(tracker.released());
  }
  // Handlers either fired with an error before destruction or not at all —
  // never after (that would be a use-after-free the sanitizer flags).
}

TEST(PosixTeardown, DestroyBackendWithQueuedSends) {
  auto a = PosixNetwork::open(snappy_config(1)).value();
  auto b = PosixNetwork::open(snappy_config(2)).value();
  a->add_peer({b->mac(), "127.0.0.1", b->udp_port(), b->tcp_port()});
  b->add_peer({a->mac(), "127.0.0.1", a->udp_port(), a->tcp_port()});
  a->attach_interface(a->mac(), Technology::kBluetooth, nullptr);
  b->attach_interface(b->mac(), Technology::kBluetooth, nullptr);

  const NetAddress addr{b->mac(), Technology::kBluetooth, 7};
  ConnectionPtr server;
  ASSERT_TRUE(
      b->listen(addr, [&](ConnectionPtr c) { server = std::move(c); }).ok());
  ConnectionPtr client;
  a->connect(a->mac(), addr, [&](Result<ConnectionPtr> r) {
    if (r.ok()) client = std::move(r).value();
  });
  ASSERT_TRUE(pump_until(*a, *b, [&] { return client && server; }));

  // Stuff the outbox without ever pumping the peer: large frames overrun the
  // kernel's socket buffer so the tail queues in user space; then die with
  // the queue non-empty.
  const Bytes big(32 * 1024, 0x5A);
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(client->write(big).ok());
  }
  a->poll_once(milliseconds(1));
  a.reset();  // queued Bytes and the epoll EPOLLOUT registration must free
  EXPECT_FALSE(client->open());
  b.reset();
}

}  // namespace posix_teardown

}  // namespace
}  // namespace peerhood
