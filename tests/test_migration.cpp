// End-to-end task migration (Ch. 5 / Fig. 5.10): the three §5.3 regimes —
// small task completes in coverage, medium task gets its result routed back
// after the client moved, huge task needs mid-upload handover.
#include <gtest/gtest.h>

#include "migration/task_client.hpp"
#include "migration/task_server.hpp"
#include "scenario_util.hpp"

namespace peerhood {
namespace {

using migration::MigrationOutcome;
using migration::TaskClient;
using migration::TaskClientConfig;
using migration::TaskServer;
using migration::TaskServerConfig;
using node::Testbed;
using testing::fast_node;
using testing::reliable_bluetooth;

TEST(Migration, SmallTaskCompletesLive) {
  Testbed testbed{1};
  testbed.medium().configure(reliable_bluetooth());
  auto& server = testbed.add_node("server", {5.0, 0.0},
                                  fast_node(MobilityClass::kStatic));
  auto& client = testbed.add_node("client", {0.0, 0.0},
                                  fast_node(MobilityClass::kDynamic));
  TaskServer task_server{server.library()};
  task_server.start();
  testbed.run_discovery_rounds(3);

  TaskClientConfig config;
  config.spec.package_count = 5;
  config.spec.package_size = 500;
  config.spec.per_package_processing = milliseconds(200);
  config.spec.send_interval = milliseconds(100);
  TaskClient task_client{client.library(), server.mac(), "picture.analyse",
                         config};
  std::optional<MigrationOutcome> outcome;
  task_client.run([&](const MigrationOutcome& o) { outcome = o; });
  testbed.run_for(120.0);

  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, MigrationOutcome::Kind::kCompletedLive);
  EXPECT_FALSE(outcome->upload_interrupted);
  EXPECT_EQ(task_server.stats().uploads_completed, 1u);
  EXPECT_EQ(task_server.stats().results_live, 1u);
  EXPECT_EQ(task_server.stats().results_routed, 0u);
}

TEST(Migration, MediumTaskResultRoutedAfterClientMoves) {
  // §5.3 case 2: "the connection is broken during the processing time after
  // the server has already received all picture information ... server
  // looks for the device in its neighborhood routing table and tries to
  // send the result back after the task processing."
  Testbed testbed{2};
  testbed.medium().configure(reliable_bluetooth());
  auto& server = testbed.add_node("server", {0.0, 0.0},
                                  fast_node(MobilityClass::kStatic));
  testbed.add_node("bridge", {8.0, 0.0}, fast_node(MobilityClass::kStatic));
  auto& client = testbed.add_mobile_node(
      "client",
      std::make_shared<sim::WaypointPath>(
          std::vector<sim::WaypointPath::Waypoint>{
              {SimTime{} + seconds(0.0), {3.0, 0.0}},
              {SimTime{} + seconds(70.0), {3.0, 0.0}},
              {SimTime{} + seconds(110.0), {14.0, 0.0}},
          }),
      fast_node(MobilityClass::kDynamic));

  TaskServerConfig server_config;
  server_config.result_routing.max_attempts = 8;
  TaskServer task_server{server.library(), server_config};
  task_server.start();
  testbed.run_discovery_rounds(3);

  TaskClientConfig config;
  config.spec.package_count = 10;
  config.spec.package_size = 1000;
  // 10 x 9 s = 90 s of processing: finishes long after the client left.
  config.spec.per_package_processing = seconds(9.0);
  config.spec.send_interval = milliseconds(200);
  config.result_timeout = seconds(500.0);
  TaskClient task_client{client.library(), server.mac(), "picture.analyse",
                         config};
  std::optional<MigrationOutcome> outcome;
  task_client.run([&](const MigrationOutcome& o) { outcome = o; });
  testbed.run_for(500.0);

  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, MigrationOutcome::Kind::kCompletedRouted)
      << "error: " << outcome->error.to_string();
  EXPECT_FALSE(outcome->upload_interrupted);
  EXPECT_EQ(task_server.stats().results_routed, 1u);
}

TEST(Migration, HugeTaskSurvivesMidUploadHandover) {
  // §5.3 case 3: the connection breaks during the package transmission;
  // the handover thread re-establishes through a neighbour node and the
  // upload resumes from the server's progress marker.
  Testbed testbed{3};
  testbed.medium().configure(reliable_bluetooth());
  auto& server = testbed.add_node("server", {0.0, 0.0},
                                  fast_node(MobilityClass::kStatic));
  testbed.add_node("bridge", {8.0, 0.0}, fast_node(MobilityClass::kStatic));
  auto& client = testbed.add_mobile_node(
      "client",
      std::make_shared<sim::WaypointPath>(
          std::vector<sim::WaypointPath::Waypoint>{
              {SimTime{} + seconds(0.0), {2.0, 0.0}},
              {SimTime{} + seconds(50.0), {2.0, 0.0}},
              {SimTime{} + seconds(106.0), {16.0, 0.0}},
          }),
      fast_node(MobilityClass::kDynamic));

  TaskServer task_server{server.library()};
  task_server.start();
  testbed.run_discovery_rounds(3);

  TaskClientConfig config;
  config.spec.package_count = 120;  // 1 package/s: upload spans the walk
  config.spec.package_size = 800;
  config.spec.per_package_processing = milliseconds(100);
  config.spec.send_interval = seconds(1.0);
  config.result_timeout = seconds(600.0);
  TaskClient task_client{client.library(), server.mac(), "picture.analyse",
                         config};
  std::optional<MigrationOutcome> outcome;
  task_client.run([&](const MigrationOutcome& o) { outcome = o; });
  testbed.run_for(600.0);

  ASSERT_TRUE(outcome.has_value());
  EXPECT_GE(outcome->handovers, 1u) << "upload must be re-routed mid-flight";
  EXPECT_NE(outcome->kind, MigrationOutcome::Kind::kFailed)
      << "error: " << outcome->error.to_string();
  EXPECT_EQ(task_server.stats().uploads_completed, 1u);
  EXPECT_GE(task_server.stats().resumes_seen, 1u);
}

TEST(Migration, FailsWhenServerNeverReachable) {
  Testbed testbed{4};
  testbed.medium().configure(reliable_bluetooth());
  auto& client = testbed.add_node("client", {0.0, 0.0},
                                  fast_node(MobilityClass::kDynamic));
  testbed.run_discovery_rounds(2);
  TaskClientConfig config;
  config.result_timeout = seconds(30.0);
  TaskClient task_client{client.library(), MacAddress::from_index(77),
                         "picture.analyse", config};
  std::optional<MigrationOutcome> outcome;
  task_client.run([&](const MigrationOutcome& o) { outcome = o; });
  testbed.run_for(60.0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, MigrationOutcome::Kind::kFailed);
}

TEST(Migration, ZeroPackageTaskStillReturnsResult) {
  Testbed testbed{5};
  testbed.medium().configure(reliable_bluetooth());
  auto& server = testbed.add_node("server", {5.0, 0.0},
                                  fast_node(MobilityClass::kStatic));
  auto& client = testbed.add_node("client", {0.0, 0.0},
                                  fast_node(MobilityClass::kDynamic));
  TaskServer task_server{server.library()};
  task_server.start();
  testbed.run_discovery_rounds(3);
  TaskClientConfig config;
  config.spec.package_count = 0;
  TaskClient task_client{client.library(), server.mac(), "picture.analyse",
                         config};
  std::optional<MigrationOutcome> outcome;
  task_client.run([&](const MigrationOutcome& o) { outcome = o; });
  testbed.run_for(60.0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, MigrationOutcome::Kind::kCompletedLive);
}

TEST(Migration, TwoClientsShareOneServer) {
  Testbed testbed{6};
  testbed.medium().configure(reliable_bluetooth());
  auto& server = testbed.add_node("server", {0.0, 0.0},
                                  fast_node(MobilityClass::kStatic));
  auto& c1 = testbed.add_node("c1", {4.0, 0.0},
                              fast_node(MobilityClass::kDynamic));
  auto& c2 = testbed.add_node("c2", {-4.0, 0.0},
                              fast_node(MobilityClass::kDynamic));
  TaskServer task_server{server.library()};
  task_server.start();
  testbed.run_discovery_rounds(3);

  TaskClientConfig config;
  config.spec.package_count = 4;
  config.spec.send_interval = milliseconds(100);
  config.spec.per_package_processing = milliseconds(100);
  TaskClient t1{c1.library(), server.mac(), "picture.analyse", config};
  TaskClient t2{c2.library(), server.mac(), "picture.analyse", config};
  std::optional<MigrationOutcome> o1;
  std::optional<MigrationOutcome> o2;
  t1.run([&](const MigrationOutcome& o) { o1 = o; });
  t2.run([&](const MigrationOutcome& o) { o2 = o; });
  testbed.run_for(120.0);
  ASSERT_TRUE(o1.has_value());
  ASSERT_TRUE(o2.has_value());
  EXPECT_EQ(o1->kind, MigrationOutcome::Kind::kCompletedLive);
  EXPECT_EQ(o2->kind, MigrationOutcome::Kind::kCompletedLive);
  EXPECT_EQ(task_server.stats().sessions, 2u);
}

// A server that accepts the task upload and sends nothing on its own: the
// test writes the result frames by hand.
struct RawResultServer {
  explicit RawResultServer(std::uint64_t seed) : testbed{seed} {
    testbed.medium().configure(reliable_bluetooth());
    server = &testbed.add_node("server", {5.0, 0.0},
                               fast_node(MobilityClass::kStatic));
    client = &testbed.add_node("client", {0.0, 0.0},
                               fast_node(MobilityClass::kDynamic));
    (void)server->library().register_service(
        ServiceInfo{"raw.result", "", 0},
        [this](ChannelPtr channel, const wire::ConnectRequest&) {
          upload = std::move(channel);
        });
    testbed.run_discovery_rounds(3);
    TaskClientConfig config;
    config.spec.package_count = 1;
    task_client = std::make_unique<TaskClient>(
        client->library(), server->mac(), "raw.result", config);
    task_client->run([this](const MigrationOutcome& o) { outcome = o; });
    testbed.run_for(10.0);
  }

  Testbed testbed;
  node::Node* server{nullptr};
  node::Node* client{nullptr};
  ChannelPtr upload;
  std::unique_ptr<TaskClient> task_client;
  std::optional<MigrationOutcome> outcome;
};

const Bytes kTruncatedResult{
    static_cast<std::uint8_t>(migration::FrameTag::kResult)};

TEST(Migration, MalformedResultOnTheLiveChannelIsIgnored) {
  RawResultServer raw{7};
  ASSERT_NE(raw.upload, nullptr);
  ASSERT_TRUE(raw.upload->write(kTruncatedResult).ok());
  raw.testbed.run_for(5.0);
  EXPECT_FALSE(raw.outcome.has_value());

  ASSERT_TRUE(raw.upload->write(migration::encode(migration::ResultFrame{16, 1}))
                  .ok());
  raw.testbed.run_for(5.0);
  ASSERT_TRUE(raw.outcome.has_value());
  EXPECT_EQ(raw.outcome->kind, MigrationOutcome::Kind::kCompletedLive);
}

TEST(Migration, MalformedResultOnTheRoutedChannelIsIgnored) {
  RawResultServer raw{8};
  // The hidden call-back service, dialled as the result router does.
  Library::ConnectOptions options;
  options.skip_service_check = true;
  auto back = raw.server->connect_blocking(raw.client->mac(), "client.result",
                                           options);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  ASSERT_TRUE(back.value()->write(kTruncatedResult).ok());
  raw.testbed.run_for(5.0);
  EXPECT_FALSE(raw.outcome.has_value());

  ASSERT_TRUE(
      back.value()->write(migration::encode(migration::ResultFrame{16, 1})).ok());
  raw.testbed.run_for(5.0);
  ASSERT_TRUE(raw.outcome.has_value());
  EXPECT_EQ(raw.outcome->kind, MigrationOutcome::Kind::kCompletedRouted);
}

}  // namespace
}  // namespace peerhood
