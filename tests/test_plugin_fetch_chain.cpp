// The discovery plugin's fetch chain is a state machine on plugin members;
// stop() must end it wherever it is waiting. These tests park the chain in
// the short-connection failure wait (fetch_failure_prob = 1, so every
// exchange fails after its connection cost) and stop the daemon there. The
// others answer fetches by hand: a split fetch with a duplicated answer,
// whose every exchange must take its own answer, split fetches whose
// responder restarts mid-assembly, and a service check after a storage
// weakening, which must still name the descriptors' versions.
#include <gtest/gtest.h>

#include "peerhood/daemon.hpp"
#include "scripted_network.hpp"

namespace peerhood {
namespace {

const MacAddress kSelf = MacAddress::from_index(1);

class PluginFetchChain : public ::testing::Test {
 protected:
  // Three responders: after the first failed exchange the chain still has
  // jobs left, so a chain that survives stop() would keep fetching.
  PluginFetchChain()
      : network_{{MacAddress::from_index(2), MacAddress::from_index(3),
                  MacAddress::from_index(4)}},
        daemon_{network_, kSelf, nullptr, DaemonConfig{}} {
    network_.mutable_params().fetch_failure_prob = 1.0;
    daemon_.start();
  }

  const Plugin::Stats& stats() {
    return daemon_.plugin(Technology::kBluetooth)->stats();
  }

  // Steps until the first exchange has failed: its completion is now
  // scheduled one connection cost ahead.
  void run_into_failure_wait() {
    const SimTime deadline = network_.simulator().now() + seconds(60.0);
    while (stats().fetch_failures == 0 &&
           network_.simulator().now() < deadline) {
      ASSERT_TRUE(network_.simulator().step());
    }
    ASSERT_EQ(stats().fetch_failures, 1u);
  }

  testing::ScriptedNetwork network_;
  Daemon daemon_;
};

TEST_F(PluginFetchChain, StopDuringFailureWaitEndsTheChain) {
  run_into_failure_wait();
  const std::uint64_t attempts = stats().fetch_attempts;
  const std::uint64_t loops = stats().loops;
  daemon_.stop();
  network_.simulator().run_for(seconds(60.0));
  EXPECT_EQ(stats().fetch_attempts, attempts)
      << "a stopped plugin kept fetching";
  EXPECT_EQ(network_.datagrams_sent(), 0u);
  EXPECT_EQ(stats().loops, loops);
  EXPECT_FALSE(daemon_.plugin(Technology::kBluetooth)->cycle_active());
}

TEST_F(PluginFetchChain, RestartDuringFailureWaitRunsOneChain) {
  run_into_failure_wait();
  const std::uint64_t attempts = stats().fetch_attempts;
  const std::uint64_t loops = stats().loops;
  daemon_.stop();
  daemon_.start();
  // The restarted plugin's first cycle fetches only after its random phase
  // plus a whole inquiry window (>= inquiry_duration); the old chain's
  // failure completion was due within one connection cost. Nothing may
  // fetch before the new cycle does.
  const SimDuration quiet = network_.params(Technology::kBluetooth)
                                .inquiry_duration;
  network_.simulator().run_for(quiet - milliseconds(1));
  EXPECT_EQ(stats().fetch_attempts, attempts)
      << "the pre-stop chain resumed after the restart";
  // The new chain runs normally: one full cycle later it has fetched from
  // every responder and completed.
  const SimTime deadline = network_.simulator().now() + seconds(60.0);
  while (stats().loops < loops + 2 && network_.simulator().now() < deadline) {
    ASSERT_TRUE(network_.simulator().step());
  }
  EXPECT_GE(stats().loops, loops + 2);
  EXPECT_GT(stats().fetch_attempts, attempts);
}

TEST(PluginSplitFetch, DuplicatedSharedAnswerDoesNotShiftTheSections) {
  // Shared cached answers carry no request id, so a fault-plane duplicate of
  // one section's answer, landing while the next section's request is on
  // the air, matches that request by address. The responder answers only
  // after its fetch cost, so the early duplicate must be dropped and each
  // section take its own answer.
  const MacAddress responder = MacAddress::from_index(2);
  testing::ScriptedNetwork network{{responder}};
  Daemon daemon{network, kSelf, nullptr, DaemonConfig{}};
  daemon.start();
  const SimDuration cost = network.params(Technology::kBluetooth).fetch_time;
  const std::vector<Technology> prototypes{Technology::kBluetooth,
                                           Technology::kWlan};
  const auto answer = [&](std::uint8_t sections) {
    wire::FetchResponse response;
    response.request_id = wire::kSharedRequestId;
    response.sections = sections;
    response.epoch = 9;
    response.gens = wire::SectionGens{1, 1, 1, 1};
    response.device =
        DeviceInfo{responder, "responder", 2, MobilityClass::kStatic};
    response.prototypes = prototypes;
    response.services = {{"echo", "", 4}};
    return wire::encode(response);
  };

  // First contact: the split fetch asks for the device section first.
  auto sent = network.next_request();
  ASSERT_TRUE(sent.has_value());
  ASSERT_EQ(sent->request.sections, wire::kSectionDevice);
  network.simulator().run_for(cost);
  const Bytes device_answer = answer(wire::kSectionDevice);
  network.deliver(responder, device_answer);
  sent = network.next_request();
  ASSERT_TRUE(sent.has_value());
  ASSERT_EQ(sent->request.sections, wire::kSectionPrototypes);
  // The device answer's duplicate, 20 ms later.
  network.simulator().run_for(milliseconds(20));
  network.deliver(responder, device_answer);
  network.simulator().run_for(cost - milliseconds(20));
  network.deliver(responder, answer(wire::kSectionPrototypes));
  for (const std::uint8_t section :
       {wire::kSectionServices, wire::kSectionNeighbours}) {
    sent = network.next_request();
    ASSERT_TRUE(sent.has_value());
    ASSERT_EQ(sent->request.sections, section);
    network.simulator().run_for(cost);
    network.deliver(responder, answer(section));
  }

  const Plugin::Stats& stats = daemon.plugin(Technology::kBluetooth)->stats();
  EXPECT_EQ(stats.stale_responses, 1u);
  EXPECT_EQ(stats.updates_answered, 1u);
  const DeviceRecord* stored = daemon.storage().lookup(responder);
  ASSERT_NE(stored, nullptr) << "the split fetch lost its sections";
  EXPECT_TRUE(stored->is_direct());
  EXPECT_EQ(stored->prototypes, prototypes);
}

// A responder that restarts between two exchanges of a split fetch answers
// with a new epoch. The sections gathered so far describe state that no
// longer exists, so the assembly starts over from the device section, once;
// a second restart aborts the fetch for this cycle.
TEST(PluginSplitFetch, ResponderRestartMidAssemblyStartsOverOnce) {
  for (const bool restarts_twice : {false, true}) {
    SCOPED_TRACE(restarts_twice ? "two restarts" : "one restart");
    const MacAddress responder = MacAddress::from_index(2);
    testing::ScriptedNetwork network{{responder}};
    Daemon daemon{network, kSelf, nullptr, DaemonConfig{}};
    daemon.start();
    const SimDuration cost =
        network.params(Technology::kBluetooth).fetch_time;
    // Waits for the request of `section`, then answers it from `epoch`.
    const auto exchange = [&](std::uint8_t section, std::uint64_t epoch) {
      const auto sent = network.next_request();
      ASSERT_TRUE(sent.has_value());
      ASSERT_EQ(sent->request.sections, section);
      network.simulator().run_for(cost);
      wire::FetchResponse response;
      response.request_id = sent->request.request_id;
      response.sections = section;
      response.epoch = epoch;
      response.gens = wire::SectionGens{1, 1, 1, 1};
      response.device = DeviceInfo{responder, "epoch" + std::to_string(epoch),
                                   2, MobilityClass::kStatic};
      response.prototypes = {Technology::kBluetooth};
      response.services = {{"echo", "", 4}};
      network.deliver(responder, wire::encode(response));
    };

    exchange(wire::kSectionDevice, 9);
    exchange(wire::kSectionPrototypes, 10);  // restarted: start over
    exchange(wire::kSectionDevice, 10);
    if (restarts_twice) {
      exchange(wire::kSectionPrototypes, 11);  // again: abort
    } else {
      for (const std::uint8_t section :
           {wire::kSectionPrototypes, wire::kSectionServices,
            wire::kSectionNeighbours}) {
        exchange(section, 10);
      }
    }

    const Plugin::Stats& stats =
        daemon.plugin(Technology::kBluetooth)->stats();
    const DeviceRecord* stored = daemon.storage().lookup(responder);
    if (restarts_twice) {
      // No third assembly: the fetch ended without a new request.
      EXPECT_FALSE(network.next_request(cost).has_value());
      EXPECT_EQ(stats.updates_answered, 0u);
      EXPECT_EQ(stored, nullptr);
    } else {
      EXPECT_EQ(stats.updates_answered, 1u);
      ASSERT_NE(stored, nullptr);
      EXPECT_EQ(stored->device.name, "epoch10");
    }
  }
}

TEST(PluginServiceCheck, WeakenedStorageShipsOnlyTheNeighbours) {
  // A stored device's service check is one exchange for all four sections.
  // A storage weakening drops the neighbours baseline (the snapshot must be
  // offered again in full), but the descriptor versions still ride the
  // request: its neighbours generation is one no responder advertises, so
  // only that section ships.
  const MacAddress responder = MacAddress::from_index(2);
  testing::ScriptedNetwork network{{responder}};
  DaemonConfig config;
  config.service_check_interval = SimDuration{};  // every loop
  Daemon daemon{network, kSelf, nullptr, config};
  daemon.start();
  const SimDuration cost = network.params(Technology::kBluetooth).fetch_time;
  const auto answer = [&](std::uint8_t sections, std::uint32_t neighbours) {
    wire::FetchResponse response;
    response.request_id = wire::kSharedRequestId;
    response.sections = sections;
    response.epoch = 9;
    response.gens = wire::SectionGens{1, 1, 1, neighbours};
    response.device =
        DeviceInfo{responder, "responder", 2, MobilityClass::kStatic};
    response.prototypes = {Technology::kBluetooth};
    response.services = {{"echo", "", 4}};
    return wire::encode(response);
  };

  // First contact: the paper's four short exchanges.
  for (const std::uint8_t section : wire::kSectionOrder) {
    const auto sent = network.next_request();
    ASSERT_TRUE(sent.has_value());
    ASSERT_EQ(sent->request.sections, section);
    network.simulator().run_for(cost);
    network.deliver(responder, answer(section, 5));
  }
  ASSERT_NE(daemon.storage().lookup(responder), nullptr);

  // A record routed through the responder is removed: a weakening.
  DeviceRecord routed;
  routed.device.mac = MacAddress::from_index(7);
  routed.jump = 1;
  routed.bridge = responder;
  ASSERT_TRUE(daemon.storage().upsert(routed));
  daemon.storage().remove(routed.device.mac);

  auto sent = network.next_request();
  ASSERT_TRUE(sent.has_value());
  EXPECT_EQ(sent->request.sections, wire::kSectionAll);
  ASSERT_TRUE(sent->request.baseline.has_value())
      << "the service check dropped the descriptor versions";
  EXPECT_EQ(sent->request.baseline->epoch, 9u);
  EXPECT_EQ(sent->request.baseline->gens,
            (wire::SectionGens{1, 1, 1, wire::kNoGeneration}));
  network.simulator().run_for(2 * cost);
  network.deliver(responder, answer(wire::kSectionNeighbours, 6));

  // The neighbours-only answer overlays the stored record, and the next
  // check names every section's version again.
  const DeviceRecord* stored = daemon.storage().lookup(responder);
  ASSERT_NE(stored, nullptr);
  EXPECT_TRUE(stored->is_direct());
  EXPECT_EQ(stored->services.size(), 1u);
  sent = network.next_request();
  ASSERT_TRUE(sent.has_value());
  ASSERT_TRUE(sent->request.baseline.has_value());
  EXPECT_EQ(sent->request.baseline->gens, (wire::SectionGens{1, 1, 1, 6}));
}

}  // namespace
}  // namespace peerhood
