#include "discovery/device_storage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "discovery/analyzer.hpp"
#include "peerhood/protocol.hpp"

namespace peerhood {
namespace {

SimTime at(double s) { return SimTime{} + seconds(s); }

DeviceRecord direct(std::uint64_t index, int quality,
                    MobilityClass mobility = MobilityClass::kStatic,
                    Technology tech = Technology::kBluetooth) {
  DeviceRecord record;
  record.device.mac = MacAddress::from_index(index);
  record.device.name = "n" + std::to_string(index);
  record.device.mobility = mobility;
  record.jump = 0;
  record.quality_sum = quality;
  record.min_link_quality = quality;
  record.via_tech = tech;
  return record;
}

DeviceRecord routed(std::uint64_t index, int jump, std::uint64_t bridge,
                    int quality_sum, int min_quality, int mobility = 0) {
  DeviceRecord record;
  record.device.mac = MacAddress::from_index(index);
  record.jump = jump;
  record.bridge = MacAddress::from_index(bridge);
  record.quality_sum = quality_sum;
  record.min_link_quality = min_quality;
  record.route_mobility = mobility;
  return record;
}

TEST(DeviceStorage, InsertAndFind) {
  DeviceStorage storage;
  EXPECT_TRUE(storage.upsert(direct(1, 250)));
  EXPECT_EQ(storage.size(), 1u);
  const auto found = storage.find(MacAddress::from_index(1));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->quality_sum, 250);
  EXPECT_TRUE(found->is_direct());
  EXPECT_FALSE(storage.find(MacAddress::from_index(2)).has_value());
}

TEST(DeviceStorage, SameRouteAlwaysRefreshes) {
  DeviceStorage storage;
  DeviceRecord first = direct(1, 250);
  first.last_seen = at(10.0);
  storage.upsert(first);
  // Same route, *lower* quality: must still refresh (liveness update).
  DeviceRecord second = direct(1, 200);
  second.last_seen = at(20.0);
  EXPECT_TRUE(storage.upsert(second));
  const auto found = storage.find(MacAddress::from_index(1));
  EXPECT_EQ(found->quality_sum, 200);
  EXPECT_EQ(found->last_seen, at(20.0));
}

TEST(DeviceStorage, DirectBeatsRouted) {
  DeviceStorage storage;
  storage.upsert(routed(1, 2, 9, 700, 240));
  EXPECT_TRUE(storage.upsert(direct(1, 231)));
  EXPECT_TRUE(storage.find(MacAddress::from_index(1))->is_direct());
}

TEST(DeviceStorage, WorseRouteRejectedButRefreshesLiveness) {
  DeviceStorage storage;
  DeviceRecord good = routed(1, 1, 9, 480, 240);
  good.last_seen = at(5.0);
  storage.upsert(good);
  DeviceRecord worse = routed(1, 3, 8, 900, 235);
  worse.last_seen = at(50.0);
  EXPECT_FALSE(storage.upsert(worse));
  const auto found = storage.find(MacAddress::from_index(1));
  EXPECT_EQ(found->jump, 1);
  EXPECT_EQ(found->last_seen, at(50.0)) << "liveness must still refresh";
}

TEST(DeviceStorage, MaxJumpCeilingEnforced) {
  RoutePolicy policy;
  policy.max_jumps = 3;
  DeviceStorage storage{policy};
  EXPECT_FALSE(storage.upsert(routed(1, 4, 9, 999, 240)));
  EXPECT_TRUE(storage.upsert(routed(1, 3, 9, 900, 240)));
}

TEST(DeviceStorage, SnapshotAndDirectNeighbours) {
  DeviceStorage storage;
  storage.upsert(direct(1, 250));
  storage.upsert(direct(2, 240));
  storage.upsert(routed(3, 1, 1, 480, 235));
  EXPECT_EQ(storage.snapshot().size(), 3u);
  EXPECT_EQ(storage.direct_neighbours().size(), 2u);
}

TEST(DeviceStorage, ProvidersOf) {
  DeviceStorage storage;
  DeviceRecord a = direct(1, 250);
  a.services = {{"echo", "", 1}, {"compute", "", 2}};
  DeviceRecord b = routed(2, 1, 1, 480, 235);
  b.services = {{"compute", "", 2}};
  storage.upsert(a);
  storage.upsert(b);
  EXPECT_EQ(storage.providers_of("compute").size(), 2u);
  EXPECT_EQ(storage.providers_of("echo").size(), 1u);
  EXPECT_TRUE(storage.providers_of("nope").empty());
}

TEST(DeviceStorage, AgeDirectDropsAfterMaxMissed) {
  DeviceStorage storage;
  storage.upsert(direct(1, 250));
  storage.upsert(direct(2, 250));
  // Device 2 responds, device 1 does not.
  const std::vector<MacAddress> responders{MacAddress::from_index(2)};
  EXPECT_TRUE(storage.age_direct(Technology::kBluetooth, responders, 2,
                                 at(10.0)).empty());
  EXPECT_TRUE(storage.age_direct(Technology::kBluetooth, responders, 2,
                                 at(20.0)).empty());
  const auto removed = storage.age_direct(Technology::kBluetooth, responders,
                                          2, at(30.0));
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], MacAddress::from_index(1));
  EXPECT_FALSE(storage.contains(MacAddress::from_index(1)));
  EXPECT_TRUE(storage.contains(MacAddress::from_index(2)));
}

TEST(DeviceStorage, RespondingResetsAge) {
  DeviceStorage storage;
  storage.upsert(direct(1, 250));
  const std::vector<MacAddress> nobody{};
  const std::vector<MacAddress> one{MacAddress::from_index(1)};
  (void)storage.age_direct(Technology::kBluetooth, nobody, 2, at(10.0));
  (void)storage.age_direct(Technology::kBluetooth, nobody, 2, at(20.0));
  (void)storage.age_direct(Technology::kBluetooth, one, 2, at(30.0));
  // Counter reset; two more misses still below the limit.
  (void)storage.age_direct(Technology::kBluetooth, nobody, 2, at(40.0));
  (void)storage.age_direct(Technology::kBluetooth, nobody, 2, at(50.0));
  EXPECT_TRUE(storage.contains(MacAddress::from_index(1)));
}

TEST(DeviceStorage, AgingCascadesToRoutes) {
  DeviceStorage storage;
  storage.upsert(direct(1, 250));
  storage.upsert(routed(5, 1, 1, 480, 235));  // via device 1
  const std::vector<MacAddress> nobody{};
  (void)storage.age_direct(Technology::kBluetooth, nobody, 0, at(10.0));
  EXPECT_FALSE(storage.contains(MacAddress::from_index(1)));
  EXPECT_FALSE(storage.contains(MacAddress::from_index(5)))
      << "routes through a vanished bridge must disappear";
}

TEST(DeviceStorage, AgeIsPerTechnology) {
  DeviceStorage storage;
  storage.upsert(direct(1, 250, MobilityClass::kStatic, Technology::kWlan));
  const std::vector<MacAddress> nobody{};
  (void)storage.age_direct(Technology::kBluetooth, nobody, 0, at(10.0));
  EXPECT_TRUE(storage.contains(MacAddress::from_index(1)))
      << "bluetooth aging must not touch wlan records";
}

TEST(DeviceStorage, ReconcileBridgeDropsStaleRoutes) {
  DeviceStorage storage;
  storage.upsert(direct(1, 250));
  storage.upsert(routed(5, 1, 1, 480, 235));
  storage.upsert(routed(6, 1, 1, 470, 235));
  // Bridge 1 now only advertises device 5.
  storage.reconcile_bridge(MacAddress::from_index(1),
                           {MacAddress::from_index(5)});
  EXPECT_TRUE(storage.contains(MacAddress::from_index(5)));
  EXPECT_FALSE(storage.contains(MacAddress::from_index(6)));
  EXPECT_TRUE(storage.contains(MacAddress::from_index(1)))
      << "the direct record of the bridge itself is untouched";
}

// Snapshots and inquiry results arrive in ascending MAC order, and the
// storage binary-searches them; a list off the wire may be in any order and
// must give the same result.
TEST(DeviceStorage, ReconcileBridgeIgnoresAliveOrder) {
  const auto populate = [](DeviceStorage& storage) {
    storage.upsert(direct(1, 250));
    for (std::uint64_t i = 5; i <= 14; ++i) {
      storage.upsert(routed(i, 1, 1, 480, 235));
    }
  };
  std::vector<MacAddress> alive;
  for (const std::uint64_t i : {5, 7, 8, 11, 14, 30, 31}) {
    alive.push_back(MacAddress::from_index(i));
  }
  std::sort(alive.begin(), alive.end());
  std::vector<MacAddress> shuffled = alive;
  std::rotate(shuffled.begin(), shuffled.begin() + 3, shuffled.end());
  std::swap(shuffled[0], shuffled[1]);
  ASSERT_FALSE(std::is_sorted(shuffled.begin(), shuffled.end()));

  DeviceStorage sorted_storage;
  DeviceStorage shuffled_storage;
  populate(sorted_storage);
  populate(shuffled_storage);
  sorted_storage.reconcile_bridge(MacAddress::from_index(1), alive);
  shuffled_storage.reconcile_bridge(MacAddress::from_index(1), shuffled);

  EXPECT_EQ(sorted_storage.size(), 6u) << "bridge + the 5 stored alive routes";
  EXPECT_EQ(shuffled_storage.size(), sorted_storage.size());
  for (std::uint64_t i = 1; i <= 14; ++i) {
    const MacAddress mac = MacAddress::from_index(i);
    EXPECT_EQ(shuffled_storage.contains(mac), sorted_storage.contains(mac))
        << "device " << i;
  }
  EXPECT_EQ(shuffled_storage.generation(), sorted_storage.generation());
}

TEST(DeviceStorage, AgeDirectIgnoresResponderOrder) {
  std::vector<MacAddress> responders;
  for (const std::uint64_t i : {2, 3, 6, 8}) {
    responders.push_back(MacAddress::from_index(i));
  }
  std::sort(responders.begin(), responders.end());
  std::vector<MacAddress> reversed(responders.rbegin(), responders.rend());

  const auto survivors = [](const std::vector<MacAddress>& heard) {
    DeviceStorage storage;
    for (std::uint64_t i = 1; i <= 8; ++i) storage.upsert(direct(i, 250));
    const auto removed =
        storage.age_direct(Technology::kBluetooth, heard, 0, at(1.0));
    EXPECT_EQ(removed.size(), 4u);
    std::vector<MacAddress> kept;
    storage.for_each(
        [&](const DeviceRecord& record) { kept.push_back(record.device.mac); });
    return kept;
  };
  EXPECT_EQ(survivors(reversed), survivors(responders));
  EXPECT_EQ(survivors(responders), responders);
}

TEST(DeviceStorage, LookupPointsAtTheStoredRecord) {
  DeviceStorage storage;
  EXPECT_EQ(storage.lookup(MacAddress::from_index(1)), nullptr);
  storage.upsert(direct(1, 250));
  const DeviceRecord* record = storage.lookup(MacAddress::from_index(1));
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->device.name, "n1");
  EXPECT_EQ(record->quality_sum, 250);
  EXPECT_TRUE(record->is_direct());
}

TEST(DeviceStorage, RemoveRoutesVia) {
  DeviceStorage storage;
  storage.upsert(routed(5, 1, 1, 480, 235));
  storage.upsert(routed(6, 2, 2, 700, 235));
  storage.remove_routes_via(MacAddress::from_index(1));
  EXPECT_FALSE(storage.contains(MacAddress::from_index(5)));
  EXPECT_TRUE(storage.contains(MacAddress::from_index(6)));
}

TEST(DeviceStorage, GenerationTracksAdvertisedContentOnly) {
  DeviceStorage storage;
  const std::uint32_t start = storage.generation();

  // Membership changes bump.
  EXPECT_TRUE(storage.upsert(direct(1, 250)));
  EXPECT_NE(storage.generation(), start);
  const std::uint32_t after_insert = storage.generation();

  // Re-upserting identical advertised content refreshes liveness only.
  DeviceRecord same = direct(1, 250);
  same.last_seen = at(9.0);
  same.neighbour_links = {{MacAddress::from_index(7), 200}};
  EXPECT_TRUE(storage.upsert(std::move(same)));
  EXPECT_EQ(storage.generation(), after_insert)
      << "liveness/neighbour-link refresh must not churn the generation";

  // A quality change is advertised content: bump.
  EXPECT_TRUE(storage.upsert(direct(1, 240)));
  EXPECT_NE(storage.generation(), after_insert);
  const std::uint32_t after_quality = storage.generation();

  // Rejected worse route: no bump.
  EXPECT_FALSE(storage.upsert(routed(1, 2, 3, 100, 100)));
  EXPECT_EQ(storage.generation(), after_quality);

  // Removal bumps both counters.
  const std::uint32_t removal = storage.weakening_generation();
  storage.remove(MacAddress::from_index(1));
  EXPECT_NE(storage.generation(), after_quality);
  EXPECT_NE(storage.weakening_generation(), removal);

  // Removing a non-existent record bumps nothing.
  const std::uint32_t gen = storage.generation();
  storage.remove(MacAddress::from_index(42));
  EXPECT_EQ(storage.generation(), gen);
}

TEST(DeviceStorage, GenerationCoversEveryAdvertisedField) {
  // Every field a NeighbourSnapshotEntry ships must, when changed alone,
  // move the generation — otherwise the snapshot cache would serve stale
  // frames as kNotModified. Mirrors the field list in advertised_equal /
  // encode_snapshot_entry.
  const auto base = [] {
    DeviceRecord r = direct(1, 250);
    r.device.name = "n1";
    r.device.checksum = 5;
    r.device.mobility = MobilityClass::kStatic;
    r.prototypes = {Technology::kBluetooth};
    r.services = {{"svc", "", 2}};
    return r;
  };
  const auto expect_bump = [&](auto mutate, const char* what) {
    DeviceStorage storage;
    ASSERT_TRUE(storage.upsert(base()));
    const std::uint32_t gen = storage.generation();
    DeviceRecord changed = base();
    mutate(changed);
    ASSERT_TRUE(storage.upsert(std::move(changed))) << what;
    EXPECT_NE(storage.generation(), gen) << what;
  };
  expect_bump([](DeviceRecord& r) { r.device.name = "renamed"; },
              "device.name");
  expect_bump([](DeviceRecord& r) { r.device.checksum = 99; },
              "device.checksum");
  expect_bump([](DeviceRecord& r) { r.device.mobility = MobilityClass::kHybrid; },
              "device.mobility");
  expect_bump([](DeviceRecord& r) { r.prototypes.push_back(Technology::kWlan); },
              "prototypes");
  expect_bump([](DeviceRecord& r) { r.services.push_back({"extra", "", 3}); },
              "services");
  expect_bump([](DeviceRecord& r) { r.quality_sum = 100; }, "quality_sum");
  expect_bump([](DeviceRecord& r) { r.min_link_quality = 100; },
              "min_link_quality");
  // jump/bridge change the route identity (different-route upsert paths)
  // and are covered by the insert/replace tests above.

  // The same flips shipped in a responder's snapshot: encoded, decoded as
  // views into the frame, and integrated as a route through the responder.
  const NeighbourhoodAnalyzer analyzer{MacAddress::from_index(90)};
  const auto base_entry = [&base] {
    const DeviceRecord r = base();
    NeighbourSnapshotEntry entry;
    entry.device = r.device;
    entry.prototypes = r.prototypes;
    entry.services = r.services;
    entry.quality_sum = entry.min_link_quality = 250;
    return entry;
  };
  const auto integrate = [&analyzer](DeviceStorage& storage,
                                     const NeighbourSnapshotEntry& entry) {
    wire::FetchResponse response;
    response.sections = wire::kSectionNeighbours;
    response.neighbours = {entry};
    const Bytes frame = wire::encode(response);
    wire::ReceivedFetchResponse received;
    ASSERT_TRUE(wire::decode_fetch_response(frame, received));
    DeviceRecord responder = direct(2, 240);
    (void)analyzer.integrate(storage, OwnedRecord{responder},
                             received.neighbours, Technology::kBluetooth,
                             at(1.0));
  };
  const auto expect_wire_bump = [&](auto mutate, const char* what) {
    DeviceStorage storage;
    integrate(storage, base_entry());
    ASSERT_TRUE(storage.contains(MacAddress::from_index(1))) << what;
    const std::uint32_t gen = storage.generation();
    integrate(storage, base_entry());
    EXPECT_EQ(storage.generation(), gen) << what << ": unchanged re-ship";
    NeighbourSnapshotEntry changed = base_entry();
    mutate(changed);
    integrate(storage, changed);
    EXPECT_NE(storage.generation(), gen) << what << " via a frame";
  };
  using Entry = NeighbourSnapshotEntry;
  expect_wire_bump([](Entry& e) { e.device.name = "renamed"; },
                   "device.name");
  expect_wire_bump([](Entry& e) { e.device.checksum = 99; },
                   "device.checksum");
  expect_wire_bump(
      [](Entry& e) { e.device.mobility = MobilityClass::kHybrid; },
      "device.mobility");
  expect_wire_bump([](Entry& e) { e.prototypes.push_back(Technology::kWlan); },
                   "prototypes");
  expect_wire_bump([](Entry& e) { e.services.push_back({"extra", "", 3}); },
                   "services");
  expect_wire_bump([](Entry& e) { e.services[0].attribute = "attr"; },
                   "services[0].attribute");
  expect_wire_bump([](Entry& e) { e.services[0].port = 7; },
                   "services[0].port");
  expect_wire_bump([](Entry& e) { e.quality_sum = 100; }, "quality_sum");
  expect_wire_bump([](Entry& e) { e.min_link_quality = 100; },
                   "min_link_quality");
}

TEST(DeviceStorage, WeakeningGenerationTracksDegradationAndRemoval) {
  DeviceStorage storage;
  ASSERT_TRUE(storage.upsert(direct(1, 250)));
  const std::uint32_t after_insert = storage.weakening_generation();

  // Same-route refresh with *better* quality: content changed, nothing got
  // weaker — previously rejected candidates cannot newly win.
  EXPECT_TRUE(storage.upsert(direct(1, 255)));
  EXPECT_EQ(storage.weakening_generation(), after_insert);

  // Same-route refresh with *worse* quality: a rejected alternative could
  // now beat the stored route, so baselines must be invalidated.
  EXPECT_TRUE(storage.upsert(direct(1, 200)));
  EXPECT_NE(storage.weakening_generation(), after_insert);
  const std::uint32_t after_weaken = storage.weakening_generation();

  // Identical content: no movement.
  EXPECT_TRUE(storage.upsert(direct(1, 200)));
  EXPECT_EQ(storage.weakening_generation(), after_weaken);

  // The kNotModified fast path (refresh_direct) follows the same rule:
  // quality up — not a weakening; quality down — weakening.
  EXPECT_TRUE(storage.refresh_direct(MacAddress::from_index(1), 220, at(1.0)));
  EXPECT_EQ(storage.weakening_generation(), after_weaken);
  EXPECT_TRUE(storage.refresh_direct(MacAddress::from_index(1), 180, at(2.0)));
  EXPECT_NE(storage.weakening_generation(), after_weaken);
}

TEST(DeviceStorage, AgingRefreshKeepsGenerationStable) {
  DeviceStorage storage;
  ASSERT_TRUE(storage.upsert(direct(1, 250)));
  ASSERT_TRUE(storage.upsert(direct(2, 250)));
  const std::uint32_t gen = storage.generation();

  // Everyone responds: timestamps refresh, nothing advertised changes.
  const std::vector<MacAddress> responders{MacAddress::from_index(1),
                                           MacAddress::from_index(2)};
  EXPECT_TRUE(
      storage.age_direct(Technology::kBluetooth, responders, 3, at(1.0))
          .empty());
  EXPECT_EQ(storage.generation(), gen);

  // A missed loop (no removal yet) still does not change advertised state.
  EXPECT_TRUE(storage
                  .age_direct(Technology::kBluetooth,
                              {MacAddress::from_index(1)}, 3, at(2.0))
                  .empty());
  EXPECT_EQ(storage.generation(), gen);

  // The eventual drop does.
  for (int i = 0; i < 4; ++i) {
    storage.age_direct(Technology::kBluetooth, {MacAddress::from_index(1)}, 3,
                       at(3.0 + i));
  }
  EXPECT_FALSE(storage.contains(MacAddress::from_index(2)));
  EXPECT_NE(storage.generation(), gen);
}

TEST(DeviceStorage, TouchRefreshesLivenessWithoutGenerationBump) {
  DeviceStorage storage;
  DeviceRecord record = direct(1, 250);
  record.last_seen = at(1.0);
  record.missed_loops = 2;
  ASSERT_TRUE(storage.upsert(std::move(record)));
  const std::uint32_t gen = storage.generation();

  EXPECT_TRUE(storage.touch(MacAddress::from_index(1), at(5.0)));
  EXPECT_FALSE(storage.touch(MacAddress::from_index(9), at(5.0)));
  EXPECT_EQ(storage.generation(), gen);

  const auto found = storage.find(MacAddress::from_index(1));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->last_seen, at(5.0));
  EXPECT_EQ(found->missed_loops, 0);

  // touch never rolls a newer timestamp back.
  EXPECT_TRUE(storage.touch(MacAddress::from_index(1), at(2.0)));
  EXPECT_EQ(storage.find(MacAddress::from_index(1))->last_seen, at(5.0));
}

TEST(DeviceStorage, ContainsDirect) {
  DeviceStorage storage;
  ASSERT_TRUE(storage.upsert(direct(1, 250)));
  ASSERT_TRUE(storage.upsert(routed(2, 1, 1, 400, 235)));
  EXPECT_TRUE(storage.contains_direct(MacAddress::from_index(1)));
  EXPECT_FALSE(storage.contains_direct(MacAddress::from_index(2)));
  EXPECT_FALSE(storage.contains_direct(MacAddress::from_index(3)));
}

TEST(DeviceRecord, ServiceLookup) {
  DeviceRecord record = direct(1, 250);
  record.services = {{"echo", "", 1}};
  EXPECT_TRUE(record.provides("echo"));
  EXPECT_FALSE(record.provides("other"));
  const auto svc = record.find_service("echo");
  ASSERT_TRUE(svc.has_value());
  EXPECT_EQ(svc->port, 1);
}

}  // namespace
}  // namespace peerhood
