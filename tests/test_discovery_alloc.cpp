// Proves the requester side of the discovery plane integrates a re-shipped
// neighbourhood without copying it, with a counting operator-new hook (same
// technique as test_snapshot_alloc): the whole dispatch of a 32-entry
// answer — decode included — costs exactly what a 4-entry one does, and no
// more than the next request frame. The daemon runs on a scripted network
// whose datagram handler the test drives directly, so the count covers
// exactly one datagram's dispatch, fetch chain and integration.
// This TU overrides global operator new/delete; each test source builds into
// its own binary, so the hook is scoped to this suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "net/frame_check.hpp"
#include "peerhood/daemon.hpp"
#include "scripted_network.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  ++g_allocations;
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace peerhood {
namespace {

const MacAddress kSelf = MacAddress::from_index(1);
const MacAddress kResponder = MacAddress::from_index(2);

// Names past the small-string buffer, so any copy of an entry allocates.
std::vector<NeighbourSnapshotEntry> neighbourhood(std::size_t entries) {
  std::vector<NeighbourSnapshotEntry> out;
  for (std::size_t i = 0; i < entries; ++i) {
    NeighbourSnapshotEntry entry;
    entry.device.mac = MacAddress::from_index(100 + i);
    entry.device.name = "neighbour-device-number-" + std::to_string(i);
    entry.prototypes = {Technology::kBluetooth, Technology::kWlan};
    entry.services = {{"a-service-with-a-long-name-" + std::to_string(i),
                       "an-attribute-long-enough-to-allocate", 9}};
    entry.jump = 1;
    entry.bridge = MacAddress::from_index(99);
    entry.quality_sum = 200;
    entry.min_link_quality = 200;
    out.push_back(std::move(entry));
  }
  // A responder advertises its storage in ascending MAC order.
  std::sort(out.begin(), out.end(),
            [](const NeighbourSnapshotEntry& a, const NeighbourSnapshotEntry& b) {
              return a.device.mac < b.device.mac;
            });
  return out;
}

class DiscoveryAllocation : public ::testing::Test {
 protected:
  DiscoveryAllocation()
      : network_{{kResponder}}, daemon_{network_, kSelf, nullptr, config()} {
    daemon_.start();
  }

  static DaemonConfig config() {
    DaemonConfig config;
    config.bridge_enabled = false;
    return config;
  }

  // Answers every fetch request of the next inquiry cycle with an
  // `entries`-sized neighbourhood (each answer ships every requested
  // section at a fresh generation). Returns the allocations made while the
  // daemon handled the answer carrying the neighbours section: the whole
  // datagram dispatch, from decode to whatever the fetch chain sends next.
  std::uint64_t run_cycle(std::size_t entries) {
    std::uint64_t dispatch = 0;
    const std::uint64_t cycles = daemon_.plugin(Technology::kBluetooth)
                                     ->stats().loops;
    do {
      const auto sent = network_.next_request();
      if (!sent.has_value()) {
        ADD_FAILURE() << "no fetch request within the simulated deadline";
        return 0;
      }
      const wire::FetchRequest* request = &sent->request;
      wire::FetchResponse response;
      response.request_id = request->request_id;
      response.sections = request->sections;
      response.epoch = 42;
      response.gens = wire::SectionGens{++gen_, ++gen_, ++gen_, ++gen_};
      response.device = DeviceInfo{kResponder, "the-responder-device", 2,
                                   MobilityClass::kStatic};
      response.prototypes = {Technology::kBluetooth};
      response.services = {{"echo-service-of-the-responder", "", 4}};
      response.neighbours = neighbourhood(entries);
      const Bytes payload = wire::encode(response);

      const std::uint64_t before = g_allocations.load();
      network_.deliver(kResponder, payload);
      if ((request->sections & wire::kSectionNeighbours) != 0) {
        dispatch = g_allocations.load() - before;
      }
    } while (daemon_.plugin(Technology::kBluetooth)->cycle_active() ||
             daemon_.plugin(Technology::kBluetooth)->stats().loops == cycles);
    return dispatch;
  }

  // What the plugin allocates to send one fetch request: its sealed
  // datagram frame.
  static std::uint64_t request_frame_allocations() {
    const wire::FetchRequest request{
        7, wire::kSectionAll, wire::FetchBaseline{42, {1, 2, 3, 4}}};
    const std::uint64_t before = g_allocations.load();
    const auto frame = net::make_datagram_frame(
        wire::kMaxFetchRequestSize,
        [&request](ByteWriter& writer) { wire::encode_into(writer, request); });
    return g_allocations.load() - before;
  }

  testing::ScriptedNetwork network_;
  Daemon daemon_;
  std::uint32_t gen_{0};
};

TEST_F(DiscoveryAllocation, ResponseMovesIntoStorageWithoutEntryCopies) {
  // The first cycle of each size stores the neighbourhood (one record
  // allocation per new device); the second re-ships the same routes, which
  // integrate in place, so what is left is the fetch path's own overhead.
  (void)run_cycle(4);
  const std::uint64_t small = run_cycle(4);
  ASSERT_EQ(daemon_.storage().size(), 1u + 4u);
  (void)run_cycle(32);
  const std::uint64_t large = run_cycle(32);
  ASSERT_EQ(daemon_.storage().size(), 1u + 32u);

  const Plugin::Stats& stats =
      daemon_.plugin(Technology::kBluetooth)->stats();
  EXPECT_EQ(stats.stale_responses, 0u);
  EXPECT_GE(stats.delta_responses, 2u) << "the measured cycles were deltas";
  EXPECT_EQ(large, small)
      << "the dispatch's allocations grew with the entry count: the "
         "neighbourhood is being copied on its way to the storage";
  const std::uint64_t request_frame = request_frame_allocations();
  EXPECT_EQ(request_frame, 2u) << "one buffer plus one control block";
  EXPECT_LE(small, request_frame)
      << "a re-shipped neighbourhood allocates beyond the next request";
}

TEST(DeviceStorageAllocation, SameDescriptorRouteRefreshAllocatesNothing) {
  DeviceStorage storage;
  const auto routed = [](int quality) {
    DeviceRecord record;
    record.device = DeviceInfo{MacAddress::from_index(100),
                               "a-device-name-past-the-small-string", 3,
                               MobilityClass::kHybrid};
    record.prototypes = {Technology::kBluetooth, Technology::kWlan};
    record.services = {{"a-service-with-a-long-name",
                        "an-attribute-long-enough-to-allocate", 9}};
    record.jump = 2;
    record.bridge = kResponder;
    record.quality_sum = record.min_link_quality = quality;
    return record;
  };
  ASSERT_TRUE(storage.upsert(routed(200)));

  // An owned record over the same route: the stored one is updated, and
  // the record's descriptors move (built before the count starts).
  DeviceRecord refresh = routed(210);
  std::uint64_t before = g_allocations.load();
  EXPECT_TRUE(storage.upsert(std::move(refresh)));
  EXPECT_EQ(g_allocations.load() - before, 0u) << "owned record";

  // The same route re-shipped in a received frame: compared in place.
  NeighbourSnapshotEntry entry;
  entry.device = routed(0).device;
  entry.prototypes = routed(0).prototypes;
  entry.services = routed(0).services;
  // The responder's own one-jump route: offered as the stored two-jump
  // route through it, and not one of its neighbour links.
  entry.jump = 1;
  entry.bridge = MacAddress::from_index(99);
  entry.quality_sum = entry.min_link_quality = 230;
  wire::FetchResponse response;
  response.sections = wire::kSectionNeighbours;
  response.neighbours = {entry};
  const Bytes frame = wire::encode(response);
  wire::ReceivedFetchResponse received;
  ASSERT_TRUE(wire::decode_fetch_response(frame, received));
  DeviceRecord bridge;
  bridge.device.mac = kResponder;
  bridge.quality_sum = bridge.min_link_quality = 240;
  ASSERT_TRUE(storage.upsert(bridge));
  const NeighbourhoodAnalyzer analyzer{kSelf};
  // The first integration moves the route onto this bridge's figures; the
  // second re-ships it unchanged.
  (void)analyzer.integrate(storage, OwnedRecord{bridge}, received.neighbours,
                           Technology::kBluetooth, SimTime{});
  const std::uint32_t generation = storage.generation();
  DeviceRecord again;
  again.device.mac = kResponder;
  again.quality_sum = again.min_link_quality = 240;
  before = g_allocations.load();
  const int refreshed =
      analyzer.integrate(storage, OwnedRecord{again}, received.neighbours,
                         Technology::kBluetooth, SimTime{});
  EXPECT_EQ(g_allocations.load() - before, 0u) << "entry viewed in a frame";
  EXPECT_EQ(refreshed, 2) << "the direct record and the route both accepted";
  EXPECT_EQ(storage.lookup(entry.device.mac)->quality_sum, 230 + 240);
  EXPECT_EQ(storage.generation(), generation);
  EXPECT_EQ(storage.lookup(entry.device.mac)->device.name, entry.device.name);
}

TEST(DeviceStorageAllocation, ReconcileBridgeAllocatesNothing) {
  DeviceStorage storage;
  DeviceRecord bridge;
  bridge.device.mac = kResponder;
  bridge.quality_sum = bridge.min_link_quality = 240;
  ASSERT_TRUE(storage.upsert(bridge));
  std::vector<MacAddress> alive;
  for (std::uint64_t i = 100; i < 164; ++i) {
    DeviceRecord routed;
    routed.device.mac = MacAddress::from_index(i);
    routed.jump = 1;
    routed.bridge = kResponder;
    routed.quality_sum = routed.min_link_quality = 200;
    ASSERT_TRUE(storage.upsert(routed));
    if (i % 3 != 0) alive.push_back(routed.device.mac);
  }
  std::sort(alive.begin(), alive.end());
  std::vector<MacAddress> reversed(alive.rbegin(), alive.rend());

  std::uint64_t before = g_allocations.load();
  storage.reconcile_bridge(kResponder, alive);
  EXPECT_EQ(g_allocations.load() - before, 0u) << "sorted snapshot";
  const std::size_t kept = storage.size();
  EXPECT_EQ(kept, 1u + alive.size());

  before = g_allocations.load();
  storage.reconcile_bridge(kResponder, reversed);
  EXPECT_EQ(g_allocations.load() - before, 0u) << "unsorted snapshot";
  EXPECT_EQ(storage.size(), kept);
}

}  // namespace
}  // namespace peerhood
