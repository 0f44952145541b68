#include "sim/medium.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "forwarding_model.hpp"
#include "reference_neighbours.hpp"

namespace peerhood::sim {
namespace {

class MediumTest : public ::testing::Test {
 protected:
  MediumTest() : sim_{77}, medium_{sim_} {}

  MacAddress add(std::uint64_t index, Vec2 position,
                 Technology tech = Technology::kBluetooth) {
    const MacAddress mac = MacAddress::from_index(index);
    medium_.register_endpoint(
        mac, tech, std::make_shared<StaticPosition>(position),
        [this, mac](MacAddress from, const Bytes& frame) {
          received_.push_back({mac, from, frame});
        });
    return mac;
  }

  struct Received {
    MacAddress to;
    MacAddress from;
    Bytes frame;
  };

  Simulator sim_;
  RadioMedium medium_;
  std::vector<Received> received_;
};

TEST_F(MediumTest, InRangeByDistance) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {5.0, 0.0});
  const MacAddress c = add(3, {15.0, 0.0});
  EXPECT_TRUE(medium_.in_range(a, b, Technology::kBluetooth));
  EXPECT_FALSE(medium_.in_range(a, c, Technology::kBluetooth));
  EXPECT_TRUE(medium_.in_range(b, c, Technology::kBluetooth));
}

TEST_F(MediumTest, InRangeOfExcludesSelf) {
  const MacAddress a = add(1, {0.0, 0.0});
  add(2, {3.0, 0.0});
  add(3, {6.0, 0.0});
  add(4, {30.0, 0.0});
  const auto neighbours = medium_.in_range_of(a, Technology::kBluetooth);
  EXPECT_EQ(neighbours.size(), 2u);
  EXPECT_EQ(std::count(neighbours.begin(), neighbours.end(), a), 0);
}

TEST_F(MediumTest, TechnologiesAreIsolated) {
  const MacAddress a = add(1, {0.0, 0.0}, Technology::kBluetooth);
  const MacAddress b = add(2, {5.0, 0.0}, Technology::kWlan);
  EXPECT_FALSE(medium_.in_range(a, b, Technology::kBluetooth));
  EXPECT_TRUE(medium_.in_range_of(a, Technology::kWlan).empty());
}

TEST_F(MediumTest, DiscoverableInRangeHonoursFlags) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {3.0, 0.0});
  const MacAddress c = add(3, {6.0, 0.0});

  auto discoverable = medium_.discoverable_in_range(a, Technology::kBluetooth);
  EXPECT_EQ(discoverable.size(), 2u);

  medium_.set_inquiring(b, Technology::kBluetooth, true);
  discoverable = medium_.discoverable_in_range(a, Technology::kBluetooth);
  ASSERT_EQ(discoverable.size(), 1u);
  EXPECT_EQ(discoverable[0], c);
}

TEST_F(MediumTest, BluetoothInquiryAsymmetry) {
  // §3.4.2: a device that is searching is itself not discoverable.
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {3.0, 0.0});
  medium_.set_inquiring(b, Technology::kBluetooth, true);
  EXPECT_TRUE(
      medium_.discoverable_in_range(a, Technology::kBluetooth).empty());
  medium_.set_inquiring(b, Technology::kBluetooth, false);
  EXPECT_EQ(medium_.discoverable_in_range(a, Technology::kBluetooth).size(),
            1u);
}

TEST_F(MediumTest, WlanHasNoInquiryAsymmetry) {
  const MacAddress a = add(1, {0.0, 0.0}, Technology::kWlan);
  const MacAddress b = add(2, {10.0, 0.0}, Technology::kWlan);
  medium_.set_inquiring(b, Technology::kWlan, true);
  EXPECT_EQ(medium_.discoverable_in_range(a, Technology::kWlan).size(), 1u);
}

TEST_F(MediumTest, PeerhoodTagDefaultsTrue) {
  const MacAddress a = add(1, {0.0, 0.0});
  EXPECT_TRUE(medium_.peerhood_tag(a, Technology::kBluetooth));
  medium_.set_peerhood_tag(a, Technology::kBluetooth, false);
  EXPECT_FALSE(medium_.peerhood_tag(a, Technology::kBluetooth));
}

TEST_F(MediumTest, QualityDecreasesWithDistance) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {2.0, 0.0});
  const MacAddress c = add(3, {9.0, 0.0});
  EXPECT_GT(medium_.probe_link(a, b, Technology::kBluetooth).quality,
            medium_.probe_link(a, c, Technology::kBluetooth).quality);
  EXPECT_EQ(medium_
                .probe_link(a, MacAddress::from_index(99),
                            Technology::kBluetooth)
                .quality,
            0);
}

TEST_F(MediumTest, FrameDeliveredInRange) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {5.0, 0.0});
  medium_.send_frame(a, b, Technology::kBluetooth, Bytes{1, 2, 3});
  sim_.run_all();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].to, b);
  EXPECT_EQ(received_[0].from, a);
  EXPECT_EQ(received_[0].frame, (Bytes{1, 2, 3}));
  EXPECT_EQ(medium_.stats().frames, 1u);
  EXPECT_EQ(medium_.stats().drops, 0u);
}

TEST_F(MediumTest, FrameDroppedOutOfRange) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {50.0, 0.0});
  medium_.send_frame(a, b, Technology::kBluetooth, Bytes{1});
  sim_.run_all();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(medium_.stats().drops, 1u);
}

TEST_F(MediumTest, DeliveryHasLatency) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {5.0, 0.0});
  medium_.send_frame(a, b, Technology::kBluetooth, Bytes{1});
  EXPECT_TRUE(received_.empty());  // not synchronous
  sim_.run_all();
  EXPECT_EQ(received_.size(), 1u);
  EXPECT_GE(sim_.now().seconds(), 0.030);  // at least per-hop latency
}

TEST_F(MediumTest, LargeFramesTakeLonger) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {5.0, 0.0});
  medium_.send_frame(a, b, Technology::kBluetooth, Bytes(100'000, 0));
  sim_.run_all();
  // 100 kB at 100 kB/s ≈ 1 s transmission time.
  EXPECT_GE(sim_.now().seconds(), 1.0);
}

TEST_F(MediumTest, InOrderDeliveryPerDirection) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {5.0, 0.0});
  for (std::uint8_t i = 0; i < 20; ++i) {
    medium_.send_frame(a, b, Technology::kBluetooth, Bytes{i});
  }
  sim_.run_all();
  ASSERT_EQ(received_.size(), 20u);
  for (std::uint8_t i = 0; i < 20; ++i) {
    EXPECT_EQ(received_[i].frame[0], i);
  }
}

TEST_F(MediumTest, DropWhenReceiverMovesAwayBeforeDelivery) {
  const MacAddress a = add(1, {0.0, 0.0});
  // b walks away fast: in range at send time, out of range at delivery.
  const MacAddress b = MacAddress::from_index(2);
  medium_.register_endpoint(
      b, Technology::kBluetooth,
      std::make_shared<LinearMotion>(Vec2{9.9, 0.0}, Vec2{300.0, 0.0}),
      [this, b](MacAddress from, const Bytes& frame) {
        received_.push_back({b, from, frame});
      });
  medium_.send_frame(a, b, Technology::kBluetooth, Bytes(50'000, 0));
  sim_.run_all();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(medium_.stats().drops, 1u);
}

TEST_F(MediumTest, DropWhenReceiverLeavesDuringPerHopLatency) {
  const MacAddress a = add(1, {0.0, 0.0});
  // A one-byte frame: only the 30 ms per-hop latency passes, in which b
  // walks from 9.9 m to 10.2 m.
  const MacAddress b = MacAddress::from_index(2);
  medium_.register_endpoint(
      b, Technology::kBluetooth,
      std::make_shared<LinearMotion>(Vec2{9.9, 0.0}, Vec2{10.0, 0.0}),
      [this, b](MacAddress from, const Bytes& frame) {
        received_.push_back({b, from, frame});
      });
  medium_.send_frame(a, b, Technology::kBluetooth, Bytes{1});
  sim_.run_all();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(medium_.stats().drops, 1u);
}

TEST_F(MediumTest, ReRegistrationBetweenSendAndDeliveryForcesReCheck) {
  // Both static: the send proves the copy in range for ever, until the
  // receiver is registered again with a model that is out of range.
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {2.0, 0.0});
  medium_.send_frame(a, b, Technology::kBluetooth, Bytes{1});
  (void)add(2, {20.0, 0.0});
  sim_.run_all();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(medium_.stats().drops, 1u);
  // Re-registered in range: delivered to the new registration.
  (void)add(2, {2.0, 0.0});
  medium_.send_frame(a, b, Technology::kBluetooth, Bytes{2});
  (void)add(2, {3.0, 0.0});
  sim_.run_all();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].frame, (Bytes{2}));
}

// Frames across the coverage edge, from receivers walking at up to 40 m/s
// in and out: the send-time proof delivers and drops exactly the frames
// the delivery-time re-check does.
TEST(MediumDeliveryProof, AgreesWithTheReCheckAcrossTheEdge) {
  std::vector<std::vector<int>> delivered(2);
  std::uint64_t drops[2] = {0, 0};
  for (const bool unbounded : {false, true}) {
    Simulator sim{5};
    RadioMedium medium{sim};
    const MacAddress a = MacAddress::from_index(1);
    medium.register_endpoint(a, Technology::kBluetooth,
                             std::make_shared<StaticPosition>(Vec2{}),
                             nullptr);
    Rng rng{99};
    for (int i = 0; i < 400; ++i) {
      const MacAddress b = MacAddress::from_index(100 + i);
      const Vec2 start{rng.uniform(9.0, 10.0), 0.0};
      const Vec2 velocity{rng.uniform(-40.0, 40.0), 0.0};
      medium.register_endpoint(
          b, Technology::kBluetooth,
          testing::maybe_unbounded(std::make_shared<LinearMotion>(
                                       start, velocity, sim.now()),
                                   unbounded),
          [&delivered, unbounded, i](MacAddress, const Bytes&) {
            delivered[unbounded].push_back(i);
          });
      medium.send_frame(a, b, Technology::kBluetooth,
                        Bytes(static_cast<std::size_t>(rng.uniform_int(1, 3000)),
                              0));
      sim.run_all();
    }
    drops[unbounded] = medium.stats().drops;
  }
  EXPECT_EQ(delivered[0], delivered[1]);
  EXPECT_EQ(drops[0], drops[1]);
  EXPECT_GT(drops[0], 50u);
  EXPECT_GT(delivered[0].size(), 50u);
}

TEST_F(MediumTest, UnregisteredReceiverDrops) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {5.0, 0.0});
  medium_.send_frame(a, b, Technology::kBluetooth, Bytes{1});
  medium_.unregister_endpoint(b, Technology::kBluetooth);
  sim_.run_all();
  EXPECT_TRUE(received_.empty());
}

TEST_F(MediumTest, PositionTracksMobility) {
  const MacAddress origin = add(1, {0.0, 0.0});
  const MacAddress m = MacAddress::from_index(5);
  medium_.register_endpoint(
      m, Technology::kBluetooth,
      std::make_shared<LinearMotion>(Vec2{0.0, 0.0}, Vec2{1.0, 0.0}),
      nullptr);
  sim_.schedule_after(seconds(10.0), [] {});
  sim_.run_all();
  EXPECT_DOUBLE_EQ(
      medium_.probe_link(m, origin, Technology::kBluetooth).distance_m, 10.0);
}

TEST_F(MediumTest, SharedFrameDeliversWithoutCopy) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {5.0, 0.0});
  const auto payload = std::make_shared<const Bytes>(Bytes{4, 5, 6});
  medium_.send_frame(a, b, Technology::kBluetooth, payload);
  sim_.run_all();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].frame, *payload);
  // The delivery event held a reference, not a copy; after delivery only the
  // test's handle remains.
  EXPECT_EQ(payload.use_count(), 1);
}

TEST_F(MediumTest, AgeLastDeliveryEvictsPastEntries) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {5.0, 0.0});
  medium_.send_frame(a, b, Technology::kBluetooth, Bytes{1});
  medium_.send_frame(b, a, Technology::kBluetooth, Bytes{2});
  EXPECT_EQ(medium_.last_delivery_entries(), 2u);
  sim_.run_all();  // clock passes both delivery times
  sim_.run_for(seconds(1.0));
  medium_.age_last_delivery();
  EXPECT_EQ(medium_.last_delivery_entries(), 0u);
  ASSERT_EQ(received_.size(), 2u);
}

TEST_F(MediumTest, AgeLastDeliveryKeepsPendingEntries) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {5.0, 0.0});
  medium_.send_frame(a, b, Technology::kBluetooth, Bytes{1});
  // Delivery is still in the future; the entry must survive a sweep so
  // in-order bumping keeps working for this direction.
  medium_.age_last_delivery();
  EXPECT_EQ(medium_.last_delivery_entries(), 1u);
  medium_.send_frame(a, b, Technology::kBluetooth, Bytes{2});
  sim_.run_all();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].frame[0], 1);
  EXPECT_EQ(received_[1].frame[0], 2);
}

TEST_F(MediumTest, LastDeliveryMapStaysBoundedOverManyPairs) {
  // Many short-lived (from,to) pairs across advancing time: the automatic
  // high-water sweep must keep the map from growing monotonically.
  constexpr int kNodes = 40;
  std::vector<MacAddress> macs;
  for (int i = 1; i <= kNodes; ++i) {
    macs.push_back(add(static_cast<std::uint64_t>(i),
                       {static_cast<double>(i % 8), double(i / 8)}));
  }
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < kNodes; ++i) {
      medium_.send_frame(macs[static_cast<std::size_t>(i)],
                         macs[static_cast<std::size_t>((i + round + 1) % kNodes)],
                         Technology::kBluetooth, Bytes{1});
    }
    sim_.run_all();
    sim_.run_for(seconds(1.0));
  }
  // 30 rounds × 40 distinct directed pairs ≈ 1200 lifetime pairs; the sweep
  // keeps the live map well below that.
  EXPECT_LT(medium_.last_delivery_entries(), 300u);
}

// The endpoint index under churn: endpoints over two technologies are
// registered, unregistered and re-registered (sometimes swapping a static
// model for a moving one or back) in a seeded order that grows the index
// through several doublings. After every step each lookup agrees with a
// reference map: registration, position, pairwise range and the neighbour
// list.
TEST(MediumEndpointIndex, AgreesWithReferenceMapThroughChurn) {
  Simulator sim{3};
  RadioMedium medium{sim};
  constexpr std::uint64_t kMacs = 320;
  constexpr Technology kTechs[] = {Technology::kBluetooth, Technology::kWlan};
  std::map<std::pair<std::uint64_t, Technology>,
           std::shared_ptr<const MobilityModel>>
      reference;
  // Keys unregistered at least once, and those of them registered again.
  std::set<std::pair<std::uint64_t, Technology>> left;
  std::set<std::pair<std::uint64_t, Technology>> returned;
  Rng rng{2024};
  const auto mac = [](std::uint64_t n) { return MacAddress::from_index(n); };
  // A fixed endpoint per technology, out of every churned endpoint's range:
  // its distance to each of them checks that endpoint's position.
  const MacAddress anchor = mac(kMacs + 1);
  const Vec2 anchor_at{-10000.0, -10000.0};
  for (const Technology t : kTechs) {
    medium.register_endpoint(anchor, t,
                             std::make_shared<StaticPosition>(anchor_at),
                             nullptr);
  }

  for (int step = 0; step < 5000; ++step) {
    const auto n = static_cast<std::uint64_t>(rng.uniform_int(1, kMacs));
    const Technology tech = kTechs[rng.uniform_int(0, 1)];
    if (rng.next_double() < 0.65) {
      const Vec2 at{rng.uniform(0.0, 80.0), rng.uniform(0.0, 80.0)};
      std::shared_ptr<const MobilityModel> model;
      if (rng.next_double() < 0.5) {
        model = std::make_shared<StaticPosition>(at);
      } else {
        model = std::make_shared<LinearMotion>(
            at, Vec2{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)},
            sim.now());
      }
      medium.register_endpoint(mac(n), tech, model, nullptr);
      reference[{n, tech}] = std::move(model);
      if (left.contains({n, tech})) returned.insert({n, tech});
    } else {
      medium.unregister_endpoint(mac(n), tech);
      if (reference.erase({n, tech}) > 0) left.insert({n, tech});
    }
    if (step % 50 == 49) sim.run_until(sim.now() + seconds(1.0));

    for (std::uint64_t i = 1; i <= kMacs; ++i) {
      for (const Technology t : kTechs) {
        const auto it = reference.find({i, t});
        ASSERT_EQ(medium.has_endpoint(mac(i), t), it != reference.end())
            << "step " << step << " mac " << i;
        if (it != reference.end()) {
          EXPECT_EQ(medium.probe_link(mac(i), anchor, t).distance_m,
                    (it->second->position_at(sim.now()) - anchor_at).norm());
        }
      }
    }
    // The stepped endpoint's neighbours, and its range to one other MAC.
    std::vector<ReferenceEndpoint> same_tech;
    for (const auto& [k, model] : reference) {
      if (k.second == tech) same_tech.push_back({mac(k.first), model});
    }
    const std::vector<MacAddress> expected = in_range_of_brute(
        same_tech, mac(n), medium.params(tech).range_m, sim.now());
    ASSERT_EQ(medium.in_range_of(mac(n), tech), expected) << "step " << step;
    // Another MAC: in_range_of leaves the endpoint itself out.
    const auto hop = static_cast<std::uint64_t>(rng.uniform_int(1, kMacs - 1));
    const MacAddress other = mac((n - 1 + hop) % kMacs + 1);
    EXPECT_EQ(medium.in_range(mac(n), other, tech),
              std::find(expected.begin(), expected.end(), other) !=
                  expected.end())
        << "step " << step;
  }
  // The walk reached a population that needs a many-times-doubled index,
  // and took most of it through a full leave-and-return cycle.
  EXPECT_GT(reference.size(), 300u);
  EXPECT_GE(returned.size(), 300u);
}

}  // namespace
}  // namespace peerhood::sim
