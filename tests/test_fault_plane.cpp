// Fault-injection plane tests (sim/fault.hpp): per-kind behaviour at the
// medium level, corrupt-frame rejection at the transport level, blackout /
// partition windows, and the determinism contract — identical (seed,
// schedule) pairs replay the exact same fault sequence.
#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include "net/sim_network.hpp"
#include "sim/medium.hpp"

namespace peerhood::sim {
namespace {

bool same_stats(const FaultStats& a, const FaultStats& b) {
  return a.frames_seen == b.frames_seen && a.loss_drops == b.loss_drops &&
         a.blackout_drops == b.blackout_drops && a.corrupted == b.corrupted &&
         a.duplicated == b.duplicated && a.reordered == b.reordered &&
         a.burst_entries == b.burst_entries;
}

class FaultPlaneTest : public ::testing::Test {
 protected:
  explicit FaultPlaneTest(std::uint64_t seed = 77)
      : sim_{seed}, medium_{sim_} {}

  MacAddress add(std::uint64_t index, Vec2 position) {
    const MacAddress mac = MacAddress::from_index(index);
    medium_.register_endpoint(
        mac, Technology::kBluetooth,
        std::make_shared<StaticPosition>(position),
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

TEST_F(FaultPlaneTest, IndependentLossMatchesConfiguredRate) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {2.0, 0.0});
  FaultProfile profile;
  profile.loss_good = 0.3;
  medium_.fault_plane().set_profile(Technology::kBluetooth, profile);

  constexpr int kFrames = 2000;
  for (int i = 0; i < kFrames; ++i) {
    medium_.send_frame(a, b, Technology::kBluetooth, Bytes{1});
    sim_.run_for(seconds(0.1));
  }
  sim_.run_all();

  const FaultStats& stats = medium_.fault_plane().stats();
  EXPECT_EQ(stats.frames_seen, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(received_.size() + stats.loss_drops,
            static_cast<std::uint64_t>(kFrames));
  const double rate =
      static_cast<double>(stats.loss_drops) / static_cast<double>(kFrames);
  EXPECT_NEAR(rate, 0.3, 0.05);
  EXPECT_EQ(medium_.stats().drops, stats.loss_drops);
}

TEST_F(FaultPlaneTest, GilbertElliottLossComesInBursts) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {2.0, 0.0});
  FaultProfile profile;
  profile.loss_good = 0.0;
  profile.loss_bad = 1.0;
  profile.p_good_to_bad = 0.05;
  profile.p_bad_to_good = 0.3;
  medium_.fault_plane().set_profile(Technology::kBluetooth, profile);

  constexpr int kFrames = 2000;
  for (int i = 0; i < kFrames; ++i) {
    medium_.send_frame(a, b, Technology::kBluetooth, Bytes{1});
    sim_.run_for(seconds(0.1));
  }
  sim_.run_all();

  const FaultStats& stats = medium_.fault_plane().stats();
  EXPECT_GT(stats.burst_entries, 10u);
  // Mean burst length 1/p_bad_to_good > 1: drops outnumber burst entries,
  // i.e. loss clusters instead of flipping back immediately every time.
  EXPECT_GT(stats.loss_drops, stats.burst_entries);
}

TEST_F(FaultPlaneTest, QualityCouplingScalesLossWithDegradation) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress near = add(2, {1.0, 0.0});
  const MacAddress far = add(3, {9.0, 0.0});
  FaultProfile profile;
  profile.loss_good = 0.15;
  profile.quality_coupling = 1.0;
  medium_.fault_plane().set_profile(Technology::kBluetooth, profile);

  constexpr int kFrames = 3000;
  for (int i = 0; i < kFrames; ++i) {
    medium_.send_frame(a, near, Technology::kBluetooth, Bytes{1});
    medium_.send_frame(a, far, Technology::kBluetooth, Bytes{1});
    sim_.run_for(seconds(0.1));
  }
  sim_.run_all();

  int near_got = 0;
  int far_got = 0;
  for (const Received& r : received_) {
    if (r.to == near) ++near_got;
    if (r.to == far) ++far_got;
  }
  // The far link sits close to the coverage edge; coupling must lose
  // measurably more of its frames than the near link's baseline rate.
  EXPECT_GT(near_got - far_got, kFrames / 20);
}

TEST_F(FaultPlaneTest, CorruptionManglesACopyAndCounts) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {2.0, 0.0});
  FaultProfile profile;
  profile.corrupt_prob = 1.0;
  medium_.fault_plane().set_profile(Technology::kBluetooth, profile);

  const Bytes payload(32, 0xAB);
  auto shared = std::make_shared<const Bytes>(payload);
  medium_.send_frame(a, b, Technology::kBluetooth, shared);
  sim_.run_all();

  ASSERT_EQ(received_.size(), 1u);
  EXPECT_NE(received_[0].frame, payload);
  // The shared buffer itself is never mutated (other deliveries and caches
  // may reference the same allocation).
  EXPECT_EQ(*shared, payload);
  EXPECT_EQ(medium_.fault_plane().stats().corrupted, 1u);
}

TEST_F(FaultPlaneTest, DuplicationDeliversTwice) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {2.0, 0.0});
  FaultProfile profile;
  profile.duplicate_prob = 1.0;
  medium_.fault_plane().set_profile(Technology::kBluetooth, profile);

  medium_.send_frame(a, b, Technology::kBluetooth, Bytes{7});
  sim_.run_all();

  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].frame, received_[1].frame);
  EXPECT_EQ(medium_.fault_plane().stats().duplicated, 1u);
}

TEST_F(FaultPlaneTest, ReorderedFrameIsOvertaken) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {2.0, 0.0});
  // First frame carries a large reorder delay; then the profile is cleared
  // so the second frame travels at base latency and overtakes it.
  FaultProfile delayed;
  delayed.reorder_prob = 1.0;
  delayed.reorder_delay_max = seconds(5.0);
  medium_.fault_plane().set_profile(Technology::kBluetooth, delayed);
  medium_.send_frame(a, b, Technology::kBluetooth, Bytes{1});
  medium_.fault_plane().set_profile(Technology::kBluetooth, FaultProfile{});
  medium_.send_frame(a, b, Technology::kBluetooth, Bytes{2});
  sim_.run_all();

  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].frame, (Bytes{2}));
  EXPECT_EQ(received_[1].frame, (Bytes{1}));
  EXPECT_EQ(medium_.fault_plane().stats().reordered, 1u);
}

TEST_F(FaultPlaneTest, BlackoutWindowSilencesThenHeals) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {2.0, 0.0});
  LinkFaultModel::Blackout window;
  window.start = SimTime{} + seconds(1.0);
  window.duration = seconds(2.0);
  medium_.fault_plane().schedule_blackout(window);

  auto send = [this, a, b] {
    medium_.send_frame(a, b, Technology::kBluetooth, Bytes{1});
  };
  sim_.schedule_at(SimTime{} + seconds(0.5), send);
  sim_.schedule_at(SimTime{} + seconds(2.0), send);
  sim_.schedule_at(SimTime{} + seconds(4.0), send);
  sim_.run_all();

  EXPECT_EQ(received_.size(), 2u);
  EXPECT_EQ(medium_.fault_plane().stats().blackout_drops, 1u);
}

TEST_F(FaultPlaneTest, PartitionCutsOnlyCrossLinks) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {2.0, 0.0});
  const MacAddress c = add(3, {4.0, 0.0});
  LinkFaultModel::Blackout cut;
  cut.start = SimTime{};
  cut.duration = seconds(10.0);
  cut.side_a = {a};
  cut.side_b = {c};
  medium_.fault_plane().schedule_blackout(cut);

  medium_.send_frame(a, c, Technology::kBluetooth, Bytes{1});  // crosses cut
  medium_.send_frame(a, b, Technology::kBluetooth, Bytes{2});  // same side
  medium_.send_frame(b, c, Technology::kBluetooth, Bytes{3});  // b unlisted
  sim_.run_all();

  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(medium_.fault_plane().stats().blackout_drops, 1u);
  // Discovery is silenced across the cut too.
  EXPECT_TRUE(medium_.link_blacked_out(a, c, Technology::kBluetooth));
  EXPECT_FALSE(medium_.link_blacked_out(a, b, Technology::kBluetooth));
}

TEST_F(FaultPlaneTest, BlackoutDoesNotAdvanceBurstState) {
  const MacAddress a = add(1, {0.0, 0.0});
  const MacAddress b = add(2, {2.0, 0.0});
  FaultProfile profile;
  profile.p_good_to_bad = 0.5;
  profile.loss_bad = 1.0;
  medium_.fault_plane().set_profile(Technology::kBluetooth, profile);
  LinkFaultModel::Blackout window;
  window.start = SimTime{};
  window.duration = seconds(1.0);
  medium_.fault_plane().schedule_blackout(window);

  for (int i = 0; i < 50; ++i) {
    medium_.send_frame(a, b, Technology::kBluetooth, Bytes{1});
  }
  sim_.run_all();
  const FaultStats& stats = medium_.fault_plane().stats();
  EXPECT_EQ(stats.blackout_drops, 50u);
  EXPECT_EQ(stats.burst_entries, 0u);  // GE state frozen during the window
}

TEST(FaultPlaneDeterminism, SameSeedAndScheduleReplayIdentically) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim{seed};
    RadioMedium medium{sim};
    std::vector<std::uint8_t> order;
    const MacAddress a = MacAddress::from_index(1);
    const MacAddress b = MacAddress::from_index(2);
    medium.register_endpoint(a, Technology::kBluetooth,
                             std::make_shared<StaticPosition>(Vec2{0.0, 0.0}),
                             [](MacAddress, const Bytes&) {});
    medium.register_endpoint(
        b, Technology::kBluetooth,
        std::make_shared<StaticPosition>(Vec2{6.0, 0.0}),
        [&order](MacAddress, const Bytes& frame) {
          order.push_back(frame.empty() ? 0 : frame[0]);
        });
    FaultProfile profile;
    profile.loss_good = 0.1;
    profile.loss_bad = 0.8;
    profile.p_good_to_bad = 0.05;
    profile.corrupt_prob = 0.05;
    profile.duplicate_prob = 0.05;
    profile.reorder_prob = 0.1;
    medium.fault_plane().set_profile(Technology::kBluetooth, profile);
    for (int i = 0; i < 500; ++i) {
      medium.send_frame(a, b, Technology::kBluetooth,
                        Bytes{static_cast<std::uint8_t>(i & 0xff)});
      sim.run_for(seconds(0.05));
    }
    sim.run_all();
    return std::pair{medium.fault_plane().stats(), order};
  };

  const auto [stats1, order1] = run_once(42);
  const auto [stats2, order2] = run_once(42);
  const auto [stats3, order3] = run_once(43);
  EXPECT_TRUE(same_stats(stats1, stats2));
  EXPECT_EQ(order1, order2);
  EXPECT_FALSE(same_stats(stats1, stats3) && order1 == order3);
}

TEST(FaultPlaneNetwork, CorruptFramesAreCountedAndDropped) {
  Simulator sim{5};
  RadioMedium medium{sim};
  net::SimNetwork network{medium};
  const MacAddress a = MacAddress::from_index(1);
  const MacAddress b = MacAddress::from_index(2);
  network.attach_interface(a, Technology::kBluetooth,
                           std::make_shared<StaticPosition>(Vec2{0.0, 0.0}));
  network.attach_interface(b, Technology::kBluetooth,
                           std::make_shared<StaticPosition>(Vec2{2.0, 0.0}));
  int delivered = 0;
  network.set_datagram_handler(
      b, Technology::kBluetooth,
      [&delivered](MacAddress, std::span<const std::uint8_t>) {
        ++delivered;
      });
  FaultProfile profile;
  profile.corrupt_prob = 1.0;
  medium.fault_plane().set_profile(Technology::kBluetooth, profile);

  for (int i = 0; i < 20; ++i) {
    network.send_datagram(a, b, Technology::kBluetooth,
                          net::make_datagram_frame(16, [](ByteWriter& writer) {
                            writer.raw(Bytes(16, 0x5A));
                          }));
  }
  sim.run_all();

  // Every frame was bit-flipped in flight; the length+checksum header must
  // reject all of them before any decoder runs.
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(network.net_stats().frames_checked, 20u);
  EXPECT_EQ(network.net_stats().corrupt_drops, 20u);
  EXPECT_EQ(medium.fault_plane().stats().corrupted, 20u);
}

}  // namespace
}  // namespace peerhood::sim
