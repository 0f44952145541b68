// ReliableChannel property test under injected loss, corruption, duplication
// and reorder: across multiple seeds, every sent frame must arrive exactly
// once and in order, with a bounded number of retransmissions, and the
// channel must drain completely once the sender stops.
#include <gtest/gtest.h>

#include "peerhood/channel.hpp"
#include "scenario_util.hpp"
#include "sim/fault.hpp"

namespace peerhood {
namespace {

using node::Testbed;
using testing::fast_node;
using testing::reliable_bluetooth;
using testing::run_until;

// The fault matrix the channel must survive: bursty loss well above 10%,
// plus independent corruption (dropped by the frame check, so extra loss),
// duplication and reorder jitter.
sim::FaultProfile chaos_profile() {
  sim::FaultProfile profile;
  profile.loss_good = 0.05;
  profile.loss_bad = 0.7;
  profile.p_good_to_bad = 0.08;
  profile.p_bad_to_good = 0.3;
  profile.quality_coupling = 0.5;
  profile.corrupt_prob = 0.05;
  profile.duplicate_prob = 0.1;
  profile.reorder_prob = 0.15;
  return profile;
}

struct ChaosOutcome {
  std::size_t delivered{0};
  bool in_order{true};
  std::uint64_t server_delivered{0};
  std::uint64_t retransmissions{0};
  sim::FaultStats faults{};
};

ChaosOutcome run_chaos(std::uint64_t seed, int total_frames) {
  Testbed testbed{seed};
  testbed.medium().configure(reliable_bluetooth());
  auto& client = testbed.add_node("a", {0.0, 0.0},
                                  fast_node(MobilityClass::kDynamic));
  auto& server = testbed.add_node("s", {4.0, 0.0},
                                  fast_node(MobilityClass::kStatic));

  std::vector<Bytes> received;
  ChannelPtr server_channel;
  const ReliableChannel* server_rel = nullptr;
  (void)server.library().register_service(
      ServiceInfo{"rel", "", 0},
      [&](ChannelPtr channel, const wire::ConnectRequest&) {
        server_channel = std::move(channel);
        server_rel = &server_channel->make_reliable(testbed.sim());
        server_channel->set_data_handler(
            [&received](const Bytes& frame) { received.push_back(frame); });
      });
  testbed.run_discovery_rounds(3);
  auto result = client.connect_blocking(server.mac(), "rel");
  EXPECT_TRUE(result.ok()) << result.error().to_string();
  if (!result.ok()) return {};
  const ChannelPtr channel = result.value();
  const ReliableChannel& client_rel = channel->make_reliable(testbed.sim());

  // Faults start only now: the session is established and discovery has
  // converged, mirroring the scenario runner's fault-free warm-up.
  testbed.medium().fault_plane().set_profile(Technology::kBluetooth,
                                             chaos_profile());

  for (int i = 0; i < total_frames; ++i) {
    testbed.sim().schedule_after(seconds(0.5 * i), [&channel, i] {
      const auto lo = static_cast<std::uint8_t>(i & 0xff);
      const auto hi = static_cast<std::uint8_t>((i >> 8) & 0xff);
      ASSERT_TRUE(channel->write(Bytes{lo, hi, 0xAB}).ok());
    });
  }
  // Drain: sending takes total*0.5s; leave generous room for backoff-capped
  // retransmissions to punch the stragglers through the loss bursts.
  const double send_window_s = 0.5 * total_frames;
  const bool drained = run_until(
      testbed,
      [&] {
        return received.size() == static_cast<std::size_t>(total_frames) &&
               client_rel.unacked() == 0;
      },
      send_window_s + 240.0);
  EXPECT_TRUE(drained) << "seed " << seed << ": delivered "
                       << received.size() << "/" << total_frames
                       << ", unacked " << client_rel.unacked();

  ChaosOutcome outcome;
  outcome.delivered = received.size();
  for (std::size_t i = 0; i < received.size(); ++i) {
    const auto lo = static_cast<std::uint8_t>(i & 0xff);
    const auto hi = static_cast<std::uint8_t>((i >> 8) & 0xff);
    if (received[i] != Bytes{lo, hi, 0xAB}) outcome.in_order = false;
  }
  outcome.server_delivered = server_rel ? server_rel->delivered_count() : 0;
  outcome.retransmissions = client_rel.retransmissions();
  outcome.faults = testbed.medium().fault_plane().stats();
  return outcome;
}

TEST(ReliableChaos, ExactlyOnceInOrderAcrossSeeds) {
  constexpr int kFrames = 40;
  std::uint64_t total_loss = 0;
  std::uint64_t total_retransmissions = 0;
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const ChaosOutcome outcome = run_chaos(seed, kFrames);
    EXPECT_EQ(outcome.delivered, static_cast<std::size_t>(kFrames));
    EXPECT_TRUE(outcome.in_order);
    // Exactly-once: the receiver counted each sequence number a single time
    // even though the medium duplicated and replayed frames.
    EXPECT_EQ(outcome.server_delivered, static_cast<std::uint64_t>(kFrames));
    // Bounded recovery effort: retransmissions scale with the frame count,
    // they do not run away (each frame is retried, not flooded).
    EXPECT_LE(outcome.retransmissions, static_cast<std::uint64_t>(kFrames) * 8);
    total_loss += outcome.faults.loss_drops;
    total_retransmissions += outcome.retransmissions;
  }
  // The fault plane actually fired: across five seeds the bursty channel
  // must have dropped frames and forced recoveries.
  EXPECT_GT(total_loss, 0u);
  EXPECT_GT(total_retransmissions, 0u);
}

TEST(ReliableChaos, SameSeedReplaysIdentically) {
  const ChaosOutcome first = run_chaos(99, 25);
  const ChaosOutcome second = run_chaos(99, 25);
  EXPECT_EQ(first.delivered, second.delivered);
  EXPECT_EQ(first.retransmissions, second.retransmissions);
  EXPECT_EQ(first.faults.frames_seen, second.faults.frames_seen);
  EXPECT_EQ(first.faults.loss_drops, second.faults.loss_drops);
  EXPECT_EQ(first.faults.corrupted, second.faults.corrupted);
  EXPECT_EQ(first.faults.duplicated, second.faults.duplicated);
  EXPECT_EQ(first.faults.reordered, second.faults.reordered);
  EXPECT_EQ(first.faults.burst_entries, second.faults.burst_entries);
}

}  // namespace
}  // namespace peerhood
