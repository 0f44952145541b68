// Proves the bounded-resource claim of the reliability layer with a counting
// operator-new hook (same technique as test_snapshot_alloc): once the send
// window — the engine's own or the peer-advertised one — is full, a write
// on a reliable channel refuses with kCapacityExceeded and the refusing path
// allocates *nothing*, so a never-draining peer bounds sender memory at the
// window size instead of growing it. The ConnectionFrameAllocation pins
// count one steady-state data frame and one ack. This TU overrides global
// operator new/delete; each test source builds into its own binary, so the
// hook is scoped to this suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "peerhood/channel.hpp"
#include "scenario_util.hpp"

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

using node::Testbed;
using testing::fast_node;
using testing::reliable_bluetooth;

// Two nodes, one session; the server side stays a *plain* Channel (no
// reliability engine, so it never acks — the never-draining peer).
class ReliableBackpressureTest : public ::testing::Test {
 protected:
  void build(std::uint64_t seed) {
    testbed_ = std::make_unique<Testbed>(seed);
    testbed_->medium().configure(reliable_bluetooth());
    client_ = &testbed_->add_node("client", {0.0, 0.0},
                                  fast_node(MobilityClass::kStatic));
    server_ = &testbed_->add_node("server", {4.0, 0.0},
                                  fast_node(MobilityClass::kStatic));
    (void)server_->library().register_service(
        ServiceInfo{"sink", "", 0},
        [this](ChannelPtr channel, const wire::ConnectRequest&) {
          server_channel_ = std::move(channel);
        });
    testbed_->run_discovery_rounds(3);
    auto result = client_->connect_blocking(server_->mac(), "sink");
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    channel_ = result.value();
    reliable_ = &channel_->make_reliable(testbed_->sim());
  }

  std::unique_ptr<Testbed> testbed_;
  node::Node* client_{nullptr};
  node::Node* server_{nullptr};
  ChannelPtr channel_;
  ChannelPtr server_channel_;
  ReliableChannel* reliable_{nullptr};
};

TEST_F(ReliableBackpressureTest, RefusedSendsAllocateNothingOnceWindowFull) {
  build(1);

  // Fill the window (these sends buffer + transmit and may allocate).
  for (std::size_t i = 0; i < kReliableWindow; ++i) {
    ASSERT_TRUE(channel_->write(Bytes(64, 0xAB)).ok());
  }
  ASSERT_EQ(reliable_->unacked(), kReliableWindow);

  // Pre-build the payloads the refused sends will consume; moving them into
  // write() transfers the existing buffer, so the measured region performs no
  // allocation of its own.
  std::vector<Bytes> payloads;
  payloads.reserve(200);
  for (int i = 0; i < 200; ++i) payloads.emplace_back(64, 0xCD);

  const std::uint64_t before = g_allocations.load();
  bool all_refused = true;
  for (int i = 0; i < 200; ++i) {
    // (No gtest assertions inside the measured region — they allocate.)
    const Status status = channel_->write(std::move(payloads[i]));
    all_refused = all_refused && !status.ok() &&
                  status.error().code == ErrorCode::kCapacityExceeded;
  }
  EXPECT_TRUE(all_refused);
  EXPECT_EQ(g_allocations.load(), before)
      << "the refusing send path must not allocate — backpressure, not "
         "unbounded buffering";
  EXPECT_EQ(reliable_->unacked(), kReliableWindow);
}

TEST_F(ReliableBackpressureTest, PeerAdvertisedWindowBoundsSenderWithoutAllocating) {
  build(2);  // own window 256 — the peer's is the binding one

  // Deliver one frame, then have the (plain) server hand-craft a cumulative
  // ack that advertises only 2 free reorder slots.
  ASSERT_TRUE(channel_->write(Bytes{0x01}).ok());
  testbed_->run_for(2.0);
  ASSERT_NE(server_channel_, nullptr);
  ASSERT_TRUE(server_channel_->write(encode_reliable_ack(2, 2, 0)).ok());
  testbed_->run_for(2.0);
  ASSERT_EQ(reliable_->unacked(), 0u);
  ASSERT_EQ(reliable_->peer_window(), 2u);

  // The advertised window admits exactly two more frames...
  ASSERT_TRUE(channel_->write(Bytes{0x02}).ok());
  ASSERT_TRUE(channel_->write(Bytes{0x03}).ok());

  std::vector<Bytes> payloads;
  payloads.reserve(100);
  for (int i = 0; i < 100; ++i) payloads.emplace_back(64, 0xEF);

  // ...and every send beyond it is refused without allocating.
  const std::uint64_t before = g_allocations.load();
  bool all_refused = true;
  for (int i = 0; i < 100; ++i) {
    const Status status = channel_->write(std::move(payloads[i]));
    all_refused = all_refused && !status.ok() &&
                  status.error().code == ErrorCode::kCapacityExceeded;
  }
  EXPECT_TRUE(all_refused);
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(reliable_->unacked(), 2u);
}

// The steady-state cost of one frame on the connection data path. A send
// allocates the outbox entry (which keeps the payload, moved in), one frame
// buffer sized for the reliable header, the payload and the transport
// header, and the control block the medium shares that buffer through. A
// flushed ack is one buffer and one control block.
class ConnectionFrameAllocation : public ReliableBackpressureTest {};

TEST_F(ConnectionFrameAllocation, SendIsOutboxEntryFrameBufferAndControlBlock) {
  build(3);
  // Warm up: grow the event arena and the medium's per-link state.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(channel_->write(Bytes(64, 0x11)).ok());
    testbed_->run_for(0.1);
  }
  std::vector<Bytes> payloads;
  for (int i = 0; i < 4; ++i) payloads.emplace_back(64, 0x22);
  for (Bytes& payload : payloads) {
    const std::uint64_t before = g_allocations.load();
    const Status status = channel_->write(std::move(payload));
    const std::uint64_t allocations = g_allocations.load() - before;
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(allocations, 3u);
    testbed_->run_for(0.1);
  }
}

TEST_F(ConnectionFrameAllocation, FlushedAckIsOneBufferAndOneControlBlock) {
  build(4);
  ASSERT_NE(server_channel_, nullptr);
  ReliableChannel& server = server_channel_->make_reliable(testbed_->sim());
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(channel_->write(Bytes(64, 0x33)).ok());
    // Delivered, but the batched ack is still pending (200 ms delay).
    testbed_->run_for(0.1);
    ASSERT_EQ(server.delivered_count(), static_cast<std::uint64_t>(round + 1));
    const std::uint64_t before = g_allocations.load();
    server.resync();  // flushes the pending ack; nothing to retransmit
    const std::uint64_t allocations = g_allocations.load() - before;
    if (round > 0) EXPECT_EQ(allocations, 2u) << "round " << round;
    testbed_->run_for(0.1);
    ASSERT_EQ(reliable_->unacked(), 0u) << "the flushed ack arrived";
  }
}

}  // namespace
}  // namespace peerhood
