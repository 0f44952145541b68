// E-realnet — the real-socket backend on loopback.
//
// Two PosixNetwork backends in ONE process, pumped alternately through
// poll_once with a zero wait: real UDP datagrams, a real TCP connection with
// length-prefix framing, kernel socket buffers and epoll in the path — but
// no scheduler noise from extra processes, so the numbers are a stable upper
// bound for what the three-process harness (tools/realnet_node.cpp) can see.
// Neither side sleeps in epoll while the other has work; a 1 ms wait per
// pump would cap the stream near 64 frames per millisecond and add an idle
// millisecond to the connect.
//
//  * connect latency: dial → accepted, hello/ack handshake included.
//  * stream throughput: framed 1 KiB writes client → server, drained as
//    fast as both event cores can pump (checksummed on arrival; the
//    integrity counters are carried in the BENCH_JSON row so a zero-copy
//    regression that skips verification would show up).
//  * datagram rate: sealed-frame UDP round, the discovery plane's transport.
//
// Pass --smoke for a tiny workload (CI keeps BENCH_JSON emission alive).
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "net/posix_network.hpp"

namespace {

using namespace peerhood;
using namespace peerhood::bench;
using net::ConnectionPtr;
using net::NetAddress;
using net::PosixConfig;
using net::PosixNetwork;
using Clock = std::chrono::steady_clock;

bool g_smoke = false;

constexpr auto kTech = Technology::kBluetooth;

struct LoopbackPair {
  std::unique_ptr<PosixNetwork> a;
  std::unique_ptr<PosixNetwork> b;

  LoopbackPair() {
    PosixConfig ca;
    ca.mac = MacAddress::from_index(1);
    ca.seed = 1;
    PosixConfig cb = ca;
    cb.mac = MacAddress::from_index(2);
    cb.seed = 2;
    a = PosixNetwork::open(ca).value();
    b = PosixNetwork::open(cb).value();
    a->add_peer({b->mac(), "127.0.0.1", b->udp_port(), b->tcp_port()});
    b->add_peer({a->mac(), "127.0.0.1", a->udp_port(), a->tcp_port()});
    a->attach_interface(a->mac(), kTech, nullptr);
    b->attach_interface(b->mac(), kTech, nullptr);
  }

  // Pumps both event cores until `done` (no deadline: benches are timed,
  // not raced; the CI smoke row finishes in milliseconds).
  void pump_until(const std::function<bool()>& done) {
    while (!done()) {
      a->poll_once(SimDuration{0});
      b->poll_once(SimDuration{0});
    }
  }
};

// Dial → accept wall time, hello/ack handshake included.
double measure_connect_ms(LoopbackPair& pair, ConnectionPtr& client,
                          ConnectionPtr& server) {
  const NetAddress addr{pair.b->mac(), kTech, 7};
  (void)pair.b->listen(addr,
                       [&](ConnectionPtr c) { server = std::move(c); });
  const auto begin = Clock::now();
  pair.a->connect(pair.a->mac(), addr, [&](Result<ConnectionPtr> r) {
    if (r.ok()) client = std::move(r).value();
  });
  pair.pump_until([&] { return client != nullptr && server != nullptr; });
  return std::chrono::duration<double, std::milli>(Clock::now() - begin)
      .count();
}

// Framed stream writes until `frames` arrive verified at the peer.
double stream_frames_per_sec(LoopbackPair& pair, const ConnectionPtr& client,
                             const ConnectionPtr& server, int frames,
                             std::size_t frame_size) {
  const Bytes payload(frame_size, 0x42);
  int delivered = 0;
  server->set_data_handler([&](const Bytes&) { ++delivered; });
  const auto begin = Clock::now();
  int sent = 0;
  while (delivered < frames) {
    // Keep a bounded burst in flight: far below max_send_queue, far above
    // one-at-a-time lockstep.
    while (sent < frames && sent - delivered < 64) {
      (void)client->write(payload);
      ++sent;
    }
    pair.a->poll_once(SimDuration{0});
    pair.b->poll_once(SimDuration{0});
  }
  const double s =
      std::chrono::duration<double>(Clock::now() - begin).count();
  return static_cast<double>(frames) / s;
}

// Sealed-frame UDP, one datagram in flight at a time (latency-bound).
double datagrams_per_sec(LoopbackPair& pair, int count) {
  int delivered = 0;
  pair.b->set_datagram_handler(
      pair.b->mac(), kTech,
      [&](MacAddress, std::span<const std::uint8_t>) { ++delivered; });
  const Bytes payload(64, 0x17);
  const auto begin = Clock::now();
  for (int i = 0; i < count; ++i) {
    pair.a->send_datagram(pair.a->mac(), pair.b->mac(), kTech,
                          net::make_datagram_frame(
                              payload.size(), [&payload](ByteWriter& writer) {
                                writer.raw(payload);
                              }));
    const int want = i + 1;
    pair.pump_until([&] { return delivered >= want; });
  }
  const double s =
      std::chrono::duration<double>(Clock::now() - begin).count();
  return static_cast<double>(count) / s;
}

void report_realnet() {
  heading("E-realnet: PosixNetwork on loopback (one process, two backends)");

  LoopbackPair pair;
  ConnectionPtr client;
  ConnectionPtr server;
  const double connect_ms = measure_connect_ms(pair, client, server);
  note("TCP dial + hello/ack: " + std::to_string(connect_ms) + " ms");

  const int frames = g_smoke ? 200 : 20'000;
  constexpr std::size_t kFrameSize = 1024;
  const double fps = stream_frames_per_sec(pair, client, server, frames,
                                           kFrameSize);
  note("stream: " + std::to_string(static_cast<std::uint64_t>(fps)) +
       " frames/s @ 1 KiB (" +
       std::to_string(fps * static_cast<double>(kFrameSize) / 1e6) +
       " MB/s)");

  const int datagrams = g_smoke ? 100 : 5'000;
  const double dps = datagrams_per_sec(pair, datagrams);
  note("datagram ping: " + std::to_string(static_cast<std::uint64_t>(dps)) +
       " round/s @ 64 B");

  const net::NetStats stats_b = pair.b->net_stats();
  JsonRecord{"realnet_loopback"}
      .field("smoke", g_smoke)
      .field("connect_ms", connect_ms)
      .field("stream_frames_per_sec", fps)
      .field("stream_bytes_per_sec", fps * static_cast<double>(kFrameSize))
      .field("datagram_rounds_per_sec", dps)
      .field("frames_checked", stats_b.frames_checked)
      .field("corrupt_drops", stats_b.corrupt_drops)
      .field("send_queue_drops", stats_b.send_queue_drops)
      .field("reconnect_attempts", pair.a->net_stats().reconnect_attempts)
      .emit();
}

}  // namespace

int main(int argc, char** argv) {
  g_smoke = smoke_flag(argc, argv);
  report_realnet();
  return 0;
}
