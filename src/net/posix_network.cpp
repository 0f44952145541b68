#include "net/posix_network.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "net/frame_check.hpp"

namespace peerhood::net {
namespace {

// UDP packet kinds (first byte of every datagram socket packet).
constexpr std::uint8_t kUdpData = 0xB6;    // discovery datagram (sealed frame)
constexpr std::uint8_t kUdpBeacon = 0xB7;  // inquiry probe / reply

// Beacon flag bits.
constexpr std::uint8_t kBeaconReply = 0x01;
constexpr std::uint8_t kBeaconCapable = 0x02;

// Stream frame kinds (first body byte after the framer).
constexpr std::uint8_t kStreamHello = 0x01;
constexpr std::uint8_t kStreamHelloAck = 0x02;
constexpr std::uint8_t kStreamData = 0x03;

constexpr std::size_t kUdpHeader = 1 + 8 + 1;  // kind + from mac + tech
constexpr std::size_t kReadChunk = 16 * 1024;
// epoll keys of the two fixed sockets; streams take keys from 2 upward.
constexpr std::uint64_t kUdpKey = 0;
constexpr std::uint64_t kListenerKey = 1;
// Quality reported for configured peers (loopback links do not degrade).
constexpr int kPeerLinkQuality = 240;


sockaddr_in make_addr(const std::string& ip, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr);
  return addr;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

// Writes the header of every UDP packet: [kind][from mac, big-endian][tech].
void put_udp_header(std::uint8_t* out, std::uint8_t kind, MacAddress from,
                    Technology tech) {
  out[0] = kind;
  const std::uint64_t mac64 = from.as_u64();
  for (int i = 0; i < 8; ++i) {
    out[1 + i] = static_cast<std::uint8_t>(mac64 >> (56 - 8 * i));
  }
  out[9] = static_cast<std::uint8_t>(tech);
}

// Fast, clean localhost parameters: discovery cycles in hundreds of
// milliseconds instead of the paper's 10 s Bluetooth cadence, no synthetic
// failure injection (real sockets supply their own faults).
sim::TechnologyParams fast_params(Technology tech) {
  sim::TechnologyParams params;
  params.tech = tech;
  params.inquiry_interval = std::chrono::milliseconds{300};
  params.inquiry_duration = std::chrono::milliseconds{80};
  params.asymmetric_discovery = false;
  params.fetch_time = std::chrono::milliseconds{10};
  params.fetch_failure_prob = 0.0;
  params.connect_delay_min_s = 0.0;
  params.connect_delay_max_s = 0.05;
  params.connect_failure_prob = 0.0;
  params.per_hop_latency = std::chrono::microseconds{200};
  params.bytes_per_second = 50.0 * 1024 * 1024;
  return params;
}

}  // namespace

// --- Streams -----------------------------------------------------------------

// One TCP socket from connect()/accept4() to close. The application-facing
// endpoint (PosixConnection) holds a shared_ptr to its stream; the fd and
// outbox live here so the network can drain and close even after the
// application dropped its handle.
struct PosixNetwork::Stream {
  enum class Phase : std::uint8_t { kDialing, kAwaitingHello, kOpen, kClosed };

  std::uint64_t key{0};
  Phase phase{Phase::kAwaitingHello};
  int fd{-1};
  std::uint64_t id{0};
  NetAddress local;
  NetAddress remote;
  StreamFramer framer;
  // Encoded stream frames awaiting the socket, plus the send offset into the
  // front frame (partial writes).
  std::deque<Bytes> outbox;
  std::size_t front_sent{0};
  bool want_write{false};
  std::weak_ptr<PosixConnection> endpoint;
  // Dial only: the connect handler, attempts so far and the per-attempt
  // deadline.
  ConnectHandler handler;
  int attempt{0};
  sim::EventId deadline{sim::kInvalidEvent};
};

class PosixConnection final : public Connection {
 public:
  PosixConnection(PosixNetwork& net,
                  std::shared_ptr<PosixNetwork::Stream> stream)
      : Connection{net.simulator(), stream->id, stream->local, stream->remote},
        net_{net},
        stream_{std::move(stream)} {}

  ~PosixConnection() override { close_on_drop(); }

 private:
  void transport_send(Bytes frame, std::size_t payload_offset) override {
    net_.queue_frame(*stream_, kStreamData,
                     std::span<const std::uint8_t>{frame}.subspan(
                         payload_offset));
  }

  void transport_close() override {
    net_.close_stream(*stream_, /*notify_app=*/false);
  }

  int transport_quality() override {
    return net_.sample_quality(local_address().mac, remote_address().mac,
                               remote_address().tech);
  }

  PosixNetwork& net_;
  std::shared_ptr<PosixNetwork::Stream> stream_;
};

// --- Construction / teardown -------------------------------------------------

PosixNetwork::PosixNetwork(PosixConfig config)
    : config_{config}, sim_{config.seed} {
  wall_origin_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count();
  for (std::size_t i = 0; i < kTechnologyCount; ++i) {
    params_[i] = fast_params(static_cast<Technology>(i));
  }
}

Result<std::unique_ptr<PosixNetwork>> PosixNetwork::open(PosixConfig config) {
  std::unique_ptr<PosixNetwork> network{new PosixNetwork(std::move(config))};
  if (Status opened = network->open_sockets(); !opened.ok()) {
    return opened.error();
  }
  return network;
}

Status PosixNetwork::open_sockets() {
  // The failed call's errno as an error; the destructor closes whatever
  // was already opened.
  const auto failed = [](const char* what) {
    const int err = errno;
    return Status{err == EADDRINUSE ? ErrorCode::kAddressInUse
                                    : ErrorCode::kConnectionFailed,
                  std::string{what} + ": " + std::strerror(err)};
  };
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, config_.bind_ip.c_str(), &addr.sin_addr) != 1) {
    return Status{ErrorCode::kInvalidArgument,
                  "bad bind address '" + config_.bind_ip + "'"};
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return failed("epoll_create1");

  udp_fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (udp_fd_ < 0) return failed("udp socket");
  addr.sin_port = htons(config_.udp_port);
  if (::bind(udp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return failed("udp bind");
  }
  udp_port_ = bound_port(udp_fd_);

  tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (tcp_fd_ < 0) return failed("tcp socket");
  const int one = 1;
  if (::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    return failed("tcp SO_REUSEADDR");
  }
  addr.sin_port = htons(config_.tcp_port);
  if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return failed("tcp bind");
  }
  if (::listen(tcp_fd_, 64) != 0) return failed("tcp listen");
  tcp_port_ = bound_port(tcp_fd_);

  for (const auto& [fd, key] : {std::pair{udp_fd_, kUdpKey},
                                std::pair{tcp_fd_, kListenerKey}}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = key;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return failed("epoll_ctl");
    }
  }
  return Status::ok_status();
}

PosixNetwork::~PosixNetwork() {
  destroying_ = true;
  // Two-phase quiesce: first mark every endpoint closed (so destructors
  // triggered below never call back into this dying network), then break
  // the handler->channel->connection reference cycles. Dropping a dial's
  // stream releases the handler's captures (dial state) without invoking it
  // — same as a SimNetwork dying with a connect event still queued.
  std::vector<StreamPtr> streams;
  streams.reserve(streams_.size());
  for (const auto& [key, stream] : streams_) streams.push_back(stream);
  for (const auto& stream : streams) {
    stream->phase = Stream::Phase::kClosed;
    if (const auto end = stream->endpoint.lock()) end->mark_closed();
  }
  for (const auto& stream : streams) {
    if (const auto end = stream->endpoint.lock()) end->clear_handlers();
  }
  for (const auto& stream : streams) {
    if (stream->fd >= 0) ::close(stream->fd);
  }
  streams_.clear();
  if (udp_fd_ >= 0) ::close(udp_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void PosixNetwork::add_peer(const PosixPeer& peer) {
  peers_[peer.mac.as_u64()] = peer;
}

const PosixPeer* PosixNetwork::find_peer(MacAddress mac) const {
  const auto it = peers_.find(mac.as_u64());
  return it == peers_.end() ? nullptr : &it->second;
}

// --- Event core --------------------------------------------------------------

SimTime PosixNetwork::wall_now() const {
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return SimTime{microseconds((now_ns - wall_origin_ns_) / 1000)};
}

void PosixNetwork::advance_clock() { sim_.run_until(wall_now()); }

void PosixNetwork::poll_once(SimDuration max_wait) {
  // Fire timers due by wall time, then sleep in epoll at most until the
  // event queue's next deadline — timers and sockets share one core.
  advance_clock();
  std::int64_t wait_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(max_wait).count();
  if (!sim_.idle()) {
    const SimDuration until_next = sim_.next_event_time() - sim_.now();
    const std::int64_t next_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(until_next)
            .count();
    wait_ms = std::clamp<std::int64_t>(next_ms, 0, wait_ms);
  }
  epoll_event events[64];
  const int n = ::epoll_wait(epoll_fd_, events, 64,
                             static_cast<int>(wait_ms));
  // The wait took wall time: what arrived is handled at the time it was
  // read, not at the time the wait began (a discovery answer stamped early
  // would look sooner than the responder's fetch cost allows).
  advance_clock();
  for (int i = 0; i < n; ++i) {
    const std::uint64_t key = events[i].data.u64;
    if (key == kUdpKey) {
      handle_udp_readable();
    } else if (key == kListenerKey) {
      handle_listener_readable();
    } else {
      handle_stream(key, events[i].events);
    }
    if (destroying_) return;
  }
  advance_clock();
}

void PosixNetwork::update_epoll(int fd, std::uint64_t key,
                                std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = key;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0 && errno == ENOENT) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

// --- Interfaces / datagrams --------------------------------------------------

void PosixNetwork::attach_interface(
    MacAddress mac, Technology tech,
    std::shared_ptr<const sim::MobilityModel> /*mobility*/) {
  // No geometry on a socket backend: attaching makes the interface answer
  // datagrams and inquiry beacons; the mobility model is meaningless here.
  attached_.insert(iface_key(mac, tech));
}

void PosixNetwork::detach_interface(MacAddress mac, Technology tech) {
  attached_.erase(iface_key(mac, tech));
  datagram_handlers_.erase(iface_key(mac, tech));
}

void PosixNetwork::set_datagram_handler(MacAddress mac, Technology tech,
                                        DatagramHandler handler) {
  datagram_handlers_[iface_key(mac, tech)] = std::move(handler);
}

void PosixNetwork::send_datagram(MacAddress from, MacAddress to,
                                 Technology tech, FramePtr frame) {
  assert(frame != nullptr && frame->size() > kFrameHeaderSize &&
         (*frame)[kFrameHeaderSize] == kDatagramFrameTag);
  const PosixPeer* peer = find_peer(to);
  if (peer == nullptr) return;  // not in the topology: silent, like a radio
  std::uint8_t header[kUdpHeader];
  put_udp_header(header, kUdpData, from, tech);
  iovec iov[2];
  iov[0] = {header, sizeof(header)};
  iov[1] = {const_cast<std::uint8_t*>(frame->data()), frame->size()};
  sockaddr_in addr = make_addr(peer->ip, peer->udp_port);
  msghdr msg{};
  msg.msg_name = &addr;
  msg.msg_namelen = sizeof(addr);
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  if (::sendmsg(udp_fd_, &msg, 0) < 0) {
    // Kernel buffer full (EAGAIN) or transient error: a dropped datagram —
    // exactly what the discovery plane's retransmits exist for.
    ++net_stats_.send_queue_drops;
  }
}

void PosixNetwork::handle_udp_readable() {
  std::uint8_t buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(udp_fd_, buffer, sizeof(buffer), 0);
    if (n < 0) return;  // EAGAIN or transient: nothing more to read
    if (destroying_) return;
    on_udp_packet(std::span<const std::uint8_t>{buffer,
                                                static_cast<std::size_t>(n)});
  }
}

void PosixNetwork::on_udp_packet(std::span<const std::uint8_t> packet) {
  // Outside input: bound every read by the packet's size.
  if (packet.size() < kUdpHeader) return;
  const std::uint8_t kind = packet[0];
  std::uint64_t mac64 = 0;
  for (int i = 0; i < 8; ++i) mac64 = (mac64 << 8) | packet[1 + i];
  const auto tech_raw = packet[9];
  if (tech_raw >= kTechnologyCount) return;
  const Technology tech = static_cast<Technology>(tech_raw);
  const MacAddress from = MacAddress::from_u64(mac64);
  if (kind == kUdpBeacon) {
    if (packet.size() < kUdpHeader + 1) return;
    on_beacon(from, tech, packet[kUdpHeader]);
    return;
  }
  if (kind != kUdpData) return;

  const auto sealed = packet.subspan(kUdpHeader);
  ++net_stats_.frames_checked;
  const auto body = check_frame(sealed);
  if (!body.has_value()) {
    ++net_stats_.corrupt_drops;
    return;
  }
  if (body->empty() || (*body)[0] != kDatagramFrameTag) return;
  // Deliver to whichever attached interface on `tech` carries a handler
  // (one process = one device in practice).
  for (const auto& key : attached_) {
    if (key.second != static_cast<std::uint8_t>(tech)) continue;
    const auto it = datagram_handlers_.find(key);
    if (it == datagram_handlers_.end() || !it->second) continue;
    // Copy-before-call: the handler may detach this interface.
    const DatagramHandler handler = it->second;
    handler(from, body->subspan(1));
    return;
  }
}

// --- Inquiry beacons ---------------------------------------------------------

void PosixNetwork::send_beacon(const PosixPeer& peer, Technology tech,
                               bool reply) {
  std::uint8_t packet[kUdpHeader + 1];
  put_udp_header(packet, kUdpBeacon, config_.mac, tech);
  packet[kUdpHeader] =
      static_cast<std::uint8_t>((reply ? kBeaconReply : 0) | kBeaconCapable);
  sockaddr_in addr = make_addr(peer.ip, peer.udp_port);
  (void)::sendto(udp_fd_, packet, sizeof(packet), 0,
                 reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
}

void PosixNetwork::on_beacon(MacAddress from, Technology tech,
                             std::uint8_t flags) {
  const auto tech_raw = static_cast<std::uint8_t>(tech);
  peer_tags_[iface_key(from, tech)] = (flags & kBeaconCapable) != 0;

  if ((flags & kBeaconReply) != 0) {
    // A reply to our probe: collect while the inquiry window is open.
    if (inquiring_.contains(tech_raw)) {
      inquiry_responders_[tech_raw].insert(from.as_u64());
    }
    return;
  }
  // A probe: answer if we have a live interface on that technology (a
  // crashed daemon detached, or is simply a dead process — silent either
  // way).
  const PosixPeer* peer = find_peer(from);
  if (peer == nullptr) return;
  for (const auto& key : attached_) {
    if (key.second == tech_raw) {
      send_beacon(*peer, tech, /*reply=*/true);
      return;
    }
  }
}

void PosixNetwork::begin_inquiry(MacAddress /*mac*/, Technology tech) {
  const auto tech_raw = static_cast<std::uint8_t>(tech);
  inquiring_.insert(tech_raw);
  inquiry_responders_[tech_raw].clear();
  // Probe the whole static topology; replies accumulate until end_inquiry.
  for (const auto& [mac64, peer] : peers_) {
    if (mac64 == config_.mac.as_u64()) continue;
    send_beacon(peer, tech, /*reply=*/false);
  }
}

std::vector<MacAddress> PosixNetwork::end_inquiry(MacAddress /*mac*/,
                                                  Technology tech) {
  const auto tech_raw = static_cast<std::uint8_t>(tech);
  inquiring_.erase(tech_raw);
  std::vector<MacAddress> responders;
  for (const std::uint64_t mac64 : inquiry_responders_[tech_raw]) {
    responders.push_back(MacAddress::from_u64(mac64));
  }
  inquiry_responders_[tech_raw].clear();
  return responders;  // std::set iteration = ascending MAC, as the sim
}

void PosixNetwork::cancel_inquiry(MacAddress /*mac*/, Technology tech) {
  const auto tech_raw = static_cast<std::uint8_t>(tech);
  inquiring_.erase(tech_raw);
  inquiry_responders_[tech_raw].clear();
}

bool PosixNetwork::peerhood_tag(MacAddress mac, Technology tech) const {
  const auto it = peer_tags_.find(iface_key(mac, tech));
  return it != peer_tags_.end() && it->second;
}

int PosixNetwork::sample_quality(MacAddress /*local*/, MacAddress peer,
                                 Technology /*tech*/) {
  // No geometry: configured peers are healthy, everything else is gone.
  return find_peer(peer) != nullptr ? kPeerLinkQuality : 0;
}

const sim::TechnologyParams& PosixNetwork::params(Technology tech) const {
  return params_[static_cast<std::size_t>(tech)];
}

// --- Streams -----------------------------------------------------------------

void PosixNetwork::connect(MacAddress from_mac, const NetAddress& to,
                           ConnectHandler handler) {
  if (from_mac == to.mac) {
    sim_.schedule_after(microseconds(1), [handler] {
      handler(Error{ErrorCode::kInvalidArgument, "connect to own interface"});
    });
    return;
  }
  if (find_peer(to.mac) == nullptr) {
    sim_.schedule_after(microseconds(1), [handler, to] {
      handler(Error{ErrorCode::kConnectionFailed,
                    "unknown peer " + to.mac.to_string()});
    });
    return;
  }
  auto stream = std::make_shared<Stream>();
  stream->phase = Stream::Phase::kDialing;
  stream->id = (config_.mac.as_u64() << 16) ^ next_conn_seq_++;
  stream->local = NetAddress{from_mac, to.tech, 0};
  stream->remote = to;
  stream->handler = std::move(handler);
  add_stream(stream);
  start_dial(stream);
}

void PosixNetwork::add_stream(const StreamPtr& stream) {
  stream->key = next_key_++;
  streams_.emplace(stream->key, stream);
}

// One dial attempt: a fresh socket, the hello queued at once (it leaves as
// soon as TCP is established) and a deadline that covers both the TCP
// handshake and the hello/ack round trip.
void PosixNetwork::start_dial(const StreamPtr& stream) {
  const PosixPeer* peer = find_peer(stream->remote.mac);
  if (peer == nullptr) {
    fail_dial(*stream, "peer removed from topology");
    return;
  }
  if (stream->attempt > 0) ++net_stats_.reconnect_attempts;
  ++stream->attempt;

  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    fail_dial(*stream, "socket() failed");
    return;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  stream->fd = fd;
  sockaddr_in addr = make_addr(peer->ip, peer->tcp_port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    retry_or_fail(stream, "connection refused");
    return;
  }
  update_epoll(fd, stream->key, EPOLLIN);
  stream->deadline = sim_.schedule_after(
      config_.connect_timeout, [this, key = stream->key] {
        const auto it = streams_.find(key);
        if (it == streams_.end()) return;
        const StreamPtr timed_out = it->second;
        timed_out->deadline = sim::kInvalidEvent;
        retry_or_fail(timed_out, "connect timed out");
      });
  // The logical hello: [conn_id][from][to][tech][port].
  ByteWriter hello;
  hello.u64(stream->id);
  hello.u64(stream->local.mac.as_u64());
  hello.u64(stream->remote.mac.as_u64());
  hello.u8(static_cast<std::uint8_t>(stream->remote.tech));
  hello.u16(stream->remote.port);
  queue_frame(*stream, kStreamHello, std::move(hello).take());
}

void PosixNetwork::retry_or_fail(const StreamPtr& stream,
                                 const std::string& reason) {
  if (stream->attempt >= config_.connect_attempts) {
    fail_dial(*stream, reason);
    return;
  }
  release(*stream);
  // A fresh key, under which no socket was ever registered: no late event of
  // the attempt just closed can reach the next one.
  add_stream(stream);
  const SimDuration backoff =
      std::min(config_.connect_backoff_cap,
               config_.connect_backoff_base *
                   (std::int64_t{1} << (stream->attempt - 1)));
  sim_.schedule_after(backoff, [this, key = stream->key] {
    const auto it = streams_.find(key);
    if (it == streams_.end()) return;
    const StreamPtr retry = it->second;
    start_dial(retry);
  });
}

void PosixNetwork::fail_dial(Stream& stream, const std::string& reason) {
  release(stream);
  stream.phase = Stream::Phase::kClosed;
  const ConnectHandler handler = std::move(stream.handler);
  if (handler) handler(Error{ErrorCode::kConnectionFailed, reason});
}

void PosixNetwork::open_dial(const StreamPtr& stream,
                             std::span<const std::uint8_t> ack) {
  ByteReader reader{ack};
  const std::uint8_t kind = reader.u8();
  const std::uint8_t ok = reader.u8();
  if (!reader.ok() || kind != kStreamHelloAck || ok == 0) {
    fail_dial(*stream, "no listener at " + stream->remote.to_string());
    return;
  }
  if (stream->deadline != sim::kInvalidEvent) sim_.cancel(stream->deadline);
  stream->deadline = sim::kInvalidEvent;
  stream->phase = Stream::Phase::kOpen;
  auto endpoint = std::make_shared<PosixConnection>(*this, stream);
  stream->endpoint = endpoint;
  const ConnectHandler handler = std::move(stream->handler);
  handler(ConnectionPtr{endpoint});
}

void PosixNetwork::handle_listener_readable() {
  for (;;) {
    const int fd = ::accept4(tcp_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto stream = std::make_shared<Stream>();
    stream->fd = fd;
    add_stream(stream);
    update_epoll(fd, stream->key, EPOLLIN);
  }
}

void PosixNetwork::accept_stream(const StreamPtr& stream,
                                 std::span<const std::uint8_t> hello) {
  ByteReader reader{hello};
  const std::uint8_t kind = reader.u8();
  const std::uint64_t conn_id = reader.u64();
  const MacAddress from = MacAddress::from_u64(reader.u64());
  const MacAddress to_mac = MacAddress::from_u64(reader.u64());
  const std::uint8_t tech_raw = reader.u8();
  const std::uint16_t port = reader.u16();
  if (!reader.ok() || kind != kStreamHello || tech_raw >= kTechnologyCount) {
    close_stream(*stream, /*notify_app=*/false);
    return;
  }
  const Technology tech = static_cast<Technology>(tech_raw);
  const NetAddress local{to_mac, tech, port};
  const AcceptHandler* const accept_handler = listener(local);
  const std::uint8_t accepted = accept_handler != nullptr &&
                                attached_.contains(iface_key(to_mac, tech));
  queue_frame(*stream, kStreamHelloAck, {&accepted, 1});
  if (accepted == 0) {
    // The refusal went out first: the fresh socket's send buffer was empty.
    close_stream(*stream, /*notify_app=*/false);
    return;
  }

  stream->id = conn_id;
  stream->local = local;
  stream->remote = NetAddress{from, tech, 0};
  stream->phase = Stream::Phase::kOpen;
  auto endpoint = std::make_shared<PosixConnection>(*this, stream);
  stream->endpoint = endpoint;
  // Copy the accept handler out of the table: it may stop_listening on this
  // very address from inside the callback.
  const AcceptHandler accept = *accept_handler;
  accept(endpoint);
}

// The one read path. It reads everything the socket holds into the framer
// and handles every complete frame by phase; only then does it act on end of
// stream or a poisoned framer, so frames that arrived with the FIN count.
void PosixNetwork::handle_stream(std::uint64_t key, std::uint32_t events) {
  const auto it = streams_.find(key);
  if (it == streams_.end()) return;  // closed earlier in this epoll batch
  const StreamPtr stream = it->second;
  if ((events & EPOLLOUT) != 0) flush(*stream);

  bool ended = (events & (EPOLLERR | EPOLLHUP)) != 0;
  std::uint8_t buffer[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(stream->fd, buffer, sizeof(buffer), 0);
    if (n < 0) break;
    if (n == 0) {
      ended = true;
      break;
    }
    stream->framer.feed(
        std::span<const std::uint8_t>{buffer, static_cast<std::size_t>(n)});
  }

  // A frame handler may close the stream, so re-check its phase each round.
  while (stream->phase != Stream::Phase::kClosed) {
    const std::optional<Bytes> frame = stream->framer.next();
    if (!frame.has_value()) break;
    ++net_stats_.frames_checked;
    if (stream->phase == Stream::Phase::kDialing) {
      open_dial(stream, *frame);
    } else if (stream->phase == Stream::Phase::kAwaitingHello) {
      accept_stream(stream, *frame);
    } else if (!frame->empty() && (*frame)[0] == kStreamData) {
      if (const auto endpoint = stream->endpoint.lock()) {
        endpoint->deliver(Bytes{frame->begin() + 1, frame->end()});
      }
    }
  }
  if (stream->phase == Stream::Phase::kClosed) return;

  // next() latches the poison bit: read it after the last decode attempt.
  // Unlike a datagram, a stream has no next-frame boundary to resync on.
  const bool poisoned = stream->framer.poisoned();
  if (poisoned) {
    ++net_stats_.corrupt_drops;
  } else if (!ended) {
    return;
  }
  if (stream->phase != Stream::Phase::kDialing) {
    close_stream(*stream, /*notify_app=*/true);
  } else if (poisoned) {
    fail_dial(*stream, "corrupt handshake stream");
  } else if (!stream->outbox.empty() && stream->front_sent == 0) {
    // The hello never left, so TCP was never established: a refusal.
    retry_or_fail(stream, "connection refused");
  } else {
    fail_dial(*stream, "peer closed during handshake");
  }
}

// The one write path: the hello, the ack and data frames all queue here.
void PosixNetwork::queue_frame(Stream& stream, std::uint8_t kind,
                               std::span<const std::uint8_t> body) {
  if (stream.fd < 0) return;
  ByteWriter writer;
  writer.reserve(1 + body.size());
  writer.u8(kind);
  writer.raw(body);
  Bytes encoded = encode_stream_frame(std::move(writer).take());
  if (stream.outbox.size() >= config_.max_send_queue) {
    // Bounded queue, oldest-drop (PR 7's accounting): dropping the *newest*
    // would starve progress under sustained overload; reliable channels
    // retransmit whatever the drop ate.
    if (stream.outbox.size() == 1 && stream.front_sent > 0) {
      // Never drop a partially written frame — the stream would desync.
      stream.outbox.push_back(std::move(encoded));
      ++net_stats_.send_queue_drops;
      flush(stream);
      return;
    }
    const std::size_t victim = stream.front_sent > 0 ? 1 : 0;
    stream.outbox.erase(stream.outbox.begin() +
                        static_cast<std::ptrdiff_t>(victim));
    ++net_stats_.send_queue_drops;
  }
  stream.outbox.push_back(std::move(encoded));
  flush(stream);
}

void PosixNetwork::flush(Stream& stream) {
  while (!stream.outbox.empty()) {
    const Bytes& front = stream.outbox.front();
    const ssize_t n =
        ::send(stream.fd, front.data() + stream.front_sent,
               front.size() - stream.front_sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // EAGAIN / error: EPOLLOUT (or the close path) goes on
    stream.front_sent += static_cast<std::size_t>(n);
    if (stream.front_sent == front.size()) {
      stream.outbox.pop_front();
      stream.front_sent = 0;
    }
  }
  const bool want_write = !stream.outbox.empty();
  if (want_write != stream.want_write) {
    stream.want_write = want_write;
    update_epoll(stream.fd, stream.key, EPOLLIN | (want_write ? EPOLLOUT : 0u));
  }
}

// Drops everything tied to the stream's socket: its deadline, the socket
// (queued-but-unsent frames die with it), its buffers and its table entry.
void PosixNetwork::release(Stream& stream) {
  if (stream.deadline != sim::kInvalidEvent) {
    sim_.cancel(stream.deadline);
    stream.deadline = sim::kInvalidEvent;
  }
  if (stream.fd >= 0) {
    ::close(stream.fd);
    stream.fd = -1;
  }
  stream.framer = StreamFramer{};
  stream.outbox.clear();
  stream.front_sent = 0;
  stream.want_write = false;
  streams_.erase(stream.key);
}

void PosixNetwork::close_stream(Stream& stream, bool notify_app) {
  if (stream.phase == Stream::Phase::kClosed) return;
  release(stream);
  stream.phase = Stream::Phase::kClosed;
  if (notify_app) {
    if (const auto endpoint = stream.endpoint.lock()) endpoint->force_close();
  }
}

std::size_t PosixNetwork::live_connection_count() const {
  return static_cast<std::size_t>(
      std::count_if(streams_.begin(), streams_.end(), [](const auto& entry) {
        return entry.second->phase == Stream::Phase::kOpen;
      }));
}

}  // namespace peerhood::net
