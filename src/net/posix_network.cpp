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

#include "common/log.hpp"
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

// --- Connection endpoint -----------------------------------------------------

// Shared state of one TCP-backed connection (the network side). The
// application-facing endpoint (PosixConnection) holds a shared_ptr to this;
// the fd and outbox live here so the network can drain and close even after
// the application dropped its handle.
struct PosixNetwork::ConnState {
  std::uint64_t id{0};
  int fd{-1};
  NetAddress local;
  NetAddress remote;
  StreamFramer framer;
  // Encoded stream frames awaiting the socket, plus the send offset into the
  // front frame (partial writes).
  std::deque<Bytes> outbox;
  std::size_t front_sent{0};
  bool want_write{false};
  bool open{true};
  std::weak_ptr<PosixConnection> endpoint;
};

class PosixConnection final : public Connection {
 public:
  PosixConnection(PosixNetwork& net,
                  std::shared_ptr<PosixNetwork::ConnState> state)
      : Connection{net.simulator(), state->id, state->local, state->remote},
        net_{net},
        state_{std::move(state)} {}

  ~PosixConnection() override { close_on_drop(); }

 private:
  void transport_send(Bytes frame, std::size_t payload_offset) override {
    net_.conn_write(
        *state_, std::span<const std::uint8_t>{frame}.subspan(payload_offset));
  }

  void transport_close() override {
    net_.close_conn(state_->id, /*notify_app=*/false);
  }

  int transport_quality() override {
    return net_.sample_quality(local_address().mac, remote_address().mac,
                               remote_address().tech);
  }

  PosixNetwork& net_;
  std::shared_ptr<PosixNetwork::ConnState> state_;
};

// An outbound connect in flight: TCP three-way handshake, then the logical
// hello/ack. Retries with capped backoff on refusal or timeout.
struct PosixNetwork::PendingConnect {
  std::uint64_t id{0};
  int fd{-1};
  MacAddress from;
  NetAddress to;
  ConnectHandler handler;
  StreamFramer framer;
  std::uint64_t conn_id{0};
  int attempt{0};
  bool awaiting_ack{false};
  sim::EventId timeout{sim::kInvalidEvent};
  // Hello bytes not yet flushed to the socket (short-write safety).
  Bytes hello_pending;
  std::size_t hello_sent{0};
};

// An accepted TCP stream before its logical hello arrived.
struct PosixNetwork::IncomingStream {
  int fd{-1};
  StreamFramer framer;
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

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  assert(epoll_fd_ >= 0);

  udp_fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  assert(udp_fd_ >= 0);
  int one = 1;
  ::setsockopt(udp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in udp_addr = make_addr(config_.bind_ip, config_.udp_port);
  if (::bind(udp_fd_, reinterpret_cast<sockaddr*>(&udp_addr),
             sizeof(udp_addr)) != 0) {
    log(LogLevel::kError, sim_.now(), "posixnet",
        "udp bind failed: ", std::strerror(errno));
  }
  udp_port_ = bound_port(udp_fd_);

  tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  assert(tcp_fd_ >= 0);
  ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in tcp_addr = make_addr(config_.bind_ip, config_.tcp_port);
  if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&tcp_addr),
             sizeof(tcp_addr)) != 0 ||
      ::listen(tcp_fd_, 64) != 0) {
    log(LogLevel::kError, sim_.now(), "posixnet",
        "tcp bind/listen failed: ", std::strerror(errno));
  }
  tcp_port_ = bound_port(tcp_fd_);

  update_epoll(udp_fd_, EPOLLIN);
  update_epoll(tcp_fd_, EPOLLIN);
}

PosixNetwork::~PosixNetwork() {
  destroying_ = true;
  // Two-phase quiesce: first mark every endpoint closed (so destructors
  // triggered below never call back into this dying network), then break
  // the handler->channel->connection reference cycles.
  std::vector<std::shared_ptr<ConnState>> conns;
  conns.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) conns.push_back(conn);
  for (const auto& conn : conns) {
    conn->open = false;
    if (const auto end = conn->endpoint.lock()) end->mark_closed();
  }
  for (const auto& conn : conns) {
    if (const auto end = conn->endpoint.lock()) end->clear_handlers();
  }
  for (const auto& conn : conns) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  conns_.clear();
  // Half-open connects: dropping the PendingConnect releases the handler's
  // captures (dial state) without invoking it — same as a SimNetwork dying
  // with a connect event still queued.
  for (const auto& [id, pending] : pending_) {
    if (pending->fd >= 0) ::close(pending->fd);
  }
  pending_.clear();
  for (const auto& [fd, incoming] : incoming_) ::close(fd);
  incoming_.clear();
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
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    const std::uint32_t mask = events[i].events;
    if (fd == udp_fd_) {
      handle_udp_readable();
    } else if (fd == tcp_fd_) {
      handle_listener_readable();
    } else if (fd_pending_.contains(fd)) {
      handle_pending_connect(fd, mask);
    } else if (incoming_.contains(fd)) {
      handle_incoming(fd, mask);
    } else if (fd_conn_.contains(fd)) {
      handle_conn_event(fd, mask);
    }
    if (destroying_) return;
  }
  advance_clock();
}

void PosixNetwork::update_epoll(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
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
  header[0] = kUdpData;
  const std::uint64_t mac64 = from.as_u64();
  for (int i = 0; i < 8; ++i) {
    header[1 + i] = static_cast<std::uint8_t>(mac64 >> (56 - 8 * i));
  }
  header[9] = static_cast<std::uint8_t>(tech);
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
  if (packet.size() < kUdpHeader) return;
  if (packet[0] == kUdpBeacon) {
    on_beacon(packet);
    return;
  }
  if (packet[0] != kUdpData) return;
  std::uint64_t mac64 = 0;
  for (int i = 0; i < 8; ++i) mac64 = (mac64 << 8) | packet[1 + i];
  const auto tech_raw = packet[9];
  if (tech_raw >= kTechnologyCount) return;
  const Technology tech = static_cast<Technology>(tech_raw);
  const MacAddress from = MacAddress::from_u64(mac64);

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
  packet[0] = kUdpBeacon;
  const std::uint64_t mac64 = config_.mac.as_u64();
  for (int i = 0; i < 8; ++i) {
    packet[1 + i] = static_cast<std::uint8_t>(mac64 >> (56 - 8 * i));
  }
  packet[9] = static_cast<std::uint8_t>(tech);
  packet[10] = static_cast<std::uint8_t>(
      (reply ? kBeaconReply : 0) |
      (config_.peerhood_capable ? kBeaconCapable : 0));
  sockaddr_in addr = make_addr(peer.ip, peer.udp_port);
  (void)::sendto(udp_fd_, packet, sizeof(packet), 0,
                 reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
}

void PosixNetwork::on_beacon(std::span<const std::uint8_t> packet) {
  if (packet.size() < kUdpHeader + 1) return;
  std::uint64_t mac64 = 0;
  for (int i = 0; i < 8; ++i) mac64 = (mac64 << 8) | packet[1 + i];
  const auto tech_raw = packet[9];
  if (tech_raw >= kTechnologyCount) return;
  const Technology tech = static_cast<Technology>(tech_raw);
  const std::uint8_t flags = packet[10];
  const MacAddress from = MacAddress::from_u64(mac64);
  peer_tags_[iface_key(from, tech)] = (flags & kBeaconCapable) != 0;

  if ((flags & kBeaconReply) != 0) {
    // A reply to our probe: collect while the inquiry window is open.
    if (inquiring_.contains(tech_raw)) {
      inquiry_responders_[tech_raw].insert(mac64);
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

void PosixNetwork::configure(const sim::TechnologyParams& params) {
  params_[static_cast<std::size_t>(params.tech)] = params;
}

// --- Connections -------------------------------------------------------------

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
  auto pending = std::make_unique<PendingConnect>();
  pending->id = next_pending_id_++;
  pending->from = from_mac;
  pending->to = to;
  pending->handler = std::move(handler);
  pending->conn_id = (config_.mac.as_u64() << 16) ^ next_conn_seq_++;
  const std::uint64_t id = pending->id;
  pending_[id] = std::move(pending);
  start_connect_attempt(id);
}

void PosixNetwork::start_connect_attempt(std::uint64_t pending_id) {
  const auto it = pending_.find(pending_id);
  if (it == pending_.end()) return;
  PendingConnect& pending = *it->second;
  const PosixPeer* peer = find_peer(pending.to.mac);
  if (peer == nullptr) {
    fail_connect(pending_id, "peer removed from topology");
    return;
  }
  if (pending.attempt > 0) ++net_stats_.reconnect_attempts;
  ++pending.attempt;
  pending.awaiting_ack = false;
  pending.framer = StreamFramer{};
  pending.hello_pending.clear();
  pending.hello_sent = 0;

  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    fail_connect(pending_id, "socket() failed");
    return;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  pending.fd = fd;
  fd_pending_[fd] = pending_id;
  sockaddr_in addr = make_addr(peer->ip, peer->tcp_port);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    // Immediate refusal (rare on loopback): retry through the backoff path.
    fd_pending_.erase(fd);
    ::close(fd);
    pending.fd = -1;
    const SimDuration backoff = std::min(
        config_.connect_backoff_cap,
        config_.connect_backoff_base * (std::int64_t{1} << (pending.attempt - 1)));
    if (pending.attempt >= config_.connect_attempts) {
      fail_connect(pending_id, "connection refused");
      return;
    }
    sim_.schedule_after(backoff, [this, pending_id] {
      start_connect_attempt(pending_id);
    });
    return;
  }
  update_epoll(fd, EPOLLIN | EPOLLOUT);
  // Per-attempt deadline covers both the TCP handshake and the logical
  // hello/ack round trip.
  pending.timeout = sim_.schedule_after(config_.connect_timeout,
                                        [this, pending_id] {
    const auto timed_out = pending_.find(pending_id);
    if (timed_out == pending_.end()) return;
    PendingConnect& p = *timed_out->second;
    p.timeout = sim::kInvalidEvent;
    if (p.fd >= 0) {
      fd_pending_.erase(p.fd);
      ::close(p.fd);
      p.fd = -1;
    }
    if (p.attempt >= config_.connect_attempts) {
      fail_connect(pending_id, "connect timed out");
      return;
    }
    const SimDuration backoff = std::min(
        config_.connect_backoff_cap,
        config_.connect_backoff_base * (std::int64_t{1} << (p.attempt - 1)));
    sim_.schedule_after(backoff, [this, pending_id] {
      start_connect_attempt(pending_id);
    });
  });
}

void PosixNetwork::fail_connect(std::uint64_t pending_id,
                                const std::string& reason) {
  const auto it = pending_.find(pending_id);
  if (it == pending_.end()) return;
  auto pending = std::move(it->second);
  pending_.erase(it);
  if (pending->timeout != sim::kInvalidEvent) sim_.cancel(pending->timeout);
  if (pending->fd >= 0) {
    fd_pending_.erase(pending->fd);
    ::close(pending->fd);
  }
  const ConnectHandler handler = std::move(pending->handler);
  if (handler) {
    handler(Error{ErrorCode::kConnectionFailed, reason});
  }
}

void PosixNetwork::handle_pending_connect(int fd, std::uint32_t events) {
  const auto fd_it = fd_pending_.find(fd);
  if (fd_it == fd_pending_.end()) return;
  const std::uint64_t pending_id = fd_it->second;
  const auto it = pending_.find(pending_id);
  if (it == pending_.end()) return;
  PendingConnect& pending = *it->second;

  if ((events & (EPOLLERR | EPOLLHUP)) != 0 && !pending.awaiting_ack) {
    // TCP connect failed (no listener / RST). Retry with backoff.
    fd_pending_.erase(fd);
    ::close(fd);
    pending.fd = -1;
    if (pending.timeout != sim::kInvalidEvent) {
      sim_.cancel(pending.timeout);
      pending.timeout = sim::kInvalidEvent;
    }
    if (pending.attempt >= config_.connect_attempts) {
      fail_connect(pending_id, "connection refused");
      return;
    }
    const SimDuration backoff = std::min(
        config_.connect_backoff_cap,
        config_.connect_backoff_base * (std::int64_t{1} << (pending.attempt - 1)));
    sim_.schedule_after(backoff, [this, pending_id] {
      start_connect_attempt(pending_id);
    });
    return;
  }

  if ((events & EPOLLOUT) != 0) {
    if (!pending.awaiting_ack && pending.hello_pending.empty()) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        fd_pending_.erase(fd);
        ::close(fd);
        pending.fd = -1;
        if (pending.timeout != sim::kInvalidEvent) {
          sim_.cancel(pending.timeout);
          pending.timeout = sim::kInvalidEvent;
        }
        if (pending.attempt >= config_.connect_attempts) {
          fail_connect(pending_id, "connection refused");
          return;
        }
        const SimDuration backoff =
            std::min(config_.connect_backoff_cap,
                     config_.connect_backoff_base *
                         (std::int64_t{1} << (pending.attempt - 1)));
        sim_.schedule_after(backoff, [this, pending_id] {
          start_connect_attempt(pending_id);
        });
        return;
      }
      // TCP established: send the logical hello
      // [kind][conn_id][from][to][tech][port].
      ByteWriter writer;
      writer.u8(kStreamHello);
      writer.u64(pending.conn_id);
      writer.u64(pending.from.as_u64());
      writer.u64(pending.to.mac.as_u64());
      writer.u8(static_cast<std::uint8_t>(pending.to.tech));
      writer.u16(pending.to.port);
      pending.hello_pending = encode_stream_frame(std::move(writer).take());
      pending.hello_sent = 0;
      pending.awaiting_ack = true;
    }
    while (pending.hello_sent < pending.hello_pending.size()) {
      const ssize_t n = ::send(
          fd, pending.hello_pending.data() + pending.hello_sent,
          pending.hello_pending.size() - pending.hello_sent, MSG_NOSIGNAL);
      if (n <= 0) break;  // EAGAIN: finish on the next EPOLLOUT
      pending.hello_sent += static_cast<std::size_t>(n);
    }
    if (pending.hello_sent == pending.hello_pending.size()) {
      update_epoll(fd, EPOLLIN);  // hello flushed; now wait for the ack
    }
  }

  if ((events & EPOLLIN) != 0 && pending.awaiting_ack) {
    std::uint8_t buffer[kReadChunk];
    for (;;) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n < 0) break;
      if (n == 0) {
        // Peer closed before answering: treat as refusal.
        fd_pending_.erase(fd);
        ::close(fd);
        pending.fd = -1;
        fail_connect(pending_id, "peer closed during handshake");
        return;
      }
      pending.framer.feed(
          std::span<const std::uint8_t>{buffer, static_cast<std::size_t>(n)});
    }
    if (auto ack = pending.framer.next()) {
      ++net_stats_.frames_checked;
      finish_connect_handshake(pending_id, *ack);
      return;
    }
    // next() latches the poison bit — check it after the decode attempt.
    if (pending.framer.poisoned()) {
      ++net_stats_.corrupt_drops;
      fd_pending_.erase(fd);
      ::close(fd);
      pending.fd = -1;
      fail_connect(pending_id, "corrupt handshake stream");
      return;
    }
  }
}

void PosixNetwork::finish_connect_handshake(
    std::uint64_t pending_id, std::span<const std::uint8_t> ack_body) {
  const auto it = pending_.find(pending_id);
  if (it == pending_.end()) return;
  auto pending = std::move(it->second);
  pending_.erase(it);
  if (pending->timeout != sim::kInvalidEvent) sim_.cancel(pending->timeout);
  fd_pending_.erase(pending->fd);

  ByteReader reader{ack_body};
  const std::uint8_t kind = reader.u8();
  const std::uint8_t ok = reader.u8();
  if (!reader.ok() || kind != kStreamHelloAck || ok == 0) {
    ::close(pending->fd);
    const ConnectHandler handler = std::move(pending->handler);
    handler(Error{ErrorCode::kConnectionFailed,
                  "no listener at " + pending->to.to_string()});
    return;
  }

  auto conn = std::make_shared<ConnState>();
  conn->id = pending->conn_id;
  conn->fd = pending->fd;
  conn->local = NetAddress{pending->from, pending->to.tech, 0};
  conn->remote = pending->to;
  // Bytes that followed the ack in the same read belong to the data stream.
  conn->framer = std::move(pending->framer);
  conns_[conn->id] = conn;
  fd_conn_[conn->fd] = conn->id;
  update_epoll(conn->fd, EPOLLIN);

  auto endpoint = std::make_shared<PosixConnection>(*this, conn);
  conn->endpoint = endpoint;
  const ConnectHandler handler = std::move(pending->handler);
  handler(ConnectionPtr{endpoint});
  // Any data frames that raced the ack are in the framer already.
  if (const auto state = conns_.find(conn->id); state != conns_.end()) {
    handle_conn_event(conn->fd, 0);
  }
}

void PosixNetwork::handle_listener_readable() {
  for (;;) {
    const int fd = ::accept4(tcp_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto incoming = std::make_unique<IncomingStream>();
    incoming->fd = fd;
    incoming_[fd] = std::move(incoming);
    update_epoll(fd, EPOLLIN);
  }
}

void PosixNetwork::handle_incoming(int fd, std::uint32_t events) {
  const auto it = incoming_.find(fd);
  if (it == incoming_.end()) return;
  IncomingStream& stream = *it->second;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    ::close(fd);
    incoming_.erase(it);
    return;
  }
  std::uint8_t buffer[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) break;
    if (n == 0) {
      ::close(fd);
      incoming_.erase(it);
      return;
    }
    stream.framer.feed(
        std::span<const std::uint8_t>{buffer, static_cast<std::size_t>(n)});
  }
  if (const auto hello = stream.framer.next()) {
    ++net_stats_.frames_checked;
    accept_hello(fd, *hello);
    return;
  }
  // next() latches the poison bit — check it after the decode attempt.
  if (stream.framer.poisoned()) {
    ++net_stats_.corrupt_drops;
    ::close(fd);
    incoming_.erase(it);
    return;
  }
}

void PosixNetwork::accept_hello(int fd,
                                std::span<const std::uint8_t> hello_body) {
  const auto it = incoming_.find(fd);
  if (it == incoming_.end()) return;

  ByteReader reader{hello_body};
  const std::uint8_t kind = reader.u8();
  const std::uint64_t conn_id = reader.u64();
  const MacAddress from = MacAddress::from_u64(reader.u64());
  const MacAddress to_mac = MacAddress::from_u64(reader.u64());
  const std::uint8_t tech_raw = reader.u8();
  const std::uint16_t port = reader.u16();
  if (!reader.ok() || kind != kStreamHello || tech_raw >= kTechnologyCount) {
    ::close(fd);
    incoming_.erase(it);
    return;
  }
  const Technology tech = static_cast<Technology>(tech_raw);
  const NetAddress local{to_mac, tech, port};
  const AcceptHandler* const accept_handler = listener(local);
  const bool accepted = accept_handler != nullptr &&
                        attached_.contains(iface_key(to_mac, tech));

  // Answer the hello first (blocking-ish: the ack is 10 bytes and the socket
  // buffer of a fresh connection is empty — a short write here closes).
  ByteWriter writer;
  writer.u8(kStreamHelloAck);
  writer.u8(accepted ? 1 : 0);
  const Bytes ack = encode_stream_frame(std::move(writer).take());
  const ssize_t sent = ::send(fd, ack.data(), ack.size(), MSG_NOSIGNAL);
  if (!accepted || sent != static_cast<ssize_t>(ack.size())) {
    ::close(fd);
    incoming_.erase(it);
    return;
  }

  auto conn = std::make_shared<ConnState>();
  conn->id = conn_id;
  conn->fd = fd;
  conn->local = local;
  conn->remote = NetAddress{from, tech, 0};
  conn->framer = std::move(it->second->framer);
  incoming_.erase(it);
  conns_[conn->id] = conn;
  fd_conn_[fd] = conn->id;

  auto endpoint = std::make_shared<PosixConnection>(*this, conn);
  conn->endpoint = endpoint;
  // Copy the accept handler out of the table: it may stop_listening on this
  // very address from inside the callback.
  const AcceptHandler accept = *accept_handler;
  accept(endpoint);
  // Data frames glued to the hello: deliver after accept installed handlers.
  if (conns_.contains(conn->id)) handle_conn_event(fd, 0);
}

// --- Established connections -------------------------------------------------

void PosixNetwork::conn_write(ConnState& conn,
                              std::span<const std::uint8_t> frame_body) {
  if (!conn.open || conn.fd < 0) return;
  ByteWriter writer;
  writer.reserve(1 + frame_body.size());
  writer.u8(kStreamData);
  writer.raw(frame_body);
  Bytes encoded = encode_stream_frame(std::move(writer).take());
  if (conn.outbox.size() >= config_.max_send_queue) {
    // Bounded queue, oldest-drop (PR 7's accounting): dropping the *newest*
    // would starve progress under sustained overload; reliable layers
    // retransmit whatever the drop ate.
    if (conn.outbox.size() == 1 && conn.front_sent > 0) {
      // Never drop a partially written frame — the stream would desync.
      conn.outbox.push_back(std::move(encoded));
      ++net_stats_.send_queue_drops;
      drain_conn_outbox(conn);
      return;
    }
    const std::size_t victim = conn.front_sent > 0 ? 1 : 0;
    conn.outbox.erase(conn.outbox.begin() +
                      static_cast<std::ptrdiff_t>(victim));
    ++net_stats_.send_queue_drops;
  }
  conn.outbox.push_back(std::move(encoded));
  drain_conn_outbox(conn);
}

void PosixNetwork::drain_conn_outbox(ConnState& conn) {
  while (!conn.outbox.empty()) {
    const Bytes& front = conn.outbox.front();
    const ssize_t n =
        ::send(conn.fd, front.data() + conn.front_sent,
               front.size() - conn.front_sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // EAGAIN / error: EPOLLOUT (or close path) continues
    conn.front_sent += static_cast<std::size_t>(n);
    if (conn.front_sent == front.size()) {
      conn.outbox.pop_front();
      conn.front_sent = 0;
    }
  }
  const bool want_write = !conn.outbox.empty();
  if (want_write != conn.want_write) {
    conn.want_write = want_write;
    update_epoll(conn.fd, EPOLLIN | (want_write ? EPOLLOUT : 0u));
  }
}

void PosixNetwork::handle_conn_event(int fd, std::uint32_t events) {
  const auto fd_it = fd_conn_.find(fd);
  if (fd_it == fd_conn_.end()) return;
  const std::uint64_t conn_id = fd_it->second;
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  const std::shared_ptr<ConnState> conn = it->second;

  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_conn(conn_id, /*notify_app=*/true);
    return;
  }
  if ((events & EPOLLOUT) != 0) drain_conn_outbox(*conn);

  bool peer_closed = false;
  std::uint8_t buffer[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) break;
    if (n == 0) {
      peer_closed = true;
      break;
    }
    conn->framer.feed(
        std::span<const std::uint8_t>{buffer, static_cast<std::size_t>(n)});
  }
  // Drain every complete frame. The endpoint may close/die inside a data
  // handler — re-check liveness each round.
  while (conns_.contains(conn_id) && conn->open) {
    auto frame = conn->framer.next();
    if (!frame.has_value()) {
      if (conn->framer.poisoned()) {
        // Mid-stream corruption: unlike a datagram there is no next-frame
        // boundary to resync on — count it and kill the connection.
        ++net_stats_.corrupt_drops;
        close_conn(conn_id, /*notify_app=*/true);
        return;
      }
      break;
    }
    ++net_stats_.frames_checked;
    if (frame->empty() || (*frame)[0] != kStreamData) continue;
    const auto endpoint = conn->endpoint.lock();
    if (endpoint == nullptr) break;
    endpoint->deliver(Bytes{frame->begin() + 1, frame->end()});
  }
  if (peer_closed && conns_.contains(conn_id)) {
    close_conn(conn_id, /*notify_app=*/true);
  }
}

void PosixNetwork::close_conn(std::uint64_t conn_id, bool notify_app) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  const std::shared_ptr<ConnState> conn = it->second;
  conns_.erase(it);
  conn->open = false;
  if (conn->fd >= 0) {
    fd_conn_.erase(conn->fd);
    ::close(conn->fd);  // queued-but-unsent frames die with the socket
    conn->fd = -1;
  }
  if (notify_app) {
    if (const auto endpoint = conn->endpoint.lock()) {
      endpoint->force_close();
    }
  }
}

std::size_t PosixNetwork::live_connection_count() const {
  return conns_.size();
}

}  // namespace peerhood::net
