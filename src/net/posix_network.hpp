// PosixNetwork: the real-socket net::Network backend — the daemon leaves
// the simulator. UDP datagrams carry the discovery plane (fetch requests,
// snapshot responses, inquiry beacons); connections are length-prefix-framed
// TCP streams (net/stream_framer.hpp) multiplexed onto one listening socket
// per process via a logical-port hello. Everything is non-blocking over one
// epoll instance.
//
// One Stream record per TCP socket, from connect()/accept4() to close, in
// one of four phases: kDialing (a connect in flight: TCP handshake, then the
// logical hello/ack), kAwaitingHello (accepted, hello not yet read), kOpen
// (a live connection behind a PosixConnection endpoint) and kClosed. Every
// stream has one framer, one outbox and one read path; the hello, the ack
// and data frames all leave through the outbox. epoll_event::data carries
// the stream's key, not its fd. Keys are never reused, and a dial takes a
// fresh key for each attempt, so an event queued for a socket closed earlier in
// the same epoll batch finds no stream instead of the socket that took its
// fd number. The UDP and listening sockets take the fixed keys 0 and 1.
//
// Event core bridge: the backend owns a sim::Simulator whose clock is
// advanced to *wall time* (microseconds since construction) by poll_once().
// Every protocol timer — handshake retransmits, reliable-channel RTOs,
// inquiry cycles, deferred sends — schedules on that simulator exactly as it
// does against SimNetwork, and the epoll_wait timeout is bounded by the
// event queue's next deadline, so sockets and timers share one core.
//
// Robustness contract (the simulated node crash made real): a kill -9'd process
// loses exactly what Daemon::crash() loses. Peers observe the death as
// FIN/RST (connections force_close), the restarted daemon re-binds the same
// ports with a fresh epoch, and sessions resume through the kResumeRestart
// journal path. Send queues are bounded per connection with oldest-drop
// accounting; connects retry with capped backoff; EAGAIN, partial writes
// and RST land in the same close/retry paths the sim fault plane exercises.
//
// Scope: a static localhost/LAN peer table (mac -> ip:ports) stands in for
// the radio medium's geometry. Quality observation is declined (the
// handover controller falls back to its reactive loop) and sample_quality
// reports a flat healthy value for configured peers. Beacons always
// advertise the PeerHood tag.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "net/address.hpp"
#include "net/connection.hpp"
#include "net/network.hpp"
#include "net/stream_framer.hpp"
#include "sim/simulator.hpp"

namespace peerhood::net {

class PosixConnection;

// One row of the static peer table.
struct PosixPeer {
  MacAddress mac;
  std::string ip{"127.0.0.1"};
  std::uint16_t udp_port{0};
  std::uint16_t tcp_port{0};
};

struct PosixConfig {
  MacAddress mac;
  std::string bind_ip{"127.0.0.1"};
  // 0 = kernel-assigned; read the bound value back via udp_port()/tcp_port().
  std::uint16_t udp_port{0};
  std::uint16_t tcp_port{0};
  std::uint64_t seed{1};
  // TCP connect + logical-port handshake deadline per attempt.
  SimDuration connect_timeout{std::chrono::milliseconds{1000}};
  // Attempts per connect() call; retries pay capped exponential backoff and
  // are counted in NetStats::reconnect_attempts.
  int connect_attempts{3};
  SimDuration connect_backoff_base{std::chrono::milliseconds{100}};
  SimDuration connect_backoff_cap{std::chrono::milliseconds{1000}};
  // Per-connection bounded send queue (frames); the oldest frame is dropped
  // on overflow (NetStats::send_queue_drops) — PR 7's accounting on a socket.
  std::size_t max_send_queue{1024};
};

class PosixNetwork final : public Network {
 public:
  // Creates the epoll set and binds the UDP socket and the TCP listener.
  // Any failure comes back as an error (a port already bound is
  // kAddressInUse) and leaves no network behind, so a half-built network
  // is never polled. The listener keeps SO_REUSEADDR, so a daemon killed
  // with -9 rebinds its port at once; the UDP socket does not, so a second
  // process cannot share a live node's datagram port and take its traffic.
  [[nodiscard]] static Result<std::unique_ptr<PosixNetwork>> open(
      PosixConfig config);
  ~PosixNetwork() override;

  // Static topology: who exists and where their sockets live. Localhost
  // integration adds every process up front; add_peer after start is fine.
  void add_peer(const PosixPeer& peer);

  // Kernel-assigned ports after binding (for peer-table exchange in tests).
  [[nodiscard]] std::uint16_t udp_port() const { return udp_port_; }
  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }
  [[nodiscard]] MacAddress mac() const { return config_.mac; }

  // Runs the event core once: fires due timers, waits for socket events at
  // most `max_wait` (bounded by the next timer deadline), handles them, and
  // fires timers that came due meanwhile. The daemon main loop and the
  // in-process tests/bench drive this.
  void poll_once(SimDuration max_wait = std::chrono::milliseconds{50});

  // Wall-clock now as SimTime (microseconds since construction).
  [[nodiscard]] SimTime wall_now() const;

  // --- net::Network ---------------------------------------------------------
  void attach_interface(
      MacAddress mac, Technology tech,
      std::shared_ptr<const sim::MobilityModel> mobility) override;
  void detach_interface(MacAddress mac, Technology tech) override;

  void set_datagram_handler(MacAddress mac, Technology tech,
                            DatagramHandler handler) override;
  void send_datagram(MacAddress from, MacAddress to, Technology tech,
                     FramePtr frame) override;

  void connect(MacAddress from_mac, const NetAddress& to,
               ConnectHandler handler) override;

  void begin_inquiry(MacAddress mac, Technology tech) override;
  [[nodiscard]] std::vector<MacAddress> end_inquiry(MacAddress mac,
                                                    Technology tech) override;
  void cancel_inquiry(MacAddress mac, Technology tech) override;
  [[nodiscard]] bool peerhood_tag(MacAddress mac,
                                  Technology tech) const override;
  [[nodiscard]] int sample_quality(MacAddress local, MacAddress peer,
                                   Technology tech) override;

  // Fast localhost parameters: sub-second inquiry cadence, no synthetic
  // connect delay or failure injection.
  [[nodiscard]] const sim::TechnologyParams& params(
      Technology tech) const override;

  [[nodiscard]] sim::Simulator& simulator() override { return sim_; }
  [[nodiscard]] std::size_t live_connection_count() const override;

 private:
  friend class PosixConnection;

  explicit PosixNetwork(PosixConfig config);
  Status open_sockets();

  struct Stream;
  using StreamPtr = std::shared_ptr<Stream>;

  using IfaceKey = std::pair<std::uint64_t, std::uint8_t>;
  [[nodiscard]] static IfaceKey iface_key(MacAddress mac, Technology tech) {
    return {mac.as_u64(), static_cast<std::uint8_t>(tech)};
  }

  void advance_clock();
  void handle_udp_readable();
  void handle_listener_readable();
  void on_udp_packet(std::span<const std::uint8_t> packet);
  void on_beacon(MacAddress from, Technology tech, std::uint8_t flags);
  void send_beacon(const PosixPeer& peer, Technology tech, bool reply);
  [[nodiscard]] const PosixPeer* find_peer(MacAddress mac) const;

  // Streams. Closing a stream drops the table's reference to it, so every
  // caller holds its own StreamPtr: never pass the table's slot itself.
  void add_stream(const StreamPtr& stream);
  void handle_stream(std::uint64_t key, std::uint32_t events);
  void start_dial(const StreamPtr& stream);
  void retry_or_fail(const StreamPtr& stream, const std::string& reason);
  void fail_dial(Stream& stream, const std::string& reason);
  void open_dial(const StreamPtr& stream, std::span<const std::uint8_t> ack);
  void accept_stream(const StreamPtr& stream,
                     std::span<const std::uint8_t> hello);
  void queue_frame(Stream& stream, std::uint8_t kind,
                   std::span<const std::uint8_t> body);
  void flush(Stream& stream);
  void release(Stream& stream);
  void close_stream(Stream& stream, bool notify_app);
  void update_epoll(int fd, std::uint64_t key, std::uint32_t events);

  PosixConfig config_;
  sim::Simulator sim_;
  // steady_clock origin captured at construction (nanoseconds).
  std::int64_t wall_origin_ns_{0};

  int epoll_fd_{-1};
  int udp_fd_{-1};
  int tcp_fd_{-1};
  std::uint16_t udp_port_{0};
  std::uint16_t tcp_port_{0};

  std::map<std::uint64_t, PosixPeer> peers_;
  std::set<IfaceKey> attached_;
  std::map<IfaceKey, DatagramHandler> datagram_handlers_;

  // Inquiry windows and learned SDP tags, per technology.
  std::set<std::uint8_t> inquiring_;
  std::map<std::uint8_t, std::set<std::uint64_t>> inquiry_responders_;
  std::map<IfaceKey, bool> peer_tags_;

  // Every TCP socket, by epoll key.
  std::map<std::uint64_t, StreamPtr> streams_;

  sim::TechnologyParams params_[kTechnologyCount];
  std::uint64_t next_key_{2};
  std::uint64_t next_conn_seq_{1};
  bool destroying_{false};
};

}  // namespace peerhood::net
