// net::Network — the abstract transport the whole PeerHood stack runs on.
//
// The protocol stack (Engine, Daemon, Plugin, dial_with_ack, Library,
// BridgeService, HandoverController) consumes only this interface. Two
// backends implement it:
//
//   - SimNetwork   (net/sim_network.hpp): the simulated transport on top of
//     sim::RadioMedium — stochastic connect delays/failures, coverage-driven
//     link death, the fault-injection plane. Deterministic under a seed.
//   - PosixNetwork (net/posix_network.hpp): real sockets — UDP datagrams plus
//     length-prefix-framed TCP channels over epoll, bridged into a wall-clock
//     driven sim::Simulator so timers and sockets share one event core.
//
// The interface covers everything the stack needs from a medium: datagrams,
// connect with net::Connection endpoints (one endpoint class, backend hooks
// underneath; net/connection.hpp), the discovery inquiry plane, link-quality
// sampling/observation, per-technology parameters, integrity accounting,
// and the backend's Simulator (timers + deterministic RNG). The listener
// table lives in this base class, so listen/stop_listening behave the same
// on every backend; a backend finds the accept handler of an incoming
// connection with listener().
// Quality *observation* (the predictive-handover push plane) is optional:
// backends without a mobility model return kInvalidQualityObserver and the
// handover controller degrades gracefully to its reactive loop.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "net/address.hpp"
#include "net/connection.hpp"
#include "net/frame_check.hpp"
#include "sim/medium.hpp"

namespace peerhood::net {

// Backend-agnostic transport counters, reported identically by chaos/crash
// benches across backends (merged into ScenarioMetrics for sim runs, logged
// by the real daemon on shutdown).
struct NetStats {
  // Receive-side integrity: frames checked / dropped by the length+checksum
  // header (bit corruption on the air, or garbage on a real socket).
  std::uint64_t frames_checked{0};
  std::uint64_t corrupt_drops{0};
  // Frames a sender dropped: oldest-drop evictions from bounded per-peer
  // send queues, and on PosixNetwork also datagrams the kernel refused.
  std::uint64_t send_queue_drops{0};
  // Connect attempts beyond the first (capped-backoff reconnects).
  std::uint64_t reconnect_attempts{0};
};

class Network {
 public:
  using AcceptHandler = std::function<void(ConnectionPtr)>;
  using ConnectHandler = std::function<void(Result<ConnectionPtr>)>;
  // The payload view is valid only for the duration of the call; handlers
  // decode in place (no per-datagram copy on the receive path).
  using DatagramHandler =
      std::function<void(MacAddress from, std::span<const std::uint8_t>)>;
  // Shared immutable frame buffer (one allocation, many sends).
  using FramePtr = net::FramePtr;

  Network() = default;
  virtual ~Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Attaches a (device, technology) interface. All listeners, datagrams and
  // connections for that interface flow through this network. The mobility
  // model feeds the sim medium's geometry; socket backends ignore it.
  virtual void attach_interface(
      MacAddress mac, Technology tech,
      std::shared_ptr<const sim::MobilityModel> mobility) = 0;
  virtual void detach_interface(MacAddress mac, Technology tech) = 0;

  // --- Datagrams (used by the discovery plane) ------------------------------
  virtual void set_datagram_handler(MacAddress mac, Technology tech,
                                    DatagramHandler handler) = 0;
  // The one datagram entry point. `frame` is a complete sealed frame —
  // integrity header, kDatagramFrameTag, payload — built in one buffer by
  // net::make_datagram_frame (net/frame_check.hpp). Backends ship it as is:
  // no prepend copy, and repeated sends of one frame (the discovery cache's
  // steady state) share a single allocation end to end.
  virtual void send_datagram(MacAddress from, MacAddress to, Technology tech,
                             FramePtr frame) = 0;

  // --- Connections ----------------------------------------------------------
  // Binds an accept handler to `address`. Double-bind is an error (real
  // sockets say EADDRINUSE): the first listener keeps the address.
  [[nodiscard]] Status listen(const NetAddress& address,
                              AcceptHandler handler) {
    if (!listeners_.try_emplace(address, std::move(handler)).second) {
      return Status{ErrorCode::kAddressInUse,
                    "listener already bound at " + address.to_string()};
    }
    return Status::ok_status();
  }
  void stop_listening(const NetAddress& address) { listeners_.erase(address); }

  // Asynchronously establishes a connection. The handler fires exactly once
  // with either an open connection or an error.
  virtual void connect(MacAddress from_mac, const NetAddress& to,
                       ConnectHandler handler) = 0;

  // --- Discovery inquiry plane ---------------------------------------------
  // One §3.4.2 inquiry window: begin_inquiry opens it (the device stops
  // answering other inquiries while it scans — the Bluetooth asymmetry),
  // end_inquiry closes it and returns the responders heard, cancel_inquiry
  // closes it discarding them (plugin stopped mid-window).
  virtual void begin_inquiry(MacAddress mac, Technology tech) = 0;
  [[nodiscard]] virtual std::vector<MacAddress> end_inquiry(
      MacAddress mac, Technology tech) = 0;
  virtual void cancel_inquiry(MacAddress mac, Technology tech) = 0;
  // The "PeerHood tag" found via SDP query (§2.3): whether `mac` advertises
  // PeerHood capability on `tech`.
  [[nodiscard]] virtual bool peerhood_tag(MacAddress mac,
                                          Technology tech) const = 0;
  // Noisy RSSI-style sample of the (local, peer) link; 0 = gone.
  [[nodiscard]] virtual int sample_quality(MacAddress local, MacAddress peer,
                                           Technology tech) = 0;

  // Per-technology timing/behaviour parameters (inquiry cadence, fetch cost,
  // connect-delay envelope). Backends own the values: the sim medium models
  // the paper's measurements, the socket backend ships fast local defaults.
  [[nodiscard]] virtual const sim::TechnologyParams& params(
      Technology tech) const = 0;

  // --- Push-based quality observation (optional) ----------------------------
  // The predictive-handover plane. Backends without a mobility/geometry
  // model return kInvalidQualityObserver; the controller then never gets a
  // kFell edge and falls back to its reactive monitor loop.
  virtual sim::QualityObserverId observe_quality(
      MacAddress a, MacAddress b, Technology tech, int threshold,
      sim::RadioMedium::QualityHandler handler) {
    (void)a; (void)b; (void)tech; (void)threshold; (void)handler;
    return sim::kInvalidQualityObserver;
  }
  virtual void unobserve_quality(sim::QualityObserverId id) { (void)id; }
  // One-shot link measurement in observer-event form. The default (socket
  // backends) has no geometry: quality from sample_quality, no distance or
  // radial speed — the time-to-loss predictor stays quiet and the reactive
  // path does the repairs.
  [[nodiscard]] virtual sim::LinkQualityEvent probe_link(MacAddress a,
                                                         MacAddress b,
                                                         Technology tech) {
    sim::LinkQualityEvent event;
    event.a = a;
    event.b = b;
    event.tech = tech;
    event.quality = sample_quality(a, b, tech);
    event.at = simulator().now();
    return event;
  }

  // The backend's event core: timers and the deterministic RNG stream every
  // protocol layer schedules against. For SimNetwork this is the medium's
  // simulator; for PosixNetwork a wall-clock-driven instance whose next
  // event deadline bounds the epoll_wait timeout.
  [[nodiscard]] virtual sim::Simulator& simulator() = 0;

  // Count of connections not yet fully closed (for tests).
  [[nodiscard]] virtual std::size_t live_connection_count() const = 0;

  // Backend-agnostic transport counters: every backend counts its
  // integrity, queue and reconnect events straight into `net_stats_`.
  [[nodiscard]] const NetStats& net_stats() const { return net_stats_; }

 protected:
  // The accept handler bound at `address`, or null. Callers copy it before
  // invoking: the handler may stop_listening on its own address.
  [[nodiscard]] const AcceptHandler* listener(const NetAddress& address) const {
    const auto it = listeners_.find(address);
    return it == listeners_.end() ? nullptr : &it->second;
  }

  NetStats net_stats_;

 private:
  std::map<NetAddress, AcceptHandler> listeners_;
};

}  // namespace peerhood::net
