// SimNetwork: the simulated net::Network backend — connection-oriented
// transport plus datagrams on top of the radio medium. Models the paper's
// measured Bluetooth behaviour: connection establishment takes seconds and
// fails stochastically (§4.3), and an open link dies when the peers leave
// mutual coverage. Deterministic under a seed; the fault-injection plane
// (sim/fault.hpp) sits below this class.
//
// The real-socket counterpart is net/posix_network.hpp; the shared contract
// is net/network.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "net/address.hpp"
#include "net/connection.hpp"
#include "net/frame_check.hpp"
#include "net/network.hpp"
#include "sim/medium.hpp"

namespace peerhood::net {

class SimConnection;

class SimNetwork final : public Network {
 public:
  explicit SimNetwork(sim::RadioMedium& medium);
  ~SimNetwork() override;

  // Attaches a (device, technology) interface to the medium. All listeners,
  // datagrams and connections for that interface flow through this network.
  void attach_interface(
      MacAddress mac, Technology tech,
      std::shared_ptr<const sim::MobilityModel> mobility) override;
  void detach_interface(MacAddress mac, Technology tech) override;

  // --- Datagrams (used by the discovery plane) ------------------------------
  void set_datagram_handler(MacAddress mac, Technology tech,
                            DatagramHandler handler) override;
  void send_datagram(MacAddress from, MacAddress to, Technology tech,
                     FramePtr frame) override;

  // --- Connections ----------------------------------------------------------
  // Asynchronously establishes a connection. The handler fires exactly once,
  // after the sampled per-technology establishment delay, with either an open
  // connection or an error (failure injection / out of range / no listener).
  void connect(MacAddress from_mac, const NetAddress& to,
               ConnectHandler handler) override;

  // --- Discovery inquiry plane ---------------------------------------------
  // Delegates to the medium, preserving the pre-interface accounting order
  // (inquiries counted when the window opens, responses when it closes) so
  // sim runs stay byte-identical.
  void begin_inquiry(MacAddress mac, Technology tech) override;
  [[nodiscard]] std::vector<MacAddress> end_inquiry(MacAddress mac,
                                                    Technology tech) override;
  void cancel_inquiry(MacAddress mac, Technology tech) override;
  [[nodiscard]] bool peerhood_tag(MacAddress mac,
                                  Technology tech) const override;
  [[nodiscard]] int sample_quality(MacAddress local, MacAddress peer,
                                   Technology tech) override;

  [[nodiscard]] const sim::TechnologyParams& params(
      Technology tech) const override;

  // --- Quality observation (full support: the medium has geometry) ----------
  sim::QualityObserverId observe_quality(
      MacAddress a, MacAddress b, Technology tech, int threshold,
      sim::RadioMedium::QualityHandler handler) override;
  void unobserve_quality(sim::QualityObserverId id) override;
  [[nodiscard]] sim::LinkQualityEvent probe_link(MacAddress a, MacAddress b,
                                                 Technology tech) override;

  [[nodiscard]] sim::RadioMedium& medium() { return medium_; }
  [[nodiscard]] sim::Simulator& simulator() override {
    return medium_.simulator();
  }

  // Count of connection pairs not yet fully closed (for tests).
  [[nodiscard]] std::size_t live_connection_count() const override;

 private:
  friend class SimConnection;

  struct Interface {
    DatagramHandler datagram_handler;
  };

  struct Pair;  // shared state of one connection (both ends)

  // MACs are 48-bit, so (mac, tech) packs into one hashable word.
  [[nodiscard]] static std::uint64_t iface_key(MacAddress mac,
                                               Technology tech) {
    return (mac.as_u64() << 8) | static_cast<std::uint8_t>(tech);
  }

  void handle_frame(MacAddress local, Technology tech, MacAddress from,
                    const Bytes& frame);
  void finish_connect(MacAddress from_mac, NetAddress to,
                      ConnectHandler handler);
  void on_peer_data(std::uint64_t conn_id, MacAddress receiver, Bytes payload);
  void on_peer_close(std::uint64_t conn_id, MacAddress receiver);
  void notify_local_close(Pair& pair, bool is_a);
  void check_keepalive(std::uint64_t conn_id);
  void teardown(Pair& pair, bool notify_peers);
  // Sends a connection frame built with kConnFrameHeaderSize bytes of room
  // in front of its payload; the header is written into that room.
  void send_conn_frame(std::uint64_t conn_id, MacAddress from, MacAddress to,
                       Technology tech, std::uint8_t kind, Bytes frame);

  sim::RadioMedium& medium_;
  std::unordered_map<std::uint64_t, Interface> interfaces_;
  std::map<std::uint64_t, std::shared_ptr<Pair>> pairs_;
  std::uint64_t next_conn_id_{1};
};

}  // namespace peerhood::net
