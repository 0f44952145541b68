// Library — the PeerHood application interface (§2.2.2): GetDeviceList,
// GetServiceList, RegisterService and Connect. Connect performs the Fig. 2.5
// sequence for direct neighbours and the Fig. 4.3 PH_BRIDGE sequence for
// remote devices reached through bridge nodes; resume performs the
// connection re-establishment used by handover (§5.2.1).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "peerhood/channel.hpp"
#include "peerhood/daemon.hpp"

namespace peerhood {

class Library {
 public:
  struct ConnectOptions {
    // Push reconnection parameters so the server can call back after
    // processing (§5.3 Method 2). `reconnect_service` names the client-side
    // service the server should contact (empty = none / Method 1).
    bool include_client_params{false};
    std::string reconnect_service;
    // 0 = mint a fresh session id.
    std::uint64_t session_id{0};
    // Skip the local is-service-advertised check (used by result routing
    // Method 2, where the target service is known out of band and possibly
    // hidden from discovery).
    bool skip_service_check{false};
    // Overall deadline for establishment + handshake acknowledgement; the
    // bridged chain can take many seconds per hop on Bluetooth (§4.3).
    SimDuration timeout{std::chrono::seconds{60}};
  };

  using ConnectCallback = std::function<void(Result<ChannelPtr>)>;
  using StatusCallback = std::function<void(Status)>;

  explicit Library(Daemon& daemon) : daemon_{daemon} {}

  Library(const Library&) = delete;
  Library& operator=(const Library&) = delete;

  // --- Neighbourhood information (served from the daemon's storage) ---------
  [[nodiscard]] std::vector<DeviceRecord> get_device_list() const;
  // (device, service) pairs for every non-hidden remote service.
  [[nodiscard]] std::vector<std::pair<DeviceInfo, ServiceInfo>>
  get_service_list() const;

  // --- Service registration ---------------------------------------------------
  Status register_service(ServiceInfo service, Engine::ServiceHandler handler);
  void unregister_service(const std::string& name);

  // --- Connection establishment ----------------------------------------------
  void connect(MacAddress destination, std::string service,
               ConnectOptions options, ConnectCallback callback);

  // Re-establishes `channel` through `hop` (§5.2.1): a bridge for a routing
  // handover, or the peer itself once it is back in coverage. The server
  // substitutes the connection of the same session; if it refuses with
  // kUnknownSession (it restarted), the dial is repeated once with
  // PH_RESUME_RESTART so its journal can revive the session.
  void resume(MacAddress hop, const ChannelPtr& channel,
              StatusCallback callback,
              SimDuration timeout = std::chrono::seconds{60});

  [[nodiscard]] Daemon& daemon() { return daemon_; }

 private:
  Daemon& daemon_;
};

}  // namespace peerhood
