// Library — the PeerHood application interface (§2.2.2): GetDeviceList,
// GetServiceList, RegisterService and Connect. Connect performs the Fig. 2.5
// sequence for direct neighbours and the Fig. 4.3 PH_BRIDGE sequence for
// remote devices reached through bridge nodes; resume_* perform the
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
    // Allow routing through bridge nodes when the target is remote.
    bool allow_bridge{true};
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

  // Re-establishes `channel` through `bridge` (routing handover, §5.2.1
  // state 2) — the server substitutes the connection of the same session.
  void resume_via_bridge(MacAddress bridge, const ChannelPtr& channel,
                         StatusCallback callback,
                         SimDuration timeout = std::chrono::seconds{60});
  // Re-establishes `channel` directly (peer back in coverage).
  void resume_direct(const ChannelPtr& channel, StatusCallback callback,
                     SimDuration timeout = std::chrono::seconds{60});

  [[nodiscard]] Daemon& daemon() { return daemon_; }

 private:
  // The resume ladder shared by both resume_* entry points: dial `hop_mac`
  // with `resume_frame`; on kUnknownSession (the server restarted) dial once
  // more with `restart_frame` (PH_RESUME_RESTART); then hand the new
  // connection to `channel`.
  void resume(MacAddress hop_mac, Bytes resume_frame, Bytes restart_frame,
              const ChannelPtr& channel, StatusCallback callback,
              SimDuration timeout);

  Daemon& daemon_;
};

}  // namespace peerhood
