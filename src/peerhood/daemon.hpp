// Daemon — the core PeerHood process (§2.2.1): owns the network plugins,
// the DeviceStorage and the registered services; answers other devices'
// information-fetch inquiries (the "listening to advertise" role) and serves
// the library/application side.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mac_address.hpp"
#include "discovery/analyzer.hpp"
#include "discovery/device_storage.hpp"
#include "net/network.hpp"
#include "peerhood/config.hpp"
#include "peerhood/engine.hpp"
#include "peerhood/plugin.hpp"
#include "peerhood/session_store.hpp"
#include "peerhood/snapshot_cache.hpp"
#include "sim/mobility.hpp"
#include "sim/simulator.hpp"

namespace peerhood {

class Daemon {
 public:
  Daemon(net::Network& network, MacAddress mac,
         std::shared_ptr<const sim::MobilityModel> mobility,
         DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void start();
  void stop();
  // Hard-kill: stop() plus loss of every piece of volatile state — live
  // sessions, discovery storage, plugin baselines, queued replies. What a
  // real process death leaves behind is exactly the SessionStore journal
  // (the "disk") and the registered services (the model being an
  // application that re-registers on restart). A subsequent start() mints a
  // fresh epoch, so peers detect the restart on their next fetch.
  void crash();
  [[nodiscard]] bool running() const { return running_; }

  // --- Identity / wiring -----------------------------------------------------
  [[nodiscard]] const DeviceInfo& self_info() const { return self_; }
  [[nodiscard]] MacAddress mac() const { return self_.mac; }
  [[nodiscard]] const DaemonConfig& config() const { return config_; }
  [[nodiscard]] DeviceStorage& storage() { return storage_; }
  [[nodiscard]] const DeviceStorage& storage() const { return storage_; }
  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] sim::Simulator& simulator() { return network_.simulator(); }
  [[nodiscard]] const NeighbourhoodAnalyzer& analyzer() const {
    return analyzer_;
  }
  [[nodiscard]] std::shared_ptr<const sim::MobilityModel> mobility() const {
    return mobility_;
  }

  // --- Services ---------------------------------------------------------------
  // Registers a service for advertisement. Port 0 auto-assigns.
  Status register_service(ServiceInfo service);
  void unregister_service(std::string_view name);
  [[nodiscard]] const std::vector<ServiceInfo>& local_services() const {
    return services_;
  }

  // --- Plugins ------------------------------------------------------------------
  [[nodiscard]] Plugin* plugin(Technology tech);

  // --- Bridge load (for advertised-quality de-rating, §4 / E11) ----------------
  void set_load_fraction(double fraction);
  [[nodiscard]] double load_fraction() const { return load_fraction_; }

  // Session-id mint for client-side connections.
  [[nodiscard]] std::uint64_t next_session_id();

  // --- Discovery-plane versioning ---------------------------------------------
  // Per-start epoch: a requester whose baseline carries a different epoch is
  // answered with a full response (its generations are incomparable).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  // Current per-section generations of the advertised snapshot.
  [[nodiscard]] wire::SectionGens section_gens() const;
  [[nodiscard]] const SnapshotCache& snapshot_cache() const { return cache_; }

  // --- Crash tolerance ---------------------------------------------------------
  // The crash-survivable per-session resume journal (see session_store.hpp).
  [[nodiscard]] SessionStore& session_store() { return session_store_; }
  // Deferred fetch replies dropped because a peer's send queue was full.
  [[nodiscard]] std::uint64_t send_queue_drops() const {
    return send_queue_drops_;
  }

 private:
  struct PendingSend {
    std::uint64_t id{0};
    std::uint64_t peer{0};  // MacAddress::as_u64 of the requester
    sim::EventId event{sim::kInvalidEvent};
    net::FramePtr frame;
    Technology tech{Technology::kBluetooth};
  };

  void on_datagram(Technology tech, MacAddress from,
                   std::span<const std::uint8_t> payload);
  void answer_fetch(Technology tech, MacAddress from,
                    const wire::FetchRequest& request);
  void flush_pending_send(std::uint64_t send_id);
  [[nodiscard]] SnapshotSource snapshot_source() const;

  net::Network& network_;
  std::shared_ptr<const sim::MobilityModel> mobility_;
  DaemonConfig config_;
  DeviceInfo self_;
  DeviceStorage storage_;
  NeighbourhoodAnalyzer analyzer_;
  Engine engine_;
  std::vector<std::unique_ptr<Plugin>> plugins_;
  std::vector<ServiceInfo> services_;
  SnapshotCache cache_;
  // Every received fetch response is decoded into this one buffer, so a
  // steady neighbours refresh allocates nothing; its entry views die with
  // the dispatch that decoded them (see on_datagram).
  wire::ReceivedFetchResponse received_;
  // Duplicate-suppression memo: last non-shared request id seen per
  // (requester, technology). Requesters mint fresh ids per attempt (retries
  // included), so only a fault-plane duplicate repeats the latest id.
  std::map<std::pair<std::uint64_t, std::uint8_t>, std::uint32_t>
      last_request_;
  SessionStore session_store_;
  // Deferred fetch replies of every peer in one flat list, oldest first
  // (ids ascend). Each peer's share is capped at kMaxPeerSendQueue with
  // oldest-drop. A handful of replies is in flight at a time, so a scan
  // beats a per-peer container that is created and erased per answer.
  std::vector<PendingSend> send_queue_;
  std::uint64_t next_send_id_{1};
  std::uint64_t send_queue_drops_{0};
  std::uint64_t epoch_{0};
  std::uint32_t services_gen_{1};
  double load_fraction_{0.0};
  std::uint16_t next_port_{100};
  std::uint16_t session_counter_{0};
  bool running_{false};
};

}  // namespace peerhood
