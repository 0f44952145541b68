// AnalyzeNeighbourhoodDevices (Fig. 3.13): integrates the neighbourhood
// snapshot received from an inquiry responder into the local DeviceStorage —
// this is what upgrades two-jump vision into total environment awareness
// (§3.3). Distance-vector style: entries gain one jump and inherit the
// responder as bridge; the route policy keeps the most efficient way.
#pragma once

#include <vector>

#include "common/mac_address.hpp"
#include "common/sim_time.hpp"
#include "discovery/device_storage.hpp"

namespace peerhood {

// One entry of a responder's advertised DeviceStorage.
struct NeighbourSnapshotEntry {
  DeviceInfo device;
  std::vector<Technology> prototypes;
  std::vector<ServiceInfo> services;
  int jump{0};             // responder's jump count to this device
  MacAddress bridge;       // responder's bridge towards it (null if direct)
  int quality_sum{0};      // responder's summed route quality
  int min_link_quality{0}; // responder's weakest route link

  friend bool operator==(const NeighbourSnapshotEntry&,
                         const NeighbourSnapshotEntry&) = default;
};

struct AnalyzerConfig {
  // When false, snapshots only refresh the responder's neighbour-link list —
  // the pre-thesis behaviour of PeerHood [2] with two-jump vision and no
  // routing (baseline for experiment E1).
  bool propagate_routes{true};
};

class NeighbourhoodAnalyzer {
 public:
  NeighbourhoodAnalyzer(MacAddress self, AnalyzerConfig config = {})
      : self_{self}, config_{config} {}

  // Integrates responder `direct_record` (jump 0, measured link quality) and
  // its snapshot. Returns the number of storage records inserted or updated.
  // Both are consumed: each entry's descriptors move into its route
  // candidate.
  int integrate(DeviceStorage& storage, DeviceRecord direct_record,
                std::vector<NeighbourSnapshotEntry> snapshot, Technology tech,
                SimTime now) const;

  [[nodiscard]] MacAddress self() const { return self_; }
  [[nodiscard]] const AnalyzerConfig& config() const { return config_; }

 private:
  MacAddress self_;
  AnalyzerConfig config_;
};

}  // namespace peerhood
