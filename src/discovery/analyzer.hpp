// AnalyzeNeighbourhoodDevices (Fig. 3.13): integrates the neighbourhood
// snapshot received from an inquiry responder into the local DeviceStorage —
// this is what upgrades two-jump vision into total environment awareness
// (§3.3). Distance-vector style: entries gain one jump and inherit the
// responder as bridge; the route policy keeps the most efficient way.
#pragma once

#include <algorithm>
#include <cassert>
#include <type_traits>
#include <vector>

#include "common/mac_address.hpp"
#include "common/sim_time.hpp"
#include "discovery/device_storage.hpp"

namespace peerhood {

// One entry of a responder's advertised DeviceStorage, owned. A requester
// integrates entries viewed in the received frame instead
// (wire::SnapshotEntryView); both expose the same fields and the two
// descriptor members below, so one integrate() serves both.
struct NeighbourSnapshotEntry {
  DeviceInfo device;
  std::vector<Technology> prototypes;
  std::vector<ServiceInfo> services;
  int jump{0};             // responder's jump count to this device
  MacAddress bridge;       // responder's bridge towards it (null if direct)
  int quality_sum{0};      // responder's summed route quality
  int min_link_quality{0}; // responder's weakest route link

  [[nodiscard]] bool same_descriptors(const DeviceRecord& record) const {
    return device == record.device && prototypes == record.prototypes &&
           services == record.services;
  }
  void copy_descriptors_to(DeviceRecord& record) const {
    record.device = device;
    record.prototypes = prototypes;
    record.services = services;
  }

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
  int integrate(DeviceStorage& storage, DeviceRecord direct_record,
                const std::vector<NeighbourSnapshotEntry>& snapshot,
                Technology tech, SimTime now) const {
    direct_record.last_seen = now;
    direct_record.missed_loops = 0;
    return integrate(storage, OwnedRecord{direct_record},
                     snapshot, tech, now);
  }

  // The same for any direct-record candidate (jump 0, measured quality,
  // liveness `now`) and any range of snapshot entries, such as a received
  // frame's entry views: each entry becomes a route candidate that carries
  // the entry's descriptors by reference, so a candidate that loses to the
  // stored route — or matches it — copies nothing.
  template <UpsertCandidate Direct, typename Entries>
  int integrate(DeviceStorage& storage, Direct&& direct,
                const Entries& snapshot, Technology tech, SimTime now) const;

  [[nodiscard]] MacAddress self() const { return self_; }
  [[nodiscard]] const AnalyzerConfig& config() const { return config_; }

 private:
  // A snapshot entry offered as a route through the responder.
  template <typename Entry>
  struct RouteVia {
    const Entry& entry;
    Route via;

    [[nodiscard]] MacAddress mac() const { return entry.device.mac; }
    [[nodiscard]] const Route& route() const { return via; }
    [[nodiscard]] bool same_descriptors(const DeviceRecord& stored) const {
      return entry.same_descriptors(stored);
    }
    void write(DeviceRecord& record, bool descriptors_changed) const {
      static_cast<Route&>(record) = via;
      record.neighbour_links.clear();
      if (descriptors_changed) entry.copy_descriptors_to(record);
    }
  };

  MacAddress self_;
  AnalyzerConfig config_;
};

template <UpsertCandidate Direct, typename Entries>
int NeighbourhoodAnalyzer::integrate(DeviceStorage& storage, Direct&& direct,
                                     const Entries& snapshot, Technology tech,
                                     SimTime now) const {
  const MacAddress responder = direct.mac();
  const int responder_quality = direct.route().quality_sum;
  int changed = storage.upsert(direct) ? 1 : 0;
  // A jump-0 route always wins (jumps dominate the policy), so the direct
  // record is stored now, with the candidate's descriptors.
  const DeviceRecord* stored = storage.lookup(responder);
  assert(stored != nullptr && stored->is_direct());
  const int responder_mobility = mobility_cost(stored->device.mobility);

  // The responder's own direct neighbours become its neighbour-link list
  // (Fig. 3.2's second level) — consumed by handover state 0.
  std::vector<NeighbourLink>& links = *storage.neighbour_links(responder);
  links.clear();
  for (const auto& entry : snapshot) {
    if (entry.jump == 0 && entry.device.mac != self_) {
      links.push_back(NeighbourLink{entry.device.mac, entry.quality_sum});
    }
  }

  if (!config_.propagate_routes) return changed;

  // Routes previously learned through this responder that it no longer
  // advertises are gone.
  storage.reconcile_bridge(responder, snapshot,
                           [](const auto& entry) { return entry.device.mac; });

  for (const auto& entry : snapshot) {
    // "Own device comparison filter is used to avoid duplicated route."
    if (entry.device.mac == self_) continue;
    if (entry.device.mac == responder) continue;
    // Loop avoidance: ignore routes the responder built through us.
    if (entry.bridge == self_) continue;

    Route via;
    via.jump = entry.jump + 1;
    via.bridge = responder;
    via.route_mobility = responder_mobility;
    via.quality_sum = entry.quality_sum + responder_quality;
    via.min_link_quality = std::min(entry.min_link_quality, responder_quality);
    via.via_tech = tech;
    via.last_seen = now;
    if (storage.upsert(RouteVia<std::remove_cvref_t<decltype(entry)>>{entry, via})) {
      ++changed;
    }
  }
  return changed;
}

}  // namespace peerhood
