#include "discovery/analyzer.hpp"

#include <algorithm>
#include <utility>

namespace peerhood {

int NeighbourhoodAnalyzer::integrate(
    DeviceStorage& storage, DeviceRecord direct_record,
    std::vector<NeighbourSnapshotEntry> snapshot, Technology tech,
    SimTime now) const {
  const MacAddress responder = direct_record.device.mac;
  const int responder_quality = direct_record.quality_sum;
  const int responder_mobility = mobility_cost(direct_record.device.mobility);

  // The responder's own direct neighbours become its neighbour-link list
  // (Fig. 3.2's second level) — consumed by handover state 0.
  direct_record.neighbour_links.clear();
  for (const NeighbourSnapshotEntry& entry : snapshot) {
    if (entry.jump == 0 && entry.device.mac != self_) {
      direct_record.neighbour_links.push_back(
          NeighbourLink{entry.device.mac, entry.quality_sum});
    }
  }
  direct_record.last_seen = now;
  direct_record.missed_loops = 0;
  int changed = storage.upsert(std::move(direct_record)) ? 1 : 0;

  if (!config_.propagate_routes) return changed;

  // Routes previously learned through this responder that it no longer
  // advertises are gone.
  std::vector<MacAddress> alive;
  alive.reserve(snapshot.size());
  for (const NeighbourSnapshotEntry& entry : snapshot) {
    alive.push_back(entry.device.mac);
  }
  storage.reconcile_bridge(responder, alive);

  for (NeighbourSnapshotEntry& entry : snapshot) {
    // "Own device comparison filter is used to avoid duplicated route."
    if (entry.device.mac == self_) continue;
    if (entry.device.mac == responder) continue;
    // Loop avoidance: ignore routes the responder built through us.
    if (entry.bridge == self_) continue;

    DeviceRecord candidate;
    candidate.device = std::move(entry.device);
    candidate.prototypes = std::move(entry.prototypes);
    candidate.services = std::move(entry.services);
    candidate.jump = entry.jump + 1;
    candidate.bridge = responder;
    candidate.route_mobility = responder_mobility;
    candidate.quality_sum = entry.quality_sum + responder_quality;
    candidate.min_link_quality =
        std::min(entry.min_link_quality, responder_quality);
    candidate.via_tech = tech;
    candidate.last_seen = now;
    if (storage.upsert(std::move(candidate))) ++changed;
  }
  return changed;
}

}  // namespace peerhood
