#include "discovery/device_storage.hpp"

#include <algorithm>

namespace peerhood {

bool DeviceRecord::provides(std::string_view service_name) const {
  return find_service(service_name).has_value();
}

std::optional<ServiceInfo> DeviceRecord::find_service(
    std::string_view service_name) const {
  const auto it =
      std::find_if(services.begin(), services.end(),
                   [&](const ServiceInfo& s) { return s.name == service_name; });
  if (it == services.end()) return std::nullopt;
  return *it;
}

bool RoutePolicy::admissible(const Route& route) const {
  return route.min_link_quality >= sim::LinkQualityModel::kDefaultThreshold;
}

bool RoutePolicy::prefer(const Route& candidate, const Route& stored) const {
  // Fig. 3.13 comparison chain: jumps always dominate — in particular a
  // direct observation can never be displaced by a multi-hop route.
  if (candidate.jump != stored.jump) return candidate.jump < stored.jump;
  // Fig. 3.9: among routes with the same jump count, one whose weakest link
  // clears the minimum demanded quality beats one that does not ("the route
  // A-C-D won't be accepted due to A-C being lower than the minimum
  // threshold 230").
  if (enforce_threshold) {
    const bool cand_ok = admissible(candidate);
    const bool stored_ok = admissible(stored);
    if (cand_ok != stored_ok) return cand_ok;
  }
  if (candidate.route_mobility != stored.route_mobility) {
    return candidate.route_mobility < stored.route_mobility;
  }
  return candidate.quality_sum > stored.quality_sum;
}

bool DeviceStorage::advertised_route_equal(const Route& a, const Route& b) {
  // With the descriptors, exactly the fields wire::encode_snapshot_entry
  // ships (see the KEEP IN SYNC note there); liveness bookkeeping and the
  // neighbour-link list are local-only and must not churn the generation.
  return a.jump == b.jump && a.bridge == b.bridge &&
         a.quality_sum == b.quality_sum &&
         a.min_link_quality == b.min_link_quality;
}

bool DeviceStorage::upsert(DeviceRecord record) {
  return upsert(OwnedRecord{record});
}

bool DeviceStorage::touch(MacAddress mac, SimTime now) {
  const auto it = records_.find(mac);
  if (it == records_.end()) return false;
  it->second.last_seen = std::max(it->second.last_seen, now);
  it->second.missed_loops = 0;
  return true;
}

bool DeviceStorage::refresh_direct(MacAddress mac, int quality, SimTime now) {
  const auto it = records_.find(mac);
  if (it == records_.end() || !it->second.is_direct()) return false;
  DeviceRecord& record = it->second;
  if (record.quality_sum != quality || record.min_link_quality != quality) {
    // A drop in measured quality weakens the stored route exactly like a
    // policy-worse upsert: previously rejected alternatives could now win.
    if (quality < record.quality_sum || quality < record.min_link_quality) {
      ++weakening_gen_;
    }
    record.quality_sum = quality;
    record.min_link_quality = quality;
    bump_generation();
  }
  record.last_seen = std::max(record.last_seen, now);
  record.missed_loops = 0;
  return true;
}

std::optional<DeviceRecord> DeviceStorage::find(MacAddress mac) const {
  const auto it = records_.find(mac);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

const DeviceRecord* DeviceStorage::lookup(MacAddress mac) const {
  const auto it = records_.find(mac);
  return it == records_.end() ? nullptr : &it->second;
}

std::vector<NeighbourLink>* DeviceStorage::neighbour_links(MacAddress mac) {
  const auto it = records_.find(mac);
  if (it == records_.end() || !it->second.is_direct()) return nullptr;
  return &it->second.neighbour_links;
}

bool DeviceStorage::contains(MacAddress mac) const {
  return records_.contains(mac);
}

bool DeviceStorage::contains_direct(MacAddress mac) const {
  const auto it = records_.find(mac);
  return it != records_.end() && it->second.is_direct();
}

std::vector<DeviceRecord> DeviceStorage::snapshot() const {
  std::vector<DeviceRecord> out;
  out.reserve(records_.size());
  for (const auto& [mac, record] : records_) out.push_back(record);
  return out;
}

std::vector<DeviceRecord> DeviceStorage::direct_neighbours() const {
  std::vector<DeviceRecord> out;
  for (const auto& [mac, record] : records_) {
    if (record.is_direct()) out.push_back(record);
  }
  return out;
}

std::vector<DeviceRecord> DeviceStorage::providers_of(
    std::string_view service_name) const {
  std::vector<DeviceRecord> out;
  for (const auto& [mac, record] : records_) {
    if (record.provides(service_name)) out.push_back(record);
  }
  return out;
}

void DeviceStorage::remove(MacAddress mac) {
  if (records_.erase(mac) > 0) erased();
}

void DeviceStorage::clear() {
  if (!records_.empty()) erased();
  records_.clear();
}

std::vector<MacAddress> DeviceStorage::age_direct(
    Technology tech, const std::vector<MacAddress>& responders, int max_missed,
    SimTime now) {
  std::vector<MacAddress> removed;
  // Binary search per stored record instead of a linear std::find
  // (O(records * responders) at scale); an unsorted list still ages right.
  const bool sorted = std::is_sorted(responders.begin(), responders.end());
  for (auto it = records_.begin(); it != records_.end();) {
    DeviceRecord& record = it->second;
    if (!record.is_direct() || record.via_tech != tech) {
      ++it;
      continue;
    }
    if (listed(responders, sorted, record.device.mac, std::identity{})) {
      record.missed_loops = 0;
      record.last_seen = now;
      ++it;
      continue;
    }
    ++record.missed_loops;
    if (record.missed_loops > max_missed) {
      removed.push_back(record.device.mac);
      it = records_.erase(it);
      erased();
    } else {
      ++it;
    }
  }
  for (const MacAddress mac : removed) remove_routes_via(mac);
  return removed;
}

void DeviceStorage::remove_routes_via(MacAddress bridge) {
  for (auto it = records_.begin(); it != records_.end();) {
    if (!it->second.is_direct() && it->second.bridge == bridge) {
      it = records_.erase(it);
      erased();
    } else {
      ++it;
    }
  }
}

}  // namespace peerhood
