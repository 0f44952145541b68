// Test-support oracle: the pre-grid neighbour query, a linear scan that
// asks every endpoint's mobility model for its position (one virtual
// position_at call each — no grid, no position cache).
//
// The grid parity tests compare RadioMedium::in_range_of against it, and
// bench_medium_scale uses it as the brute-force baseline. It runs over the
// caller's own (mac, mobility) list, so it shares no state with the medium
// it checks. It lives under tests/ (bench targets get tests/ on their
// include path) so no production header carries it.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "common/mac_address.hpp"
#include "common/sim_time.hpp"
#include "sim/mobility.hpp"

namespace peerhood::sim {

struct ReferenceEndpoint {
  MacAddress mac;
  std::shared_ptr<const MobilityModel> mobility;
};

// Endpoints of `endpoints` (other than `origin`) within `range_m` of
// `origin` at `now`, in ascending MAC order — the ordering contract of
// RadioMedium::in_range_of. Empty when `origin` is not in the list.
inline std::vector<MacAddress> in_range_of_brute(
    const std::vector<ReferenceEndpoint>& endpoints, MacAddress origin,
    double range_m, SimTime now) {
  std::vector<MacAddress> out;
  const auto self = std::find_if(
      endpoints.begin(), endpoints.end(),
      [origin](const ReferenceEndpoint& e) { return e.mac == origin; });
  if (self == endpoints.end()) return out;
  const Vec2 at = self->mobility->position_at(now);
  for (const ReferenceEndpoint& endpoint : endpoints) {
    if (endpoint.mac == origin) continue;
    const Vec2 pos = endpoint.mobility->position_at(now);
    const double dx = at.x - pos.x;
    const double dy = at.y - pos.y;
    if (dx * dx + dy * dy <= range_m * range_m) out.push_back(endpoint.mac);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace peerhood::sim
