// Route preference policy (Fig. 3.13 + §3.4). When several routes reach the
// same device the discovery process keeps the "most efficient way":
//   1. fewer jumps (the connection cost parameter, §3.3),
//   2. lower first-hop mobility cost ({static,hybrid,dynamic}={0,1,3}),
//   3. higher summed link quality (Fig. 3.8),
// subject to every link clearing the minimum quality threshold (Fig. 3.9:
// "the route A-C-D won't be accepted due to A-C being lower than the minimum
// threshold 230").
#pragma once

#include "common/mac_address.hpp"
#include "common/sim_time.hpp"
#include "sim/radio.hpp"

namespace peerhood {

// A known route to one device: the numeric fields the policy ranks, how it
// was learned and when it was last confirmed. DeviceRecord extends it with
// the device's descriptors.
struct Route {
  // Direct neighbours have jump == 0 (paper convention: "Direct devices have
  // jump number as 0") and a null bridge.
  int jump{0};
  MacAddress bridge;
  // Mobility cost of the first-hop bridge ("only the nearest device's
  // mobility numbers are considered", §3.4.3); 0 for direct routes.
  int route_mobility{0};
  // Sum of link qualities along the route (Fig. 3.8) and the weakest link
  // (Fig. 3.9 admissibility).
  int quality_sum{0};
  int min_link_quality{0};
  Technology via_tech{Technology::kBluetooth};

  // Freshness bookkeeping (Fig. 3.12: "make older").
  SimTime last_seen{};
  int missed_loops{0};
};

struct RoutePolicy {
  // Every link must clear sim::LinkQualityModel::kDefaultThreshold, the
  // Fig. 3.9 / §5.2.1 admissibility threshold. When true, an admissible route always beats an inadmissible one; an
  // inadmissible route is still stored when it is the only way (the paper
  // prefers any connectivity over none).
  bool enforce_threshold{true};
  // Jump ceiling for stored routes; §3.4.2 recommends limiting jumps for
  // technologies with slow discovery ("a limitation of Num Jumps for moving
  // devices should be taken into account").
  int max_jumps{6};

  [[nodiscard]] bool admissible(const Route& route) const;

  // True when `candidate` should replace `stored` (same destination).
  [[nodiscard]] bool prefer(const Route& candidate, const Route& stored) const;
};

}  // namespace peerhood
