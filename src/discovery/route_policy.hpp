// Route preference policy (Fig. 3.13 + §3.4). When several routes reach the
// same device the discovery process keeps the "most efficient way":
//   1. fewer jumps (the connection cost parameter, §3.3),
//   2. lower first-hop mobility cost ({static,hybrid,dynamic}={0,1,3}),
//   3. higher summed link quality (Fig. 3.8),
// subject to every link clearing the minimum quality threshold (Fig. 3.9:
// "the route A-C-D won't be accepted due to A-C being lower than the minimum
// threshold 230").
#pragma once

#include "sim/radio.hpp"

namespace peerhood {

struct DeviceRecord;  // defined in device_storage.hpp

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

  [[nodiscard]] bool admissible(const DeviceRecord& record) const;

  // True when `candidate` should replace `stored` (same destination).
  [[nodiscard]] bool prefer(const DeviceRecord& candidate,
                            const DeviceRecord& stored) const;
};

}  // namespace peerhood
