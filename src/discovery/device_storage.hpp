// DeviceStorage — the heart of dynamic device discovery (Ch. 3). With the
// Bridge address and Jump number the storage becomes an ad-hoc routing table
// ("the use of Bridge address and Jump number are the most relevant elements
// that transform the DeviceStorage into an Ad-hoc routing address table").
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/sim_time.hpp"
#include "discovery/device.hpp"
#include "discovery/route_policy.hpp"

namespace peerhood {

// One known device plus the best route to it.
struct DeviceRecord {
  DeviceInfo device;
  std::vector<Technology> prototypes;
  std::vector<ServiceInfo> services;

  // Routing information. Direct neighbours have jump == 0 (paper convention:
  // "Direct devices have jump number as 0") and a null bridge.
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

  // For direct records only: the neighbour's own neighbour list.
  std::vector<NeighbourLink> neighbour_links;

  [[nodiscard]] bool is_direct() const { return jump == 0; }
  [[nodiscard]] bool provides(std::string_view service_name) const;
  [[nodiscard]] std::optional<ServiceInfo> find_service(
      std::string_view service_name) const;
};

class DeviceStorage {
 public:
  explicit DeviceStorage(RoutePolicy policy = {}) : policy_{policy} {}

  // Inserts `record` or — when the device is already known — keeps the
  // preferable route per RoutePolicy. A record describing the *same* route
  // (equal jump and bridge) always refreshes the stored one. Returns true if
  // the stored state changed.
  bool upsert(DeviceRecord record);

  // Monotonic content generation: bumped whenever the *advertised* state of
  // the storage changes (membership, or any field shipped in a neighbourhood
  // snapshot entry). Liveness bookkeeping (last_seen, missed_loops) and
  // neighbour-link refreshes do not move it, so an unchanged storage keeps a
  // stable generation across inquiry rounds — the discovery plane compares
  // generations for equality to skip re-encoding and re-shipping snapshots.
  // u32 wraparound is safe: consumers never order generations.
  [[nodiscard]] std::uint32_t generation() const { return generation_; }

  // Refreshes liveness of `mac` (Fig. 3.12 time stamp) without touching
  // advertised content — the kNotModified fast path. No generation bump.
  // Returns false when the device is unknown.
  bool touch(MacAddress mac, SimTime now);

  // kNotModified still rides a fetch exchange, so the requester re-samples
  // RSSI (§3.4.1) every round exactly like a full fetch: updates a *direct*
  // record's measured link quality and liveness in place, bumping the
  // generation only when the quality actually changed. Returns false when
  // no direct record exists.
  bool refresh_direct(MacAddress mac, int quality, SimTime now);

  // Bumped whenever stored state gets *weaker*: a record is removed, or an
  // upsert replaces one with content the old record would have beaten under
  // the route policy (same-route refresh after the link degraded).
  // Integration of a neighbour's snapshot is not a pure function of that
  // snapshot — either event can make a previously rejected candidate route
  // win now — so the inquiry loop drops its neighbours-section baselines
  // whenever this moves and re-fetches full snapshots once, re-offering
  // every candidate.
  [[nodiscard]] std::uint32_t weakening_generation() const {
    return weakening_gen_;
  }

  [[nodiscard]] std::optional<DeviceRecord> find(MacAddress mac) const;
  // The stored record for `mac`, or nullptr — no copy. The pointer is valid
  // only until the next storage mutation (upsert, touch, refresh_direct,
  // remove, clear, aging, reconcile): read what you need from it before
  // anything can change the storage, and call find() for a copy instead.
  [[nodiscard]] const DeviceRecord* lookup(MacAddress mac) const;
  [[nodiscard]] bool contains(MacAddress mac) const;
  // True iff a *direct* record for `mac` is stored (no record copy — the
  // conditional-fetch hot path checks this per request).
  [[nodiscard]] bool contains_direct(MacAddress mac) const;
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }

  [[nodiscard]] std::vector<DeviceRecord> snapshot() const;
  [[nodiscard]] std::vector<DeviceRecord> direct_neighbours() const;

  // Visits every record (ascending MAC order) without copying — the
  // snapshot encoder walks the storage once per generation change.
  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    for (const auto& [mac, record] : records_) visit(record);
  }

  // Devices offering `service_name` (used by service reconnection, §5.2.2).
  [[nodiscard]] std::vector<DeviceRecord> providers_of(
      std::string_view service_name) const;

  void remove(MacAddress mac);
  void clear();

  // Ages direct records of `tech`: responders get refreshed timestamps; the
  // others accumulate missed loops and are dropped after `max_missed`.
  // Routed records whose bridge was dropped are removed in cascade. Returns
  // the macs removed. `responders` is binary-searched when it is in
  // ascending MAC order (inquiry results are) and scanned linearly if not.
  std::vector<MacAddress> age_direct(Technology tech,
                                     const std::vector<MacAddress>& responders,
                                     int max_missed, SimTime now);

  // Removes routed records that go through `bridge` (used both by aging and
  // when a bridge's snapshot no longer mentions a destination).
  void remove_routes_via(MacAddress bridge);

  // Drops routed records via `bridge` whose destination is not in `alive`
  // (the bridge's latest snapshot) — the bridge no longer knows them.
  // Allocation-free: `alive` is binary-searched when it is in ascending MAC
  // order (snapshots are) and scanned linearly if not.
  void reconcile_bridge(MacAddress bridge, const std::vector<MacAddress>& alive);

  [[nodiscard]] const RoutePolicy& policy() const { return policy_; }

 private:
  // True iff the two records advertise identically in a snapshot entry.
  [[nodiscard]] static bool advertised_equal(const DeviceRecord& a,
                                             const DeviceRecord& b);

  RoutePolicy policy_;
  std::map<MacAddress, DeviceRecord> records_;
  std::uint32_t generation_{1};
  std::uint32_t weakening_gen_{1};
};

}  // namespace peerhood
