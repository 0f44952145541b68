// DeviceStorage — the heart of dynamic device discovery (Ch. 3). With the
// Bridge address and Jump number the storage becomes an ad-hoc routing table
// ("the use of Bridge address and Jump number are the most relevant elements
// that transform the DeviceStorage into an Ad-hoc routing address table").
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/sim_time.hpp"
#include "discovery/device.hpp"
#include "discovery/route_policy.hpp"

namespace peerhood {

// One known device plus the best route to it.
struct DeviceRecord : Route {
  DeviceInfo device;
  std::vector<Technology> prototypes;
  std::vector<ServiceInfo> services;

  // For direct records only: the neighbour's own neighbour list.
  std::vector<NeighbourLink> neighbour_links;

  [[nodiscard]] bool is_direct() const { return jump == 0; }
  [[nodiscard]] bool provides(std::string_view service_name) const;
  [[nodiscard]] std::optional<ServiceInfo> find_service(
      std::string_view service_name) const;
};

// A candidate for DeviceStorage::upsert: the route it offers to mac(), and
// the device's descriptors (device, prototypes, services) wherever they
// already are — an owned record, or a snapshot entry still in the frame that
// carried it. upsert compares the descriptors with the stored ones and asks
// write() to copy them only for a new device or a change.
//   write(record, descriptors_changed) stores route() into `record` (a
//   stored record being updated, or a fresh one being inserted, in which
//   case descriptors_changed is true) and, when descriptors_changed, the
//   descriptors too.
template <typename C>
concept UpsertCandidate = requires(C& candidate, const DeviceRecord& stored,
                                   DeviceRecord& record) {
  { candidate.mac() } -> std::same_as<MacAddress>;
  { candidate.route() } -> std::convertible_to<const Route&>;
  { candidate.same_descriptors(stored) } -> std::same_as<bool>;
  candidate.write(record, true);
};

// A DeviceRecord as an upsert candidate: an accepted record replaces the
// stored one whole (its neighbour links too), moving its descriptors.
struct OwnedRecord {
  DeviceRecord& record;

  [[nodiscard]] MacAddress mac() const { return record.device.mac; }
  [[nodiscard]] const Route& route() const { return record; }
  [[nodiscard]] bool same_descriptors(const DeviceRecord& stored) const {
    return record.device == stored.device &&
           record.prototypes == stored.prototypes &&
           record.services == stored.services;
  }
  void write(DeviceRecord& target, bool) { target = std::move(record); }
};

class DeviceStorage {
 public:
  explicit DeviceStorage(RoutePolicy policy = {}) : policy_{policy} {}

  // Inserts `record` or — when the device is already known — keeps the
  // preferable route per RoutePolicy. A record describing the *same* route
  // (equal jump and bridge) always refreshes the stored one. Returns true if
  // the stored state changed.
  bool upsert(DeviceRecord record);
  // The same upsert for any candidate: the policy ranks the numeric route
  // fields, and an accepted candidate updates the stored record in place,
  // writing descriptors only when they differ (a re-shipped snapshot entry
  // almost always matches what is stored, and then nothing is copied).
  template <UpsertCandidate Candidate>
  bool upsert(Candidate&& candidate);

  // Monotonic content generation: bumped whenever the *advertised* state of
  // the storage changes (membership, or any field shipped in a neighbourhood
  // snapshot entry). Liveness bookkeeping (last_seen, missed_loops) and
  // neighbour-link refreshes do not move it, so an unchanged storage keeps a
  // stable generation across inquiry rounds — the discovery plane compares
  // generations for equality to skip re-encoding and re-shipping snapshots.
  // u32 wraparound is safe: consumers never order generations. It starts
  // at 1 and skips 0 when it wraps.
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
  // The neighbour-link list of the direct record for `mac`, or nullptr. The
  // links are local bookkeeping that no snapshot advertises, so callers
  // rewrite them in place and no generation moves.
  [[nodiscard]] std::vector<NeighbourLink>* neighbour_links(MacAddress mac);
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
  // (the bridge's latest snapshot; `mac_of` maps an element to its MAC) —
  // the bridge no longer knows them. Allocation-free: `alive` is
  // binary-searched when it is in ascending MAC order (snapshots are) and
  // scanned linearly if not.
  template <typename Alive = std::vector<MacAddress>,
            typename MacOf = std::identity>
  void reconcile_bridge(MacAddress bridge, const Alive& alive,
                        MacOf mac_of = {});

  [[nodiscard]] const RoutePolicy& policy() const { return policy_; }

 private:
  // Membership test for a MAC list (`mac_of` maps an element to its MAC)
  // that is sorted in the common case — inquiry results and snapshots both
  // come in ascending MAC order — but may be in any order when it comes off
  // the wire.
  template <typename Range, typename MacOf>
  [[nodiscard]] static bool listed(const Range& macs, bool sorted,
                                   MacAddress mac, MacOf mac_of) {
    return sorted ? std::ranges::binary_search(macs, mac, {}, mac_of)
                  : std::ranges::find(macs, mac, mac_of) != macs.end();
  }
  // True iff the two routes advertise identically in a snapshot entry (the
  // descriptors are compared by the candidate).
  [[nodiscard]] static bool advertised_route_equal(const Route& a,
                                                   const Route& b);
  // Counts a removed record: both generations move.
  void erased() {
    bump_generation();
    ++weakening_gen_;
  }
  // Generation 0 is never advertised, also after a wrap: a requester names
  // it (wire::kNoGeneration) to have the neighbours section shipped.
  void bump_generation() {
    if (++generation_ == 0) generation_ = 1;
  }

  RoutePolicy policy_;
  std::map<MacAddress, DeviceRecord> records_;
  std::uint32_t generation_{1};
  std::uint32_t weakening_gen_{1};
};

template <UpsertCandidate Candidate>
bool DeviceStorage::upsert(Candidate&& candidate) {
  // A copy: an owned candidate's write() moves the record route() views.
  const Route route = candidate.route();
  if (route.jump > policy_.max_jumps) return false;
  const MacAddress mac = candidate.mac();
  auto it = records_.lower_bound(mac);
  if (it == records_.end() || it->first != mac) {
    it = records_.emplace_hint(it, mac, DeviceRecord{});
    candidate.write(it->second, true);
    bump_generation();
    return true;
  }
  DeviceRecord& stored = it->second;
  const bool same_route =
      route.jump == stored.jump && route.bridge == stored.bridge;
  if (!same_route && !policy_.prefer(route, stored)) {
    // Keep the stored route, but refresh liveness: seeing *any* route to
    // the device proves it exists.
    stored.last_seen = std::max(stored.last_seen, route.last_seen);
    return false;
  }
  const bool same_descriptors = candidate.same_descriptors(stored);
  if (!same_descriptors || !advertised_route_equal(route, stored)) {
    bump_generation();
    // A record that got *worse* (the old content would still win under the
    // policy) can un-dominate previously rejected candidates, exactly like
    // a removal: flag it so baselines are dropped and alternatives
    // re-offered.
    if (policy_.prefer(stored, route)) ++weakening_gen_;
  }
  candidate.write(stored, !same_descriptors);
  return true;
}

template <typename Alive, typename MacOf>
void DeviceStorage::reconcile_bridge(MacAddress bridge, const Alive& alive,
                                     MacOf mac_of) {
  const bool sorted = std::ranges::is_sorted(alive, {}, mac_of);
  for (auto it = records_.begin(); it != records_.end();) {
    const DeviceRecord& record = it->second;
    if (!record.is_direct() && record.bridge == bridge &&
        !listed(alive, sorted, record.device.mac, mac_of)) {
      it = records_.erase(it);
      erased();
    } else {
      ++it;
    }
  }
}

}  // namespace peerhood
