#include "sim/medium.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace peerhood::sim {

namespace {
// An observed link is re-evaluated at most once per interval no matter how
// many events advance the clock.
constexpr SimDuration kObserverMinInterval = std::chrono::milliseconds{100};
// Horizons further out than this are cut to it (no SimTime overflow).
constexpr double kMaxQuietS = 1e9;
}  // namespace

RadioMedium::RadioMedium(Simulator& sim, LinkQualityModel quality_model)
    : sim_{sim}, quality_model_{quality_model}, noise_rng_{sim.fork_rng()} {
  for (const Technology tech : {Technology::kBluetooth, Technology::kWlan,
                                Technology::kGprs}) {
    configure(default_params(tech));
  }
  time_observer_ = sim_.add_time_observer([this] {
    ++position_gen_;
    // Push path of the quality plane: observers attached to endpoints that
    // can have moved are re-checked here, once per distinct SimTime.
    evaluate_quality_observers();
  });
}

RadioMedium::~RadioMedium() { sim_.remove_time_observer(time_observer_); }

std::size_t RadioMedium::tech_index(Technology tech) {
  const auto index = static_cast<std::size_t>(tech);
  assert(index < kTechnologyCount);
  return index;
}

bool RadioMedium::within_range(Vec2 a, Vec2 b, double range_m) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy <= range_m * range_m;
}

RadioMedium::TechState& RadioMedium::state(Technology tech) const {
  return tech_[tech_index(tech)];
}

void RadioMedium::configure(const TechnologyParams& params) {
  assert(params.range_m > 0.0);
  TechState& ts = state(params.tech);
  ts.params = params;
  if (ts.grid.cell_size() != params.range_m) {
    ts.grid.set_cell_size(params.range_m);
  }
  ts.grid_gen = 0;  // force a rebuild on the next query
  bump_horizon_epoch();
}

const TechnologyParams& RadioMedium::params(Technology tech) const {
  return state(tech).params;
}

void RadioMedium::register_endpoint(
    MacAddress mac, Technology tech,
    std::shared_ptr<const MobilityModel> mobility, FrameHandler handler) {
  assert(mobility != nullptr);
  Endpoint endpoint;
  endpoint.mac = mac;
  endpoint.tech = tech;
  endpoint.is_static = mobility->is_static();
  endpoint.max_speed = mobility->max_speed();
  endpoint.mobility = std::move(mobility);
  endpoint.handler = std::move(handler);
  TechState& ts = state(tech);
  // Re-registration may swap the mobility model; retire the old entry's
  // mobile-list slot first (the map node — and thus the pointer and its
  // index slot — is reused by insert_or_assign below).
  if (const Endpoint* existing = find(mac, tech);
      existing != nullptr && !existing->is_static) {
    std::erase(ts.mobiles, existing);
  }
  const auto [it, inserted] =
      endpoints_.insert_or_assign(key(mac, tech), std::move(endpoint));
  if (inserted) index_insert(it->first, &it->second);
  if (!it->second.is_static) ts.mobiles.push_back(&it->second);
  // A built grid (current or stale) is maintained incrementally: a stale one
  // is only ever *refreshed* on the next query, so every registered endpoint
  // must already have an entry.
  if (ts.grid_gen != 0) {
    const Vec2 at = cached_position(it->second);
    ts.grid.insert(mac.as_u64(), at, &it->second);
    it->second.grid_position = at;
  }
  next_walk_ = SimTime::zero();
  bump_horizon_epoch();
  // Observers may outlive endpoint churn: re-attach any that watch a link
  // touching the (re-)registered endpoint. insert_or_assign wiped the old
  // watcher list, so this rebuild is what keeps them firing.
  if (live_observers_ > 0) {
    for (std::uint32_t index = 0;
         index < static_cast<std::uint32_t>(observers_.size()); ++index) {
      const QualityObserver& obs = observers_[index];
      if (obs.live && obs.tech == tech && (obs.a == mac || obs.b == mac)) {
        attach_watcher(index);
      }
    }
  }
}

void RadioMedium::unregister_endpoint(MacAddress mac, Technology tech) {
  const auto it = endpoints_.find(key(mac, tech));
  if (it == endpoints_.end()) return;
  TechState& ts = state(tech);
  if (!it->second.is_static) std::erase(ts.mobiles, &it->second);
  index_erase(it->first);
  endpoints_.erase(it);
  // Always evict: the grid must never hold a dangling payload.
  ts.grid.remove(mac.as_u64());
  next_walk_ = SimTime::zero();
  bump_horizon_epoch();
}

bool RadioMedium::has_endpoint(MacAddress mac, Technology tech) const {
  return find(mac, tech) != nullptr;
}

std::size_t RadioMedium::home_slot(std::uint64_t k) const {
  // Fibonacci hashing: the top bits of the product spread the consecutive
  // MACs tests and scenarios hand out across the whole table.
  return static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ULL) >>
                                  index_shift_);
}

RadioMedium::Endpoint* RadioMedium::find(MacAddress mac,
                                         Technology tech) const {
  const std::uint64_t k = key(mac, tech);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home_slot(k);; i = (i + 1) & mask) {
    const IndexSlot& slot = index_[i];
    if (slot.endpoint == nullptr) return nullptr;
    if (slot.key == k) return slot.endpoint;
  }
}

void RadioMedium::index_insert(std::uint64_t k, Endpoint* endpoint) {
  // Kept at most half full, so a probe run ends at an empty slot soon.
  if (2 * endpoints_.size() > index_.size()) {
    // Double, and re-place every endpoint (the new one included).
    index_.assign(2 * index_.size(), IndexSlot{});
    --index_shift_;
    for (auto& [other_key, other] : endpoints_) place(other_key, &other);
    return;
  }
  place(k, endpoint);
}

void RadioMedium::place(std::uint64_t k, Endpoint* endpoint) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home_slot(k);
  while (index_[i].endpoint != nullptr) i = (i + 1) & mask;
  index_[i] = {k, endpoint};
}

void RadioMedium::index_erase(std::uint64_t k) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = home_slot(k);
  while (index_[hole].key != k || index_[hole].endpoint == nullptr) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless that would move it before its home slot.
  for (std::size_t i = (hole + 1) & mask; index_[i].endpoint != nullptr;
       i = (i + 1) & mask) {
    const std::size_t probe_distance = (i - home_slot(index_[i].key)) & mask;
    if (probe_distance >= ((i - hole) & mask)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole] = IndexSlot{};
}

Vec2 RadioMedium::cached_position(const Endpoint& endpoint) const {
  if (endpoint.cached_gen != position_gen_) {
    // Static endpoints are sampled exactly once (cached_gen 0): their model
    // returns the same point forever, so only the tag needs refreshing.
    if (!endpoint.is_static || endpoint.cached_gen == 0) {
      endpoint.cached_position = endpoint.mobility->position_at(sim_.now());
    }
    endpoint.cached_gen = position_gen_;
  }
  return endpoint.cached_position;
}

void RadioMedium::ensure_grid(TechState& ts) const {
  if (ts.grid_gen == position_gen_) return;
  // Bring every stale grid current in (at most) one pass over the endpoint
  // map, so a tick that queries several technologies still pays one scan.
  //
  // Three per-technology regimes:
  //  * never built / params changed (grid_gen 0): wholesale rebuild — the
  //    only case that walks the whole endpoint map (one pass for all such
  //    technologies);
  //  * built, but no mobile endpoints: nothing can have moved — revalidate
  //    in O(1) without touching any endpoint;
  //  * built with mobiles: refresh the per-tech mobile list only — statics
  //    are never visited, and of the mobiles only ones whose position
  //    actually changed touch their cells (same-cell moves just rewrite the
  //    stored point).
  bool full_rebuild = false;
  for (TechState& stale : tech_) {
    if (stale.grid_gen == position_gen_) continue;
    if (stale.grid_gen == 0) {
      stale.grid.clear();
      full_rebuild = true;
    }
  }
  if (full_rebuild) {
    for (const auto& [k, endpoint] : endpoints_) {
      TechState& owner = tech_[tech_index(endpoint.tech)];
      if (owner.grid_gen != 0) continue;
      const Vec2 at = cached_position(endpoint);
      owner.grid.insert(endpoint.mac.as_u64(), at, &endpoint);
      endpoint.grid_position = at;
    }
  }
  for (TechState& stale : tech_) {
    if (stale.grid_gen == position_gen_ || stale.grid_gen == 0) continue;
    for (const Endpoint* endpoint : stale.mobiles) {
      const Vec2 fresh = cached_position(*endpoint);
      if (fresh == endpoint->grid_position) continue;
      stale.grid.update(endpoint->mac.as_u64(), fresh);
      endpoint->grid_position = fresh;
    }
  }
  for (TechState& stale : tech_) stale.grid_gen = position_gen_;
}

void RadioMedium::set_inquiring(MacAddress mac, Technology tech,
                                bool inquiring) {
  if (Endpoint* e = find(mac, tech)) e->inquiring = inquiring;
}

void RadioMedium::set_peerhood_tag(MacAddress mac, Technology tech,
                                   bool tagged) {
  if (Endpoint* e = find(mac, tech)) e->peerhood_tag = tagged;
}

bool RadioMedium::peerhood_tag(MacAddress mac, Technology tech) const {
  const Endpoint* e = find(mac, tech);
  return e != nullptr && e->peerhood_tag;
}

bool RadioMedium::in_range(MacAddress a, MacAddress b, Technology tech) const {
  const Endpoint* ea = find(a, tech);
  const Endpoint* eb = find(b, tech);
  if (ea == nullptr || eb == nullptr) return false;
  return within_range(cached_position(*ea), cached_position(*eb),
                      params(tech).range_m);
}

std::optional<SimTime> RadioMedium::in_range_until(MacAddress a,
                                                  MacAddress b,
                                                  Technology tech) const {
  const Endpoint* ea = find(a, tech);
  const Endpoint* eb = find(b, tech);
  if (ea == nullptr || eb == nullptr) return std::nullopt;
  const Vec2 a_at = cached_position(*ea);
  const Vec2 b_at = cached_position(*eb);
  const double range = params(tech).range_m;
  if (!within_range(a_at, b_at, range)) return std::nullopt;
  return range_until(*ea, a_at, *eb, b_at, range);
}

SimTime RadioMedium::quiet_until(SimTime now, const Endpoint& ea,
                                 const Endpoint& eb, double margin_m) {
  // Each end may stray kPositionSlackM beyond its speed bound.
  const double reach_m = margin_m - 2.0 * kPositionSlackM;
  // NaN (infinite reach at infinite speed) proves nothing either.
  const double quiet_s = reach_m / (ea.max_speed + eb.max_speed);
  if (!(quiet_s > 0.0)) return now;
  return now + SimDuration{static_cast<SimDuration::rep>(
                   std::min(quiet_s, kMaxQuietS) * 1e6)};
}

double RadioMedium::base_quality(Technology tech, double distance_m) const {
  ++quality_stats_.evaluations;
  return quality_model_.base_quality(distance_m, state(tech).params.range_m);
}

double RadioMedium::quiet_margin(const QualityObserver& obs,
                                 double distance_m) const {
  // Qualities in [lo, hi] keep the detector still: live or dead as now,
  // and no lower than the threshold while above it, no higher than
  // threshold + hysteresis while below it.
  int lo = obs.in_range ? 1 : 0;
  int hi = obs.in_range ? LinkQualityModel::q_max : 0;
  if (obs.below) {
    hi = std::min(hi, obs.threshold + kQualityHysteresis);
  } else {
    lo = std::max(lo, obs.threshold);
  }
  const double range = state(obs.tech).params.range_m;
  const auto quality_at = [&](double d) {
    return quality_model_.finalize(quality_model_.base_quality(d, range),
                                   nullptr);
  };
  // finalize() rounds to nearest: quality >= level takes a base of at least
  // level - 0.5, and quality >= 1 any live base.
  const auto edge = [&](int level) {
    return quality_model_.reach(level <= 1 ? 0.0 : level - 0.5, range);
  };
  // Quality never rises with distance, so each band end is proven by one
  // check of quality_at a slack inside the solved edge: what holds there
  // holds on the band's side of it. A failed check proves nothing.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double far = kInf;  // quality >= lo up to here
  if (lo > 0) {
    far = edge(lo) - kPositionSlackM;
    if (!(far >= 0.0) || quality_at(far) < lo) far = -kInf;
  }
  double near = -kInf;  // quality <= hi from here on
  if (hi < LinkQualityModel::q_max) {
    near = std::max(edge(hi + 1), 0.0) + kPositionSlackM;
    if (quality_at(near) > hi) near = kInf;
  }
  return std::min(distance_m - near, far - distance_m);
}

int RadioMedium::sample_quality(MacAddress a, MacAddress b, Technology tech) {
  const Endpoint* ea = find(a, tech);
  const Endpoint* eb = find(b, tech);
  if (ea == nullptr || eb == nullptr) return 0;
  const double d = sim::distance(cached_position(*ea), cached_position(*eb));
  return quality_model_.finalize(base_quality(tech, d), &noise_rng_);
}

QualityObserverId RadioMedium::observe_quality(MacAddress a, MacAddress b,
                                               Technology tech, int threshold,
                                               QualityHandler handler) {
  std::uint32_t index;
  if (!observer_free_.empty()) {
    index = observer_free_.back();
    observer_free_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(observers_.size());
    observers_.emplace_back();
  }
  QualityObserver& obs = observers_[index];
  ++obs.gen;  // stale ids from the slot's previous life stop resolving
  obs.live = true;
  obs.a = a;
  obs.b = b;
  obs.tech = tech;
  obs.threshold = threshold;
  obs.handler = handler
                    ? std::make_shared<const QualityHandler>(std::move(handler))
                    : nullptr;
  obs.below = false;
  obs.in_range = false;
  obs.next_eval = SimTime::zero();
  obs.eval_gen = 0;
  obs.quiet_epoch = 0;
  ++live_observers_;
  next_walk_ = SimTime::zero();
  attach_watcher(index);
  // Prime the edge detector against the current link state; deliberately
  // silent — only crossings *after* subscription are pushed.
  evaluate_observer(index, sim_.now(), /*emit=*/false);
  return (static_cast<QualityObserverId>(observers_[index].gen) << 32) |
         (index + 1);
}

void RadioMedium::unobserve_quality(QualityObserverId id) {
  if (id == kInvalidQualityObserver) return;
  const std::uint64_t slot = id & 0xffffffffULL;
  if (slot == 0 || slot > observers_.size()) return;
  const auto index = static_cast<std::uint32_t>(slot - 1);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  QualityObserver& obs = observers_[index];
  if (!obs.live || obs.gen != gen) return;  // stale or repeated unsubscribe
  obs.live = false;
  // Release the captures now; a dispatch in progress still holds its pin.
  obs.handler.reset();
  --live_observers_;
  next_walk_ = SimTime::zero();
  observer_free_.push_back(index);
  // Watcher-list entries are dropped lazily by the per-tick walk.
}

void RadioMedium::attach_watcher(std::uint32_t index) {
  const QualityObserver& obs = observers_[index];
  for (const MacAddress mac : {obs.a, obs.b}) {
    const Endpoint* e = find(mac, obs.tech);
    if (e == nullptr) continue;
    if (std::find(e->watchers.begin(), e->watchers.end(), index) ==
        e->watchers.end()) {
      e->watchers.push_back(index);
    }
  }
}

void RadioMedium::evaluate_quality_observers() {
  const SimTime now = sim_.now();
  if (live_observers_ == 0 || now < next_walk_) return;
  // A callback that (un)subscribes resets next_walk_ to zero, and the min
  // below keeps it there.
  next_walk_ = SimTime{SimDuration::max()};
  for (TechState& ts : tech_) {
    // Only endpoints that can have moved are walked: a subscriber set full
    // of static-static links costs nothing per tick. Index loops + lazy
    // dead-entry eviction keep this safe against reentrant subscribe /
    // unsubscribe from inside a callback (callbacks must not, however,
    // register or unregister endpoints — see observe_quality).
    for (std::size_t m = 0; m < ts.mobiles.size(); ++m) {
      const Endpoint* e = ts.mobiles[m];
      auto& watchers = e->watchers;
      for (std::size_t i = 0; i < watchers.size();) {
        const std::uint32_t index = watchers[i];
        const QualityObserver* obs =
            index < observers_.size() ? &observers_[index] : nullptr;
        const bool valid = obs != nullptr && obs->live &&
                           obs->tech == e->tech &&
                           (obs->a == e->mac || obs->b == e->mac);
        if (!valid) {
          watchers[i] = watchers.back();
          watchers.pop_back();
          continue;
        }
        ++i;
        // Dedupe (a link whose both ends are mobile is visited twice) and
        // rate-limit; both checks are O(1), no quality math.
        if (obs->eval_gen != position_gen_ && now >= obs->next_eval) {
          evaluate_observer(index, now, /*emit=*/true);
        }
        // Re-read: a callback may have grown observers_.
        next_walk_ = std::min(next_walk_, observers_[index].next_eval);
      }
    }
  }
}

LinkQualityEvent RadioMedium::probe_link(MacAddress a, MacAddress b,
                                         Technology tech) const {
  LinkQualityEvent event{.a = a, .b = b, .tech = tech, .at = sim_.now()};
  const Endpoint* ea = find(a, tech);
  const Endpoint* eb = find(b, tech);
  if (ea == nullptr || eb == nullptr) return event;
  measure_link(*ea, *eb, event);
  add_link_motion(*ea, *eb, event);
  return event;
}

void RadioMedium::measure_link(const Endpoint& ea, const Endpoint& eb,
                               LinkQualityEvent& event) const {
  event.distance_m = (cached_position(ea) - cached_position(eb)).norm();
  event.quality = quality_model_.finalize(
      base_quality(event.tech, event.distance_m), nullptr);
}

void RadioMedium::add_link_motion(const Endpoint& ea, const Endpoint& eb,
                                  LinkQualityEvent& event) const {
  // Signed slope from the models' velocities: project the relative
  // velocity onto the separation axis, then difference the path-loss
  // curve one second of radial motion ahead (clamped to the coverage).
  const Vec2 rel = cached_position(ea) - cached_position(eb);
  const Vec2 vrel =
      ea.mobility->velocity_at(event.at) - eb.mobility->velocity_at(event.at);
  event.radial_speed_mps =
      event.distance_m > 1e-9
          ? (rel.x * vrel.x + rel.y * vrel.y) / event.distance_m
          : vrel.norm();
  // A dead link has no meaningful quality slope: the ahead-point would
  // clamp back inside coverage and report a phantom recovery.
  if (event.quality > 0) {
    const double range = state(event.tech).params.range_m;
    const double ahead =
        std::clamp(event.distance_m + event.radial_speed_mps, 0.0, range);
    const double base_ahead = quality_model_.base_quality(ahead, range);
    event.slope_per_s =
        static_cast<double>(quality_model_.finalize(base_ahead, nullptr)) -
        static_cast<double>(event.quality);
  }
}

void RadioMedium::evaluate_observer(std::uint32_t index, SimTime now,
                                    bool emit) {
  QualityObserver& obs = observers_[index];
  const std::uint32_t gen = obs.gen;
  obs.eval_gen = position_gen_;
  obs.next_eval = now + kObserverMinInterval;
  ++quality_stats_.observer_evals;
  // Proven quiet: a measurement would leave the detector where it is.
  if (obs.quiet_epoch == horizon_epoch_ && now <= obs.quiet_until) return;

  LinkQualityEvent event{.a = obs.a, .b = obs.b, .tech = obs.tech, .at = now};
  const Endpoint* ea = find(obs.a, obs.tech);
  const Endpoint* eb = find(obs.b, obs.tech);
  const bool linked = ea != nullptr && eb != nullptr;
  if (linked) measure_link(*ea, *eb, event);
  const bool in_range = event.quality > 0;

  const bool was_in = obs.in_range;
  const bool was_below = obs.below;
  bool below = was_below;
  if (event.quality < obs.threshold) {
    below = true;
  } else if (event.quality > obs.threshold + kQualityHysteresis) {
    below = false;
  }
  // Commit the detector state and its quiet horizon before dispatch: the
  // callback may unsubscribe this observer or subscribe new ones (which
  // reallocates observers_). A missing endpoint keeps the link dead until
  // a registration, which bumps the epoch.
  obs.in_range = in_range;
  obs.below = below;
  obs.quiet_epoch = horizon_epoch_;
  obs.quiet_until =
      linked ? quiet_until(now, *ea, *eb, quiet_margin(obs, event.distance_m))
             : SimTime{SimDuration::max()};
  if (!emit) return;

  using Edge = LinkQualityEvent::Edge;
  Edge edges[2];
  std::size_t edge_count = 0;
  if (was_in && !in_range) {
    edges[edge_count++] = Edge::kLost;
  } else if (!was_in && in_range) {
    edges[edge_count++] = Edge::kRestored;
    if (below) edges[edge_count++] = Edge::kFell;
  } else if (in_range) {
    if (!was_below && below) edges[edge_count++] = Edge::kFell;
    if (was_below && !below) edges[edge_count++] = Edge::kRose;
  }
  if (edge_count == 0) return;
  // Only a pushed crossing carries motion; both endpoints are still
  // registered, since callbacks have not run yet.
  if (linked) add_link_motion(*ea, *eb, event);

  for (std::size_t i = 0; i < edge_count; ++i) {
    // Pin-before-call (HandlerSlot discipline): the callback may
    // unsubscribe, resubscribe, or destroy its owning controller.
    const auto handler = observers_[index].handler;
    if (handler == nullptr || !*handler) return;
    event.edge = edges[i];
    ++quality_stats_.events_emitted;
    (*handler)(event);
    // The callback may have retired or recycled this slot; stop if so.
    if (index >= observers_.size() || !observers_[index].live ||
        observers_[index].gen != gen) {
      return;
    }
  }
}

void RadioMedium::collect_in_range(const Endpoint& origin, TechState& ts,
                                   std::vector<const Endpoint*>& out) const {
  ensure_grid(ts);
  const Vec2 at = cached_position(origin);
  const double range = ts.params.range_m;
  ts.grid.visit_block(at, [&](const SpatialGrid::Entry& entry) {
    const auto* e = static_cast<const Endpoint*>(entry.payload);
    if (e == &origin) return;
    // entry.position was sampled at the grid's generation == current
    // generation, so it matches cached_position(*e) exactly.
    if (within_range(at, entry.position, range)) out.push_back(e);
  });
  std::sort(out.begin(), out.end(), [](const Endpoint* a, const Endpoint* b) {
    return a->mac < b->mac;
  });
}

std::vector<MacAddress> RadioMedium::in_range_of(MacAddress mac,
                                                 Technology tech) const {
  std::vector<MacAddress> out;
  const Endpoint* origin = find(mac, tech);
  if (origin == nullptr) return out;
  std::vector<const Endpoint*> hits;
  collect_in_range(*origin, state(tech), hits);
  out.reserve(hits.size());
  for (const Endpoint* e : hits) out.push_back(e->mac);
  return out;
}

std::vector<MacAddress> RadioMedium::discoverable_in_range(
    MacAddress mac, Technology tech) const {
  std::vector<MacAddress> out;
  const Endpoint* origin = find(mac, tech);
  if (origin == nullptr) return out;
  TechState& ts = state(tech);
  const bool asymmetric = ts.params.asymmetric_discovery;
  std::vector<const Endpoint*> hits;
  collect_in_range(*origin, ts, hits);
  out.reserve(hits.size());
  // A blackout partition silences inquiry responses across the cut too —
  // otherwise discovery would keep "seeing" devices no frame can reach.
  for (const Endpoint* e : hits) {
    // Bluetooth asymmetry: a device busy inquiring does not answer inquiries.
    if (asymmetric && e->inquiring) continue;
    if (link_blacked_out(mac, e->mac)) continue;
    out.push_back(e->mac);
  }
  return out;
}

LinkFaultModel& RadioMedium::fault_plane() {
  if (faults_ == nullptr) {
    faults_ = std::make_unique<LinkFaultModel>(sim_.fork_rng());
  }
  return *faults_;
}

bool RadioMedium::link_blacked_out(MacAddress a, MacAddress b) const {
  return faults_ != nullptr && faults_->blacked_out(a, b, sim_.now());
}

void RadioMedium::send_frame(MacAddress from, MacAddress to, Technology tech,
                             FramePtr frame) {
  assert(frame != nullptr);
  ++stats_.frames;
  stats_.frame_bytes += frame->size();
  const TechnologyParams& p = params(tech);
  const Endpoint* from_e = find(from, tech);
  const Endpoint* to_e = find(to, tech);
  if (from_e == nullptr || to_e == nullptr) {
    ++stats_.drops;
    return;
  }
  const Vec2 from_at = cached_position(*from_e);
  const Vec2 to_at = cached_position(*to_e);
  if (!within_range(from_at, to_at, p.range_m)) {
    ++stats_.drops;
    return;
  }
  FaultDecision fault{};
  if (faults_ != nullptr) {
    // Degradation for the quality coupling: 0 at full quality, 1 at the
    // coverage edge (out-of-range frames never reach this point).
    const double base = base_quality(tech, sim::distance(from_at, to_at));
    const double span = std::max(
        1.0, static_cast<double>(quality_model_.q_max - quality_model_.q_edge));
    const double degradation = std::clamp(
        (static_cast<double>(quality_model_.q_max) - base) / span, 0.0, 1.0);
    fault = faults_->judge(from, to, tech, degradation, sim_.now());
    if (fault.drop) {
      ++stats_.drops;
      return;
    }
    if (fault.corrupt) {
      // Never mutate the shared buffer — other queued deliveries (and the
      // sender's cache) may reference the same allocation.
      Bytes mangled = *frame;
      faults_->corrupt(mangled);
      frame = std::make_shared<const Bytes>(std::move(mangled));
    }
  }

  const SimDuration tx_time =
      seconds(static_cast<double>(frame->size()) / p.bytes_per_second);
  // A copy delivered by then is still in range: its delivery skips the
  // re-check.
  const SimTime proven_until =
      range_until(*from_e, from_at, *to_e, to_at, p.range_m);
  const int copies = fault.duplicate ? 2 : 1;
  for (int copy = 0; copy < copies; ++copy) {
    SimTime deliver_at =
        sim_.now() + p.per_hop_latency + tx_time + fault.extra_delay;
    if (copy == 1) deliver_at = deliver_at + kDuplicateLag;

    if (!fault.reorder) {
      auto& last = last_delivery_[link_key(from.as_u64(), to.as_u64(), tech)];
      if (deliver_at <= last) deliver_at = last + microseconds(1);
      last = deliver_at;
      if (last_delivery_.size() >= last_delivery_sweep_limit_) {
        age_last_delivery();
      }
    }
    // A reordered frame is exempt from the in-order bump: its extra delay
    // lets frames sent after it overtake it, which is the whole point.

    const std::uint32_t epoch =
        deliver_at <= proven_until ? horizon_epoch_ : 0;
    auto deliver = [this, from, to, tech, epoch, frame]() {
      deliver_frame(from, to, tech, epoch, frame);
    };
    // The whole point of the FramePtr scheme: a delivery event must fit the
    // event queue's inline buffer, so the per-frame hot path never allocates.
    static_assert(sizeof(deliver) <= InlineCallable::kInlineSize);
    sim_.schedule_at(deliver_at, std::move(deliver));
  }
}

void RadioMedium::deliver_frame(MacAddress from, MacAddress to,
                                Technology tech, std::uint32_t epoch,
                                const FramePtr& frame) {
  const Endpoint* receiver = find(to, tech);
  // Positions have moved since send time; unless the send proved the copy
  // in range for now (and no endpoint or range changed since), one cached
  // re-check decides delivery (drop if either side is gone or out of
  // coverage).
  if (epoch != horizon_epoch_) {
    const Endpoint* sender = find(from, tech);
    if (sender == nullptr || receiver == nullptr ||
        !within_range(cached_position(*sender), cached_position(*receiver),
                      params(tech).range_m)) {
      ++stats_.drops;
      return;
    }
  }
  assert(receiver != nullptr);
  if (receiver->handler) receiver->handler(from, *frame);
}

void RadioMedium::age_last_delivery() {
  const SimTime now = sim_.now();
  // Strict `<`: an entry equal to `now` can still force a bump when a
  // zero-latency, zero-size frame would otherwise land at the same instant.
  std::erase_if(last_delivery_,
                [now](const auto& kv) { return kv.second < now; });
  last_delivery_sweep_limit_ =
      std::max(kLastDeliveryMinSweep, last_delivery_.size() * 2);
}

}  // namespace peerhood::sim
