#include "sim/mobility.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

namespace peerhood::sim {
namespace {

// History watermarks shared by the segment-generating models: once a walk
// holds more than kMaxSegments, everything wholly before the queried time is
// pruned down to kKeepBehind trailing segments (a little slack for small
// backwards probes, e.g. finite-difference velocity checks in tests).
constexpr std::size_t kMaxSegments = 64;
constexpr std::size_t kKeepBehind = 8;

constexpr double kMicrosPerSecond = 1e6;

double to_seconds(SimDuration d) {
  return static_cast<double>(d.count()) / kMicrosPerSecond;
}

Vec2 clamp_into(Vec2 p, Vec2 lo, Vec2 hi) {
  return {std::clamp(p.x, lo.x, hi.x), std::clamp(p.y, lo.y, hi.y)};
}

// Drops fully-past history once it crosses the watermark. `t` is the newest
// query; only segments that end strictly before it are candidates.
template <typename Segments, typename EndsBefore>
void prune_history(Segments& segments, SimTime t, EndsBefore ends_before) {
  if (segments.size() <= kMaxSegments) return;
  std::size_t cut = 0;
  while (cut + kKeepBehind < segments.size() &&
         ends_before(segments[cut], t)) {
    ++cut;
  }
  if (cut > kKeepBehind) cut -= kKeepBehind;
  else cut = 0;
  if (cut > 0) segments.erase(segments.begin(), segments.begin() + cut);
}

// Index of the last segment departing at or before `t`: the one holding `t`
// once the history extends through it.
template <typename Segments>
std::size_t last_departed(const Segments& segments, SimTime t) {
  const auto next = std::upper_bound(
      segments.begin(), segments.end(), t,
      [](SimTime value, const auto& s) { return value < s.depart; });
  assert(next != segments.begin());
  return static_cast<std::size_t>(next - 1 - segments.begin());
}

}  // namespace

Vec2 MobilityModel::velocity_at(SimTime t) const {
  // Symmetric finite difference, degrading to forward difference at t = 0.
  constexpr SimDuration h = std::chrono::milliseconds{25};
  const SimTime hi = t + h;
  const SimTime lo = t.since_epoch >= h ? SimTime{t.since_epoch - h}
                                        : SimTime::zero();
  const double dt = to_seconds(hi - lo);
  if (dt <= 0.0) return {};
  return (position_at(hi) - position_at(lo)) * (1.0 / dt);
}

WaypointPath::WaypointPath(std::vector<Waypoint> waypoints)
    : waypoints_{std::move(waypoints)} {
  assert(!waypoints_.empty());
  assert(std::is_sorted(
      waypoints_.begin(), waypoints_.end(),
      [](const Waypoint& a, const Waypoint& b) { return a.at < b.at; }));
}

Vec2 WaypointPath::position_at(SimTime t) const {
  if (t <= waypoints_.front().at) return waypoints_.front().position;
  if (t >= waypoints_.back().at) return waypoints_.back().position;
  // Find the segment [prev, next] containing t.
  const auto next = std::upper_bound(
      waypoints_.begin(), waypoints_.end(), t,
      [](SimTime value, const Waypoint& w) { return value < w.at; });
  const auto prev = next - 1;
  const double span = (next->at - prev->at).count() * 1e-6;
  if (span <= 0.0) return next->position;
  const double alpha = (t - prev->at).count() * 1e-6 / span;
  return prev->position + (next->position - prev->position) * alpha;
}

Vec2 WaypointPath::velocity_at(SimTime t) const {
  // Holding before the first and after the last waypoint: standing still.
  if (t < waypoints_.front().at || t >= waypoints_.back().at) return {};
  const auto next = std::upper_bound(
      waypoints_.begin(), waypoints_.end(), t,
      [](SimTime value, const Waypoint& w) { return value < w.at; });
  const auto prev = next - 1;
  const double span = to_seconds(next->at - prev->at);
  if (span <= 0.0) return {};
  return (next->position - prev->position) * (1.0 / span);
}

RandomWaypoint::RandomWaypoint(Config config, Vec2 start, Rng rng)
    : config_{config}, start_{start}, initial_rng_{rng}, rng_{rng} {
  segments_.push_back(
      Segment{SimTime::zero(), SimTime::zero() + config_.pause, start, start});
}

void RandomWaypoint::rewind() const {
  rng_ = initial_rng_;
  segments_.clear();
  segments_.push_back(Segment{SimTime::zero(), SimTime::zero() + config_.pause,
                              start_, start_});
}

void RandomWaypoint::extend_until(SimTime t) const {
  while (segments_.back().arrive <= t) {
    const Segment& last = segments_.back();
    const Vec2 target{rng_.uniform(config_.area_min.x, config_.area_max.x),
                      rng_.uniform(config_.area_min.y, config_.area_max.y)};
    const double speed =
        rng_.uniform(config_.speed_min_mps, config_.speed_max_mps);
    const double dist = distance(last.to, target);
    const SimTime depart = last.arrive;
    const SimTime arrive =
        depart + seconds(speed > 0.0 ? dist / speed : 0.0) + config_.pause;
    segments_.push_back(Segment{depart, arrive, last.to, target});
  }
}

const RandomWaypoint::Segment& RandomWaypoint::segment_for(SimTime t) const {
  // Still inside the last segment used: the next one departs at its end, so
  // this is the segment the search below would find.
  if (cursor_ < segments_.size()) {
    const Segment& seg = segments_[cursor_];
    if (seg.depart <= t && t < seg.arrive) return seg;
  }
  // A query behind the pruned base deterministically replays the whole walk
  // from the initial RNG state — exactness over speed for the rare backwards
  // jump; forward queries stay O(1) amortised with bounded history.
  if (t < segments_.front().depart) rewind();
  extend_until(t);
  prune_history(segments_, t,
                [](const Segment& s, SimTime at) { return s.arrive < at; });
  cursor_ = last_departed(segments_, t);
  return segments_[cursor_];
}

Vec2 RandomWaypoint::position_at(SimTime t) const {
  const Segment& seg = segment_for(t);
  const double travel = to_seconds(seg.arrive - seg.depart) -
                        to_seconds(config_.pause);
  if (travel <= 0.0) return seg.to;
  const double elapsed = to_seconds(t - seg.depart);
  const double alpha = std::clamp(elapsed / travel, 0.0, 1.0);
  return seg.from + (seg.to - seg.from) * alpha;
}

Vec2 RandomWaypoint::velocity_at(SimTime t) const {
  const Segment& seg = segment_for(t);
  const double travel = to_seconds(seg.arrive - seg.depart) -
                        to_seconds(config_.pause);
  const double elapsed = to_seconds(t - seg.depart);
  // Paused at the target (or a zero-length hop): standing still.
  if (travel <= 0.0 || elapsed >= travel) return {};
  return (seg.to - seg.from) * (1.0 / travel);
}

GaussMarkov::GaussMarkov(Config config, Vec2 start, Rng rng)
    : config_{config}, start_{start}, initial_rng_{rng}, rng_{rng} {
  seed_segments();
}

void GaussMarkov::rewind() const {
  rng_ = initial_rng_;
  seed_segments();
}

void GaussMarkov::seed_segments() const {
  state_.speed = std::max(0.0, config_.mean_speed_mps);
  state_.direction = rng_.uniform(0.0, 2.0 * std::numbers::pi);
  segments_.clear();
  segments_.push_back(make_segment(
      SimTime::zero(),
      clamp_into(start_, config_.area_min, config_.area_max)));
}

GaussMarkov::Segment GaussMarkov::make_segment(SimTime depart,
                                               Vec2 from) const {
  const double dt = std::max(1e-6, to_seconds(config_.update_interval));
  // Steer the mean heading back toward the centre when hugging an edge.
  double mean_dir = state_.direction;
  const Vec2 centre = (config_.area_min + config_.area_max) * 0.5;
  const bool near_edge =
      from.x < config_.area_min.x + config_.edge_margin_m ||
      from.x > config_.area_max.x - config_.edge_margin_m ||
      from.y < config_.area_min.y + config_.edge_margin_m ||
      from.y > config_.area_max.y - config_.edge_margin_m;
  if (near_edge) mean_dir = std::atan2(centre.y - from.y, centre.x - from.x);

  const double a = std::clamp(config_.alpha, 0.0, 1.0);
  const double memoryless = std::sqrt(std::max(0.0, 1.0 - a * a));
  state_.speed = std::max(
      0.0, a * state_.speed + (1.0 - a) * config_.mean_speed_mps +
               memoryless * rng_.gaussian(0.0, config_.speed_sigma));
  // Blend toward the mean heading along the short way around the circle:
  // the random walk drifts the unwrapped direction arbitrarily far, and a
  // naive (1-a)·(mean - dir) step would then spin instead of steer.
  const double turn = std::remainder(mean_dir - state_.direction,
                                     2.0 * std::numbers::pi);
  state_.direction += (1.0 - a) * turn +
                      memoryless * rng_.gaussian(0.0, config_.direction_sigma);

  const Vec2 velocity{state_.speed * std::cos(state_.direction),
                      state_.speed * std::sin(state_.direction)};
  Segment seg;
  seg.depart = depart;
  seg.from = from;
  seg.to = clamp_into(from + velocity * dt, config_.area_min, config_.area_max);
  return seg;
}

void GaussMarkov::extend_until(SimTime t) const {
  while (segments_.back().depart + config_.update_interval <= t) {
    const Segment& last = segments_.back();
    segments_.push_back(
        make_segment(last.depart + config_.update_interval, last.to));
  }
}

const GaussMarkov::Segment& GaussMarkov::segment_for(SimTime t) const {
  if (cursor_ < segments_.size()) {
    const Segment& seg = segments_[cursor_];
    if (seg.depart <= t && t < seg.depart + config_.update_interval) {
      return seg;
    }
  }
  if (t < segments_.front().depart) rewind();
  extend_until(t);
  prune_history(segments_, t, [this](const Segment& s, SimTime at) {
    return s.depart + config_.update_interval < at;
  });
  cursor_ = last_departed(segments_, t);
  return segments_[cursor_];
}

Vec2 GaussMarkov::position_at(SimTime t) const {
  const Segment& seg = segment_for(t);
  const double dt = to_seconds(config_.update_interval);
  if (dt <= 0.0) return seg.from;
  const double alpha =
      std::clamp(to_seconds(t - seg.depart) / dt, 0.0, 1.0);
  return seg.from + (seg.to - seg.from) * alpha;
}

Vec2 GaussMarkov::velocity_at(SimTime t) const {
  const Segment& seg = segment_for(t);
  const double dt = to_seconds(config_.update_interval);
  if (dt <= 0.0) return {};
  return (seg.to - seg.from) * (1.0 / dt);
}

GroupMember::GroupMember(std::shared_ptr<const MobilityModel> reference,
                         Vec2 offset, Config config, Rng rng)
    : reference_{std::move(reference)},
      offset_{offset},
      config_{config},
      initial_rng_{rng},
      rng_{rng} {
  assert(reference_ != nullptr);
}

void GroupMember::rewind() const {
  rng_ = initial_rng_;
  segments_.clear();
}

void GroupMember::extend_until(SimTime t) const {
  auto draw_target = [this]() -> Vec2 {
    const double angle = rng_.uniform(0.0, 2.0 * std::numbers::pi);
    // sqrt for a uniform density over the disk, not clustered at the centre.
    const double radius =
        config_.deviation_radius_m * std::sqrt(rng_.next_double());
    return {radius * std::cos(angle), radius * std::sin(angle)};
  };
  if (segments_.empty()) {
    segments_.push_back(Segment{SimTime::zero(), {}, draw_target()});
  }
  while (segments_.back().depart + config_.update_interval <= t) {
    const Segment& last = segments_.back();
    segments_.push_back(Segment{last.depart + config_.update_interval,
                                last.to, draw_target()});
  }
}

const GroupMember::Segment& GroupMember::segment_for(SimTime t) const {
  if (cursor_ < segments_.size()) {
    const Segment& seg = segments_[cursor_];
    if (seg.depart <= t && t < seg.depart + config_.update_interval) {
      return seg;
    }
  }
  if (!segments_.empty() && t < segments_.front().depart) rewind();
  extend_until(t);
  prune_history(segments_, t, [this](const Segment& s, SimTime at) {
    return s.depart + config_.update_interval < at;
  });
  cursor_ = last_departed(segments_, t);
  return segments_[cursor_];
}

Vec2 GroupMember::deviation_at(SimTime t) const {
  if (config_.deviation_radius_m <= 0.0) return {};
  const Segment& seg = segment_for(t);
  const double dt = to_seconds(config_.update_interval);
  if (dt <= 0.0) return seg.from;
  const double alpha =
      std::clamp(to_seconds(t - seg.depart) / dt, 0.0, 1.0);
  return seg.from + (seg.to - seg.from) * alpha;
}

Vec2 GroupMember::deviation_slope_at(SimTime t) const {
  if (config_.deviation_radius_m <= 0.0) return {};
  const Segment& seg = segment_for(t);
  const double dt = to_seconds(config_.update_interval);
  if (dt <= 0.0) return {};
  return (seg.to - seg.from) * (1.0 / dt);
}

Vec2 GroupMember::position_at(SimTime t) const {
  return reference_->position_at(t) + offset_ + deviation_at(t);
}

Vec2 GroupMember::velocity_at(SimTime t) const {
  return reference_->velocity_at(t) + deviation_slope_at(t);
}

}  // namespace peerhood::sim
