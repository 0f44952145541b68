#include "sim/mobility.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace peerhood::sim {
namespace {

// History watermarks of a GeneratedWalk: once it holds more than
// kMaxLegs legs, everything wholly before the queried time is pruned
// down to kKeepBehind trailing legs (a little slack for small backwards
// probes, e.g. finite-difference velocity checks in tests).
constexpr std::size_t kMaxLegs = 64;
constexpr std::size_t kKeepBehind = 8;

constexpr double kMicrosPerSecond = 1e6;
constexpr double kUnbounded = std::numeric_limits<double>::infinity();

double to_seconds(SimDuration d) {
  return static_cast<double>(d.count()) / kMicrosPerSecond;
}

}  // namespace

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

double WaypointPath::max_speed() const {
  double fastest = 0.0;
  for (std::size_t i = 1; i < waypoints_.size(); ++i) {
    const Waypoint& prev = waypoints_[i - 1];
    const Waypoint& next = waypoints_[i];
    const double leg = distance(prev.position, next.position);
    const double span = to_seconds(next.at - prev.at);
    if (span <= 0.0) {
      if (leg > 0.0) return kUnbounded;
      continue;
    }
    fastest = std::max(fastest, leg / span);
  }
  return fastest;
}

const GeneratedWalk::Leg& GeneratedWalk::leg_at(SimTime t) const {
  // Still inside the last leg used: the next one departs at its end, so
  // this is the leg seek() would find.
  if (cursor_ < legs_.size()) {
    const Leg& leg = legs_[cursor_];
    if (leg.depart <= t && t < leg.end) return leg;
  }
  return seek(t);
}

const GeneratedWalk::Leg& GeneratedWalk::seek(SimTime t) const {
  // A query behind the pruned history deterministically replays the whole
  // walk from the pristine RNG state — exactness over speed for the rare
  // backwards jump; forward queries stay O(1) amortised.
  if (legs_.empty() || t < legs_.front().depart) {
    rng_ = initial_rng_;
    legs_.clear();
    legs_.push_back(make_leg_(nullptr, rng_));
  }
  while (legs_.back().end <= t) {
    legs_.push_back(make_leg_(&legs_.back(), rng_));
  }
  if (legs_.size() > kMaxLegs) {
    std::size_t cut = 0;
    while (cut + kKeepBehind < legs_.size() && legs_[cut].end < t) ++cut;
    if (cut > kKeepBehind) {
      const auto drop = static_cast<std::ptrdiff_t>(cut - kKeepBehind);
      legs_.erase(legs_.begin(), legs_.begin() + drop);
    }
  }
  // The last leg departing at or before t; the history extends through it.
  const auto next = std::upper_bound(
      legs_.begin(), legs_.end(), t,
      [](SimTime value, const Leg& leg) { return value < leg.depart; });
  assert(next != legs_.begin());
  cursor_ = static_cast<std::size_t>(next - 1 - legs_.begin());
  return legs_[cursor_];
}

Vec2 GeneratedWalk::position_at(SimTime t) const {
  const Leg& leg = leg_at(t);
  if (leg.travel_s <= 0.0) return leg.to;
  const double elapsed = to_seconds(t - leg.depart);
  const double alpha = std::clamp(elapsed / leg.travel_s, 0.0, 1.0);
  return leg.from + (leg.to - leg.from) * alpha;
}

Vec2 GeneratedWalk::velocity_at(SimTime t) const {
  const Leg& leg = leg_at(t);
  const double elapsed = to_seconds(t - leg.depart);
  // Holding at the target (or a zero-length hop): standing still.
  if (leg.travel_s <= 0.0 || elapsed >= leg.travel_s) return {};
  return (leg.to - leg.from) * (1.0 / leg.travel_s);
}

namespace {

// A walk to a uniform target at a uniform speed, then the pause; the walk
// opens with a pause at `start`.
GeneratedWalk::MakeLeg random_waypoint_legs(RandomWaypoint::Config config,
                                            Vec2 start) {
  return [config, start](const GeneratedWalk::Leg* last, Rng& rng) {
    const SimTime depart = last == nullptr ? SimTime::zero() : last->end;
    const Vec2 from = last == nullptr ? start : last->to;
    Vec2 to = from;
    SimDuration travel{0};
    if (last != nullptr) {
      to = {rng.uniform(config.area_min.x, config.area_max.x),
            rng.uniform(config.area_min.y, config.area_max.y)};
      const double speed =
          rng.uniform(config.speed_min_mps, config.speed_max_mps);
      travel = seconds(speed > 0.0 ? distance(from, to) / speed : 0.0);
    }
    const SimTime end = depart + travel + config.pause;
    return GeneratedWalk::Leg{
        depart, end, from, to,
        to_seconds(end - depart) - to_seconds(config.pause)};
  };
}

}  // namespace

RandomWaypoint::RandomWaypoint(Config config, Vec2 start, Rng rng)
    : config_{config}, walk_{rng, random_waypoint_legs(config, start)} {
  // A leg ends its travel plus its pause after it departs. Without a pause,
  // a walk whose every travel is cut to zero microseconds (no positive
  // speed, or an area crossed within 1 us at the slowest speed) makes only
  // legs that end where they depart, and would append them forever.
  if (config.pause < SimDuration::zero()) {
    throw std::invalid_argument{"RandomWaypoint: pause must be >= 0"};
  }
  const double slowest = std::min(config.speed_min_mps, config.speed_max_mps);
  const double fastest = std::max(config.speed_min_mps, config.speed_max_mps);
  const double across = distance(config.area_min, config.area_max);
  const bool travels = fastest > 0.0 && across > 0.0 &&
                       (slowest <= 0.0 || across / slowest > 1e-6);
  if (config.pause == SimDuration::zero() && !travels) {
    throw std::invalid_argument{
        "RandomWaypoint: a walk without a pause must travel over 1 us"};
  }
}

Vec2 RandomWaypoint::position_at(SimTime t) const {
  return walk_.position_at(t);
}

Vec2 RandomWaypoint::velocity_at(SimTime t) const {
  return walk_.velocity_at(t);
}

double RandomWaypoint::max_speed() const {
  // A leg's travel time is cut to whole microseconds, so a leg may arrive
  // up to 1 us early: at most top * 1 us ahead of a walk at the top speed.
  // Each leg but the last in an interval is followed by a pause of at
  // least 1 us (the clock's resolution) inside it, which gives that time
  // back; the last leg's lead is within kPositionSlackM below 1 km/s. So
  // the top speed needs no widening. A walk that can draw a zero speed (its
  // leg then jumps) or has no pause (legs under 1 us, each a jump, can
  // chain) proves nothing.
  if (!(config_.speed_min_mps > 0.0) || config_.pause <= SimDuration{0}) {
    return kUnbounded;
  }
  return std::max(config_.speed_min_mps, config_.speed_max_mps);
}

namespace {

// Every update_interval the deviation re-targets a uniform point of its disk.
GeneratedWalk::MakeLeg deviation_legs(GroupMember::Config config) {
  return [config](const GeneratedWalk::Leg* last, Rng& rng) {
    const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    // sqrt for a uniform density over the disk, not clustered at the centre.
    const double radius =
        config.deviation_radius_m * std::sqrt(rng.next_double());
    const SimTime depart = last == nullptr ? SimTime::zero() : last->end;
    const Vec2 from = last == nullptr ? Vec2{} : last->to;
    return GeneratedWalk::Leg{depart, depart + config.update_interval, from,
                              {radius * std::cos(angle),
                               radius * std::sin(angle)},
                              to_seconds(config.update_interval)};
  };
}

}  // namespace

GroupMember::GroupMember(std::shared_ptr<const MobilityModel> reference,
                         Vec2 offset, Config config, Rng rng)
    : reference_{std::move(reference)},
      offset_{offset},
      config_{config},
      deviation_{rng, deviation_legs(config)} {
  assert(reference_ != nullptr);
  // Every leg departs one interval after the last: a zero interval would
  // make the walk append legs forever. A deviation that never moves is
  // never queried.
  if (config_.deviation_radius_m > 0.0 &&
      config_.update_interval <= SimDuration::zero()) {
    throw std::invalid_argument{
        "GroupMember: update_interval must be > 0 with a deviation"};
  }
}

double GroupMember::max_speed() const {
  const double reference = reference_->max_speed();
  if (config_.deviation_radius_m <= 0.0) return reference;
  return reference + 2.0 * config_.deviation_radius_m /
                         to_seconds(config_.update_interval);
}

Vec2 GroupMember::position_at(SimTime t) const {
  const Vec2 deviation =
      config_.deviation_radius_m > 0.0 ? deviation_.position_at(t) : Vec2{};
  return reference_->position_at(t) + offset_ + deviation;
}

Vec2 GroupMember::velocity_at(SimTime t) const {
  const Vec2 slope =
      config_.deviation_radius_m > 0.0 ? deviation_.velocity_at(t) : Vec2{};
  return reference_->velocity_at(t) + slope;
}

}  // namespace peerhood::sim
