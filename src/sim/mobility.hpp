// Mobility models. Each simulated device owns one model; the radio medium
// samples positions lazily at the current simulation time. Models cover the
// paper's scenarios: fixed servers (static), the corridor walk of §5.2.1
// (linear / waypoint), random office movement (random waypoint), plus the
// scenario-matrix models of the handover plane: temporally correlated
// Gauss–Markov motion, reference-point group mobility, and trace-driven
// waypoint paths (parsed by src/scenario/).
//
// Every model also reports its instantaneous velocity (velocity_at): the
// quality observers of RadioMedium use it to compute the signed link-quality
// slope, which is what turns threshold crossings into *predictions*.
//
// The random models (RandomWaypoint, GaussMarkov, and GroupMember's
// deviation) generate their path leg by leg from a private RNG stream. Their
// legs live in one GeneratedWalk, which holds the history, its cursor, its
// pruning and its replay; a model only says how its next leg is made.
//
// max_speed() is an upper bound on how fast a model can move: for any
// t1 <= t2, |position_at(t2) - position_at(t1)| <= max_speed() * (t2 - t1)
// (in seconds) plus sim::kPositionSlackM, which absorbs floating-point
// rounding and the microsecond truncation of generated leg times. The radio
// medium turns the bound into horizons before which a link provably keeps
// its range and quality state (medium.hpp). A model that cannot bound its
// speed reports +infinity, the default, and is then re-measured on every
// check.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "sim/vec2.hpp"

namespace peerhood::sim {

// Absolute slack of the max_speed() contract per model, in metres: far above
// the rounding of positions of a few kilometres, and above one microsecond
// of travel at any speed below 1 km/s.
inline constexpr double kPositionSlackM = 1e-3;

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  [[nodiscard]] virtual Vec2 position_at(SimTime t) const = 0;

  // Instantaneous velocity (m/s): the derivative of position_at. At kinks
  // (waypoint corners, leg boundaries) it is the right-hand derivative, so
  // a walk that departs at t reports its new velocity at t.
  [[nodiscard]] virtual Vec2 velocity_at(SimTime t) const = 0;

  // True iff position_at returns the same point for every t. The radio
  // medium skips re-sampling (and re-indexing) static endpoints when the
  // clock advances, so a mostly-static deployment pays grid maintenance
  // only for the endpoints that actually move.
  [[nodiscard]] virtual bool is_static() const { return false; }

  // Upper bound on |d position| / dt in m/s (see the header comment); the
  // default +infinity proves nothing.
  [[nodiscard]] virtual double max_speed() const {
    return std::numeric_limits<double>::infinity();
  }
};

// Fixed device (the paper's "static" terminals: PCs, servers).
class StaticPosition final : public MobilityModel {
 public:
  explicit StaticPosition(Vec2 position) : position_{position} {}

  [[nodiscard]] Vec2 position_at(SimTime) const override { return position_; }
  [[nodiscard]] Vec2 velocity_at(SimTime) const override { return {}; }
  [[nodiscard]] bool is_static() const override { return true; }
  [[nodiscard]] double max_speed() const override { return 0.0; }

 private:
  Vec2 position_;
};

// Constant-velocity motion from `start` beginning at `departure`; models the
// walking-away scenarios of Fig. 5.4 and §5.2.1.
class LinearMotion final : public MobilityModel {
 public:
  LinearMotion(Vec2 start, Vec2 velocity_mps,
               SimTime departure = SimTime::zero())
      : start_{start}, velocity_{velocity_mps}, departure_{departure} {}

  [[nodiscard]] Vec2 position_at(SimTime t) const override {
    if (t <= departure_) return start_;
    const double dt = (t - departure_).count() * 1e-6;
    return start_ + velocity_ * dt;
  }

  [[nodiscard]] Vec2 velocity_at(SimTime t) const override {
    return t < departure_ ? Vec2{} : velocity_;
  }
  [[nodiscard]] double max_speed() const override { return velocity_.norm(); }

 private:
  Vec2 start_;
  Vec2 velocity_;
  SimTime departure_;
};

// Piecewise-linear path through timestamped waypoints; holds the first
// waypoint before the path starts and the last one after it ends. Used to
// script walks (leave office, enter corridor, come back — Fig. 5.6/5.7) and
// to replay recorded traces (scenario::parse_waypoint_trace).
class WaypointPath final : public MobilityModel {
 public:
  struct Waypoint {
    SimTime at;
    Vec2 position;
  };

  // Waypoints must be sorted by time and non-empty.
  explicit WaypointPath(std::vector<Waypoint> waypoints);

  [[nodiscard]] Vec2 position_at(SimTime t) const override;
  [[nodiscard]] Vec2 velocity_at(SimTime t) const override;
  // The fastest leg; +infinity if two waypoints share a time but not a
  // position (the path jumps there).
  [[nodiscard]] double max_speed() const override;

  [[nodiscard]] const std::vector<Waypoint>& waypoints() const {
    return waypoints_;
  }

 private:
  std::vector<Waypoint> waypoints_;
};

// The leg history of a generated walk. A leg leaves `from` at `depart`,
// moves in a straight line to `to` in `travel_s` seconds, and holds there
// until `end`, when the next leg departs from `to`. Legs are made on demand
// by the walk's MakeLeg from a private RNG stream, so any instant has one
// answer whatever was queried before:
//
// - A leg holds the half-open interval [depart, end). A query at an exact
//   boundary makes the leg departing there and answers from it: velocity is
//   the right-hand derivative.
// - A cursor stays on the leg of the last query; a query inside it (the
//   clock moved on a little) skips the history search.
// - Once the history holds more than a watermark of legs, legs that end
//   before the newest query are pruned down to a few behind it, so long
//   sims stay O(1) in memory.
// - A query behind the pruned history replays the walk from the pristine
//   RNG state: backwards queries stay exact.
class GeneratedWalk {
 public:
  struct Leg {
    SimTime depart;
    SimTime end;
    Vec2 from;
    Vec2 to;
    double travel_s;  // <= 0: the walk stands at `to` for the whole leg
  };

  // Makes the first leg (departing at time zero) when `last` is null, else
  // the leg departing at last->end from last->to. Called only when the
  // history grows, in walk order from the first leg, so a maker may carry
  // state that its first leg resets. It must capture by value: models, and
  // with them their walks, are copyable. The walk makes legs until one ends
  // after the query, so legs must not keep ending where they depart.
  using MakeLeg = std::function<Leg(const Leg* last, Rng& rng)>;

  GeneratedWalk(Rng rng, MakeLeg make_leg)
      : make_leg_{std::move(make_leg)}, initial_rng_{rng}, rng_{rng} {}

  [[nodiscard]] Vec2 position_at(SimTime t) const;
  [[nodiscard]] Vec2 velocity_at(SimTime t) const;

  // Live history length — exposed so tests can assert the prune keeps long
  // sims bounded.
  [[nodiscard]] std::size_t segment_count() const { return legs_.size(); }

 private:
  [[nodiscard]] const Leg& leg_at(SimTime t) const;
  [[nodiscard]] const Leg& seek(SimTime t) const;

  MakeLeg make_leg_;
  Rng initial_rng_;  // pristine copy: backwards queries replay the walk
  mutable Rng rng_;
  mutable std::vector<Leg> legs_;
  mutable std::size_t cursor_{0};  // legs_ index of the last query
};

// Random-waypoint model inside a rectangular area: pick a target uniformly,
// walk to it at a uniform speed, pause, repeat. Each leg is one walk and the
// pause after it; the walk opens with a pause at `start`.
class RandomWaypoint final : public MobilityModel {
 public:
  struct Config {
    Vec2 area_min{0.0, 0.0};
    Vec2 area_max{100.0, 100.0};
    double speed_min_mps{0.5};
    double speed_max_mps{1.5};
    SimDuration pause{std::chrono::seconds{2}};
  };

  RandomWaypoint(Config config, Vec2 start, Rng rng);

  [[nodiscard]] Vec2 position_at(SimTime t) const override;
  [[nodiscard]] Vec2 velocity_at(SimTime t) const override;
  // speed_max_mps: the microsecond cut of leg times stays within
  // kPositionSlackM (see mobility.cpp); +infinity without a pause or with
  // a zero minimum speed.
  [[nodiscard]] double max_speed() const override;

  [[nodiscard]] std::size_t segment_count() const {
    return walk_.segment_count();
  }

 private:
  Config config_;
  GeneratedWalk walk_;
};

// Gauss–Markov mobility: speed and direction evolve as first-order
// autoregressive processes, so motion is temporally correlated — no sharp
// random-waypoint turnarounds. `alpha` tunes the memory (1 = straight line,
// 0 = memoryless). Near the area edge the mean direction steers back toward
// the centre (the standard boundary treatment). Each leg is one
// update_interval of straight motion, both ends inside the area.
class GaussMarkov final : public MobilityModel {
 public:
  struct Config {
    Vec2 area_min{0.0, 0.0};
    Vec2 area_max{100.0, 100.0};
    double mean_speed_mps{1.0};
    double speed_sigma{0.3};
    double direction_sigma{0.5};  // radians
    double alpha{0.85};
    SimDuration update_interval{std::chrono::seconds{1}};
    // Distance from an edge below which the mean direction turns inward.
    double edge_margin_m{5.0};
  };

  // Throws std::invalid_argument unless update_interval is positive.
  GaussMarkov(Config config, Vec2 start, Rng rng);

  [[nodiscard]] Vec2 position_at(SimTime t) const override;
  [[nodiscard]] Vec2 velocity_at(SimTime t) const override;

  [[nodiscard]] std::size_t segment_count() const {
    return walk_.segment_count();
  }

 private:
  GeneratedWalk walk_;
};

// Reference-point group mobility (RPGM): each member tracks a shared group
// reference model (any MobilityModel — typically RandomWaypoint for the
// group's logical centre) at a fixed formation offset, plus a bounded random
// deviation: a walk whose legs re-target a point of the deviation disk every
// `update_interval`. Destroying members is independent of the reference;
// members share it by shared_ptr.
class GroupMember final : public MobilityModel {
 public:
  struct Config {
    double deviation_radius_m{2.0};
    SimDuration update_interval{std::chrono::seconds{4}};
  };

  // Throws std::invalid_argument if the deviation moves
  // (deviation_radius_m > 0) but update_interval is not positive.
  GroupMember(std::shared_ptr<const MobilityModel> reference, Vec2 offset,
              Config config, Rng rng);

  [[nodiscard]] Vec2 position_at(SimTime t) const override;
  [[nodiscard]] Vec2 velocity_at(SimTime t) const override;
  [[nodiscard]] bool is_static() const override {
    return reference_->is_static() && config_.deviation_radius_m <= 0.0;
  }
  // The reference's bound plus the deviation's: it crosses at most the
  // disk's diameter per update_interval.
  [[nodiscard]] double max_speed() const override;

  [[nodiscard]] std::size_t segment_count() const {
    return deviation_.segment_count();
  }

 private:
  std::shared_ptr<const MobilityModel> reference_;
  Vec2 offset_;
  Config config_;
  GeneratedWalk deviation_;  // never queried without a deviation
};

}  // namespace peerhood::sim
