// Mobility models. Each simulated device owns one model; the radio medium
// samples positions lazily at the current simulation time. Models cover the
// paper's scenarios: fixed servers (static), the corridor walk of §5.2.1
// (linear / waypoint), random office movement (random waypoint), plus the
// scenario-matrix models of the handover plane: temporally correlated
// Gauss–Markov motion, reference-point group mobility, and trace-driven
// waypoint paths (loaded by src/scenario/).
//
// Every model also reports its instantaneous velocity (velocity_at): the
// quality observers of RadioMedium use it to compute the signed link-quality
// slope, which is what turns threshold crossings into *predictions*.
//
// Segment-generating models (RandomWaypoint, GaussMarkov, GroupMember)
// keep their history bounded: segments wholly before the newest queried time
// are pruned once the history grows past a watermark, and a query *behind*
// the pruned base deterministically regenerates the walk from its initial
// RNG state — backwards queries stay exact, long sims stay O(1) in memory.
//
// A segment holds the half-open interval [depart, next depart). A query at
// an exact boundary generates the segment departing there and answers from
// it, so position and velocity at any instant are the same whatever was
// queried before. Each of these models keeps a cursor on the segment its
// last query used; a query inside that segment's interval (the common case:
// the clock moves forward a little) skips the history search entirely, and
// any other query searches and re-seats the cursor.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "sim/vec2.hpp"

namespace peerhood::sim {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  [[nodiscard]] virtual Vec2 position_at(SimTime t) const = 0;

  // Instantaneous velocity (m/s). The default is a symmetric finite
  // difference over position_at; models with analytic motion override it.
  // At kinks (waypoint corners, segment boundaries) the value is the
  // right-hand derivative by convention.
  [[nodiscard]] virtual Vec2 velocity_at(SimTime t) const;

  // True iff position_at returns the same point for every t. The radio
  // medium skips re-sampling (and re-indexing) static endpoints when the
  // clock advances, so a mostly-static deployment pays grid maintenance
  // only for the endpoints that actually move.
  [[nodiscard]] virtual bool is_static() const { return false; }
};

// Fixed device (the paper's "static" terminals: PCs, servers).
class StaticPosition final : public MobilityModel {
 public:
  explicit StaticPosition(Vec2 position) : position_{position} {}

  [[nodiscard]] Vec2 position_at(SimTime) const override { return position_; }
  [[nodiscard]] Vec2 velocity_at(SimTime) const override { return {}; }
  [[nodiscard]] bool is_static() const override { return true; }

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

 private:
  Vec2 start_;
  Vec2 velocity_;
  SimTime departure_;
};

// Piecewise-linear path through timestamped waypoints; holds the first
// waypoint before the path starts and the last one after it ends. Used to
// script walks (leave office, enter corridor, come back — Fig. 5.6/5.7) and
// to replay recorded traces (scenario::load_waypoint_trace).
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

  [[nodiscard]] const std::vector<Waypoint>& waypoints() const {
    return waypoints_;
  }

 private:
  std::vector<Waypoint> waypoints_;
};

// Random-waypoint model inside a rectangular area: pick a target uniformly,
// walk to it at a uniform speed, pause, repeat. Segments are generated
// on demand from a private deterministic stream.
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

  // Live history length — exposed so tests can assert the prune keeps long
  // sims bounded.
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }

 private:
  struct Segment {
    SimTime depart;
    SimTime arrive;  // includes the trailing pause
    Vec2 from;
    Vec2 to;
  };

  void extend_until(SimTime t) const;
  void rewind() const;
  [[nodiscard]] const Segment& segment_for(SimTime t) const;

  Config config_;
  Vec2 start_;
  Rng initial_rng_;  // pristine copy: backwards queries replay the walk
  mutable Rng rng_;
  mutable std::vector<Segment> segments_;
  mutable std::size_t cursor_{0};  // segments_ index of the last query
};

// Gauss–Markov mobility: speed and direction evolve as first-order
// autoregressive processes, so motion is temporally correlated — no sharp
// random-waypoint turnarounds. `alpha` tunes the memory (1 = straight line,
// 0 = memoryless). Near the area edge the mean direction steers back toward
// the centre (the standard boundary treatment).
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

  GaussMarkov(Config config, Vec2 start, Rng rng);

  [[nodiscard]] Vec2 position_at(SimTime t) const override;
  [[nodiscard]] Vec2 velocity_at(SimTime t) const override;

  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }

 private:
  struct Segment {
    SimTime depart;
    Vec2 from;
    Vec2 to;  // position one update_interval later (both endpoints in-area)
  };
  struct WalkState {
    double speed{0.0};
    double direction{0.0};
  };

  void extend_until(SimTime t) const;
  void rewind() const;
  // Resets the AR state from the (re-)wound RNG stream and emits the first
  // segment — ctor and rewind() share it so replay is exact.
  void seed_segments() const;
  // Advances the AR state one step and emits the segment leaving `from`.
  [[nodiscard]] Segment make_segment(SimTime depart, Vec2 from) const;
  [[nodiscard]] const Segment& segment_for(SimTime t) const;

  Config config_;
  Vec2 start_;
  Rng initial_rng_;
  mutable Rng rng_;
  mutable WalkState state_;
  mutable std::vector<Segment> segments_;
  mutable std::size_t cursor_{0};
};

// Reference-point group mobility (RPGM): each member tracks a shared group
// reference model (any MobilityModel — typically RandomWaypoint for the
// group's logical centre) at a fixed formation offset, plus a bounded random
// deviation that re-targets every `update_interval`. Destroying members is
// independent of the reference; members share it by shared_ptr.
class GroupMember final : public MobilityModel {
 public:
  struct Config {
    double deviation_radius_m{2.0};
    SimDuration update_interval{std::chrono::seconds{4}};
  };

  GroupMember(std::shared_ptr<const MobilityModel> reference, Vec2 offset,
              Config config, Rng rng);

  [[nodiscard]] Vec2 position_at(SimTime t) const override;
  [[nodiscard]] Vec2 velocity_at(SimTime t) const override;
  [[nodiscard]] bool is_static() const override {
    return reference_->is_static() && config_.deviation_radius_m <= 0.0;
  }

  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }

 private:
  struct Segment {
    SimTime depart;
    Vec2 from;  // deviation vector at depart
    Vec2 to;    // deviation vector at depart + update_interval
  };

  void extend_until(SimTime t) const;
  void rewind() const;
  [[nodiscard]] const Segment& segment_for(SimTime t) const;
  [[nodiscard]] Vec2 deviation_at(SimTime t) const;
  [[nodiscard]] Vec2 deviation_slope_at(SimTime t) const;

  std::shared_ptr<const MobilityModel> reference_;
  Vec2 offset_;
  Config config_;
  Rng initial_rng_;
  mutable Rng rng_;
  mutable std::vector<Segment> segments_;
  mutable std::size_t cursor_{0};
};

}  // namespace peerhood::sim
