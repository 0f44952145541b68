// Push-based link-quality plane (PR 5): threshold/hysteresis crossing
// events, slope signs, observer lifecycle (idempotent unsubscribe,
// reentrant unsubscribe/subscribe from inside a callback), symmetric
// quality reads with their evaluation count, a re-check that reads quality
// only (motion is added for a crossing alone, bit-equal to a probe), and
// the scaling contract — a scenario tick performs
// O(observers on moved endpoints) evaluations, not O(subscribers) polls,
// and an endpoint re-registration or a subscription from a callback is
// never missed by the walk that skips ticks with nothing due. Re-checks
// inside a quiet horizon push exactly what measuring ones do.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "forwarding_model.hpp"
#include "sim/medium.hpp"
#include "sim/simulator.hpp"

namespace peerhood::sim {
namespace {

MacAddress mac(std::uint64_t n) { return MacAddress::from_index(n); }

constexpr int kThreshold = LinkQualityModel::kDefaultThreshold;

class QualityObserverTest : public ::testing::Test {
 protected:
  QualityObserverTest() : sim_{42}, medium_{sim_} {}

  void add_static(std::uint64_t id, Vec2 at) {
    medium_.register_endpoint(mac(id), Technology::kBluetooth,
                              std::make_shared<StaticPosition>(at), nullptr);
  }

  void add_linear(std::uint64_t id, Vec2 start, Vec2 velocity) {
    medium_.register_endpoint(
        mac(id), Technology::kBluetooth,
        std::make_shared<LinearMotion>(start, velocity), nullptr);
  }

  // Advances the clock in steps so the observer plane re-evaluates.
  void advance(double seconds_total, double step_s = 0.1) {
    const SimTime deadline = sim_.now() + seconds(seconds_total);
    while (sim_.now() < deadline) {
      sim_.run_until(sim_.now() + seconds(step_s));
    }
  }

  Simulator sim_;
  RadioMedium medium_;
};

TEST_F(QualityObserverTest, SeparatingLinkEmitsFellWithNegativeSlope) {
  add_static(1, {0.0, 0.0});
  add_linear(2, {1.0, 0.0}, {0.5, 0.0});
  std::vector<LinkQualityEvent> events;
  const auto id = medium_.observe_quality(
      mac(1), mac(2), Technology::kBluetooth, kThreshold,
      [&](const LinkQualityEvent& e) { events.push_back(e); });
  ASSERT_NE(id, kInvalidQualityObserver);
  EXPECT_EQ(medium_.quality_observer_count(), 1u);

  // Walks from 1 m to ~9 m: crosses the 230 threshold (≈5.6 m) en route.
  advance(16.0);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().edge, LinkQualityEvent::Edge::kFell);
  EXPECT_LT(events.front().quality, 231);
  EXPECT_LT(events.front().slope_per_s, 0.0);
  EXPECT_GT(events.front().radial_speed_mps, 0.4);
  EXPECT_NEAR(events.front().radial_speed_mps, 0.5, 0.05);
  medium_.unobserve_quality(id);
}

TEST_F(QualityObserverTest, LostAndRestoredOnCoverageEdges) {
  add_static(1, {0.0, 0.0});
  // Out at t≈18s (10 m at 0.5 m/s from 1 m), back in range later.
  add_linear(2, {1.0, 0.0}, {0.5, 0.0});
  std::vector<LinkQualityEvent::Edge> edges;
  (void)medium_.observe_quality(
      mac(1), mac(2), Technology::kBluetooth, kThreshold,
      [&](const LinkQualityEvent& e) { edges.push_back(e.edge); });
  advance(20.0);
  ASSERT_GE(edges.size(), 2u);
  EXPECT_EQ(edges.front(), LinkQualityEvent::Edge::kFell);
  EXPECT_EQ(edges.back(), LinkQualityEvent::Edge::kLost);

  // Re-register walking back towards the static endpoint.
  const Vec2 here{11.0, 0.0};
  medium_.register_endpoint(mac(2), Technology::kBluetooth,
                            std::make_shared<LinearMotion>(
                                here, Vec2{-0.5, 0.0}, sim_.now()),
                            nullptr);
  edges.clear();
  advance(20.0);
  ASSERT_FALSE(edges.empty());
  EXPECT_EQ(edges.front(), LinkQualityEvent::Edge::kRestored);
  // Approaching: eventually back above threshold + hysteresis.
  EXPECT_NE(std::find(edges.begin(), edges.end(),
                      LinkQualityEvent::Edge::kRose),
            edges.end());
}

TEST_F(QualityObserverTest, HysteresisSuppressesChatter) {
  add_static(1, {0.0, 0.0});
  // Hovers exactly around the threshold distance: 5.59 m ± 0.05 m every
  // second would chatter without the hysteresis band.
  std::vector<WaypointPath::Waypoint> hover;
  for (int i = 0; i <= 40; ++i) {
    const double x = (i % 2 == 0) ? 5.55 : 5.64;
    hover.push_back({SimTime{} + seconds(static_cast<double>(i)), {x, 0.0}});
  }
  medium_.register_endpoint(mac(2), Technology::kBluetooth,
                            std::make_shared<WaypointPath>(hover), nullptr);
  int fell = 0;
  int rose = 0;
  (void)medium_.observe_quality(
      mac(1), mac(2), Technology::kBluetooth, kThreshold,
      [&](const LinkQualityEvent& e) {
        if (e.edge == LinkQualityEvent::Edge::kFell) ++fell;
        if (e.edge == LinkQualityEvent::Edge::kRose) ++rose;
      });
  advance(40.0);
  // One initial fall at most; the ±0.05 m wobble never clears
  // threshold + hysteresis, so kRose (and any second kFell) stays silent.
  EXPECT_LE(fell, 1);
  EXPECT_EQ(rose, 0);
}

TEST_F(QualityObserverTest, UnsubscribeIsIdempotentAndStaleSafe) {
  add_static(1, {0.0, 0.0});
  add_linear(2, {1.0, 0.0}, {0.5, 0.0});
  int calls = 0;
  const auto id = medium_.observe_quality(
      mac(1), mac(2), Technology::kBluetooth, kThreshold,
      [&](const LinkQualityEvent&) { ++calls; });
  medium_.unobserve_quality(id);
  medium_.unobserve_quality(id);  // repeat: no-op
  EXPECT_EQ(medium_.quality_observer_count(), 0u);

  // The slot is recycled; the stale id must not detach the new observer.
  int calls2 = 0;
  const auto id2 = medium_.observe_quality(
      mac(1), mac(2), Technology::kBluetooth, kThreshold,
      [&](const LinkQualityEvent&) { ++calls2; });
  medium_.unobserve_quality(id);  // stale
  EXPECT_EQ(medium_.quality_observer_count(), 1u);
  advance(16.0);
  EXPECT_EQ(calls, 0);
  EXPECT_GT(calls2, 0);
  medium_.unobserve_quality(id2);
}

TEST_F(QualityObserverTest, CallbackMayUnsubscribeItselfAndSubscribeAnew) {
  add_static(1, {0.0, 0.0});
  add_linear(2, {1.0, 0.0}, {0.5, 0.0});
  int first_calls = 0;
  int second_calls = 0;
  QualityObserverId first = kInvalidQualityObserver;
  first = medium_.observe_quality(
      mac(1), mac(2), Technology::kBluetooth, kThreshold,
      [&](const LinkQualityEvent&) {
        ++first_calls;
        // Reentrant: retire self, install a replacement — both legal from
        // inside the dispatch.
        medium_.unobserve_quality(first);
        (void)medium_.observe_quality(
            mac(1), mac(2), Technology::kBluetooth, kThreshold,
            [&](const LinkQualityEvent&) { ++second_calls; });
      });
  advance(25.0);
  EXPECT_EQ(first_calls, 1);
  EXPECT_GT(second_calls, 0);  // replacement saw the later kLost edge
}

TEST_F(QualityObserverTest, ReRegisteredEndpointIsEvaluatedOnTheFirstAdvance) {
  add_static(1, {0.0, 0.0});
  add_linear(2, {1.0, 0.0}, {0.5, 0.0});
  (void)medium_.observe_quality(mac(1), mac(2), Technology::kBluetooth,
                                kThreshold, [](const LinkQualityEvent&) {});
  // Subscribing evaluated the link; the next evaluation is due 100 ms on.
  sim_.run_until(sim_.now() + milliseconds(50));
  const std::uint64_t primed = medium_.quality_stats().observer_evals;

  // The mobile end leaves while the observer is not yet due, and the clock
  // passes the due time while it is gone: nothing can be evaluated.
  medium_.unregister_endpoint(mac(2), Technology::kBluetooth);
  sim_.run_until(sim_.now() + milliseconds(250));
  EXPECT_EQ(medium_.quality_stats().observer_evals, primed);

  // Back again: the very next advance evaluates the overdue observer.
  add_linear(2, {2.0, 0.0}, {0.5, 0.0});
  sim_.run_until(sim_.now() + microseconds(1));
  EXPECT_EQ(medium_.quality_stats().observer_evals, primed + 1);
}

TEST_F(QualityObserverTest, ObserverSubscribedFromACallbackIsEvaluatedWhenDue) {
  add_static(1, {0.0, 0.0});
  add_linear(2, {1.0, 0.0}, {0.5, 0.0});
  add_linear(3, {0.0, 1.0}, {0.0, 0.1});
  SimTime subscribed_at{};
  bool subscribed = false;
  (void)medium_.observe_quality(
      mac(1), mac(2), Technology::kBluetooth, kThreshold,
      [&](const LinkQualityEvent& e) {
        if (subscribed) return;
        subscribed = true;
        subscribed_at = e.at;
        // A link on an endpoint no other observer watches.
        (void)medium_.observe_quality(mac(1), mac(3), Technology::kBluetooth,
                                      kThreshold,
                                      [](const LinkQualityEvent&) {});
      });
  while (!subscribed) sim_.run_until(sim_.now() + milliseconds(10));

  // Both observers were evaluated at subscribed_at (the new one by its
  // subscription), so neither is due for 100 ms; on the first advance
  // that reaches it, both are evaluated.
  const SimTime due = subscribed_at + milliseconds(100);
  std::uint64_t evals = medium_.quality_stats().observer_evals;
  while (sim_.now() + milliseconds(10) < due) {
    sim_.run_until(sim_.now() + milliseconds(10));
    EXPECT_EQ(medium_.quality_stats().observer_evals, evals)
        << "at " << to_string(sim_.now());
  }
  sim_.run_until(due);
  EXPECT_EQ(medium_.quality_stats().observer_evals, evals + 2);
}

TEST_F(QualityObserverTest, TickCostIsMovedEndpointsNotSubscribers) {
  // The acceptance counter test: 1000 nodes, one of them mobile. Observers
  // blanket the static pairs; only the handful watching the mobile endpoint
  // may be re-evaluated per tick.
  constexpr std::uint64_t kNodes = 1000;
  for (std::uint64_t i = 1; i < kNodes; ++i) {
    add_static(i, {static_cast<double>(i % 100) * 3.0,
                   static_cast<double>(i / 100) * 3.0});
  }
  add_linear(kNodes, {0.0, 0.0}, {0.4, 0.0});

  // 500 static-static observers...
  for (std::uint64_t i = 1; i <= 500; ++i) {
    (void)medium_.observe_quality(mac(i), mac(i + 250),
                                  Technology::kBluetooth, kThreshold,
                                  [](const LinkQualityEvent&) {});
  }
  // ...and 4 watching the mobile endpoint.
  constexpr std::uint64_t kMobileObservers = 4;
  for (std::uint64_t i = 1; i <= kMobileObservers; ++i) {
    (void)medium_.observe_quality(mac(i), mac(kNodes),
                                  Technology::kBluetooth, kThreshold,
                                  [](const LinkQualityEvent&) {});
  }
  EXPECT_EQ(medium_.quality_observer_count(), 504u);

  const std::uint64_t before = medium_.quality_stats().observer_evals;
  // One scenario tick: the clock advances once past every rate limit.
  sim_.run_until(sim_.now() + seconds(1.0));
  const std::uint64_t evals = medium_.quality_stats().observer_evals - before;
  // O(moved endpoints): only the mobile endpoint's observers re-evaluate.
  EXPECT_LE(evals, kMobileObservers);
  EXPECT_GE(evals, 1u);
}

TEST_F(QualityObserverTest, QualityReadsAreSymmetricAndEachCountsOneEvaluation) {
  add_static(1, {0.0, 0.0});
  add_static(2, {4.0, 0.0});
  const auto& stats = medium_.quality_stats();
  const std::uint64_t evals0 = stats.evaluations;
  const int q =
      medium_.probe_link(mac(1), mac(2), Technology::kBluetooth).quality;
  EXPECT_GT(q, 0);
  EXPECT_EQ(medium_.probe_link(mac(2), mac(1), Technology::kBluetooth).quality,
            q);
  (void)medium_.sample_quality(mac(1), mac(2), Technology::kBluetooth);
  (void)medium_.sample_quality(mac(2), mac(1), Technology::kBluetooth);
  // Every read is one distance -> path-loss evaluation, within one tick too.
  EXPECT_EQ(stats.evaluations, evals0 + 4);

  sim_.run_until(sim_.now() + seconds(1.0));
  EXPECT_EQ(medium_.probe_link(mac(1), mac(2), Technology::kBluetooth).quality,
            q);
  EXPECT_EQ(stats.evaluations, evals0 + 5);
  // Nothing serves repeats any more; the counter stays for the benchmark.
  EXPECT_EQ(stats.cache_hits, 0u);
}

// Counts the velocity_at calls made on the model it wraps.
class CountingMobility final : public MobilityModel {
 public:
  explicit CountingMobility(std::shared_ptr<const MobilityModel> inner)
      : inner_{std::move(inner)} {}
  [[nodiscard]] Vec2 position_at(SimTime t) const override {
    return inner_->position_at(t);
  }
  [[nodiscard]] Vec2 velocity_at(SimTime t) const override {
    ++velocity_calls;
    return inner_->velocity_at(t);
  }
  mutable std::uint64_t velocity_calls{0};

 private:
  std::shared_ptr<const MobilityModel> inner_;
};

TEST_F(QualityObserverTest, ReCheckMeasuresQualityOnlyAndCrossingAddsMotion) {
  add_static(1, {0.0, 0.0});
  const auto walker = std::make_shared<CountingMobility>(
      std::make_shared<LinearMotion>(Vec2{1.0, 0.0}, Vec2{0.5, 0.0}));
  medium_.register_endpoint(mac(2), Technology::kBluetooth, walker, nullptr);
  std::vector<LinkQualityEvent> pushed;
  std::vector<LinkQualityEvent> probed;
  (void)medium_.observe_quality(
      mac(1), mac(2), Technology::kBluetooth, kThreshold,
      [&](const LinkQualityEvent& e) {
        pushed.push_back(e);
        probed.push_back(
            medium_.probe_link(mac(1), mac(2), Technology::kBluetooth));
      });
  // Subscribing primes the detector from a quality read alone.
  EXPECT_EQ(walker->velocity_calls, 0u);

  // Walks from 1 m to 11 m: kFell near 5.6 m, kLost at 10 m.
  const QualityStats& stats = medium_.quality_stats();
  int quiet = 0;
  for (int step = 0; step < 200; ++step) {
    const std::uint64_t evals = stats.evaluations;
    const std::uint64_t rechecks = stats.observer_evals;
    const std::uint64_t calls = walker->velocity_calls;
    const std::size_t events = pushed.size();
    sim_.run_until(sim_.now() + milliseconds(100));
    ASSERT_EQ(stats.observer_evals, rechecks + 1) << "step " << step;
    const std::uint64_t crossings = pushed.size() - events;
    if (crossings == 0) {
      ++quiet;
      EXPECT_EQ(walker->velocity_calls, calls) << "step " << step;
      EXPECT_EQ(stats.evaluations, evals + 1) << "step " << step;
    } else {
      // The re-check's own read and motion, plus each probe's.
      EXPECT_EQ(walker->velocity_calls, calls + 1 + crossings);
      EXPECT_EQ(stats.evaluations, evals + 1 + crossings);
    }
  }
  EXPECT_GT(quiet, 190);

  ASSERT_EQ(pushed.size(), 2u);
  EXPECT_EQ(pushed[0].edge, LinkQualityEvent::Edge::kFell);
  EXPECT_EQ(pushed[1].edge, LinkQualityEvent::Edge::kLost);
  for (std::size_t i = 0; i < pushed.size(); ++i) {
    // Bit for bit what a one-shot probe at the same instant reads.
    EXPECT_EQ(pushed[i].at, probed[i].at);
    EXPECT_EQ(pushed[i].quality, probed[i].quality);
    EXPECT_EQ(pushed[i].distance_m, probed[i].distance_m);
    EXPECT_EQ(pushed[i].radial_speed_mps, probed[i].radial_speed_mps);
    EXPECT_EQ(pushed[i].slope_per_s, probed[i].slope_per_s);
  }
  EXPECT_LT(pushed[0].slope_per_s, 0.0);
  EXPECT_NEAR(pushed[0].radial_speed_mps, 0.5, 1e-9);
}

// --- Quiet horizons ---------------------------------------------------------

struct ObservedWalk {
  std::vector<LinkQualityEvent> events;
  QualityStats stats;
};

// A walker going out past the coverage edge, back in to 0.5 m, out to
// hover near the threshold distance and out again, watched from a static
// endpoint at `threshold`. `unbounded` hides the walker's speed bound.
ObservedWalk observe_walk(const LinkQualityModel& quality, int threshold,
                          bool unbounded) {
  Simulator sim{42};
  RadioMedium medium{sim, quality};
  medium.register_endpoint(mac(1), Technology::kBluetooth,
                           std::make_shared<StaticPosition>(Vec2{}), nullptr);
  const auto at = [](double s) { return SimTime{} + seconds(s); };
  const auto walk = std::make_shared<WaypointPath>(
      std::vector<WaypointPath::Waypoint>{{at(0.0), {1.0, 0.0}},
                                          {at(12.0), {12.0, 0.0}},
                                          {at(20.0), {0.0, 0.5}},
                                          {at(30.0), {5.6, 0.0}},
                                          {at(50.0), {5.9, 0.0}},
                                          {at(53.0), {5.3, 0.1}},
                                          {at(70.0), {11.0, 0.0}}});
  medium.register_endpoint(mac(2), Technology::kBluetooth,
                           testing::maybe_unbounded(walk, unbounded),
                           nullptr);
  ObservedWalk out;
  (void)medium.observe_quality(
      mac(1), mac(2), Technology::kBluetooth, threshold,
      [&out](const LinkQualityEvent& e) { out.events.push_back(e); });
  while (sim.now() < at(75.0)) sim.run_until(sim.now() + milliseconds(37));
  out.stats = medium.quality_stats();
  return out;
}

// Thresholds from low to high: every crossing is pushed at the same
// instant with the same reading, and the proven run measures less.
TEST(QualityObserverHorizon, PushesWhatAlwaysMeasuringPushes) {
  int pushed = 0;
  const LinkQualityModel quality;
  for (const int threshold : {1, 180, 200, kThreshold, 250, 255}) {
    const ObservedWalk proven = observe_walk(quality, threshold, false);
    const ObservedWalk measured = observe_walk(quality, threshold, true);
    const std::string where = "threshold " + std::to_string(threshold);
    ASSERT_EQ(proven.events.size(), measured.events.size()) << where;
    for (std::size_t i = 0; i < proven.events.size(); ++i) {
      const LinkQualityEvent& p = proven.events[i];
      const LinkQualityEvent& m = measured.events[i];
      EXPECT_EQ(p.edge, m.edge) << where << " event " << i;
      EXPECT_EQ(p.at, m.at) << where << " event " << i;
      EXPECT_EQ(p.quality, m.quality) << where << " event " << i;
      EXPECT_EQ(p.distance_m, m.distance_m) << where << " event " << i;
      EXPECT_EQ(p.slope_per_s, m.slope_per_s) << where;
      EXPECT_EQ(p.radial_speed_mps, m.radial_speed_mps) << where;
    }
    EXPECT_EQ(proven.stats.observer_evals, measured.stats.observer_evals)
        << where;
    EXPECT_EQ(proven.stats.events_emitted, measured.stats.events_emitted)
        << where;
    EXPECT_LT(proven.stats.evaluations, measured.stats.evaluations) << where;
    pushed += static_cast<int>(proven.events.size());
  }
  EXPECT_GE(pushed, 33);
}

// Near the threshold the horizon shrinks to nothing: a link hovering just
// above it is measured on every re-check, so kFell lands on the re-check
// an always-measuring observer pushes it on.
TEST(QualityObserverHorizon, FellAtTheSameInstantNearTheThreshold) {
  const LinkQualityModel quality;
  const ObservedWalk proven = observe_walk(quality, kThreshold, false);
  const ObservedWalk measured = observe_walk(quality, kThreshold, true);
  std::vector<SimTime> proven_fell;
  std::vector<SimTime> measured_fell;
  for (const LinkQualityEvent& e : proven.events) {
    if (e.edge == LinkQualityEvent::Edge::kFell) proven_fell.push_back(e.at);
  }
  for (const LinkQualityEvent& e : measured.events) {
    if (e.edge == LinkQualityEvent::Edge::kFell) measured_fell.push_back(e.at);
  }
  // Out past the edge, and twice more while hovering around 5.6-5.9 m.
  EXPECT_GE(proven_fell.size(), 2u);
  EXPECT_EQ(proven_fell, measured_fell);
}

}  // namespace
}  // namespace peerhood::sim
