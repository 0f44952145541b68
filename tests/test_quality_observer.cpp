// Push-based link-quality plane (PR 5): threshold/hysteresis crossing
// events, slope signs, observer lifecycle (idempotent unsubscribe,
// reentrant unsubscribe/subscribe from inside a callback), symmetric
// quality reads with their evaluation count, and the scaling contract — a scenario tick performs
// O(observers on moved endpoints) evaluations, not O(subscribers) polls,
// and an endpoint re-registration or a subscription from a callback is
// never missed by the walk that skips ticks with nothing due.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

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
  const int q = medium_.expected_quality(mac(1), mac(2),
                                         Technology::kBluetooth);
  EXPECT_GT(q, 0);
  EXPECT_EQ(medium_.expected_quality(mac(2), mac(1), Technology::kBluetooth),
            q);
  (void)medium_.sample_quality(mac(1), mac(2), Technology::kBluetooth);
  (void)medium_.sample_quality(mac(2), mac(1), Technology::kBluetooth);
  // Every read is one distance -> path-loss evaluation, within one tick too.
  EXPECT_EQ(stats.evaluations, evals0 + 4);

  sim_.run_until(sim_.now() + seconds(1.0));
  EXPECT_EQ(medium_.expected_quality(mac(1), mac(2), Technology::kBluetooth),
            q);
  EXPECT_EQ(stats.evaluations, evals0 + 5);
  // Nothing serves repeats any more; the counter stays for the benchmark.
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(LinkQualityModelTest, LogDistanceLawDecaysSteeperNearTransmitter) {
  LinkQualityModel concave;
  LinkQualityModel logdist;
  logdist.law = PathLossLaw::kLogDistance;
  // Same endpoints of the curve...
  EXPECT_EQ(concave.quality(0.0, 10.0), logdist.quality(0.0, 10.0));
  EXPECT_EQ(concave.quality(10.0, 10.0), logdist.quality(10.0, 10.0));
  EXPECT_EQ(logdist.quality(10.01, 10.0), 0);
  // ...but log-distance loses more quality early.
  EXPECT_LT(logdist.quality(2.0, 10.0), concave.quality(2.0, 10.0));
  // Monotone non-increasing across the coverage.
  int prev = 256;
  for (double d = 0.0; d <= 10.0; d += 0.5) {
    const int q = logdist.quality(d, 10.0);
    EXPECT_LE(q, prev);
    prev = q;
  }
}

TEST(LinkQualityModelTest, ShadowingIsDeterministicPerLink) {
  LinkQualityModel model;
  model.shadow_sigma = 6.0;
  model.shadow_seed = 7;
  const int a = model.quality(5.0, 10.0, nullptr, 1234);
  const int b = model.quality(5.0, 10.0, nullptr, 1234);
  const int c = model.quality(5.0, 10.0, nullptr, 9999);
  EXPECT_EQ(a, b);   // same link, same shadow
  EXPECT_NE(a, c);   // different link, decorrelated shadow
  LinkQualityModel plain;
  // link_key without shadowing configured changes nothing.
  EXPECT_EQ(plain.quality(5.0, 10.0, nullptr, 1234),
            plain.quality(5.0, 10.0));
}

}  // namespace
}  // namespace peerhood::sim
