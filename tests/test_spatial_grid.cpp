#include "sim/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "reference_neighbours.hpp"
#include "sim/medium.hpp"

namespace peerhood::sim {
namespace {

// --- SpatialGrid in isolation ----------------------------------------------

std::vector<std::uint64_t> block_ids(const SpatialGrid& grid, Vec2 origin) {
  std::vector<std::uint64_t> ids;
  grid.visit_block(origin,
                   [&](const SpatialGrid::Entry& e) { ids.push_back(e.id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(SpatialGrid, InsertRemoveContains) {
  SpatialGrid grid{10.0};
  EXPECT_EQ(grid.size(), 0u);
  grid.insert(1, {0.0, 0.0}, nullptr);
  grid.insert(2, {5.0, 5.0}, nullptr);
  EXPECT_EQ(grid.size(), 2u);
  EXPECT_TRUE(grid.contains(1));
  EXPECT_TRUE(grid.remove(1));
  EXPECT_FALSE(grid.contains(1));
  EXPECT_FALSE(grid.remove(1));
  EXPECT_EQ(grid.size(), 1u);
  grid.clear();
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_FALSE(grid.contains(2));
}

TEST(SpatialGrid, ReinsertMovesEntry) {
  SpatialGrid grid{10.0};
  grid.insert(7, {0.0, 0.0}, nullptr);
  // Move far away: the old bucket must no longer report the entry.
  grid.insert(7, {500.0, 500.0}, nullptr);
  EXPECT_EQ(grid.size(), 1u);
  EXPECT_TRUE(block_ids(grid, {0.0, 0.0}).empty());
  EXPECT_EQ(block_ids(grid, {500.0, 500.0}), std::vector<std::uint64_t>{7});
}

TEST(SpatialGrid, BlockCoversRadiusIncludingNegativeCells) {
  SpatialGrid grid{10.0};
  // Points exactly `cell_size` away in every direction, straddling the cell
  // boundaries around the origin (including negative coordinates).
  grid.insert(1, {10.0, 0.0}, nullptr);
  grid.insert(2, {-10.0, 0.0}, nullptr);
  grid.insert(3, {0.0, 10.0}, nullptr);
  grid.insert(4, {0.0, -10.0}, nullptr);
  grid.insert(5, {-7.0, -7.0}, nullptr);
  grid.insert(6, {35.0, 0.0}, nullptr);  // beyond the 3x3 block
  const auto ids = block_ids(grid, {0.0, 0.0});
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(SpatialGrid, UpdateMovesEntryAcrossCells) {
  SpatialGrid grid{10.0};
  EXPECT_FALSE(grid.update(7, {1.0, 1.0}));  // unknown id
  int payload = 0;
  grid.insert(7, {0.0, 0.0}, &payload);

  // Same-cell move: position rewritten in place.
  EXPECT_TRUE(grid.update(7, {3.0, 4.0}));
  bool seen = false;
  grid.visit_block({0.0, 0.0}, [&](const SpatialGrid::Entry& e) {
    seen = true;
    EXPECT_EQ(e.position, (Vec2{3.0, 4.0}));
    EXPECT_EQ(e.payload, &payload);
  });
  EXPECT_TRUE(seen);

  // Cross-cell move: old bucket emptied, payload carried along.
  EXPECT_TRUE(grid.update(7, {500.0, 500.0}));
  EXPECT_TRUE(block_ids(grid, {0.0, 0.0}).empty());
  EXPECT_EQ(block_ids(grid, {500.0, 500.0}), std::vector<std::uint64_t>{7});
  grid.visit_block({500.0, 500.0}, [&](const SpatialGrid::Entry& e) {
    EXPECT_EQ(e.payload, &payload);
  });
  EXPECT_EQ(grid.size(), 1u);
}

TEST(SpatialGrid, SetCellSizeClears) {
  SpatialGrid grid{10.0};
  grid.insert(1, {0.0, 0.0}, nullptr);
  grid.set_cell_size(50.0);
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_DOUBLE_EQ(grid.cell_size(), 50.0);
}

// --- Grid-backed medium vs brute-force oracle --------------------------------

class GridParityTest : public ::testing::Test {
 protected:
  GridParityTest() : sim_{2024}, medium_{sim_} {}

  // Registers (or re-registers) an endpoint with the medium and mirrors it
  // in the oracle's endpoint list.
  MacAddress add(std::uint64_t index,
                 std::shared_ptr<const MobilityModel> mobility,
                 Technology tech = Technology::kBluetooth) {
    const MacAddress mac = MacAddress::from_index(index);
    medium_.register_endpoint(mac, tech, mobility, nullptr);
    std::vector<ReferenceEndpoint>& list = endpoints(tech);
    const auto it = find(list, mac);
    if (it != list.end()) {
      it->mobility = std::move(mobility);
    } else {
      list.push_back(ReferenceEndpoint{mac, std::move(mobility)});
    }
    return mac;
  }

  void remove(MacAddress mac, Technology tech = Technology::kBluetooth) {
    medium_.unregister_endpoint(mac, tech);
    std::vector<ReferenceEndpoint>& list = endpoints(tech);
    list.erase(find(list, mac));
  }

  // The brute-force oracle over the same endpoints at the current SimTime.
  std::vector<MacAddress> brute(MacAddress mac, Technology tech) {
    return in_range_of_brute(endpoints(tech), mac, medium_.params(tech).range_m,
                             sim_.now());
  }

  void expect_parity(Technology tech) {
    for (const ReferenceEndpoint& endpoint : endpoints(tech)) {
      EXPECT_EQ(medium_.in_range_of(endpoint.mac, tech),
                brute(endpoint.mac, tech))
          << "query origin " << endpoint.mac.to_string() << " at t="
          << sim_.now().seconds() << "s";
    }
  }

  Simulator sim_;
  RadioMedium medium_;

 private:
  std::vector<ReferenceEndpoint>& endpoints(Technology tech) {
    return endpoints_[static_cast<std::size_t>(tech)];
  }
  static std::vector<ReferenceEndpoint>::iterator find(
      std::vector<ReferenceEndpoint>& list, MacAddress mac) {
    return std::find_if(list.begin(), list.end(),
                        [mac](const ReferenceEndpoint& e) {
                          return e.mac == mac;
                        });
  }

  std::array<std::vector<ReferenceEndpoint>, kTechnologyCount> endpoints_;
};

TEST_F(GridParityTest, RandomizedMovingNodesManySimTimes) {
  Rng rng = sim_.fork_rng();
  for (std::uint64_t i = 1; i <= 90; ++i) {
    const Vec2 start{rng.uniform(-70.0, 70.0), rng.uniform(-70.0, 70.0)};
    std::shared_ptr<const MobilityModel> model;
    switch (i % 3) {
      case 0:
        model = std::make_shared<StaticPosition>(start);
        break;
      case 1:
        model = std::make_shared<LinearMotion>(
            start, Vec2{rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)});
        break;
      default: {
        RandomWaypoint::Config config;
        config.area_min = {-70.0, -70.0};
        config.area_max = {70.0, 70.0};
        model = std::make_shared<RandomWaypoint>(config, start,
                                                 sim_.fork_rng());
        break;
      }
    }
    add(i, std::move(model),
        i % 2 == 0 ? Technology::kWlan : Technology::kBluetooth);
  }
  for (int step = 0; step < 20; ++step) {
    sim_.run_until(sim_.now() + seconds(3.3));
    expect_parity(Technology::kBluetooth);
    expect_parity(Technology::kWlan);
  }
}

TEST_F(GridParityTest, PointQueriesBetweenTicksDoNotDesyncTheGrid) {
  // in_range / probe_link re-sample the position cache without refreshing
  // the grid; the incremental refresh must still detect the move (it
  // compares against the entry's recorded grid position, not the cache).
  const MacAddress mover =
      add(1, std::make_shared<LinearMotion>(Vec2{0.0, 0.0}, Vec2{2.0, 0.0}));
  add(2, std::make_shared<StaticPosition>(Vec2{9.0, 0.0}));
  add(3, std::make_shared<StaticPosition>(Vec2{30.0, 0.0}));
  expect_parity(Technology::kBluetooth);  // grid built at t=0
  for (int step = 0; step < 12; ++step) {
    sim_.run_until(sim_.now() + seconds(2.0));
    // Point query first: refreshes the mover's cached position only.
    (void)medium_.in_range(mover, MacAddress::from_index(2),
                           Technology::kBluetooth);
    (void)medium_.probe_link(mover, MacAddress::from_index(3),
                             Technology::kBluetooth);
    // Neighbour query second: the incremental refresh must move the entry.
    expect_parity(Technology::kBluetooth);
  }
}

TEST_F(GridParityTest, AllStaticDeploymentStaysExact) {
  // With no mobile endpoints the stale grid revalidates in O(1); results
  // must still match the brute oracle at every time step, including around
  // register/unregister while time advances.
  Rng rng = sim_.fork_rng();
  for (std::uint64_t i = 1; i <= 40; ++i) {
    add(i, std::make_shared<StaticPosition>(
               Vec2{rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)}));
  }
  for (int step = 0; step < 6; ++step) {
    sim_.run_until(sim_.now() + seconds(1.0));
    expect_parity(Technology::kBluetooth);
  }
  remove(MacAddress::from_index(7));
  sim_.run_until(sim_.now() + seconds(1.0));
  add(41, std::make_shared<StaticPosition>(Vec2{0.0, 0.0}));
  expect_parity(Technology::kBluetooth);
}

TEST_F(GridParityTest, NodeExactlyAtRangeIsIncluded) {
  const MacAddress a =
      add(1, std::make_shared<StaticPosition>(Vec2{0.0, 0.0}));
  // Bluetooth range is exactly 10 m; boundary nodes in several directions,
  // including negative coordinates and cell-edge positions.
  add(2, std::make_shared<StaticPosition>(Vec2{10.0, 0.0}));
  add(3, std::make_shared<StaticPosition>(Vec2{-10.0, 0.0}));
  add(4, std::make_shared<StaticPosition>(Vec2{0.0, -10.0}));
  add(5, std::make_shared<StaticPosition>(Vec2{-6.0, -8.0}));  // dist 10
  add(6, std::make_shared<StaticPosition>(Vec2{10.001, 0.0}));  // just out
  const auto neighbours = medium_.in_range_of(a, Technology::kBluetooth);
  EXPECT_EQ(neighbours.size(), 4u);
  EXPECT_EQ(neighbours, brute(a, Technology::kBluetooth));
  EXPECT_TRUE(medium_.in_range(a, MacAddress::from_index(5),
                               Technology::kBluetooth));
  EXPECT_FALSE(medium_.in_range(a, MacAddress::from_index(6),
                                Technology::kBluetooth));
}

TEST_F(GridParityTest, NegativeCoordinatesParity) {
  const MacAddress a =
      add(1, std::make_shared<StaticPosition>(Vec2{-55.0, -55.0}));
  add(2, std::make_shared<StaticPosition>(Vec2{-62.0, -55.0}));
  add(3, std::make_shared<StaticPosition>(Vec2{-55.0, -48.0}));
  add(4, std::make_shared<StaticPosition>(Vec2{-70.0, -70.0}));
  const auto neighbours = medium_.in_range_of(a, Technology::kBluetooth);
  EXPECT_EQ(neighbours.size(), 2u);
  EXPECT_EQ(neighbours, brute(a, Technology::kBluetooth));
}

TEST_F(GridParityTest, RegisterWhileGridCachedSameTick) {
  const MacAddress a =
      add(1, std::make_shared<StaticPosition>(Vec2{0.0, 0.0}));
  add(2, std::make_shared<StaticPosition>(Vec2{5.0, 0.0}));
  // First query builds the grid for the current sim time.
  EXPECT_EQ(medium_.in_range_of(a, Technology::kBluetooth).size(), 1u);
  // Register another neighbour without advancing the clock: the cached grid
  // must pick it up incrementally.
  add(3, std::make_shared<StaticPosition>(Vec2{0.0, 5.0}));
  const auto neighbours = medium_.in_range_of(a, Technology::kBluetooth);
  EXPECT_EQ(neighbours.size(), 2u);
  EXPECT_EQ(neighbours, brute(a, Technology::kBluetooth));
}

TEST_F(GridParityTest, UnregisterWhileGridCachedSameTick) {
  const MacAddress a =
      add(1, std::make_shared<StaticPosition>(Vec2{0.0, 0.0}));
  const MacAddress b =
      add(2, std::make_shared<StaticPosition>(Vec2{5.0, 0.0}));
  add(3, std::make_shared<StaticPosition>(Vec2{0.0, 5.0}));
  EXPECT_EQ(medium_.in_range_of(a, Technology::kBluetooth).size(), 2u);
  remove(b);
  const auto neighbours = medium_.in_range_of(a, Technology::kBluetooth);
  EXPECT_EQ(neighbours.size(), 1u);
  EXPECT_EQ(neighbours, brute(a, Technology::kBluetooth));
}

TEST_F(GridParityTest, ReRegisterMovesEndpointSameTick) {
  const MacAddress a =
      add(1, std::make_shared<StaticPosition>(Vec2{0.0, 0.0}));
  const MacAddress b =
      add(2, std::make_shared<StaticPosition>(Vec2{500.0, 0.0}));
  EXPECT_TRUE(medium_.in_range_of(a, Technology::kBluetooth).empty());
  // Re-registration teleports b next to a; the cached grid must move it.
  add(2, std::make_shared<StaticPosition>(Vec2{3.0, 0.0}));
  const auto neighbours = medium_.in_range_of(a, Technology::kBluetooth);
  ASSERT_EQ(neighbours.size(), 1u);
  EXPECT_EQ(neighbours[0], b);
  EXPECT_EQ(neighbours, brute(a, Technology::kBluetooth));
}

TEST_F(GridParityTest, ConfigureNewRangeInvalidatesGrid) {
  const MacAddress a =
      add(1, std::make_shared<StaticPosition>(Vec2{0.0, 0.0}));
  add(2, std::make_shared<StaticPosition>(Vec2{30.0, 0.0}));
  EXPECT_TRUE(medium_.in_range_of(a, Technology::kBluetooth).empty());
  TechnologyParams wide = bluetooth_params();
  wide.range_m = 40.0;
  medium_.configure(wide);
  const auto neighbours = medium_.in_range_of(a, Technology::kBluetooth);
  EXPECT_EQ(neighbours.size(), 1u);
  EXPECT_EQ(neighbours, brute(a, Technology::kBluetooth));
}

TEST_F(GridParityTest, FastMoverCrossesCellsOverTime) {
  const MacAddress a =
      add(1, std::make_shared<StaticPosition>(Vec2{0.0, 0.0}));
  // Starts two cells away, drives straight through a's cell and out again.
  const MacAddress b = add(
      2, std::make_shared<LinearMotion>(Vec2{-25.0, 0.0}, Vec2{5.0, 0.0}));
  bool seen_in_range = false;
  bool seen_out_after = false;
  for (int step = 0; step < 12; ++step) {
    sim_.run_until(sim_.now() + seconds(1.0));
    const auto neighbours = medium_.in_range_of(a, Technology::kBluetooth);
    EXPECT_EQ(neighbours,
              brute(a, Technology::kBluetooth));
    const bool in_now =
        std::find(neighbours.begin(), neighbours.end(), b) != neighbours.end();
    seen_in_range = seen_in_range || in_now;
    if (seen_in_range && !in_now) seen_out_after = true;
  }
  EXPECT_TRUE(seen_in_range);
  EXPECT_TRUE(seen_out_after);
}

TEST_F(GridParityTest, DiscoverableFilteringMatchesAfterTimeAdvance) {
  const MacAddress a =
      add(1, std::make_shared<StaticPosition>(Vec2{0.0, 0.0}));
  const MacAddress b =
      add(2, std::make_shared<StaticPosition>(Vec2{4.0, 0.0}));
  add(3, std::make_shared<StaticPosition>(Vec2{0.0, 4.0}));
  sim_.run_until(sim_.now() + seconds(5.0));
  medium_.set_inquiring(b, Technology::kBluetooth, true);
  const auto discoverable =
      medium_.discoverable_in_range(a, Technology::kBluetooth);
  ASSERT_EQ(discoverable.size(), 1u);
  EXPECT_EQ(discoverable[0], MacAddress::from_index(3));
}

}  // namespace
}  // namespace peerhood::sim
