// E-scale — neighbour-query scaling of the radio medium (ISSUE 1 tentpole).
//
// A "discovery sweep" asks the medium for every node's in-range neighbour
// set — exactly what the PeerHood inquiry loops do once per searching cycle.
// The sweep is timed two ways over the same randomly moving population:
//
//  * brute: in_range_of_brute (tests/reference_neighbours.hpp) — the
//    pre-grid linear scan, one virtual position_at call per endpoint per
//    query (O(N^2) per sweep);
//  * grid:  in_range_of — spatial grid + per-SimTime position cache
//    (O(N) rebuild per tick, then O(local density) per query).
//
// Node density is held constant (~8 expected Bluetooth neighbours) so the
// sweep cost isolates the index, not a denser radio environment. Each
// repetition advances simulated time to force grid rebuilds and position
// re-sampling, matching how discovery cycles hit the medium in real runs.
//
// Pass --smoke for a tiny workload (CI keeps BENCH_JSON emission alive).
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "reference_neighbours.hpp"
#include "sim/medium.hpp"

namespace {

using namespace peerhood;
using namespace peerhood::bench;

bool g_smoke = false;

constexpr double kTargetNeighbours = 8.0;

struct Scene {
  explicit Scene(int n, std::uint64_t seed) : sim{seed}, medium{sim} {
    const double range = medium.params(Technology::kBluetooth).range_m;
    const double area =
        static_cast<double>(n) * M_PI * range * range / kTargetNeighbours;
    const double side = std::sqrt(area);
    Rng rng = sim.fork_rng();
    macs.reserve(static_cast<std::size_t>(n));
    for (int i = 1; i <= n; ++i) {
      sim::RandomWaypoint::Config config;
      config.area_min = {0.0, 0.0};
      config.area_max = {side, side};
      config.speed_min_mps = 0.5;
      config.speed_max_mps = 2.0;
      const sim::Vec2 start{rng.uniform(0.0, side), rng.uniform(0.0, side)};
      const MacAddress mac = MacAddress::from_index(
          static_cast<std::uint64_t>(i));
      auto mobility =
          std::make_shared<sim::RandomWaypoint>(config, start, sim.fork_rng());
      medium.register_endpoint(mac, Technology::kBluetooth, mobility, nullptr);
      macs.push_back(mac);
      endpoints.push_back(sim::ReferenceEndpoint{mac, std::move(mobility)});
    }
  }

  // The brute-force oracle's answer for one node at the current SimTime.
  [[nodiscard]] std::vector<MacAddress> brute(MacAddress mac) const {
    return sim::in_range_of_brute(
        endpoints, mac, medium.params(Technology::kBluetooth).range_m,
        sim.now());
  }

  sim::Simulator sim;
  sim::RadioMedium medium;
  std::vector<MacAddress> macs;
  std::vector<sim::ReferenceEndpoint> endpoints;
};

// One full discovery sweep; returns total neighbour count (checksum).
template <bool kBrute>
std::size_t sweep(Scene& scene) {
  std::size_t total = 0;
  for (const MacAddress mac : scene.macs) {
    const auto neighbours =
        kBrute ? scene.brute(mac)
               : scene.medium.in_range_of(mac, Technology::kBluetooth);
    total += neighbours.size();
  }
  return total;
}

template <bool kBrute>
double timed_sweeps_ms(Scene& scene, int reps, std::size_t* checksum) {
  using Clock = std::chrono::steady_clock;
  double total_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    // Advance virtual time so every rep re-samples positions and (for the
    // grid path) rebuilds the index — no free riding on a warm cache.
    scene.sim.run_until(scene.sim.now() + seconds(1.0));
    const auto begin = Clock::now();
    *checksum += sweep<kBrute>(scene);
    const auto end = Clock::now();
    total_ms += std::chrono::duration<double, std::milli>(end - begin).count();
  }
  return total_ms / reps;
}

// Beyond this population the full-sweep brute oracle dominates the bench's
// runtime, so it is sampled instead: kOracleSample randomly spread nodes are
// queried both ways (exact per-node set equality, a stronger check than the
// checksum) and the brute sweep cost is extrapolated from the per-query mean.
constexpr int kOracleFullSweepMax = 5000;
constexpr int kOracleSample = 200;

// Sampled-oracle measurement for one rep. Returns the grid sweep time and
// extrapolated brute sweep time; `parity_ok` accumulates per-node equality.
void sampled_rep(Scene& scene, double* grid_ms, double* brute_ms,
                 bool* parity_ok) {
  using Clock = std::chrono::steady_clock;
  scene.sim.run_until(scene.sim.now() + seconds(1.0));
  const auto grid_begin = Clock::now();
  std::size_t checksum = sweep<false>(scene);
  const auto grid_end = Clock::now();
  keep(checksum);
  *grid_ms +=
      std::chrono::duration<double, std::milli>(grid_end - grid_begin).count();

  const std::size_t n = scene.macs.size();
  const std::size_t stride = n / kOracleSample;
  double queries = 0.0;
  const auto brute_begin = Clock::now();
  for (std::size_t i = 0; i < n; i += stride) {
    keep(scene.brute(scene.macs[i]).data());
    queries += 1.0;
  }
  const auto brute_end = Clock::now();
  const double sampled_ms =
      std::chrono::duration<double, std::milli>(brute_end - brute_begin)
          .count();
  *brute_ms += sampled_ms / queries * static_cast<double>(n);

  // Parity outside the timed region: at the same SimTime the grid answer
  // must match the oracle exactly, node by node.
  for (std::size_t i = 0; i < n; i += stride) {
    if (scene.brute(scene.macs[i]) !=
        scene.medium.in_range_of(scene.macs[i], Technology::kBluetooth)) {
      *parity_ok = false;
    }
  }
}

// Returns false when the grid disagreed with the brute-force oracle.
bool report_sweep_scaling() {
  heading("E-scale  Discovery sweep: brute-force scan vs spatial grid");
  std::printf("%7s %14s %14s %10s %12s %8s\n", "nodes", "brute (ms)",
              "grid (ms)", "speedup", "parity ok", "oracle");
  const std::vector<int> sizes =
      g_smoke ? std::vector<int>{100, 500, 1000, 2000}
              : std::vector<int>{100, 500, 1000, 2000, 5000, 10'000, 20'000,
                                 50'000};
  bool every_parity_ok = true;
  for (const int n : sizes) {
    const bool sampled = n > kOracleFullSweepMax;
    // Fewer reps at the largest sizes keeps the brute baseline affordable.
    const int reps = n >= 2000 ? (sampled ? 2 : 3) : 5;
    double brute_ms = 0.0;
    double grid_ms = 0.0;
    bool parity_ok = true;
    if (sampled) {
      Scene scene{n, /*seed=*/7};
      for (int rep = 0; rep < reps; ++rep) {
        sampled_rep(scene, &grid_ms, &brute_ms, &parity_ok);
      }
      brute_ms /= reps;
      grid_ms /= reps;
    } else {
      std::size_t check_brute = 0;
      std::size_t check_grid = 0;
      Scene brute_scene{n, /*seed=*/7};
      Scene grid_scene{n, /*seed=*/7};
      brute_ms = timed_sweeps_ms<true>(brute_scene, reps, &check_brute);
      grid_ms = timed_sweeps_ms<false>(grid_scene, reps, &check_grid);
      // Identical seeds + identical rep schedule => the sweeps must count the
      // exact same neighbour sets; a mismatch means the grid is wrong.
      parity_ok = check_brute == check_grid;
    }
    const double speedup = grid_ms > 0.0 ? brute_ms / grid_ms : 0.0;
    std::printf("%7d %14.3f %14.3f %9.1fx %12s %8s\n", n, brute_ms, grid_ms,
                speedup, parity_ok ? "yes" : "NO",
                sampled ? "sampled" : "full");
    JsonRecord{"medium_scale_sweep"}
        .field("nodes", n)
        .field("brute_ms_per_sweep", brute_ms)
        .field("grid_ms_per_sweep", grid_ms)
        .field("speedup", speedup)
        .field("checksum_ok", parity_ok)
        .field("oracle", sampled ? "sampled" : "full")
        .emit();
    every_parity_ok = every_parity_ok && parity_ok;
  }
  note("acceptance: >= 5x at 2000 nodes; full oracle compares total");
  note("neighbour counts over identical scenarios; above 5000 nodes the");
  note("oracle samples 200 nodes (exact per-node set equality) and the");
  note("brute sweep time is extrapolated from the per-query mean.");
  return every_parity_ok;
}

}  // namespace

int main(int argc, char** argv) {
  g_smoke = smoke_flag(argc, argv);
  return report_sweep_scaling() ? 0 : 1;
}
