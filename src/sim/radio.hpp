// Radio technology models. Parameters are calibrated from the paper's own
// measurements: Bluetooth bridge connections took 3-18 s and 3/10 attempts
// failed (§4.3); discovery is asymmetric — an inquiring Bluetooth device is
// itself undiscoverable (§3.4.2, citing [4]); link quality is the 0-255 RSSI
// style value with the handover threshold at 230 (§3.4.1, §5.2.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/rng.hpp"
#include "common/sim_time.hpp"

namespace peerhood {

// The paper's three supported "prototypes" (network technologies).
enum class Technology : std::uint8_t { kBluetooth = 0, kWlan = 1, kGprs = 2 };

// Number of technologies; Technology values are dense in [0, count) so they
// can index fixed arrays (per-technology parameters, spatial grids).
inline constexpr std::size_t kTechnologyCount = 3;

[[nodiscard]] constexpr std::string_view to_string(Technology tech) {
  switch (tech) {
    case Technology::kBluetooth: return "bluetooth";
    case Technology::kWlan: return "wlan";
    case Technology::kGprs: return "gprs";
  }
  return "unknown";
}

// The paper's device mobility classes with their numeric costs (§3.4.3):
// {static, hybrid, dynamic} = {0, 1, 3}.
enum class MobilityClass : std::uint8_t { kStatic = 0, kHybrid = 1, kDynamic = 3 };

[[nodiscard]] constexpr int mobility_cost(MobilityClass m) {
  return static_cast<int>(m);
}

[[nodiscard]] constexpr std::string_view to_string(MobilityClass m) {
  switch (m) {
    case MobilityClass::kStatic: return "static";
    case MobilityClass::kHybrid: return "hybrid";
    case MobilityClass::kDynamic: return "dynamic";
  }
  return "unknown";
}

namespace sim {

struct TechnologyParams {
  Technology tech{Technology::kBluetooth};
  double range_m{10.0};

  // Device discovery loop period ("device searching cycle", Fig. 3.10).
  SimDuration inquiry_interval{std::chrono::seconds{10}};
  // Time spent actively inquiring each cycle. While inquiring, a device with
  // asymmetric_discovery is not discoverable by others (§3.4.2).
  SimDuration inquiry_duration{std::chrono::milliseconds{2560}};
  bool asymmetric_discovery{true};

  // Duration of one short information-fetch connection (Fig. 3.7 shows four
  // per discovered device: device / prototype / service / neighbourhood).
  SimDuration fetch_time{std::chrono::milliseconds{300}};
  double fetch_failure_prob{0.05};

  // Data-connection establishment (per hop).
  double connect_delay_min_s{1.5};
  double connect_delay_max_s{9.0};
  double connect_failure_prob{0.16};

  // Data-plane characteristics.
  SimDuration per_hop_latency{std::chrono::milliseconds{30}};
  double bytes_per_second{100'000.0};
};

// Calibration notes:
//  * Bluetooth: class-2 range ~10 m. Per-hop connect delay U(1.5 s, 9 s), so
//    a two-hop bridge path lands in the 3-18 s window reported in §4.3, and
//    per-hop failure 0.16 reproduces ~3 failures in 10 two-hop attempts.
//  * WLAN: larger range, fast association, low loss.
//  * GPRS: cellular — effectively always in range, moderate setup time.
[[nodiscard]] TechnologyParams bluetooth_params();
[[nodiscard]] TechnologyParams wlan_params();
[[nodiscard]] TechnologyParams gprs_params();
[[nodiscard]] TechnologyParams default_params(Technology tech);

// Distance -> link-quality mapping (0-255), the sim's stand-in for the
// measured Bluetooth RSSI (§3.4.1). Quality stays near q_max close to the
// transmitter and falls as a concave power of distance to q_edge at the
// coverage edge (q_max - (q_max-q_edge)·(d/r)^exponent), plus bounded
// per-sample noise. Beyond the range the link is dead (quality 0).
struct LinkQualityModel {
  static constexpr int q_max = 255;
  static constexpr int q_edge = 175;
  static constexpr double exponent = 2.0;

  double noise{2.0};

  // The paper's "minimum demanded" link quality (Fig. 3.9, §5.2.1).
  static constexpr int kDefaultThreshold = 230;

  // Noise-free quality before the integer clamp; 0.0 means dead link (out
  // of range).
  [[nodiscard]] double base_quality(double distance_m, double range_m) const;
  // The inverse of base_quality: the largest distance whose base quality
  // is still at least `base` (at most range_m), exact only to rounding;
  // -infinity if the base quality is below `base` everywhere.
  [[nodiscard]] double reach(double base, double range_m) const;
  // Applies per-sample noise and the 1..255 clamp to a live base quality.
  [[nodiscard]] int finalize(double base, Rng* noise_rng) const;

  [[nodiscard]] int quality(double distance_m, double range_m,
                            Rng* noise_rng = nullptr) const;
};

}  // namespace sim
}  // namespace peerhood
