#include "sim/radio.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace peerhood::sim {

TechnologyParams bluetooth_params() {
  TechnologyParams p;
  p.tech = Technology::kBluetooth;
  p.range_m = 10.0;
  p.inquiry_interval = std::chrono::seconds{10};
  // Effective undiscoverable window per cycle. Real inquiry lasts longer
  // but interleaves with scan; ~13% of samples miss an inquiring device.
  p.inquiry_duration = std::chrono::milliseconds{1280};
  p.asymmetric_discovery = true;
  p.fetch_time = std::chrono::milliseconds{300};
  p.fetch_failure_prob = 0.05;
  p.connect_delay_min_s = 1.5;
  p.connect_delay_max_s = 9.0;
  p.connect_failure_prob = 0.16;
  p.per_hop_latency = std::chrono::milliseconds{30};
  p.bytes_per_second = 100'000.0;  // ~BT 1.2 practical throughput
  return p;
}

TechnologyParams wlan_params() {
  TechnologyParams p;
  p.tech = Technology::kWlan;
  p.range_m = 50.0;
  p.inquiry_interval = std::chrono::seconds{5};
  p.inquiry_duration = std::chrono::milliseconds{500};
  p.asymmetric_discovery = false;
  p.fetch_time = std::chrono::milliseconds{50};
  p.fetch_failure_prob = 0.01;
  p.connect_delay_min_s = 0.2;
  p.connect_delay_max_s = 1.0;
  p.connect_failure_prob = 0.02;
  p.per_hop_latency = std::chrono::milliseconds{5};
  p.bytes_per_second = 1'000'000.0;
  return p;
}

TechnologyParams gprs_params() {
  TechnologyParams p;
  p.tech = Technology::kGprs;
  p.range_m = 2000.0;  // cellular cell radius
  p.inquiry_interval = std::chrono::seconds{15};
  p.inquiry_duration = std::chrono::milliseconds{200};
  p.asymmetric_discovery = false;
  p.fetch_time = std::chrono::milliseconds{400};
  p.fetch_failure_prob = 0.03;
  p.connect_delay_min_s = 1.0;
  p.connect_delay_max_s = 3.0;
  p.connect_failure_prob = 0.05;
  p.per_hop_latency = std::chrono::milliseconds{350};
  p.bytes_per_second = 6'000.0;
  return p;
}

TechnologyParams default_params(Technology tech) {
  switch (tech) {
    case Technology::kBluetooth: return bluetooth_params();
    case Technology::kWlan: return wlan_params();
    case Technology::kGprs: return gprs_params();
  }
  return bluetooth_params();
}

double LinkQualityModel::base_quality(double distance_m,
                                      double range_m) const {
  if (distance_m > range_m || range_m <= 0.0) return 0.0;
  const double frac = std::clamp(distance_m / range_m, 0.0, 1.0);
  return q_max - static_cast<double>(q_max - q_edge) * std::pow(frac, exponent);
}

double LinkQualityModel::reach(double base, double range_m) const {
  // The share of the span the quality may lose before it drops below
  // `base`.
  const double loss = (q_max - base) / static_cast<double>(q_max - q_edge);
  if (!(loss >= 0.0)) return -std::numeric_limits<double>::infinity();
  return std::min(std::pow(loss, 1.0 / exponent), 1.0) * range_m;
}

int LinkQualityModel::finalize(double base, Rng* noise_rng) const {
  if (base <= 0.0) return 0;
  double q = base;
  if (noise_rng != nullptr && noise > 0.0) {
    q += noise_rng->uniform(-noise, noise);
  }
  return std::clamp(static_cast<int>(std::lround(q)), 1, 255);
}

int LinkQualityModel::quality(double distance_m, double range_m,
                              Rng* noise_rng) const {
  return finalize(base_quality(distance_m, range_m), noise_rng);
}

}  // namespace peerhood::sim
