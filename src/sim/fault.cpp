#include "sim/fault.hpp"

#include <algorithm>

namespace peerhood::sim {
namespace {

[[nodiscard]] double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

[[nodiscard]] bool contains(const std::vector<MacAddress>& set,
                            MacAddress mac) {
  return std::find(set.begin(), set.end(), mac) != set.end();
}

}  // namespace

LinkFaultModel::LinkKey LinkFaultModel::link_key(MacAddress a, MacAddress b,
                                                 Technology tech) {
  std::uint64_t lo = a.as_u64();
  std::uint64_t hi = b.as_u64();
  if (lo > hi) std::swap(lo, hi);
  return {lo, hi, static_cast<std::uint8_t>(tech)};
}

void LinkFaultModel::set_profile(Technology tech, FaultProfile profile) {
  tech_profiles_[static_cast<std::size_t>(tech)] = profile;
}

void LinkFaultModel::schedule_blackout(Blackout window) {
  blackouts_.push_back(std::move(window));
}

bool LinkFaultModel::blacked_out(MacAddress from, MacAddress to,
                                 SimTime now) const {
  for (const Blackout& b : blackouts_) {
    if (now < b.start || now >= b.start + b.duration) continue;
    if (b.side_a.empty()) {
      if (b.side_b.empty()) return true;  // global
      continue;
    }
    const bool from_a = contains(b.side_a, from);
    const bool to_a = contains(b.side_a, to);
    if (b.side_b.empty()) {
      // Node-set blackout: anything touching side_a is silenced.
      if (from_a || to_a) return true;
      continue;
    }
    // Partition: only frames crossing the cut die.
    const bool from_b = contains(b.side_b, from);
    const bool to_b = contains(b.side_b, to);
    if ((from_a && to_b) || (from_b && to_a)) return true;
  }
  return false;
}

FaultDecision LinkFaultModel::judge(MacAddress from, MacAddress to,
                                    Technology tech, double degradation,
                                    SimTime now) {
  FaultDecision decision;
  ++stats_.frames_seen;
  if (blacked_out(from, to, now)) {
    ++stats_.blackout_drops;
    decision.drop = true;
    return decision;
  }
  const FaultProfile& p = tech_profiles_[static_cast<std::size_t>(tech)];
  if (!p.active()) return decision;

  // The quality coupling scales the burst machinery by link degradation:
  // a link at the coverage edge (degradation 1, coupling 1) enters bursts
  // and loses frames at twice its base rate.
  const double scale = 1.0 + p.quality_coupling * clamp01(degradation);

  bool& bad = burst_state_[link_key(from, to, tech)];
  if (bad) {
    if (rng_.bernoulli(p.p_bad_to_good)) bad = false;
  } else {
    if (rng_.bernoulli(clamp01(p.p_good_to_bad * scale))) {
      bad = true;
      ++stats_.burst_entries;
    }
  }
  const double loss = clamp01((bad ? p.loss_bad : p.loss_good) * scale);
  if (rng_.bernoulli(loss)) {
    ++stats_.loss_drops;
    decision.drop = true;
    return decision;
  }
  if (rng_.bernoulli(p.corrupt_prob)) {
    ++stats_.corrupted;
    decision.corrupt = true;
  }
  if (rng_.bernoulli(p.duplicate_prob)) {
    ++stats_.duplicated;
    decision.duplicate = true;
  }
  if (rng_.bernoulli(p.reorder_prob)) {
    ++stats_.reordered;
    decision.reorder = true;
    const double max_s =
        std::chrono::duration<double>(kReorderDelayMax).count();
    decision.extra_delay = seconds(rng_.uniform(0.0, max_s));
  }
  return decision;
}

void LinkFaultModel::corrupt(Bytes& frame) {
  if (frame.empty()) return;
  const int flips = static_cast<int>(rng_.uniform_int(1, 3));
  for (int i = 0; i < flips; ++i) {
    const auto pos = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
    const auto bit = static_cast<std::uint8_t>(rng_.uniform_int(0, 7));
    frame[pos] ^= static_cast<std::uint8_t>(1u << bit);
  }
}

}  // namespace peerhood::sim
