#include "sim/fault.hpp"

#include <algorithm>
#include <cmath>

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

// ---------------------------------------------------------------------------
// NodeCrashPlane

namespace {

// Exponential draw via inverse transform; 1-u keeps the argument of log in
// (0, 1] for u in [0, 1).
[[nodiscard]] SimDuration exponential(Rng& rng, SimDuration mean) {
  const double mean_s = std::chrono::duration<double>(mean).count();
  const double u = rng.uniform(0.0, 1.0);
  return seconds(-mean_s * std::log(std::max(1.0 - u, 1e-12)));
}

constexpr SimDuration kMinDowntime = std::chrono::milliseconds{100};

}  // namespace

void NodeCrashPlane::set_hooks(NodeHook kill, NodeHook restart) {
  kill_ = std::move(kill);
  restart_ = std::move(restart);
}

void NodeCrashPlane::schedule_crash(MacAddress mac, SimTime at,
                                    SimDuration downtime) {
  sim_.schedule_at(at, [this, mac, downtime] { crash_now(mac, downtime); });
}

void NodeCrashPlane::crash_now(MacAddress mac, SimDuration downtime) {
  if (contains(down_, mac)) return;  // already down (overlapping schedules)
  down_.push_back(mac);
  ++stats_.node_crashes;
  if (kill_) kill_(mac);
  sim_.schedule_after(std::max(downtime, kMinDowntime), [this, mac] {
    down_.erase(std::remove(down_.begin(), down_.end(), mac), down_.end());
    ++stats_.node_restarts;
    if (restart_) restart_(mac);
  });
}

void NodeCrashPlane::start_churn(std::vector<MacAddress> targets,
                                 SimDuration mtbf_mean, SimDuration mttr_mean,
                                 SimTime start, SimTime stop) {
  if (targets.empty()) return;
  ChurnState churn;
  churn.targets = std::move(targets);
  churn.mtbf_mean = mtbf_mean;
  churn.mttr_mean = mttr_mean;
  churn.stop = stop;
  churns_.push_back(std::move(churn));
  const std::size_t index = churns_.size() - 1;
  const SimTime first =
      std::max(start, sim_.now()) + exponential(rng_, mtbf_mean);
  sim_.schedule_at(first, [this, index] { churn_tick(index); });
}

void NodeCrashPlane::churn_tick(std::size_t churn_index) {
  const ChurnState& churn = churns_[churn_index];
  if (sim_.now() >= churn.stop) return;
  // Draw the victim and downtime *before* the down-check so a skipped draw
  // still advances the RNG stream identically across replays.
  const auto pick = static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(churn.targets.size()) - 1));
  const MacAddress victim = churn.targets[pick];
  const SimDuration downtime = exponential(rng_, churn.mttr_mean);
  if (!contains(down_, victim)) crash_now(victim, downtime);
  const SimTime next = sim_.now() + exponential(rng_, churn.mtbf_mean);
  sim_.schedule_at(next, [this, index = churn_index] { churn_tick(index); });
}

}  // namespace peerhood::sim
