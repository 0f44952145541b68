// Deterministic link-fault injection for the radio medium. The seed model
// delivers every in-range frame intact and in order; real radios do not
// (the paper itself flags data integrity under connection loss as the open
// problem, Ch. 6). The LinkFaultModel decides, per frame, whether the medium
// loses, corrupts, duplicates or delays it, and whether a scheduled blackout
// (partition) silences the link outright:
//
//  * Loss follows a two-state Gilbert–Elliott channel per undirected link —
//    a `good` state with low loss and a `bad` (burst) state with high loss.
//    Bad link quality couples into the model: the closer the link sits to
//    its coverage edge, the more often it enters (and the harder it loses
//    inside) the burst state, reusing the PR 5 LinkQualityModel geometry.
//  * Corruption flips 1-3 random bits in a copy of the frame; the original
//    shared buffer is never mutated (other deliveries may reference it).
//    Detection is the transport's job (net/frame_check.hpp).
//  * Duplication delivers a second copy shortly after the first; reordering
//    adds a random extra delay and exempts the frame from the medium's
//    in-order bump, so later frames overtake it.
//  * Blackouts are scheduled windows (start + duration) that drop every
//    frame crossing a node-set cut, touching a node set, or (with no set)
//    every frame — partitions, a device switched off, radio silence.
//
// Every random decision draws from one forked Rng owned by this model, so a
// fixed (seed, schedule) pair replays the exact same fault sequence — the
// per-kind counters below are asserted identical across repeat runs.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "common/bytes.hpp"
#include "common/mac_address.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "sim/radio.hpp"

namespace peerhood::sim {

// Per-technology fault parameters. Default constructed = fault free;
// `active()` lets the medium skip the whole plane cheaply.
struct FaultProfile {
  // Gilbert–Elliott loss: drop probabilities inside each state and the
  // per-frame state transition probabilities.
  double loss_good{0.0};
  double loss_bad{0.0};
  double p_good_to_bad{0.0};
  double p_bad_to_good{0.25};
  // 0..1: how strongly link degradation (0 at full quality, 1 at the
  // coverage edge) scales the burst-entry probability and both loss rates.
  // 1.0 doubles them at the edge.
  double quality_coupling{0.0};

  // Independent per-frame probabilities.
  double corrupt_prob{0.0};
  double duplicate_prob{0.0};
  double reorder_prob{0.0};

  [[nodiscard]] bool active() const {
    return loss_good > 0.0 || loss_bad > 0.0 || p_good_to_bad > 0.0 ||
           corrupt_prob > 0.0 || duplicate_prob > 0.0 || reorder_prob > 0.0;
  }
};

// Extra delivery delay drawn U(0, kReorderDelayMax) for reordered frames.
inline constexpr SimDuration kReorderDelayMax = std::chrono::milliseconds{150};
// The duplicate copy lands this long after the original.
inline constexpr SimDuration kDuplicateLag = std::chrono::milliseconds{20};

// Per-kind counters; identical across runs with the same (seed, schedule).
struct FaultStats {
  std::uint64_t frames_seen{0};
  std::uint64_t loss_drops{0};
  std::uint64_t blackout_drops{0};
  std::uint64_t corrupted{0};
  std::uint64_t duplicated{0};
  std::uint64_t reordered{0};
  std::uint64_t burst_entries{0};  // good -> bad transitions
  // Node crashes (scenario::CrashScheduleSpec; the ScenarioRunner fills
  // these, the link model never does).
  std::uint64_t node_crashes{0};
  std::uint64_t node_restarts{0};
};

// What the medium should do with one frame.
struct FaultDecision {
  bool drop{false};
  bool corrupt{false};
  bool duplicate{false};
  bool reorder{false};
  SimDuration extra_delay{SimDuration{0}};  // reorder jitter
};

class LinkFaultModel {
 public:
  // A scheduled blackout window. Semantics of the node sets:
  //  * both empty: global blackout;
  //  * side_b empty: every frame touching a side_a node is dropped
  //    (node-set blackout);
  //  * both non-empty: only frames crossing the side_a <-> side_b cut are
  //    dropped (partition) — traffic inside either side still flows.
  struct Blackout {
    SimTime start{};
    SimDuration duration{SimDuration{0}};
    std::vector<MacAddress> side_a;
    std::vector<MacAddress> side_b;
  };

  explicit LinkFaultModel(Rng rng) : rng_{rng} {}

  // Per-technology profile (applies to every link of that tech).
  void set_profile(Technology tech, FaultProfile profile);

  void schedule_blackout(Blackout window);
  // True when a frame (or inquiry response / connect attempt) between the
  // endpoints is silenced by an active blackout.
  [[nodiscard]] bool blacked_out(MacAddress from, MacAddress to,
                                 SimTime now) const;

  // Rolls the dice for one frame. `degradation` is 0 (perfect link) .. 1
  // (coverage edge), from the medium's quality model. Blackouts are checked
  // first; a blacked-out frame returns drop without advancing the GE state,
  // so healing restores the channel exactly where it paused.
  [[nodiscard]] FaultDecision judge(MacAddress from, MacAddress to,
                                    Technology tech, double degradation,
                                    SimTime now);

  // Flips 1-3 random bits; the caller passes a fresh copy of the frame.
  void corrupt(Bytes& frame);

  [[nodiscard]] const FaultStats& stats() const { return stats_; }

 private:
  using LinkKey = std::tuple<std::uint64_t, std::uint64_t, std::uint8_t>;
  [[nodiscard]] static LinkKey link_key(MacAddress a, MacAddress b,
                                        Technology tech);

  Rng rng_;
  std::array<FaultProfile, kTechnologyCount> tech_profiles_{};
  // Gilbert-Elliott state per undirected link, created on first frame.
  std::map<LinkKey, bool> burst_state_;
  std::vector<Blackout> blackouts_;
  FaultStats stats_;
};

}  // namespace peerhood::sim
