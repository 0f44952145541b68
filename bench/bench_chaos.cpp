// E-chaos — Robustness under injected faults: the chaos matrix.
//
// Every cell runs a canned scenario under one fault tier — pristine medium,
// bursty (Gilbert–Elliott) loss, the full chaos profile (loss + corruption +
// duplication + reorder), and chaos plus a mid-run partition — and reports
// what the stack salvaged: delivery ratio, outage, session restarts, and the
// per-kind fault counters proving what the medium actually did. The `none`
// tier doubles as the fault-free regression row: its numbers must match the
// plain scenario benches, since an empty schedule never constructs the fault
// model.
#include <algorithm>

#include "bench_util.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace peerhood;
using namespace peerhood::bench;

// --- Fault tiers -------------------------------------------------------------

sim::FaultProfile bursty_loss() {
  sim::FaultProfile profile;
  profile.loss_good = 0.03;
  profile.loss_bad = 0.6;
  profile.p_good_to_bad = 0.05;
  profile.p_bad_to_good = 0.25;  // ~12% average loss before coupling
  profile.quality_coupling = 0.5;
  return profile;
}

sim::FaultProfile full_chaos() {
  sim::FaultProfile profile = bursty_loss();
  profile.corrupt_prob = 0.02;
  profile.duplicate_prob = 0.05;
  profile.reorder_prob = 0.1;
  return profile;
}

enum class Tier { kNone, kLoss, kChaos, kChaosCut, kCrash, kChaosCrash };

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kNone: return "none";
    case Tier::kLoss: return "loss";
    case Tier::kChaos: return "chaos";
    case Tier::kChaosCut: return "chaos+cut";
    case Tier::kCrash: return "crash";
    case Tier::kChaosCrash: return "chaos+crash";
  }
  return "?";
}

bool is_crash_tier(Tier tier) {
  return tier == Tier::kCrash || tier == Tier::kChaosCrash;
}

// The partition isolates the session servers from everything else for 10 s
// mid-body — the hardest cut the scenario offers.
scenario::FaultScheduleSpec tier_schedule(Tier tier,
                                          std::vector<std::string> servers,
                                          std::vector<std::string> rest) {
  scenario::FaultScheduleSpec faults;
  if (tier == Tier::kNone || tier == Tier::kCrash) return faults;
  faults.profiles.push_back(
      {Technology::kBluetooth, tier == Tier::kLoss ? bursty_loss()
                                                   : full_chaos()});
  if (tier == Tier::kChaosCut) {
    scenario::FaultScheduleSpec::Partition cut;
    cut.side_a = std::move(servers);
    cut.side_b = std::move(rest);
    cut.start_s = 20.0;
    cut.duration_s = 10.0;
    faults.partitions.push_back(cut);
  }
  return faults;
}

// The crash tiers hard-kill the session servers 30 s into the body and
// restart them 10 s later; the sessions run crash-tolerant (reliable layer,
// journalled resume, no provider reconnection) — the recovery path is what
// the cell measures.
scenario::CrashScheduleSpec tier_crashes(Tier tier,
                                         std::vector<std::string> servers) {
  scenario::CrashScheduleSpec crashes;
  if (!is_crash_tier(tier)) return crashes;
  scenario::CrashScheduleSpec::Crash crash;
  crash.targets = std::move(servers);
  crash.at_s = 30.0;
  crash.downtime_s = 10.0;
  crashes.crashes.push_back(crash);
  return crashes;
}

void make_crash_tolerant(scenario::ScenarioSpec& spec) {
  for (scenario::SessionSpec& session : spec.sessions) {
    session.reliable = true;
    session.handover_config.reconnection_enabled = false;
    session.handover_config.direct_resume_enabled = true;
    session.handover_config.max_dead_link_passes = 1000;
  }
}

// --- Matrix ------------------------------------------------------------------

struct ChaosCell {
  std::string scenario;
  Tier tier{Tier::kNone};
  int trials{0};
  // Seeds whose setup failed (no session connected): they add no trial.
  int setup_failures{0};
  std::uint64_t sent{0};
  std::uint64_t received{0};
  double outage_s{0.0};
  std::uint64_t handovers{0};
  std::uint64_t reconnections{0};
  std::uint64_t restarts{0};
  std::uint64_t medium_frames{0};
  sim::FaultStats faults;
  std::uint64_t corrupt_dropped{0};
  std::uint64_t restart_resumes{0};
  std::uint64_t dup_or_reorder{0};
  std::uint64_t gaps{0};
  std::uint64_t reorder_drops{0};
  std::uint64_t malformed_frames{0};
  // Each trial's delivery ratio (trials that sent nothing have none).
  std::vector<double> trial_delivery;
};

struct ScenarioRow {
  const char* name;
  scenario::ScenarioSpec (*factory)(std::uint64_t seed);
  // Partition sides (name prefixes) for the chaos+cut tier.
  std::vector<std::string> servers;
  std::vector<std::string> rest;
};

scenario::ScenarioSpec make_corridor(std::uint64_t seed) {
  return scenario::corridor_walk(seed, /*predictive=*/true);
}
scenario::ScenarioSpec make_office(std::uint64_t seed) {
  return scenario::office(seed, /*predictive=*/true, 10);
}
scenario::ScenarioSpec make_churn(std::uint64_t seed) {
  return scenario::churn(seed, /*predictive=*/true, 10);
}

ChaosCell run_cell(const ScenarioRow& row, Tier tier, int trials) {
  ChaosCell cell;
  cell.scenario = row.name;
  cell.tier = tier;
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(trials);
       ++seed) {
    scenario::ScenarioSpec spec = row.factory(seed);
    // Some seeds start a client walking out of its server's range, so the
    // first connect can take minutes (as in perfbench's churn workload);
    // a shorter deadline would drop those seeds from the cell.
    spec.connect_deadline_s = 600.0;
    spec.faults = tier_schedule(tier, row.servers, row.rest);
    spec.crashes = tier_crashes(tier, row.servers);
    if (is_crash_tier(tier)) make_crash_tolerant(spec);
    scenario::ScenarioRunner runner{std::move(spec)};
    const Status status = runner.setup();
    if (!status.ok()) {
      std::printf("    !! %s/%s seed %llu setup failed: %s\n", row.name,
                  tier_name(tier), static_cast<unsigned long long>(seed),
                  status.error().to_string().c_str());
      ++cell.setup_failures;
      continue;
    }
    runner.run();
    ++cell.trials;
    const scenario::ScenarioMetrics& m = runner.metrics();
    if (m.total_sent() > 0) {
      cell.trial_delivery.push_back(static_cast<double>(m.total_received()) /
                                    static_cast<double>(m.total_sent()));
    }
    cell.sent += m.total_sent();
    cell.received += m.total_received();
    cell.outage_s += m.total_outage_s();
    cell.handovers += m.total_handovers();
    cell.medium_frames += m.medium_frames;
    for (const scenario::SessionMetrics& s : m.sessions) {
      cell.reconnections += s.reconnections;
      cell.restarts += s.restarts;
      cell.dup_or_reorder += s.dup_or_reorder;
      cell.gaps += s.gaps;
    }
    cell.faults.frames_seen += m.fault_stats.frames_seen;
    cell.faults.loss_drops += m.fault_stats.loss_drops;
    cell.faults.blackout_drops += m.fault_stats.blackout_drops;
    cell.faults.corrupted += m.fault_stats.corrupted;
    cell.faults.duplicated += m.fault_stats.duplicated;
    cell.faults.reordered += m.fault_stats.reordered;
    cell.faults.burst_entries += m.fault_stats.burst_entries;
    cell.faults.node_crashes += m.fault_stats.node_crashes;
    cell.faults.node_restarts += m.fault_stats.node_restarts;
    cell.corrupt_dropped += m.net_stats.corrupt_drops;
    cell.restart_resumes += m.restart_resumes;
    cell.reorder_drops += m.reliable_reorder_drops;
    cell.malformed_frames += m.reliable_malformed_frames;
  }
  return cell;
}

// Per-trial delivery spread of a full-matrix cell: min, median, max.
struct Spread {
  double min{0.0};
  double median{0.0};
  double max{0.0};
};

Spread spread(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  const double median = values.size() % 2 != 0
                            ? values[mid]
                            : (values[mid - 1] + values[mid]) / 2.0;
  return {values.front(), median, values.back()};
}

// The smoke rows (one trial per cell) are pinned by a golden file, so only
// the full matrix reports the per-trial spread.
void emit_cell(const ChaosCell& cell, bool smoke) {
  const double delivery =
      cell.sent > 0
          ? static_cast<double>(cell.received) / static_cast<double>(cell.sent)
          : 0.0;
  std::printf("%10s %10s %6llu %6llu %9.2f %10.0f %4llu %4llu %8llu %8llu\n",
              cell.scenario.c_str(), tier_name(cell.tier),
              static_cast<unsigned long long>(cell.sent),
              static_cast<unsigned long long>(cell.received), delivery,
              cell.outage_s * 1e3,
              static_cast<unsigned long long>(cell.handovers),
              static_cast<unsigned long long>(cell.restarts),
              static_cast<unsigned long long>(cell.faults.loss_drops),
              static_cast<unsigned long long>(cell.corrupt_dropped));
  const Spread delivery_spread = spread(cell.trial_delivery);
  if (!smoke) {
    std::printf("%21s per-trial delivery min %.3f median %.3f max %.3f\n", "",
                delivery_spread.min, delivery_spread.median,
                delivery_spread.max);
  }
  JsonRecord record{"chaos_matrix"};
  record.field("scenario", cell.scenario)
      .field("faults", tier_name(cell.tier))
      .field("trials", cell.trials)
      .field("setup_failures", cell.setup_failures)
      .field("sent", cell.sent)
      .field("received", cell.received)
      .field("delivery_ratio", delivery)
      .field("outage_ms", cell.outage_s * 1e3)
      .field("handovers", cell.handovers)
      .field("reconnections", cell.reconnections)
      .field("restarts", cell.restarts)
      .field("medium_frames", cell.medium_frames)
      .field("loss_drops", cell.faults.loss_drops)
      .field("blackout_drops", cell.faults.blackout_drops)
      .field("corrupted", cell.faults.corrupted)
      .field("duplicated", cell.faults.duplicated)
      .field("reordered", cell.faults.reordered)
      .field("burst_entries", cell.faults.burst_entries)
      .field("corrupt_dropped", cell.corrupt_dropped)
      .field("node_crashes", cell.faults.node_crashes)
      .field("node_restarts", cell.faults.node_restarts)
      .field("restart_resumes", cell.restart_resumes)
      .field("dup_or_reorder", cell.dup_or_reorder)
      .field("gaps", cell.gaps)
      .field("reorder_drops", cell.reorder_drops)
      .field("malformed_frames", cell.malformed_frames);
  if (!smoke) {
    record.field("delivery_min", delivery_spread.min)
        .field("delivery_median", delivery_spread.median)
        .field("delivery_max", delivery_spread.max);
  }
  record.emit();
}

// Returns false when a cell ran no trial: its row would measure nothing.
bool report_matrix(bool smoke) {
  heading(smoke ? "E-chaos chaos matrix (smoke: 1 seed per cell)"
                : "E-chaos chaos matrix: scenarios x fault tiers, 40 seeds "
                  "per cell");
  std::printf("%10s %10s %6s %6s %9s %10s %4s %4s %8s %8s\n", "scenario",
              "faults", "sent", "recv", "delivery", "outage ms", "ho", "rst",
              "lost", "corrupt");
  const std::vector<ScenarioRow> rows = {
      {"corridor", make_corridor, {"server"}, {"walker", "bridge"}},
      {"office10", make_office, {"srv"}, {"mob", "anchor"}},
      {"churn10", make_churn, {"srv"}, {"mob", "anchor"}},
  };
  // 40 trials: one seed's delivery swings by tens of percent under chaos
  // with crashes, so 5 could not resolve a change of a few percent.
  const int trials = smoke ? 1 : 40;
  bool every_cell_ran = true;
  for (const ScenarioRow& row : rows) {
    for (const Tier tier :
         {Tier::kNone, Tier::kLoss, Tier::kChaos, Tier::kChaosCut,
          Tier::kCrash, Tier::kChaosCrash}) {
      const ChaosCell cell = run_cell(row, tier, trials);
      if (cell.trials == 0) {
        std::printf("    !! %s/%s ran no trial\n", row.name,
                    tier_name(tier));
        every_cell_ran = false;
      }
      emit_cell(cell, smoke);
    }
  }
  note("delivery = received / sent over the scenario body; outage = summed");
  note("time with no usable connection; rst = watchdog session restarts;");
  note("lost/corrupt = frames the fault plane dropped / the frame check");
  note("rejected. The `none` tier is the fault-free regression row: an empty");
  note("schedule never constructs the fault model, so it must match the");
  note("plain scenario benches exactly. The crash tiers hard-kill the session");
  note("servers mid-body and measure the journalled resume (restart_resumes,");
  note("node_crashes/node_restarts in the JSON); dup_or_reorder/gaps are the");
  note("exactly-once counters and must stay 0 on the reliable sessions.");
  return every_cell_ran;
}

}  // namespace

int main(int argc, char** argv) {
  return report_matrix(smoke_flag(argc, argv)) ? 0 : 1;
}
