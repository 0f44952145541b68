// E-handover — the scenario-matrix sweep of the predictive make-before-break
// engine (§5.2, Fig. 5.4): reactive (paper baseline) vs predictive policies
// across the corridor walk, reference-point group mobility, a random-
// waypoint office floor and the same floor under relay churn. Reported per
// cell: total outage ms (no usable connection), frames lost, handovers,
// mean handover latency, and control overhead (non-payload frames) — all
// also emitted as BENCH_JSON for the CI perf trajectory. The Fig. 5.8 decay
// simulation (E7a) is in paper_experiments.cpp.
#include "bench_util.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace peerhood;
using namespace peerhood::bench;

// --- Scenario matrix ---------------------------------------------------------

struct MatrixCell {
  std::string scenario;
  std::string policy;
  int trials{0};
  double outage_s{0.0};
  std::uint64_t sent{0};
  std::uint64_t received{0};
  std::uint64_t lost{0};
  std::uint64_t handovers{0};
  std::uint64_t predictions{0};
  std::uint64_t predictive_handovers{0};
  std::uint64_t reconnections{0};
  std::uint64_t restarts{0};
  std::vector<double> latencies_s;
  std::uint64_t control_frames{0};
  std::uint64_t medium_frames{0};
  std::uint64_t medium_bytes{0};
};

using SpecFactory = scenario::ScenarioSpec (*)(std::uint64_t seed,
                                               bool predictive);

scenario::ScenarioSpec make_corridor(std::uint64_t seed, bool predictive) {
  return scenario::corridor_walk(seed, predictive);
}
scenario::ScenarioSpec make_group_small(std::uint64_t seed, bool predictive) {
  return scenario::group_walk(seed, predictive, 3);
}
scenario::ScenarioSpec make_group(std::uint64_t seed, bool predictive) {
  return scenario::group_walk(seed, predictive, 5);
}
scenario::ScenarioSpec make_office_small(std::uint64_t seed, bool predictive) {
  return scenario::office(seed, predictive, 8);
}
scenario::ScenarioSpec make_office(std::uint64_t seed, bool predictive) {
  return scenario::office(seed, predictive, 14);
}
scenario::ScenarioSpec make_churn_small(std::uint64_t seed, bool predictive) {
  return scenario::churn(seed, predictive, 8);
}
scenario::ScenarioSpec make_churn(std::uint64_t seed, bool predictive) {
  return scenario::churn(seed, predictive, 12);
}

MatrixCell run_cell(const std::string& name, SpecFactory factory,
                    bool predictive, int trials) {
  MatrixCell cell;
  cell.scenario = name;
  cell.policy = predictive ? "predictive" : "reactive";
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(trials);
       ++seed) {
    scenario::ScenarioRunner runner{factory(seed, predictive)};
    const Status status = runner.setup();
    if (!status.ok()) {
      std::printf("    !! %s/%s seed %llu setup failed: %s\n", name.c_str(),
                  cell.policy.c_str(), static_cast<unsigned long long>(seed),
                  status.error().to_string().c_str());
      continue;
    }
    runner.run();
    ++cell.trials;  // only successfully-run seeds enter the sums
    const scenario::ScenarioMetrics& m = runner.metrics();
    cell.outage_s += m.total_outage_s();
    cell.sent += m.total_sent();
    cell.received += m.total_received();
    cell.lost += m.frames_lost();
    cell.handovers += m.total_handovers();
    cell.control_frames += m.control_frames();
    cell.medium_frames += m.medium_frames;
    cell.medium_bytes += m.medium_frame_bytes;
    for (const scenario::SessionMetrics& s : m.sessions) {
      cell.predictions += s.predictions;
      cell.predictive_handovers += s.predictive_handovers;
      cell.reconnections += s.reconnections;
      cell.restarts += s.restarts;
      if (s.handover_latency_count > 0) {
        cell.latencies_s.push_back(s.handover_latency_sum_s /
                                   static_cast<double>(
                                       s.handover_latency_count));
      }
    }
  }
  return cell;
}

void emit_cell(const MatrixCell& cell) {
  const Summary latency = summarize(cell.latencies_s);
  std::printf("%10s %11s %10.0f %6llu %5llu %6llu %6llu %9.1f %9llu\n",
              cell.scenario.c_str(), cell.policy.c_str(),
              cell.outage_s * 1e3, static_cast<unsigned long long>(cell.sent),
              static_cast<unsigned long long>(cell.lost),
              static_cast<unsigned long long>(cell.handovers),
              static_cast<unsigned long long>(cell.predictive_handovers),
              latency.mean * 1e3,
              static_cast<unsigned long long>(cell.control_frames));
  JsonRecord record{"handover_matrix"};
  record.field("scenario", cell.scenario)
      .field("policy", cell.policy)
      .field("trials", cell.trials)
      .field("outage_ms", cell.outage_s * 1e3)
      .field("sent", cell.sent)
      .field("received", cell.received)
      .field("frames_lost", cell.lost)
      .field("handovers", cell.handovers)
      .field("predictions", cell.predictions)
      .field("predictive_handovers", cell.predictive_handovers)
      .field("reconnections", cell.reconnections)
      .field("restarts", cell.restarts)
      .field("handover_latency_ms", latency.mean * 1e3)
      .field("control_frames", cell.control_frames)
      .field("medium_frames", cell.medium_frames)
      .field("medium_bytes", cell.medium_bytes);
  record.emit();
}

void report_matrix(bool smoke) {
  heading(smoke
              ? "E-handover scenario matrix (smoke: 2 sizes per family, 1 seed)"
              : "E-handover scenario matrix: reactive vs predictive");
  std::printf("%10s %11s %10s %6s %5s %6s %6s %9s %9s\n", "scenario",
              "policy", "outage ms", "sent", "lost", "ho", "mbb",
              "lat ms", "ctl frames");

  struct Row {
    const char* name;
    SpecFactory factory;
  };
  // Both sizes of every family always run (so the larger construction
  // paths are exercised per commit); smoke mode cuts the seeds, not the
  // matrix.
  const std::vector<Row> rows = {{"corridor", make_corridor},
                                 {"group3", make_group_small},
                                 {"group5", make_group},
                                 {"office8", make_office_small},
                                 {"office14", make_office},
                                 {"churn8", make_churn_small},
                                 {"churn12", make_churn}};
  const int trials = smoke ? 1 : 5;

  for (const Row& row : rows) {
    MatrixCell reactive = run_cell(row.name, row.factory, false, trials);
    MatrixCell predictive = run_cell(row.name, row.factory, true, trials);
    emit_cell(reactive);
    emit_cell(predictive);
    if (reactive.outage_s > 0.0) {
      const double ratio = reactive.outage_s /
                           std::max(predictive.outage_s, 1e-3);
      const double overhead =
          reactive.control_frames > 0
              ? static_cast<double>(predictive.control_frames) /
                    static_cast<double>(reactive.control_frames)
              : 0.0;
      std::printf("%10s %11s outage ratio %.1fx, control overhead %.2fx\n",
                  row.name, "->", ratio, overhead);
      JsonRecord summary{"handover_matrix_ratio"};
      summary.field("scenario", row.name)
          .field("outage_ratio", ratio)
          .field("control_overhead", overhead);
      summary.emit();
    }
  }
  note("outage = total time with no usable connection, summed over sessions");
  note("and trials; mbb = handovers completed while the old link was still");
  note("alive (make-before-break); ctl frames = medium frames beyond the");
  note("application's delivered messages. corridor/group have structured");
  note("mobility the predictor can extrapolate; office/churn are dominated");
  note("by coverage holes, where prediction neither helps nor hurts.");
}

}  // namespace

int main(int argc, char** argv) {
  report_matrix(smoke_flag(argc, argv));
  return 0;
}
