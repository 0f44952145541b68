// Declarative scenario subsystem: a ScenarioSpec describes node groups
// (count + mobility mix), registered services, client->server sessions with
// traffic shapes and handover policies; a ScenarioRunner assembles the full
// PeerHood stack on a Testbed, drives the run, and measures the handover
// plane — outage time, frames lost, handover latency, control overhead —
// so benches and tests stop hand-rolling topologies.
//
// See src/scenario/README.md for the spec vocabulary and the canned
// scenarios (corridor / office / group / churn) used by the bench matrix.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "handover/handover.hpp"
#include "net/network.hpp"
#include "node/testbed.hpp"
#include "peerhood/channel.hpp"
#include "sim/fault.hpp"
#include "sim/mobility.hpp"

namespace peerhood::scenario {

// How a node (or every member of a group) moves. For kGroup the member
// follows the group's shared reference model (NodeGroup::group_reference)
// at its formation offset plus a bounded random deviation.
struct MobilitySpec {
  enum class Kind {
    kStatic,
    kWaypoints,
    kRandomWaypoint,
    kGroup,
  };

  Kind kind{Kind::kStatic};
  // Start position (kStatic) or initial position inside the area models.
  // Group members ignore it (placement = reference + offset).
  sim::Vec2 start{};
  // kWaypoints: the scripted walk.
  std::vector<sim::WaypointPath::Waypoint> waypoints;
  sim::RandomWaypoint::Config random_waypoint{};
  sim::GroupMember::Config group{};

  // Instantiates the model. `offset` shifts the start (for kGroup it is the
  // member's formation offset from the reference); `reference` is required
  // for kGroup; `rng` seeds the stochastic models (each member should get a
  // forked stream).
  [[nodiscard]] std::shared_ptr<const sim::MobilityModel> build(
      Rng rng, sim::Vec2 offset = {},
      std::shared_ptr<const sim::MobilityModel> reference = nullptr) const;
};

struct NodeGroup {
  std::string prefix;  // members are named prefix0, prefix1, ...
  int count{1};
  MobilityClass mobility_class{MobilityClass::kStatic};
  MobilitySpec mobility{};
  // Reference (centre) model shared by all members when mobility.kind is
  // kGroup.
  MobilitySpec group_reference{};
  // Per-member start offset: member i starts at mobility.start + spacing*i
  // (ignored by kGroup members, whose formation offset it becomes).
  sim::Vec2 spacing{};
  // Services registered (and advertised) on every member.
  std::vector<std::string> services;
  // Member daemons periodically stop and restart (ScenarioSpec::churn_*).
  bool churn{false};
};

struct SessionSpec {
  std::string client;   // node name (e.g. "walker0")
  std::string server;   // node name
  std::string service;  // must be registered on the server's group
  // Every session sends one 32-byte message per second and is guarded by a
  // HandoverController with this policy.
  handover::HandoverConfig handover_config{};
  // Make the session's channel reliable on both ends (Channel::
  // make_reliable). The server side journals the resume frontier into its
  // daemon's SessionStore, so the session survives a server crash–restart
  // (kResumeRestart) exactly-once.
  bool reliable{false};
};

// Declarative fault plane (sim/fault.hpp): per-technology link-fault
// profiles plus scheduled blackouts/partitions, installed on the medium when
// run() starts. Setup and the discovery warm-up stay fault-free, so every
// scenario enters its body from a converged neighbourhood and the faults hit
// an established steady state — the recovery behaviour under test.
struct FaultScheduleSpec {
  struct TechProfile {
    Technology tech{Technology::kBluetooth};
    sim::FaultProfile profile{};
  };
  // Node sets are name prefixes ("anchor" covers anchor0, anchor1, ...),
  // resolved against the testbed at install time. Empty side_a = every node.
  // Empty side_b = the side_a set goes silent; otherwise only links between
  // the two sides are cut (a network partition). Times are relative to the
  // start of the scenario body.
  struct Partition {
    std::vector<std::string> side_a;
    std::vector<std::string> side_b;
    double start_s{0.0};
    double duration_s{10.0};
  };
  std::vector<TechProfile> profiles;
  std::vector<Partition> partitions;

  [[nodiscard]] bool empty() const {
    return profiles.empty() && partitions.empty();
  }
};

// Scheduled node crashes: each Crash hard-kills every node its name prefixes
// match (Node::crash) and restarts it `downtime_s` later (at least 100 ms).
// A crash that lands on a node that is still down is skipped. The runner
// schedules them at the top of run(), so the body, not the warm-up, runs
// under crash injection. Times are relative to the start of the scenario
// body.
struct CrashScheduleSpec {
  struct Crash {
    std::vector<std::string> targets;  // name prefixes, like Partition sides
    double at_s{0.0};
    double downtime_s{10.0};
  };
  std::vector<Crash> crashes;

  [[nodiscard]] bool empty() const { return crashes.empty(); }
};

struct ScenarioSpec {
  std::string name;
  std::uint64_t seed{1};
  std::optional<sim::TechnologyParams> radio;  // configure() when set
  std::vector<NodeGroup> groups;
  std::vector<SessionSpec> sessions;
  int discovery_rounds{3};
  double duration_s{60.0};
  // Deadline for each session's initial connect.
  double connect_deadline_s{60.0};
  // Churn: every interval one churn-group daemon stops, restarting after
  // `churn_downtime_s`. 0 = no churn.
  double churn_interval_s{0.0};
  double churn_downtime_s{10.0};
  // Fault plane for the scenario body; empty = pristine medium (the fault
  // model is never even constructed, so fault-free runs draw identical RNG
  // streams to builds that predate the fault plane).
  FaultScheduleSpec faults{};
  // Node crashes in the scenario body; empty = no node crashes.
  CrashScheduleSpec crashes{};
  // Fixed at 1: the simulation runs on one single-threaded kernel. Kept
  // only because the perfbench workload runner assigns it; setup()
  // rejects any other value.
  std::uint32_t shards{1};
};

struct SessionMetrics {
  bool connected{false};
  // Messages written in the scenario body, and how many of them arrived:
  // each counts once, however often the medium duplicated it, and a message
  // stamped during setup counts never, so received <= sent.
  std::uint64_t sent{0};
  std::uint64_t received{0};
  std::uint64_t handovers{0};
  std::uint64_t predictions{0};
  std::uint64_t predictive_handovers{0};
  std::uint64_t reconnections{0};
  // Scenario-level session restarts: after the controller gave up, the
  // runner (as the application) re-established a brand-new session.
  std::uint64_t restarts{0};
  // Exactly-once accounting from the per-session message counter carried in
  // every payload: messages that arrived behind the server's high-water mark
  // (duplicates / reorders — must be 0 for reliable sessions) and counter
  // values skipped past (frames lost for good, e.g. across a watchdog
  // restart of an unreliable session).
  std::uint64_t dup_or_reorder{0};
  std::uint64_t gaps{0};
  std::uint64_t outage_episodes{0};
  // Total time with no usable connection (transport lost -> substituted /
  // reconnected / scenario end), in seconds.
  double outage_s{0.0};
  // Degradation/prediction -> completed handover.
  double handover_latency_sum_s{0.0};
  std::uint64_t handover_latency_count{0};
};

struct ScenarioMetrics {
  std::vector<SessionMetrics> sessions;
  // Medium deltas over the scenario body (setup/discovery excluded).
  std::uint64_t medium_frames{0};
  std::uint64_t medium_frame_bytes{0};
  std::uint64_t quality_observer_evals{0};
  std::uint64_t quality_events{0};
  // Per-kind fault-plane counters over the body (all zero when
  // ScenarioSpec::faults is empty). node_crashes/node_restarts count the
  // crashes and restarts of ScenarioSpec::crashes. Part of the determinism
  // contract: the same (seed, fault schedule, crash schedule) must
  // reproduce these exactly.
  sim::FaultStats fault_stats{};
  // Backend-agnostic transport counters (net::Network::net_stats()) over the
  // whole run, comparable with what a real-socket daemon logs on shutdown.
  net::NetStats net_stats{};
  // kResumeRestart handshakes honoured from a SessionStore journal, summed
  // over every node's engine — the crash recovery counter.
  std::uint64_t restart_resumes{0};
  // ReliableChannel::reorder_drops() and malformed_frames() summed over every
  // reliability engine of the run, client and server side, retired channels
  // included: frames beyond the receive window, and undecodable frames.
  std::uint64_t reliable_reorder_drops{0};
  std::uint64_t reliable_malformed_frames{0};

  [[nodiscard]] std::uint64_t total_sent() const;
  [[nodiscard]] std::uint64_t total_received() const;
  [[nodiscard]] std::uint64_t frames_lost() const;
  [[nodiscard]] double total_outage_s() const;
  [[nodiscard]] std::uint64_t total_handovers() const;
  // Non-payload medium frames: everything the stack sent beyond the
  // application's delivered messages (discovery, acks, repairs) — the
  // control-overhead figure of the bench matrix.
  [[nodiscard]] std::uint64_t control_frames() const;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioSpec spec);
  virtual ~ScenarioRunner();

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  // Builds the testbed, runs discovery, opens every session and attaches
  // traffic + handover controllers. Fails if a session cannot connect.
  Status setup();
  // Runs the scenario body and finalises the metrics. setup() must have
  // succeeded.
  void run();

  [[nodiscard]] node::Testbed& testbed() { return *testbed_; }
  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }
  [[nodiscard]] const ScenarioMetrics& metrics() const { return metrics_; }

 protected:
  // Every mobility model setup() builds, group references included, passes
  // through here before a node or a group member receives it. The default
  // hands it on; a subclass may wrap it (tests hide max_speed() this way,
  // so that every medium check measures).
  [[nodiscard]] virtual std::shared_ptr<const sim::MobilityModel> adopt_model(
      std::shared_ptr<const sim::MobilityModel> model) const {
    return model;
  }

 private:
  struct Session;

  void attach_channel(Session& session, ChannelPtr channel);
  void bank_controller_stats(Session& session);
  void start_traffic(Session& session);
  // Application-level persistence: once the controller has given up, retry
  // a fresh session periodically (outage keeps accruing until it lands).
  void start_watchdog(Session& session);
  void note_outage_start(Session& session);
  void note_outage_end(Session& session);
  void schedule_churn();
  // Installs spec_.faults on the medium (called at the top of run(), so the
  // body — not the warm-up — runs under fault injection).
  void install_faults();
  // Schedules spec_.crashes (same body-only contract as install_faults).
  void install_crashes();
  // Crashes `node` now and restarts it `downtime` later; a no-op while the
  // node is still down.
  void crash_node(node::Node& node, SimDuration downtime);
  // Adds a channel's reliability counters to the run's totals.
  void count_reliable(const Channel& channel);
  // Server-side delivery accounting shared by plain and reliable sessions.
  void count_delivery(const Bytes& payload);
  // The nodes whose names start with one of `prefixes`, in testbed order.
  [[nodiscard]] std::vector<node::Node*> resolve_prefixes(
      const std::vector<std::string>& prefixes) const;

  ScenarioSpec spec_;
  std::unique_ptr<node::Testbed> testbed_;
  std::vector<std::unique_ptr<Session>> sessions_;
  // Server-side sessions live here — handlers must not own their channel
  // (common/handler_slot.hpp).
  std::vector<ChannelPtr> server_channels_;
  // Services whose sessions run reliable (from SessionSpec::reliable).
  std::set<std::string> reliable_services_;
  std::vector<node::Node*> churn_nodes_;
  std::size_t next_churn_{0};
  sim::PeriodicTask churn_task_;
  sim::FaultStats crash_stats_;  // node_crashes and node_restarts only
  ScenarioMetrics metrics_;
  sim::TrafficStats medium_baseline_{};
  std::uint64_t observer_evals_baseline_{0};
  bool ready_{false};
};

// --- Canned scenarios used by the bench matrix and regression tests ---------
// All take the RNG seed and whether sessions run the predictive
// make-before-break engine (false = reactive baseline).

// The Fig. 5.4 corridor walk: static server, static mid-corridor bridge,
// one walker holding near the server then walking out of its range at
// `speed_mps`, messaging throughout.
[[nodiscard]] ScenarioSpec corridor_walk(std::uint64_t seed, bool predictive,
                                         double speed_mps = 0.75);
// Office floor: `n` nodes, 40% static (servers among them), the rest
// random-waypoint; a few mobile clients hold sessions to static servers.
[[nodiscard]] ScenarioSpec office(std::uint64_t seed, bool predictive,
                                  int n = 12);
// Reference-point group mobility: a group of `members` walks a corridor
// away from a static server past a static bridge; two members hold
// sessions to the server.
[[nodiscard]] ScenarioSpec group_walk(std::uint64_t seed, bool predictive,
                                      int members = 4);
// Office floor under churn: bridge-capable nodes restart on a cycle.
[[nodiscard]] ScenarioSpec churn(std::uint64_t seed, bool predictive,
                                 int n = 10);

}  // namespace peerhood::scenario
