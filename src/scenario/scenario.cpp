#include "scenario/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>

namespace peerhood::scenario {
namespace {

// Payload layout of scenario traffic: 4-byte LE session index + 4-byte LE
// per-session message counter + padding. The index attributes received
// messages to sessions across handovers and reconnections; the counter is
// the exactly-once oracle — it survives session restarts (it lives in the
// runner's Session, not the channel), so duplicates and gaps are detectable
// across every repair path including crash–restart resumes.
constexpr std::size_t kPayloadHeader = 8;
// Every session sends one 32-byte message per second.
constexpr SimDuration kMessageInterval = std::chrono::seconds{1};
constexpr std::size_t kMessageBytes = 32;
static_assert(kMessageBytes >= kPayloadHeader);

void put_u32(Bytes& payload, std::size_t at, std::uint32_t value) {
  payload[at] = static_cast<std::uint8_t>(value & 0xff);
  payload[at + 1] = static_cast<std::uint8_t>((value >> 8) & 0xff);
  payload[at + 2] = static_cast<std::uint8_t>((value >> 16) & 0xff);
  payload[at + 3] = static_cast<std::uint8_t>((value >> 24) & 0xff);
}

std::optional<std::uint32_t> get_u32(const Bytes& payload, std::size_t at) {
  if (payload.size() < at + 4) return std::nullopt;
  return static_cast<std::uint32_t>(payload[at]) |
         (static_cast<std::uint32_t>(payload[at + 1]) << 8) |
         (static_cast<std::uint32_t>(payload[at + 2]) << 16) |
         (static_cast<std::uint32_t>(payload[at + 3]) << 24);
}

Bytes make_payload(std::uint32_t session_index, std::uint32_t counter) {
  Bytes payload(kMessageBytes, std::uint8_t{0});
  put_u32(payload, 0, session_index);
  put_u32(payload, 4, counter);
  return payload;
}

std::optional<std::uint32_t> payload_session(const Bytes& payload) {
  return get_u32(payload, 0);
}

std::optional<std::uint32_t> payload_counter(const Bytes& payload) {
  return get_u32(payload, 4);
}

std::vector<sim::WaypointPath::Waypoint> shifted(
    std::vector<sim::WaypointPath::Waypoint> waypoints, sim::Vec2 offset) {
  for (auto& w : waypoints) w.position = w.position + offset;
  return waypoints;
}

}  // namespace

// --- Trace loading -----------------------------------------------------------

Result<std::vector<sim::WaypointPath::Waypoint>> parse_waypoint_trace(
    std::string_view text) {
  std::vector<sim::WaypointPath::Waypoint> out;
  std::istringstream stream{std::string{text}};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields{line};
    double t = 0.0;
    double x = 0.0;
    double y = 0.0;
    if (!(fields >> t)) continue;  // blank / comment-only line
    std::string rest;
    if (!(fields >> x >> y) || (fields >> rest)) {
      return Error{ErrorCode::kInvalidArgument,
                   "trace line " + std::to_string(line_no) +
                       ": expected '<seconds> <x> <y>'"};
    }
    if (t < 0.0) {
      return Error{ErrorCode::kInvalidArgument,
                   "trace line " + std::to_string(line_no) +
                       ": negative timestamp"};
    }
    const SimTime at = SimTime{} + seconds(t);
    if (!out.empty() && at < out.back().at) {
      return Error{ErrorCode::kInvalidArgument,
                   "trace line " + std::to_string(line_no) +
                       ": timestamps must be non-decreasing"};
    }
    out.push_back({at, {x, y}});
  }
  if (out.empty()) {
    return Error{ErrorCode::kInvalidArgument, "trace holds no waypoints"};
  }
  return out;
}

Result<std::vector<sim::WaypointPath::Waypoint>> load_waypoint_trace(
    const std::string& path) {
  std::ifstream file{path};
  if (!file) {
    return Error{ErrorCode::kInvalidArgument, "cannot open trace " + path};
  }
  std::ostringstream text;
  text << file.rdbuf();
  return parse_waypoint_trace(text.str());
}

// --- MobilitySpec ------------------------------------------------------------

std::shared_ptr<const sim::MobilityModel> MobilitySpec::build(
    Rng rng, sim::Vec2 offset,
    std::shared_ptr<const sim::MobilityModel> reference) const {
  switch (kind) {
    case Kind::kStatic:
      return std::make_shared<sim::StaticPosition>(start + offset);
    case Kind::kWaypoints:
      return std::make_shared<sim::WaypointPath>(shifted(waypoints, offset));
    case Kind::kRandomWaypoint:
      return std::make_shared<sim::RandomWaypoint>(random_waypoint,
                                                   start + offset, rng);
    case Kind::kGaussMarkov:
      return std::make_shared<sim::GaussMarkov>(gauss_markov, start + offset,
                                                rng);
    case Kind::kGroup:
      if (reference == nullptr) return nullptr;
      return std::make_shared<sim::GroupMember>(std::move(reference), offset,
                                                group, rng);
  }
  return nullptr;
}

// --- Metrics -----------------------------------------------------------------

std::uint64_t ScenarioMetrics::total_sent() const {
  std::uint64_t n = 0;
  for (const SessionMetrics& s : sessions) n += s.sent;
  return n;
}

std::uint64_t ScenarioMetrics::total_received() const {
  std::uint64_t n = 0;
  for (const SessionMetrics& s : sessions) n += s.received;
  return n;
}

std::uint64_t ScenarioMetrics::frames_lost() const {
  const std::uint64_t sent = total_sent();
  const std::uint64_t received = total_received();
  return sent > received ? sent - received : 0;
}

double ScenarioMetrics::total_outage_s() const {
  double total = 0.0;
  for (const SessionMetrics& s : sessions) total += s.outage_s;
  return total;
}

std::uint64_t ScenarioMetrics::total_handovers() const {
  std::uint64_t n = 0;
  for (const SessionMetrics& s : sessions) n += s.handovers;
  return n;
}

std::uint64_t ScenarioMetrics::control_frames() const {
  const std::uint64_t delivered = total_received();
  return medium_frames > delivered ? medium_frames - delivered : 0;
}

// --- ScenarioRunner ----------------------------------------------------------

struct ScenarioRunner::Session {
  std::size_t index{0};
  SessionSpec spec;
  node::Node* client{nullptr};
  MacAddress server_mac;
  ChannelPtr channel;
  std::unique_ptr<handover::HandoverController> controller;
  sim::PeriodicTask traffic;
  sim::PeriodicTask watchdog;
  bool reviving{false};
  SessionMetrics metrics;
  std::optional<SimTime> outage_start;
  std::optional<SimTime> degradation_at;
  // Exactly-once oracle: the next message counter the client will stamp and
  // the next the server expects. Session-lifetime (survive restarts).
  std::uint32_t next_msg{1};
  std::uint32_t server_expected{1};
  // Stats accumulated from controllers retired by reconnection / restart.
  handover::HandoverController::Stats prior_stats;
};

ScenarioRunner::ScenarioRunner(ScenarioSpec spec) : spec_{std::move(spec)} {}

ScenarioRunner::~ScenarioRunner() = default;

Status ScenarioRunner::setup() {
  if (spec_.shards != 1) {
    return Status{ErrorCode::kInvalidArgument,
                  "ScenarioSpec::shards must be 1, got " +
                      std::to_string(spec_.shards)};
  }
  testbed_ = std::make_unique<node::Testbed>(spec_.seed);
  if (spec_.radio.has_value()) testbed_->medium().configure(*spec_.radio);

  // The server-side accept handler needs to know, per service, whether its
  // sessions are reliable — resolved up front from the specs.
  for (const SessionSpec& session : spec_.sessions) {
    if (session.reliable) reliable_services_.insert(session.service);
  }

  // Mobility streams are derived from the scenario seed, independent of the
  // testbed's internal draws, so adding nodes does not perturb the walks.
  Rng mobility_rng{spec_.seed ^ 0x5ca1ab1e0ddba11ULL};

  for (const NodeGroup& group : spec_.groups) {
    std::shared_ptr<const sim::MobilityModel> reference;
    if (group.mobility.kind == MobilitySpec::Kind::kGroup) {
      reference = group.group_reference.build(mobility_rng.fork());
      if (reference == nullptr) {
        return Status{ErrorCode::kInvalidArgument,
                      "group '" + group.prefix +
                          "': kGroup needs a valid group_reference"};
      }
      reference = adopt_model(std::move(reference));
    }
    for (int i = 0; i < group.count; ++i) {
      const std::string name = group.prefix + std::to_string(i);
      node::NodeOptions options;
      options.mobility = group.mobility_class;
      options.daemon.service_check_interval = seconds(5.0);
      const sim::Vec2 offset = group.spacing * static_cast<double>(i);
      auto model = group.mobility.build(mobility_rng.fork(), offset,
                                        reference);
      if (model == nullptr) {
        return Status{ErrorCode::kInvalidArgument,
                      "group '" + group.prefix + "': invalid mobility spec"};
      }
      node::Node& node = testbed_->add_mobile_node(
          name, adopt_model(std::move(model)), options);
      if (group.churn) churn_nodes_.push_back(&node);
      for (const std::string& service : group.services) {
        const Status status = node.library().register_service(
            ServiceInfo{service, "", 0},
            [this, daemon = &node.daemon()](ChannelPtr channel,
                                            const wire::ConnectRequest&) {
              // Every accepted channel stays in the registry for the whole
              // run — deliberately: the engine tracks sessions weakly, so a
              // transport-lost channel dropped here would make its session
              // unresumable and silently reject §5.2.1 handovers. Growth is
              // bounded by handovers + restarts and freed at teardown.
              server_channels_.push_back(std::move(channel));
              Channel& accepted = *server_channels_.back();
              if (reliable_services_.contains(accepted.service())) {
                // A restart-resume picks up the frontier the crashed
                // incarnation reached; the channel it orphaned keeps an idle
                // engine on its dead transport.
                accepted.make_reliable(testbed_->sim())
                    .journal_to(daemon->session_store());
              }
              accepted.set_data_handler(
                  [this](const Bytes& payload) { count_delivery(payload); });
            });
        if (!status.ok()) return status;
      }
    }
  }

  testbed_->run_discovery_rounds(spec_.discovery_rounds);

  for (std::size_t i = 0; i < spec_.sessions.size(); ++i) {
    auto session = std::make_unique<Session>();
    session->index = i;
    session->spec = spec_.sessions[i];
    session->client = &testbed_->node(session->spec.client);
    session->server_mac = testbed_->node(session->spec.server).mac();
    sessions_.push_back(std::move(session));
  }
  for (const auto& session : sessions_) {
    // Mobile clients can be momentarily unreachable (out of direct range,
    // stale route); retry across the connect deadline like a user would.
    Result<ChannelPtr> result{
        Error{ErrorCode::kConnectionFailed, "not attempted"}};
    const SimTime deadline =
        testbed_->sim().now() + seconds(spec_.connect_deadline_s);
    do {
      result = session->client->connect_blocking(
          session->server_mac, session->spec.service, {},
          spec_.connect_deadline_s / 4.0);
      if (!result.ok()) testbed_->run_for(5.0);
    } while (!result.ok() && testbed_->sim().now() < deadline);
    if (!result.ok()) {
      return Status{result.error().code,
                    "session " + session->spec.client + "->" +
                        session->spec.server + ": " +
                        result.error().to_string()};
    }
    session->metrics.connected = true;
    attach_channel(*session, std::move(result).value());
    start_traffic(*session);
    start_watchdog(*session);
  }

  if (spec_.churn_interval_s > 0.0 && !churn_nodes_.empty()) {
    schedule_churn();
  }

  // The scenario body measures deltas from here: discovery warm-up and
  // connection establishment are setup, not steady-state overhead. Session
  // counters restart too — traffic delivered while a *later* session was
  // still connecting must not leak into body-only ratios like
  // control_frames().
  for (const auto& session : sessions_) {
    session->metrics.sent = 0;
    session->metrics.received = 0;
    session->metrics.dup_or_reorder = 0;
    session->metrics.gaps = 0;
    session->metrics.outage_s = 0.0;
    session->metrics.outage_episodes = session->outage_start.has_value() ? 1 : 0;
    if (session->outage_start.has_value()) {
      session->outage_start = testbed_->sim().now();
    }
  }
  medium_baseline_ = testbed_->medium().stats();
  observer_evals_baseline_ = testbed_->medium().quality_stats().observer_evals;
  ready_ = true;
  return Status::ok_status();
}

void ScenarioRunner::bank_controller_stats(Session& session) {
  if (session.controller == nullptr) return;
  const auto& stats = session.controller->stats();
  session.prior_stats.handovers += stats.handovers;
  session.prior_stats.predictions += stats.predictions;
  session.prior_stats.predictive_handovers += stats.predictive_handovers;
  session.prior_stats.reconnections += stats.reconnections;
  session.prior_stats.quality_events += stats.quality_events;
}

void ScenarioRunner::attach_channel(Session& session, ChannelPtr channel) {
  note_outage_end(session);
  // A fresh transport voids any in-flight degradation timestamp: a later
  // handover's latency must not be measured from a previous incarnation.
  session.degradation_at.reset();
  if (session.controller != nullptr) {
    // Bank the retiring controller's stats, then destroy it — legal even
    // from inside its own event handler (HandoverController::emit
    // discipline).
    bank_controller_stats(session);
    session.controller.reset();
  }
  if (session.channel != nullptr) {
    // The dead predecessor must stop reporting into this session: close()
    // severs its handlers.
    session.channel->close();
    count_reliable(*session.channel);
  }
  session.channel = std::move(channel);
  Session* raw = &session;
  // The runner is the application here, so the app-side channel handlers are
  // its to use. Handlers capture the runner/session raw — the runner owns
  // both the channel registry and the testbed (handler_slot.hpp rule 1).
  if (session.spec.reliable) session.channel->make_reliable(testbed_->sim());
  session.channel->set_close_handler([this, raw] { note_outage_start(*raw); });
  session.channel->set_handover_handler(
      [this, raw](const net::ConnectionPtr&) { note_outage_end(*raw); });

  session.controller = std::make_unique<handover::HandoverController>(
      session.client->library(), session.channel,
      session.spec.handover_config);
  session.controller->set_event_handler(
      [this, raw](const handover::HandoverEvent& event) {
        using Kind = handover::HandoverEvent::Kind;
        const SimTime now = testbed_->sim().now();
        switch (event.kind) {
          case Kind::kDegradationDetected:
          case Kind::kPredictedLoss:
            if (!raw->degradation_at.has_value()) raw->degradation_at = now;
            break;
          case Kind::kHandoverComplete:
            if (raw->degradation_at.has_value()) {
              raw->metrics.handover_latency_sum_s +=
                  (now - *raw->degradation_at).count() * 1e-6;
              ++raw->metrics.handover_latency_count;
              raw->degradation_at.reset();
            }
            break;
          case Kind::kReconnected: {
            if (raw->degradation_at.has_value()) {
              raw->metrics.handover_latency_sum_s +=
                  (now - *raw->degradation_at).count() * 1e-6;
              ++raw->metrics.handover_latency_count;
              raw->degradation_at.reset();
            }
            // The controller retires after a reconnection (§5.2.2: a brand
            // new session). attach_channel banks its stats, adopts the new
            // channel and puts a fresh controller on it — destroying the
            // emitting controller from its own event handler is legal
            // (emit() discipline).
            attach_channel(*raw, event.new_channel);
            break;
          }
          case Kind::kGaveUp:
          case Kind::kRepairSuppressed:
            // The repair attempt ended without a substitution; a later
            // handover starts its own latency clock.
            raw->degradation_at.reset();
            break;
          default:
            break;
        }
      });
  session.controller->start();
}

void ScenarioRunner::start_traffic(Session& session) {
  Session* raw = &session;
  // Stagger sessions so their writes do not land on one instant.
  const auto phase = microseconds(37'000 * (session.index + 1));
  session.traffic.start(
      testbed_->sim(), kMessageInterval,
      [this, raw] {
        if (raw->channel == nullptr) return;
        // A reliable session keeps sending through an outage — the engine
        // buffers (bounded by its window) and replays after the resume. A
        // plain session's write fails on the dead transport and counts
        // nothing.
        const Status accepted = raw->channel->write(make_payload(
            static_cast<std::uint32_t>(raw->index), raw->next_msg));
        if (accepted.ok()) {
          ++raw->metrics.sent;
          ++raw->next_msg;
        }
      },
      kMessageInterval + phase);
}

void ScenarioRunner::start_watchdog(Session& session) {
  Session* raw = &session;
  constexpr double kReviveInterval = 10.0;
  session.watchdog.start(
      testbed_->sim(), seconds(kReviveInterval),
      [this, raw] {
        if (raw->reviving) return;
        if (raw->channel != nullptr && raw->channel->open()) return;
        if (raw->controller != nullptr) {
          // A live repair is still in flight; let the controller finish.
          const auto state = raw->controller->state();
          if (state != handover::HandoverState::kFailed &&
              state != handover::HandoverState::kDone) {
            return;
          }
        }
        raw->reviving = true;
        raw->client->library().connect(
            raw->server_mac, raw->spec.service, {},
            [this, raw](Result<ChannelPtr> result) {
              raw->reviving = false;
              if (!result.ok()) return;  // next watchdog tick retries
              ++raw->metrics.restarts;
              attach_channel(*raw, std::move(result).value());
            });
      },
      seconds(kReviveInterval));
}

void ScenarioRunner::note_outage_start(Session& session) {
  if (session.outage_start.has_value()) return;
  session.outage_start = testbed_->sim().now();
  ++session.metrics.outage_episodes;
}

void ScenarioRunner::note_outage_end(Session& session) {
  if (!session.outage_start.has_value()) return;
  session.metrics.outage_s +=
      (testbed_->sim().now() - *session.outage_start).count() * 1e-6;
  session.outage_start.reset();
}

void ScenarioRunner::count_delivery(const Bytes& payload) {
  const auto index = payload_session(payload);
  if (!index.has_value() || *index >= sessions_.size()) return;
  Session& session = *sessions_[*index];
  ++session.metrics.received;
  const auto counter = payload_counter(payload);
  if (!counter.has_value()) return;
  if (*counter < session.server_expected) {
    // Behind the high-water mark: a duplicate or reordered delivery. The
    // reliability engine must make this impossible; plain sessions surface
    // whatever the medium did.
    ++session.metrics.dup_or_reorder;
    return;
  }
  session.metrics.gaps += *counter - session.server_expected;
  session.server_expected = *counter + 1;
}

std::vector<MacAddress> ScenarioRunner::resolve_prefixes(
    const std::vector<std::string>& prefixes) const {
  std::vector<MacAddress> macs;
  for (node::Node* node : testbed_->nodes()) {
    for (const std::string& prefix : prefixes) {
      if (node->name().rfind(prefix, 0) == 0) {
        macs.push_back(node->mac());
        break;
      }
    }
  }
  return macs;
}

node::Node* ScenarioRunner::find_node(MacAddress mac) const {
  for (node::Node* node : testbed_->nodes()) {
    if (node->mac() == mac) return node;
  }
  return nullptr;
}

void ScenarioRunner::schedule_churn() {
  churn_task_.start(
      testbed_->sim(), seconds(spec_.churn_interval_s),
      [this] {
        node::Node* node = churn_nodes_[next_churn_ % churn_nodes_.size()];
        ++next_churn_;
        if (!node->daemon().running()) return;  // still down from last cycle
        node->daemon().stop();
        Daemon* daemon = &node->daemon();
        testbed_->sim().schedule_after(
            seconds(spec_.churn_downtime_s), [daemon] {
              // The runner outlives the testbed's event queue; a restart
              // after teardown cannot happen (the queue dies with the sim).
              if (!daemon->running()) daemon->start();
            });
      },
      seconds(spec_.churn_interval_s));
}

void ScenarioRunner::install_faults() {
  if (spec_.faults.empty()) return;
  sim::LinkFaultModel& faults = testbed_->medium().fault_plane();
  for (const FaultScheduleSpec::TechProfile& entry : spec_.faults.profiles) {
    faults.set_profile(entry.tech, entry.profile);
  }
  if (spec_.faults.partitions.empty()) return;
  const SimTime base = testbed_->sim().now();
  for (const FaultScheduleSpec::Partition& cut : spec_.faults.partitions) {
    sim::LinkFaultModel::Blackout window;
    window.start = base + seconds(cut.start_s);
    window.duration = seconds(cut.duration_s);
    window.side_a = resolve_prefixes(cut.side_a);
    window.side_b = resolve_prefixes(cut.side_b);
    faults.schedule_blackout(window);
  }
}

void ScenarioRunner::install_crashes() {
  if (spec_.crashes.empty()) return;
  // Own forked stream, derived from the scenario seed only — like the link
  // fault plane, so a (seed, crash schedule) pair replays bit-identically
  // and an empty schedule never even constructs the plane.
  crash_plane_ = std::make_unique<sim::NodeCrashPlane>(
      testbed_->sim(), Rng{spec_.seed ^ 0xc7a5ffedfa117e11ULL});
  crash_plane_->set_hooks(
      [this](MacAddress mac) {
        if (node::Node* node = find_node(mac)) node->crash();
      },
      [this](MacAddress mac) {
        if (node::Node* node = find_node(mac)) node->restart();
      });
  const SimTime base = testbed_->sim().now();
  for (const CrashScheduleSpec::Crash& crash : spec_.crashes.crashes) {
    for (const MacAddress mac : resolve_prefixes(crash.targets)) {
      crash_plane_->schedule_crash(mac, base + seconds(crash.at_s),
                                   seconds(crash.downtime_s));
    }
  }
  for (const CrashScheduleSpec::Churn& churn : spec_.crashes.churns) {
    const double stop_s = churn.stop_s > 0.0 ? churn.stop_s : spec_.duration_s;
    crash_plane_->start_churn(resolve_prefixes(churn.targets),
                              seconds(churn.mtbf_s), seconds(churn.mttr_s),
                              base + seconds(churn.start_s),
                              base + seconds(stop_s));
  }
}

void ScenarioRunner::run() {
  if (!ready_) return;
  install_faults();
  install_crashes();
  testbed_->run_for(spec_.duration_s);

  metrics_.sessions.clear();
  metrics_.quality_events = 0;
  for (const auto& session : sessions_) {
    // Stop the drivers first, then close any open outage window at end time.
    session->traffic.stop();
    session->watchdog.stop();
    note_outage_end(*session);
    SessionMetrics m = session->metrics;
    // Fold the live controller into the banked totals (run() is one-shot).
    bank_controller_stats(*session);
    session->controller.reset();
    const handover::HandoverController::Stats& stats = session->prior_stats;
    m.handovers = stats.handovers;
    m.predictions = stats.predictions;
    m.predictive_handovers = stats.predictive_handovers;
    m.reconnections = stats.reconnections;
    metrics_.sessions.push_back(m);
    metrics_.quality_events += stats.quality_events;
  }
  const sim::TrafficStats& medium = testbed_->medium().stats();
  metrics_.medium_frames = medium.frames - medium_baseline_.frames;
  metrics_.medium_frame_bytes =
      medium.frame_bytes - medium_baseline_.frame_bytes;
  metrics_.quality_observer_evals =
      testbed_->medium().quality_stats().observer_evals -
      observer_evals_baseline_;
  // Faults install at the body start, so lifetime totals ARE body totals.
  if (testbed_->medium().has_fault_plane()) {
    metrics_.fault_stats = testbed_->medium().fault_plane().stats();
  }
  if (crash_plane_ != nullptr) {
    metrics_.fault_stats.node_crashes += crash_plane_->stats().node_crashes;
    metrics_.fault_stats.node_restarts += crash_plane_->stats().node_restarts;
  }
  metrics_.restart_resumes = 0;
  for (node::Node* node : testbed_->nodes()) {
    metrics_.restart_resumes += node->daemon().engine().stats().restart_resumes;
  }
  // Retired client channels were counted as they were replaced.
  for (const auto& session : sessions_) {
    if (session->channel != nullptr) count_reliable(*session->channel);
  }
  for (const ChannelPtr& channel : server_channels_) count_reliable(*channel);
  metrics_.net_stats = testbed_->network().net_stats();
}

void ScenarioRunner::count_reliable(const Channel& channel) {
  if (const ReliableChannel* engine = channel.reliable()) {
    metrics_.reliable_reorder_drops += engine->reorder_drops();
    metrics_.reliable_malformed_frames += engine->malformed_frames();
  }
}

// --- Canned scenarios --------------------------------------------------------

namespace {

sim::TechnologyParams scenario_bluetooth(bool deterministic) {
  sim::TechnologyParams bt = sim::bluetooth_params();
  if (deterministic) {
    // Establishment stays slow (that is the phenomenon under test) but the
    // stochastic fault injection is off, so regression assertions hold for
    // every seed.
    bt.connect_delay_min_s = 1.5;
    bt.connect_delay_max_s = 3.0;
    bt.connect_failure_prob = 0.0;
    bt.fetch_failure_prob = 0.0;
  }
  return bt;
}

handover::HandoverConfig handover_policy(bool predictive) {
  handover::HandoverConfig config;
  config.predictive_enabled = predictive;
  return config;
}

}  // namespace

ScenarioSpec corridor_walk(std::uint64_t seed, bool predictive,
                           double speed_mps) {
  ScenarioSpec spec;
  spec.name = "corridor";
  spec.seed = seed;
  spec.radio = scenario_bluetooth(/*deterministic=*/true);

  NodeGroup server;
  server.prefix = "server";
  server.mobility.kind = MobilitySpec::Kind::kStatic;
  server.mobility.start = {0.0, 0.0};
  server.services = {"print"};
  spec.groups.push_back(server);

  NodeGroup bridge;
  bridge.prefix = "bridge";
  bridge.mobility.kind = MobilitySpec::Kind::kStatic;
  bridge.mobility.start = {8.0, 0.0};
  spec.groups.push_back(bridge);

  // Fig. 5.4: hold near the server (discovery + a stable traffic phase),
  // then walk down the corridor out of server range, stopping next to the
  // bridge (well inside its good-quality zone, so the handed-over session
  // settles instead of oscillating).
  const double walk_start = 90.0;
  const double walk_len = 10.0;
  NodeGroup walker;
  walker.prefix = "walker";
  walker.mobility_class = MobilityClass::kDynamic;
  walker.mobility.kind = MobilitySpec::Kind::kWaypoints;
  walker.mobility.waypoints = {
      {SimTime{} + seconds(0.0), {2.0, 0.0}},
      {SimTime{} + seconds(walk_start), {2.0, 0.0}},
      {SimTime{} + seconds(walk_start + walk_len / speed_mps), {12.0, 0.0}},
  };
  spec.groups.push_back(walker);

  SessionSpec session;
  session.client = "walker0";
  session.server = "server0";
  session.service = "print";
  session.handover_config = handover_policy(predictive);
  session.handover_config.reconnection_enabled = false;  // isolate routing
  spec.sessions.push_back(session);

  spec.discovery_rounds = 3;
  spec.duration_s = walk_start + walk_len / speed_mps + 30.0;
  return spec;
}

ScenarioSpec office(std::uint64_t seed, bool predictive, int n) {
  ScenarioSpec spec;
  spec.name = "office";
  spec.seed = seed;
  spec.radio = scenario_bluetooth(/*deterministic=*/true);

  const int servers = 2;
  const int statics = std::max(servers, n * 2 / 5);
  const int mobiles = std::max(2, n - statics);

  NodeGroup server_group;
  server_group.prefix = "srv";
  server_group.count = servers;
  server_group.mobility.kind = MobilitySpec::Kind::kStatic;
  server_group.mobility.start = {8.0, 8.0};
  server_group.spacing = {12.0, 8.0};
  server_group.services = {"task"};
  spec.groups.push_back(server_group);

  if (statics > servers) {
    NodeGroup anchors;
    anchors.prefix = "anchor";
    anchors.count = statics - servers;
    anchors.mobility.kind = MobilitySpec::Kind::kStatic;
    anchors.mobility.start = {4.0, 16.0};
    anchors.spacing = {7.0, -3.0};
    spec.groups.push_back(anchors);
  }

  NodeGroup walkers;
  walkers.prefix = "mob";
  walkers.count = mobiles;
  walkers.mobility_class = MobilityClass::kDynamic;
  walkers.mobility.kind = MobilitySpec::Kind::kRandomWaypoint;
  walkers.mobility.start = {10.0, 9.0};
  walkers.spacing = {1.5, 1.0};
  walkers.mobility.random_waypoint.area_min = {0.0, 0.0};
  walkers.mobility.random_waypoint.area_max = {22.0, 16.0};
  walkers.mobility.random_waypoint.speed_min_mps = 0.3;
  walkers.mobility.random_waypoint.speed_max_mps = 0.8;
  spec.groups.push_back(walkers);

  // Both sessions target the central server; the second server is the
  // §5.2.2 alternative provider the reconnection path can fall back to.
  for (int c = 0; c < 2; ++c) {
    SessionSpec session;
    session.client = "mob" + std::to_string(c);
    session.server = "srv0";
    session.service = "task";
    session.handover_config = handover_policy(predictive);
    spec.sessions.push_back(session);
  }

  spec.discovery_rounds = 3;
  spec.duration_s = 120.0;
  return spec;
}

ScenarioSpec group_walk(std::uint64_t seed, bool predictive, int members) {
  ScenarioSpec spec;
  spec.name = "group";
  spec.seed = seed;
  spec.radio = scenario_bluetooth(/*deterministic=*/true);

  NodeGroup server;
  server.prefix = "server";
  server.mobility.kind = MobilitySpec::Kind::kStatic;
  server.mobility.start = {0.0, 0.0};
  server.services = {"print"};
  spec.groups.push_back(server);

  NodeGroup bridge;
  bridge.prefix = "bridge";
  bridge.mobility.kind = MobilitySpec::Kind::kStatic;
  bridge.mobility.start = {8.0, 0.0};
  spec.groups.push_back(bridge);

  // The whole group (reference-point group mobility) walks the corridor
  // away from the server, ending next to the bridge so handed-over
  // sessions settle inside its good-quality zone.
  const double walk_start = 90.0;
  const double speed = 0.75;
  const double walk_len = 8.0;
  NodeGroup group;
  group.prefix = "member";
  group.count = std::max(2, members);
  group.mobility_class = MobilityClass::kDynamic;
  group.mobility.kind = MobilitySpec::Kind::kGroup;
  group.mobility.group.deviation_radius_m = 0.8;
  group.mobility.group.update_interval = seconds(4.0);
  group.spacing = {0.5, 0.3};
  group.group_reference.kind = MobilitySpec::Kind::kWaypoints;
  group.group_reference.waypoints = {
      {SimTime{} + seconds(0.0), {3.0, 0.5}},
      {SimTime{} + seconds(walk_start), {3.0, 0.5}},
      {SimTime{} + seconds(walk_start + walk_len / speed), {11.0, 0.5}},
  };
  spec.groups.push_back(group);

  for (int c = 0; c < 2; ++c) {
    SessionSpec session;
    session.client = "member" + std::to_string(c);
    session.server = "server0";
    session.service = "print";
    session.handover_config = handover_policy(predictive);
    session.handover_config.reconnection_enabled = false;
    spec.sessions.push_back(session);
  }

  // An extra round over the corridor default: with many members the
  // asymmetric-inquiry misses otherwise leave some server records routed
  // (via a fellow member), and a session that *starts* bridged through the
  // group gives the predictor no first-hop signal to extrapolate.
  spec.discovery_rounds = 4;
  spec.duration_s = walk_start + walk_len / speed + 30.0;
  return spec;
}

ScenarioSpec churn(std::uint64_t seed, bool predictive, int n) {
  ScenarioSpec spec = office(seed, predictive, n);
  spec.name = "churn";
  // The anchors (relay-capable but sessionless) cycle their daemons: routes
  // through them keep appearing and vanishing.
  for (NodeGroup& group : spec.groups) {
    if (group.prefix == "anchor") group.churn = true;
  }
  spec.churn_interval_s = 20.0;
  spec.churn_downtime_s = 8.0;
  return spec;
}

}  // namespace peerhood::scenario
