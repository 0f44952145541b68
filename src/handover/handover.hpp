// HandoverController — the §5.2 handover plane as an event-driven engine.
//
// The seed implementation was the paper's HandoverThread (Fig. 5.5)
// verbatim: poll link quality once per second and react after
// `kLowCountLimit` consecutive bad samples — by which time the corridor
// walker of Fig. 5.4 has already lost the link, so every handover is an
// outage. This engine keeps that reactive loop as the fallback and layers a
// *predictive make-before-break* path on top of the medium's push-based
// quality plane:
//
//  * On start the controller subscribes a quality observer on the current
//    transport link (RadioMedium::observe_quality). The medium pushes
//    threshold/coverage crossings — no steady-state polling.
//  * A kFell crossing (quality under threshold, hysteresis-guarded) arms a
//    fast predictor that tracks the link's distance and radial speed
//    (RadioMedium::probe_link) and estimates time-to-loss = remaining
//    coverage / separation speed.
//  * When predicted loss is nearer than the estimated bridge establishment
//    latency (× margin), the engine pre-dials the best RouteCandidate
//    bridge — the §5.2.1 re-routing, but *before* the link dies — and the
//    session's connection is swapped while the old link is still alive
//    (make-before-break). The §4.1 chain machinery (and the dial's
//    HalfOpenDial ownership) is reused unchanged via Library::resume with
//    the bridge as the hop.
//  * If prediction misses (link dies first, or quality collapses without a
//    mobility signal — e.g. the artificial decay of Fig. 5.8), the reactive
//    monitor still detects degradation / loss and repairs it, falling back
//    to §5.2.2 service reconnection when no route exists.
//
// The §5.3 `sending` flag suppresses all repair while the application is
// idle waiting for a result, exactly as before.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/handler_slot.hpp"
#include "peerhood/library.hpp"
#include "sim/medium.hpp"
#include "sim/simulator.hpp"

namespace peerhood::handover {

struct HandoverConfig {
  // --- Reactive (paper) repair ---------------------------------------------
  // The HandoverThread's Fig. 3.9 quality threshold, 1 s monitor period and
  // low-count limit are the paper's fixed parameters (constants in
  // handover.cpp); only the repair strategy is chosen here. Routing
  // handover always runs first, over at most kMaxRouteAttempts bridges.
  bool reconnection_enabled{true};
  // Full routing-plan passes attempted against a dead link before the
  // controller goes terminal. Crash scenarios raise this so the controller
  // keeps retrying across a server's downtime and the restart-resume path
  // gets its chance once the peer is back.
  int max_dead_link_passes{3};
  // After the routing plan is exhausted on a dead link, try resuming the
  // session *directly* with the peer before reconnecting elsewhere. This is
  // the crash-recovery path: a restarted peer answers kUnknownSession and
  // the Library re-dials with kResumeRestart against its journal. Off by
  // default — it changes the repair sequence of established scenarios.
  bool direct_resume_enabled{false};

  // --- Predictive make-before-break layer ----------------------------------
  // Its arming band, poll cadence and pre-dial margin are constants in
  // handover.cpp.
  bool predictive_enabled{true};
};

enum class HandoverState {
  kPrepare = 0,
  kMonitor = 1,
  kExecute = 2,
  kReconnecting = 3,
  kDone = 4,
  kFailed = 5,
};

struct HandoverEvent {
  enum class Kind {
    kDegradationDetected,
    kPredictedLoss,      // make-before-break pre-dial started
    kHandoverComplete,   // same session re-routed through `bridge`
    kHandoverFailed,     // one bridge attempt failed
    kReconnected,        // new session on another provider (`new_channel`)
    kRepairSuppressed,   // sending == false, loss does not matter (§5.3)
    kGaveUp,
  };
  Kind kind;
  MacAddress bridge;
  ChannelPtr new_channel;
  std::string detail;
};

class HandoverController {
 public:
  // Asks the user for permission before service reconnection (§5.2.2: "it's
  // preferable to notify the application user about the reconnection need").
  // Call grant(true/false). Default when unset: granted.
  using PermissionCallback =
      std::function<void(std::function<void(bool)> grant)>;
  using EventHandler = std::function<void(const HandoverEvent&)>;

  struct Stats {
    std::uint64_t samples{0};
    std::uint64_t degradations{0};
    std::uint64_t route_attempts{0};
    std::uint64_t handovers{0};
    std::uint64_t route_failures{0};
    // Direct session-resume attempts against the peer itself (the
    // crash-recovery path, see HandoverConfig::direct_resume_enabled).
    std::uint64_t direct_resumes{0};
    std::uint64_t reconnections{0};
    std::uint64_t suppressed{0};
    // Predictive layer.
    std::uint64_t quality_events{0};       // observer pushes received
    std::uint64_t predictions{0};          // pre-dial sequences started
    std::uint64_t predictive_handovers{0}; // swaps with the old link alive
  };

  HandoverController(Library& library, ChannelPtr channel,
                     HandoverConfig config = {});
  ~HandoverController();

  HandoverController(const HandoverController&) = delete;
  HandoverController& operator=(const HandoverController&) = delete;

  void start();
  void stop();

  [[nodiscard]] HandoverState state() const { return state_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::optional<MacAddress> planned_bridge() const;

  void set_event_handler(EventHandler handler);
  void set_permission_callback(PermissionCallback callback);

  // Exposed for tests: one monitor tick / one plan refresh.
  void tick();
  void refresh_plan();

 private:
  struct RouteCandidate {
    MacAddress bridge;
    int score{0};  // weakest link of self->bridge->peer
  };

  // Dispatches the event with copy-before-call discipline. Returns false
  // when the callback destroyed this controller — the caller must then
  // return immediately without touching any member.
  bool emit(const HandoverEvent& event);
  void execute();
  void attempt_route(std::size_t candidate_index);
  void attempt_direct_resume();
  // Shared tail of a failed repair pass on a dead link: reconnection if
  // enabled, otherwise count the pass and either drop back to monitor or go
  // terminal.
  void finish_dead_link_pass();
  void start_reconnection();
  // Terminal failure: kFailed, emit kGaveUp with `detail`, then stop().
  void give_up(std::string detail);
  // A resume succeeded (through `bridge`, or directly when it is empty):
  // back to a fresh kMonitor, observing the new link, and emit
  // kHandoverComplete with `detail`.
  void repaired(MacAddress bridge, std::string detail);

  // Predictive layer.
  void subscribe_link();    // (re-)observe the current transport link
  void unsubscribe_link();  // idempotent
  void on_quality_event(const sim::LinkQualityEvent& event);
  void arm_predictor();
  void disarm_predictor();
  void predict_check();
  [[nodiscard]] double setup_estimate_s() const;

  Library& library_;
  ChannelPtr channel_;
  HandoverConfig config_;
  sim::PeriodicTask monitor_;
  HandoverState state_{HandoverState::kPrepare};
  int low_count_{0};
  std::vector<RouteCandidate> plan_;
  HandlerSlot<void(const HandoverEvent&)> event_slot_;
  PermissionCallback permission_;
  Stats stats_;
  bool busy_{false};
  // Predictive state: observer handle, the armed fast predictor, and
  // whether the in-flight execute() was started by prediction with the old
  // link still alive when the swap completes.
  sim::QualityObserverId observer_{sim::kInvalidQualityObserver};
  sim::PeriodicTask predictor_;
  bool predicted_{false};
  bool link_lost_since_dial_{false};
  // Consecutive full-plan failures while the link was down. Bursty media
  // fail whole passes spuriously, so the reactive loop re-runs the plan a
  // few times before declaring the route dead and going terminal.
  int dead_link_passes_{0};
  // Bridges whose resume attempt failed during the current repair episode:
  // a crashed relay keeps failing, so demote it far below every fresh
  // candidate when re-planning. Cleared once a repair succeeds.
  std::unordered_map<MacAddress, int> bridge_failures_;
  // Guards the in-flight resume/reconnect callbacks (they capture `this`
  // and may resolve after this controller is destroyed).
  DestructionSentinel sentinel_;
};

}  // namespace peerhood::handover
