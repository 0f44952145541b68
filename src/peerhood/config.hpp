// Daemon configuration. Defaults match the thesis implementation. Only what
// a deployment, an ablation bench (E10-E12) or a test actually changes is
// settable here; the fixed protocol parameters (inquiry-loop aging, fetch
// timeouts and retries, queue and journal bounds) are constants in the
// module that reads them.
#pragma once

#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "sim/radio.hpp"

namespace peerhood {

struct DaemonConfig {
  std::string device_name{"device"};
  MobilityClass mobility{MobilityClass::kDynamic};
  std::vector<Technology> technologies{Technology::kBluetooth};

  // Known devices are re-fetched only at this interval ("a service checking
  // interval defines a longer interval time for stored devices to achieve
  // the energy saving", §3.5). Inquiry responses still refresh liveness.
  // With conditional_fetch on, a service check is one exchange for all four
  // sections.
  SimDuration service_check_interval{std::chrono::seconds{30}};

  // §3.4.1: fetch device/prototype/service/neighbourhood information through
  // one unified connection instead of four short ones (ablation E10). With
  // conditional_fetch on, this only decides first contact: a stored
  // device's service check is one exchange either way.
  bool unified_fetch{false};

  // Requester side: send the last-seen epoch + per-section generations with
  // each fetch so unchanged responders answer kNotModified / section deltas
  // instead of full snapshots. Off is the paper's protocol: every fetch is
  // a full one, over four exchanges unless unified_fetch is set.
  bool conditional_fetch{true};

  // When false the daemon behaves like pre-thesis PeerHood [2]: neighbour
  // lists are stored for two-jump vision but no routed records are created
  // (baseline for E1/E2).
  bool propagate_routes{true};

  // Crash tolerance. When non-empty, the SessionStore journal also
  // persists to this file and is reloaded on construction — the real-daemon
  // path, where "crash" means kill -9 and recovery means a fresh process
  // finding the journal on disk. Empty (the default) keeps the journal
  // in-memory, as every sim scenario expects.
  std::string session_journal_path{};

  // Interconnection (Ch. 4): decrease the advertised link quality
  // proportionally to bridge occupancy to steer routes away from bottleneck
  // bridges (§4, ablation E11). Bridge capacity is NodeOptions::bridge.
  bool load_derating{false};
};

}  // namespace peerhood
