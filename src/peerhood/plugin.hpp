// Network plugin — one per technology (BTPlugin / WLANPlugin / GPRSPlugin in
// the paper). Runs the inquiry loop of Fig. 3.12: inquire, collect
// responses, check the PeerHood tag (SDP), fetch information for new or
// recheck-due devices, analyse their neighbourhood snapshots (Fig. 3.13) and
// age the storage with time stamps. Implements the Bluetooth inquiry
// asymmetry: while inquiring the device is itself undiscoverable (§3.4.2).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/handler_slot.hpp"
#include "common/mac_address.hpp"
#include "peerhood/protocol.hpp"
#include "sim/simulator.hpp"

namespace peerhood {

class Daemon;

class Plugin {
 public:
  struct Stats {
    std::uint64_t loops{0};
    std::uint64_t responders{0};
    std::uint64_t non_peerhood{0};
    std::uint64_t fetch_attempts{0};
    std::uint64_t fetch_failures{0};
    std::uint64_t fetch_timeouts{0};
    // Timed-out fetches re-issued with backoff (see plugin.cpp), and
    // responses dropped by duplicate/stale suppression: nothing pending,
    // wrong peer, or a request id we are no longer waiting for (a late
    // answer to a retried or completed fetch, or a fault-plane duplicate).
    std::uint64_t fetch_retries{0};
    std::uint64_t stale_responses{0};
    // Device updates (a full fetch, split or unified, or a neighbours
    // refresh) whose every exchange was answered. The aborted ones number
    // fetch_failures + fetch_timeouts - fetch_retries.
    std::uint64_t updates_answered{0};
    std::uint64_t integrations{0};
    std::uint64_t removed_devices{0};
    // Conditional-fetch outcome counters: fetches answered kNotModified
    // (timestamp-touch only, no analyzer pass) and responses integrated
    // with a partial section set (deltas / neighbours-only refreshes).
    std::uint64_t not_modified{0};
    std::uint64_t delta_responses{0};
    // Responder restarted between request and response (epoch changed
    // mid-conversation): the delta baseline was invalidated and the fetch
    // fell back to a full one instead of overlaying stale state.
    std::uint64_t epoch_invalidations{0};
  };

  Plugin(Daemon& daemon, Technology technology);
  ~Plugin();

  Plugin(const Plugin&) = delete;
  Plugin& operator=(const Plugin&) = delete;

  void start();
  void stop();

  [[nodiscard]] Technology technology() const { return tech_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] bool cycle_active() const { return cycle_active_; }

  // Routed here by the daemon's datagram dispatcher with the response it
  // decoded; the response's neighbour entries are views into the datagram,
  // so a neighbours section is integrated before this returns and no view
  // is kept (see wire::ReceivedFetchResponse).
  void on_fetch_response(MacAddress from,
                         wire::ReceivedFetchResponse& response);

  // Triggers one inquiry cycle immediately (tests/benches).
  void trigger_cycle();

  // Crash support: drops every conditional-fetch baseline (they are volatile
  // requester state; a restarted daemon starts from full fetches).
  void forget_peers();

 private:
  void begin_cycle();
  void end_inquiry();
  // Starts the next queued fetch job, or completes the cycle when none is
  // left.
  void process_next_responder();
  // Issues the information fetch for job_: either the unified single
  // exchange or the paper's four short exchanges (§3.4.1).
  void fetch_info();
  // Requests the next section of a split fetch.
  void split_step();
  // One request/response exchange: sets pending_ and either sends the
  // request or schedules the short-connection failure.
  void fetch_section(MacAddress target, std::uint8_t sections,
                     SimDuration cost, int attempt = 0);
  void on_fetch_timeout();
  // The fetch chain's continuation: every exchange ends here exactly once,
  // with the response or nullptr (failure / timeout). Feeds the split
  // assembly when one is active, job_done otherwise.
  void fetch_done(wire::ReceivedFetchResponse* response);
  void split_part_done(wire::ReceivedFetchResponse* part);
  // Integrates (or drops) the finished fetch for job_ and moves on.
  void job_done(wire::ReceivedFetchResponse* response);
  // Samples the link RSSI to `target` (§3.4.1), de-rated by the responder's
  // advertised bridge load when configured (§4). <= 0 means out of range.
  [[nodiscard]] int sampled_quality(MacAddress target,
                                    std::uint8_t load_percent);
  // Integrates one (possibly delta) response. False means the response was
  // dropped (spoof / link lost / stored record gone) — the caller must then
  // discard the peer's version baseline, since on_fetch_response already
  // adopted generations this integration failed to apply.
  bool integrate_response(MacAddress target,
                          wire::ReceivedFetchResponse& response);
  void complete_cycle();
  void schedule_next_cycle(SimDuration delay);

  Daemon& daemon_;
  Technology tech_;
  sim::EventId cycle_event_{sim::kInvalidEvent};
  sim::EventId inquiry_end_event_{sim::kInvalidEvent};
  bool stopped_{true};
  bool cycle_active_{false};
  // Guards the scheduled fetch continuations (they capture `this` and are
  // owned by the event queue, which can outlive this plugin's daemon).
  DestructionSentinel sentinel_;
  // Fetch-chain generation, bumped by stop(): a failure completion or retry
  // scheduled before the stop finds it moved and ends there, so a stopped
  // plugin sends nothing and a restarted one runs exactly one chain.
  std::uint64_t chain_{0};

  // Per-cycle state.
  struct FetchJob {
    MacAddress target;
    bool full{true};  // full info fetch vs neighbours-only refresh
  };
  std::vector<FetchJob> fetch_queue_;
  std::vector<MacAddress> cycle_responders_;
  std::size_t fetch_index_{0};
  // The job being fetched. One fetch is in flight per plugin at a time, so
  // the whole chain's state lives in the members below.
  FetchJob job_;

  // The current exchange. `awaiting` is set while its request is on the
  // air; target, sections, cost and attempt outlive it for the retry.
  struct PendingFetch {
    MacAddress target;
    std::uint32_t request_id{0};
    std::uint8_t sections{0};
    SimDuration cost{};
    int attempt{0};
    sim::EventId timeout{sim::kInvalidEvent};
    bool awaiting{false};
  };
  PendingFetch pending_;
  // Ids are minted from 1: wire::kSharedRequestId marks the responder's
  // shared cached frames, which are matched by peer address instead.
  std::uint32_t next_request_id_{1};

  // Last-seen responder versions, keyed by peer (the requester half of the
  // conditional fetch). `known` holds the section bits whose generations are
  // valid under `epoch`; a baseline is attached to a request only when it
  // covers every requested section.
  struct PeerView {
    std::uint64_t epoch{0};
    wire::SectionGens gens;
    std::uint8_t known{0};
  };
  std::unordered_map<MacAddress, PeerView> peer_views_;
  // storage().weakening_generation() as of the last cycle; a move drops
  // the neighbours baselines above (see end_inquiry).
  std::uint32_t storage_weakening_gen_{0};

  // Split-fetch assembly state (the paper's four short exchanges): the
  // owned sections of the first three parts. The fourth, neighbours part
  // completes the fetch itself (see split_part_done), so no entry view is
  // ever kept here.
  struct SplitState {
    bool active{false};
    wire::ReceivedFetchResponse assembled;
    int next_section{0};
    SimDuration section_cost{};
    // The assembly was already restarted once after a mid-conversation
    // epoch change; a second change aborts the fetch for this cycle.
    bool epoch_retry{false};
  };
  SplitState split_;
  // The response of the datagram being dispatched (on_fetch_response), the
  // only one whose neighbour entry views are alive; nullptr otherwise.
  const wire::ReceivedFetchResponse* dispatching_{nullptr};

  Stats stats_;
};

}  // namespace peerhood
