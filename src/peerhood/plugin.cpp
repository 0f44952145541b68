#include "peerhood/plugin.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"
#include "net/frame_check.hpp"
#include "peerhood/daemon.hpp"

namespace peerhood {

namespace {
// Direct devices missing this many consecutive inquiry loops are dropped
// (Fig. 3.12 time-stamp aging).
constexpr int kMaxMissedLoops = 3;
// Discovery-fetch robustness (fault-plane hardening). A fetch waits
// cost * kFetchTimeoutMult + kFetchTimeoutExtra for its response; a
// timed-out fetch is re-issued up to kFetchRetries more times, spaced by
// jittered exponential backoff (kFetchRetryBackoff doubling per attempt,
// scaled by uniform(1 ± kFetchRetryJitter)), before the responder is
// treated as gone for this cycle and its conditional-fetch baseline drops.
constexpr double kFetchTimeoutMult = 3.0;
constexpr SimDuration kFetchTimeoutExtra = std::chrono::seconds{2};
constexpr int kFetchRetries = 1;
constexpr SimDuration kFetchRetryBackoff = std::chrono::seconds{1};
constexpr double kFetchRetryJitter = 0.5;

// The responder's direct record as a (possibly delta) fetch response
// updates it: jump 0 at the measured link quality, and the descriptor
// sections the response carries. Absent sections are unchanged by protocol
// contract and stay as stored; the neighbour links are the analyzer's.
struct DirectUpdate {
  MacAddress target;
  Route direct;
  wire::ReceivedFetchResponse& response;

  [[nodiscard]] MacAddress mac() const { return target; }
  [[nodiscard]] const Route& route() const { return direct; }
  [[nodiscard]] bool same_descriptors(const DeviceRecord& stored) const {
    return (!carries(wire::kSectionDevice) ||
            response.device == stored.device) &&
           (!carries(wire::kSectionPrototypes) ||
            response.prototypes == stored.prototypes) &&
           (!carries(wire::kSectionServices) ||
            response.services == stored.services);
  }
  void write(DeviceRecord& record, bool descriptors_changed) {
    static_cast<Route&>(record) = direct;
    if (!descriptors_changed) return;
    if (carries(wire::kSectionDevice)) {
      record.device = std::move(response.device);
    }
    if (carries(wire::kSectionPrototypes)) {
      record.prototypes = std::move(response.prototypes);
    }
    if (carries(wire::kSectionServices)) {
      record.services = std::move(response.services);
    }
  }

  [[nodiscard]] bool carries(std::uint8_t section) const {
    return (response.sections & section) != 0;
  }
};
}  // namespace

Plugin::Plugin(Daemon& daemon, Technology technology)
    : daemon_{daemon}, tech_{technology} {}

Plugin::~Plugin() { stop(); }

void Plugin::start() {
  stopped_ = false;
  const sim::TechnologyParams& params = daemon_.network().params(tech_);
  // Random initial phase so co-located daemons do not inquire in lock-step.
  const SimDuration phase =
      seconds(daemon_.simulator().rng().uniform(
          0.0, std::chrono::duration<double>(params.inquiry_interval).count()));
  schedule_next_cycle(phase);
}

void Plugin::schedule_next_cycle(SimDuration delay) {
  if (stopped_) return;
  cycle_event_ = daemon_.simulator().schedule_after(delay, [this] {
    cycle_event_ = sim::kInvalidEvent;
    begin_cycle();
  });
}

void Plugin::stop() {
  stopped_ = true;
  if (cycle_event_ != sim::kInvalidEvent) {
    daemon_.simulator().cancel(cycle_event_);
    cycle_event_ = sim::kInvalidEvent;
  }
  if (inquiry_end_event_ != sim::kInvalidEvent) {
    daemon_.simulator().cancel(inquiry_end_event_);
    inquiry_end_event_ = sim::kInvalidEvent;
    // Stopped mid-inquiry: close the window without collecting responders.
    daemon_.network().cancel_inquiry(daemon_.mac(), tech_);
  }
  // End the fetch chain: the awaited answer's timeout is cancelled, and a
  // pending failure completion or retry finds chain_ moved.
  ++chain_;
  if (pending_.awaiting) {
    daemon_.simulator().cancel(pending_.timeout);
    pending_.awaiting = false;
  }
  split_ = SplitState{};
  cycle_active_ = false;
}

void Plugin::trigger_cycle() { begin_cycle(); }

void Plugin::forget_peers() {
  peer_views_.clear();
  storage_weakening_gen_ = 0;
}

void Plugin::begin_cycle() {
  if (cycle_active_) return;  // previous cycle overran its interval
  cycle_active_ = true;
  ++stats_.loops;
  net::Network& network = daemon_.network();
  network.begin_inquiry(daemon_.mac(), tech_);
  inquiry_end_event_ = daemon_.simulator().schedule_after(
      network.params(tech_).inquiry_duration, [this] {
        inquiry_end_event_ = sim::kInvalidEvent;
        end_inquiry();
      });
}

void Plugin::end_inquiry() {
  net::Network& network = daemon_.network();
  const std::vector<MacAddress> raw =
      network.end_inquiry(daemon_.mac(), tech_);

  // Integrating a snapshot is not a pure function of the snapshot: a record
  // removed from — or weakened in — *our* storage since the last cycle can
  // make a candidate route we previously rejected (dominated by the late
  // record) win now. Conditional fetch would suppress exactly that
  // re-offer, so any local weakening drops every neighbours-section
  // baseline once and the next fetches re-ship full snapshots.
  const std::uint32_t weakening_gen = daemon_.storage().weakening_generation();
  if (weakening_gen != storage_weakening_gen_) {
    storage_weakening_gen_ = weakening_gen;
    for (auto& [mac, view] : peer_views_) {
      view.known &= static_cast<std::uint8_t>(~wire::kSectionNeighbours);
    }
  }

  stats_.responders += raw.size();

  cycle_responders_.clear();
  fetch_queue_.clear();
  fetch_index_ = 0;
  cycle_responders_.reserve(raw.size());
  fetch_queue_.reserve(raw.size());

  const SimTime now = daemon_.simulator().now();
  for (const MacAddress responder : raw) {
    // SDP query for the PeerHood tag (§2.3).
    if (!network.peerhood_tag(responder, tech_)) {
      ++stats_.non_peerhood;
      continue;
    }
    cycle_responders_.push_back(responder);
    const DeviceRecord* record = daemon_.storage().lookup(responder);
    const bool is_new = record == nullptr || !record->is_direct();
    const bool recheck_due =
        record != nullptr &&
        now - record->last_seen >= daemon_.config().service_check_interval;
    if (is_new || recheck_due) {
      // Full information fetch for new devices and at the service checking
      // interval (energy saving, §3.5).
      fetch_queue_.push_back(FetchJob{responder, /*full=*/true});
    } else {
      // Known device: refresh only the neighbourhood snapshot (and sample
      // the link quality) every loop — this is what makes the maximum
      // notification delay equal jumps x searching cycle (Fig. 3.10).
      fetch_queue_.push_back(FetchJob{responder, /*full=*/false});
    }
  }
  process_next_responder();
}

void Plugin::process_next_responder() {
  if (fetch_index_ >= fetch_queue_.size()) {
    complete_cycle();
    return;
  }
  job_ = fetch_queue_[fetch_index_++];
  if (job_.full) {
    fetch_info();
  } else {
    const sim::TechnologyParams& params =
        daemon_.network().params(tech_);
    fetch_section(job_.target, wire::kSectionNeighbours, params.fetch_time);
  }
}

void Plugin::job_done(wire::ReceivedFetchResponse* resp) {
  const FetchJob job = job_;
  if (resp != nullptr && resp->epoch_changed && !resp->not_modified &&
      resp->sections != wire::kSectionAll) {
    // The responder restarted between our request and this (partial)
    // response: overlaying it onto the stored record would mix post-
    // restart sections with pre-restart state. Drop the baseline (already
    // re-seeded with the new epoch by on_fetch_response — erase it fully)
    // and requeue an unconditional full fetch this cycle instead.
    ++stats_.epoch_invalidations;
    peer_views_.erase(job.target);
    fetch_queue_.push_back(FetchJob{job.target, /*full=*/true});
    process_next_responder();
    return;
  }
  bool view_consistent = false;
  if (resp != nullptr) {
    ++stats_.updates_answered;
    if (resp->not_modified) {
      // Nothing the responder advertises moved since our baseline: skip
      // the whole analyzer/reconcile pass — re-integrating an identical
      // snapshot would re-reconcile every bridge route for nothing. The
      // exchange still happened, so the RSSI sample and the freshness
      // time stamp (Fig. 3.12) refresh exactly like a full fetch.
      ++stats_.not_modified;
      const int quality = sampled_quality(job.target, resp->load_percent);
      if (quality > 0) {
        daemon_.storage().refresh_direct(job.target, quality,
                                         daemon_.simulator().now());
      } else {
        // The device answered, so it is alive even if our own position
        // sample says the link is gone; keep the time stamp fresh.
        daemon_.storage().touch(job.target, daemon_.simulator().now());
      }
      view_consistent = true;  // nothing shipped, nothing to lose
    } else {
      view_consistent = integrate_response(job.target, *resp);
    }
  }
  if (!view_consistent) {
    // The fetch aborted (timeout / spoof / link lost mid-fetch) after
    // on_fetch_response may already have adopted newer generations from
    // the parts that did arrive. Keeping that baseline would make the
    // responder answer kNotModified for content we never integrated —
    // drop the view so the next fetch is an unconditional full one.
    peer_views_.erase(job.target);
  }
  process_next_responder();
}

void Plugin::fetch_info() {
  const sim::TechnologyParams& params =
      daemon_.network().params(tech_);
  if (daemon_.config().unified_fetch) {
    // One longer connection fetching everything (§3.4.1 suggestion).
    fetch_section(job_.target, wire::kSectionAll, 2 * params.fetch_time);
    return;
  }
  // The paper's four short connections (Fig. 3.7), issued sequentially; any
  // failure aborts the whole fetch for this cycle.
  split_ = SplitState{};
  split_.active = true;
  split_.section_cost = params.fetch_time;
  split_step();
}

void Plugin::split_step() {
  const std::uint8_t section =
      wire::kSectionOrder[static_cast<std::size_t>(split_.next_section)];
  ++split_.next_section;
  fetch_section(job_.target, section, split_.section_cost);
}

void Plugin::split_part_done(wire::ReceivedFetchResponse* part) {
  if (part == nullptr) {
    split_.active = false;
    job_done(nullptr);
    return;
  }
  if (part->epoch_changed) {
    // Responder restarted mid-assembly: every part gathered so far
    // (including kNotModified conclusions) describes state that no longer
    // exists. Restart the assembly once — the view was reset to the new
    // epoch, so the re-fetches are unconditional — and abort the cycle's
    // fetch if it happens again.
    if (split_.epoch_retry) {
      split_.active = false;
      job_done(nullptr);
      return;
    }
    split_.epoch_retry = true;
    split_.assembled = wire::ReceivedFetchResponse{};
    split_.next_section = 0;
    split_step();
    return;
  }
  // Sections answered kNotModified stay absent; the integration keeps the
  // stored record's.
  wire::ReceivedFetchResponse& assembled = split_.assembled;
  if (split_.next_section < 4) {
    // A neighbours section before the fourth exchange answers another one
    // (a shared frame duplicated on the air). Its entries are views into
    // this datagram, so it cannot wait for the assembly to finish: drop it,
    // the fourth exchange fetches the neighbourhood.
    part->sections &= static_cast<std::uint8_t>(~wire::kSectionNeighbours);
    if ((part->sections & wire::kSectionDevice) != 0) {
      assembled.device = std::move(part->device);
    }
    if ((part->sections & wire::kSectionPrototypes) != 0) {
      assembled.prototypes = std::move(part->prototypes);
    }
    if ((part->sections & wire::kSectionServices) != 0) {
      assembled.services = std::move(part->services);
    }
    assembled.sections |= part->sections;
    split_step();
    return;
  }
  // The last part is the neighbours exchange (kSectionOrder), whose entries
  // are views into the datagram being dispatched: the earlier parts join it,
  // and it is integrated before this dispatch returns. All four unchanged
  // collapses to a kNotModified result.
  split_.active = false;
  const auto earlier =
      static_cast<std::uint8_t>(assembled.sections & ~part->sections);
  if ((earlier & wire::kSectionDevice) != 0) {
    part->device = std::move(assembled.device);
  }
  if ((earlier & wire::kSectionPrototypes) != 0) {
    part->prototypes = std::move(assembled.prototypes);
  }
  if ((earlier & wire::kSectionServices) != 0) {
    part->services = std::move(assembled.services);
  }
  part->sections |= earlier;
  part->not_modified = part->sections == 0;
  job_done(part);
}

void Plugin::fetch_done(wire::ReceivedFetchResponse* response) {
  if (split_.active) {
    split_part_done(response);
  } else {
    job_done(response);
  }
}

void Plugin::fetch_section(MacAddress target, std::uint8_t sections,
                           SimDuration cost, int attempt) {
  ++stats_.fetch_attempts;
  pending_.target = target;
  pending_.sections = sections;
  pending_.cost = cost;
  pending_.attempt = attempt;
  sim::Simulator& sim = daemon_.simulator();
  const sim::TechnologyParams& params =
      daemon_.network().params(tech_);
  // Short-connection establishment fault (the paper found these frequent
  // "even if the devices have strong enough signal", §4.3).
  if (sim.rng().bernoulli(params.fetch_failure_prob)) {
    ++stats_.fetch_failures;
    // The token parks the event harmlessly if the plugin dies before it
    // fires; the chain generation ends it if the plugin was stopped.
    sim.schedule_after(cost, [this, token = sentinel_.token(), chain = chain_] {
      if (token.expired() || chain != chain_) return;
      fetch_done(nullptr);
    });
    return;
  }
  std::uint32_t request_id = next_request_id_++;
  if (request_id == wire::kSharedRequestId) request_id = next_request_id_++;
  wire::FetchRequest request{request_id, sections, std::nullopt};
  if (daemon_.config().conditional_fetch) {
    // Attach our last-seen versions when they cover every requested section
    // *and* we still hold a direct record to overlay absent sections from —
    // a view that outlived its record must not suppress a full re-fetch.
    const auto view = peer_views_.find(target);
    if (view != peer_views_.end() &&
        (view->second.known & sections) == sections &&
        daemon_.storage().contains_direct(target)) {
      request.baseline =
          wire::FetchBaseline{view->second.epoch, view->second.gens};
    }
  }
  // The request is encoded straight into its sealed datagram frame.
  daemon_.network().send_datagram(
      daemon_.mac(), target, tech_,
      net::make_datagram_frame(wire::kMaxFetchRequestSize,
                               [&request](ByteWriter& writer) {
                                 wire::encode_into(writer, request);
                               }));
  pending_.request_id = request_id;
  pending_.awaiting = true;
  const SimDuration deadline =
      seconds(std::chrono::duration<double>(cost).count() *
              kFetchTimeoutMult) +
      kFetchTimeoutExtra;
  pending_.timeout = sim.schedule_after(deadline, [this] {
    on_fetch_timeout();
  });
}

void Plugin::on_fetch_timeout() {
  if (!pending_.awaiting) return;
  ++stats_.fetch_timeouts;
  pending_.awaiting = false;
  if (pending_.attempt < kFetchRetries) {
    // Re-ask after a jittered, doubling backoff: a loss burst that ate the
    // response (or the request) may still be in progress, and synchronised
    // retries from several requesters would pile onto the same responder.
    ++stats_.fetch_retries;
    sim::Simulator& sim = daemon_.simulator();
    const double base =
        std::chrono::duration<double>(kFetchRetryBackoff).count() *
        static_cast<double>(std::uint64_t{1} << pending_.attempt);
    const double scale =
        sim.rng().uniform(1.0 - kFetchRetryJitter, 1.0 + kFetchRetryJitter);
    sim.schedule_after(
        seconds(base * scale),
        [this, token = sentinel_.token(), chain = chain_] {
          if (token.expired() || chain != chain_) return;
          fetch_section(pending_.target, pending_.sections, pending_.cost,
                        pending_.attempt + 1);
        });
    return;
  }
  fetch_done(nullptr);
}

void Plugin::on_fetch_response(MacAddress from,
                               wire::ReceivedFetchResponse& response) {
  // Shared cached frames cannot echo our id (wire::kSharedRequestId); they
  // are matched by peer address instead — a response always arrives (if at
  // all) well inside the pending window, so the address is unambiguous.
  if (!pending_.awaiting || pending_.target != from) {
    ++stats_.stale_responses;  // unsolicited, late or duplicated on the air
    return;
  }
  if (response.request_id != pending_.request_id &&
      response.request_id != wire::kSharedRequestId) {
    ++stats_.stale_responses;  // answers a fetch we already gave up on
    return;
  }
  if (!response.not_modified) {
    // Adopt the responder's versions for the sections it shipped. An epoch
    // change (responder restart) invalidates everything we knew. First
    // contact (no baseline yet) is not a change — only a view that held
    // real generations can be invalidated.
    const auto view_it = peer_views_.find(from);
    response.epoch_changed = view_it != peer_views_.end() &&
                             view_it->second.known != 0 &&
                             view_it->second.epoch != response.epoch;
    PeerView& view = peer_views_[from];
    if (view.epoch != response.epoch) {
      view = PeerView{};
      view.epoch = response.epoch;
    }
    for (const std::uint8_t section : wire::kSectionOrder) {
      if ((response.sections & section) == 0) continue;
      view.gens.of(section) = response.gens.of(section);
      view.known |= section;
    }
  }
  daemon_.simulator().cancel(pending_.timeout);
  pending_.awaiting = false;
  // The response is ours (decoded from the frame, never re-sent), so the
  // requester-side epoch_changed annotation is set in place.
  dispatching_ = &response;
  fetch_done(&response);
  dispatching_ = nullptr;
}

int Plugin::sampled_quality(MacAddress target, std::uint8_t load_percent) {
  // RSSI sampled while the fetch connection was up (§3.4.1).
  int quality =
      daemon_.network().sample_quality(daemon_.mac(), target, tech_);
  if (quality <= 0) return quality;
  if (daemon_.config().load_derating) {
    // §4: de-rate the advertised quality by the responder's bridge load to
    // steer routes away from bottleneck bridges.
    quality = static_cast<int>(
        quality * (1.0 - static_cast<double>(load_percent) / 100.0));
    quality = std::max(quality, 1);
  }
  return quality;
}

bool Plugin::integrate_response(MacAddress target,
                                wire::ReceivedFetchResponse& response) {
  const std::uint8_t sections = response.sections;
  // Neighbour entries are views into a datagram: only the one being
  // dispatched is still alive.
  assert((sections & wire::kSectionNeighbours) == 0 ||
         &response == dispatching_);
  if ((sections & wire::kSectionDevice) != 0 &&
      response.device.mac != target) {
    return false;  // spoofed
  }
  const int quality = sampled_quality(target, response.load_percent);
  if (quality <= 0) return false;  // responder moved away mid-fetch

  // Overlay: sections the (delta) response carries come from the wire, the
  // rest stay as the stored direct record has them — absent sections are
  // unchanged by protocol contract. A delta for a device we no longer hold
  // is dropped; the next cycle sees it as new and fetches full (no
  // baseline).
  if (sections != wire::kSectionAll) {
    const DeviceRecord* stored = daemon_.storage().lookup(target);
    if (stored == nullptr || !stored->is_direct()) return false;
    ++stats_.delta_responses;
  }

  Route direct;
  direct.quality_sum = quality;
  direct.min_link_quality = quality;
  direct.via_tech = tech_;
  direct.last_seen = daemon_.simulator().now();
  DirectUpdate update{target, direct, response};

  if ((sections & wire::kSectionNeighbours) != 0) {
    stats_.integrations += static_cast<std::uint64_t>(
        daemon_.analyzer().integrate(daemon_.storage(), update,
                                     response.neighbours, tech_,
                                     daemon_.simulator().now()));
    return true;
  }
  // Neighbourhood unchanged: refresh the direct record in place — identity,
  // services and the measured link quality — without the route-propagation
  // and bridge-reconcile pass (an empty snapshot would wipe every route
  // learned through this responder).
  stats_.integrations += static_cast<std::uint64_t>(
      daemon_.storage().upsert(update) ? 1 : 0);
  return true;
}

void Plugin::complete_cycle() {
  const auto removed = daemon_.storage().age_direct(
      tech_, cycle_responders_, kMaxMissedLoops,
      daemon_.simulator().now());
  stats_.removed_devices += removed.size();
  // Dropped devices lose their version baselines too: if one comes back it
  // gets a clean full fetch.
  for (const MacAddress mac : removed) peer_views_.erase(mac);
  cycle_active_ = false;
  // Jittered rescheduling: inquiry windows must slide relative to the
  // neighbours' windows, otherwise two devices whose windows permanently
  // overlap would never discover each other under the Bluetooth inquiry
  // asymmetry (§3.4.2 — the paper observes only *occasional* misses).
  const sim::TechnologyParams& params =
      daemon_.network().params(tech_);
  const double jitter = daemon_.simulator().rng().uniform(0.7, 1.1);
  const double base =
      std::chrono::duration<double>(params.inquiry_interval).count();
  schedule_next_cycle(seconds(base * jitter));
}

}  // namespace peerhood
