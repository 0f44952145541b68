#include "peerhood/daemon.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/log.hpp"
#include "sim/inline_callable.hpp"

namespace peerhood {
namespace {

// Epoch mint: unique across every daemon start in the process (restarting a
// daemon must invalidate requester baselines), deterministic so fixed-seed
// scenarios stay reproducible — deliberately not drawn from the simulation
// RNG, which would shift every stream that follows.
std::uint64_t mint_epoch(MacAddress mac) {
  static std::atomic<std::uint64_t> counter{1};
  return (mac.as_u64() << 20) ^ counter.fetch_add(1);
}

// Deferred fetch replies queued per peer; when full the oldest queued reply
// is dropped (and counted) before the new one is queued, so a requester
// storm cannot grow daemon memory without bound.
constexpr std::size_t kMaxPeerSendQueue = 8;
// SessionStore journal capacity: resume records surviving a crash. Least
// recently touched records are evicted first.
constexpr std::size_t kSessionJournalCapacity = 64;

}  // namespace

Daemon::Daemon(net::Network& network, MacAddress mac,
               std::shared_ptr<const sim::MobilityModel> mobility,
               DaemonConfig config)
    : network_{network},
      mobility_{std::move(mobility)},
      config_{std::move(config)},
      self_{mac, config_.device_name,
            static_cast<std::uint32_t>(mac.as_u64() & 0xffffffffu),
            config_.mobility},
      analyzer_{mac, AnalyzerConfig{config_.propagate_routes}},
      engine_{network, mac},
      session_store_{kSessionJournalCapacity} {
  if (!config_.session_journal_path.empty()) {
    session_store_.bind_file(config_.session_journal_path);
  }
  engine_.set_session_store(&session_store_);
  for (const Technology tech : config_.technologies) {
    plugins_.push_back(std::make_unique<Plugin>(*this, tech));
  }
}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  if (running_) return;
  running_ = true;
  epoch_ = mint_epoch(self_.mac);
  for (const Technology tech : config_.technologies) {
    network_.attach_interface(self_.mac, tech, mobility_);
    network_.set_datagram_handler(
        self_.mac, tech,
        [this, tech](MacAddress from, std::span<const std::uint8_t> payload) {
          on_datagram(tech, from, payload);
        });
  }
  engine_.start(config_.technologies);
  for (const auto& plugin : plugins_) plugin->start();
}

void Daemon::stop() {
  if (!running_) return;
  running_ = false;
  for (const auto& plugin : plugins_) plugin->stop();
  engine_.stop();
  for (const Technology tech : config_.technologies) {
    network_.detach_interface(self_.mac, tech);
  }
  // Cancel deferred replies: a stopped daemon sends nothing, and the events
  // must not outlive a daemon that is destroyed before its simulator.
  for (const PendingSend& entry : send_queue_) simulator().cancel(entry.event);
  send_queue_.clear();
}

void Daemon::crash() {
  if (!running_) {
    return;
  }
  stop();
  // Everything volatile dies with the process: live sessions (a later
  // kResume meets kUnknownSession), the discovery storage, the plugins'
  // conditional-fetch baselines and the duplicate-suppression memo. The
  // SessionStore journal and the registered services survive — the journal
  // by design, the services as shorthand for an application that
  // re-registers immediately on restart.
  engine_.clear_sessions();
  for (const auto& plugin : plugins_) plugin->forget_peers();
  storage_.clear();
  last_request_.clear();
}

Status Daemon::register_service(ServiceInfo service) {
  const bool exists =
      std::any_of(services_.begin(), services_.end(),
                  [&](const ServiceInfo& s) { return s.name == service.name; });
  if (exists) {
    return Status{ErrorCode::kInvalidArgument,
                  "service already registered: " + service.name};
  }
  if (service.port == 0) service.port = next_port_++;
  services_.push_back(std::move(service));
  ++services_gen_;
  return Status::ok_status();
}

void Daemon::unregister_service(std::string_view name) {
  if (std::erase_if(services_, [&](const ServiceInfo& s) {
        return s.name == name;
      }) > 0) {
    ++services_gen_;
  }
}

Plugin* Daemon::plugin(Technology tech) {
  for (const auto& plugin : plugins_) {
    if (plugin->technology() == tech) return plugin.get();
  }
  return nullptr;
}

void Daemon::set_load_fraction(double fraction) {
  load_fraction_ = std::clamp(fraction, 0.0, 1.0);
}

std::uint64_t Daemon::next_session_id() {
  return (self_.mac.as_u64() << 16) | ++session_counter_;
}

wire::SectionGens Daemon::section_gens() const {
  wire::SectionGens gens;
  // Device identity and the technology set are fixed for the daemon's
  // lifetime; services and the neighbourhood storage carry live counters.
  gens.device = 1;
  gens.prototypes = 1;
  gens.services = services_gen_;
  gens.neighbours = storage_.generation();
  return gens;
}

SnapshotSource Daemon::snapshot_source() const {
  SnapshotSource src;
  src.device = &self_;
  src.prototypes = &config_.technologies;
  src.services = &services_;
  src.storage = &storage_;
  src.gens = section_gens();
  src.epoch = epoch_;
  src.load_percent =
      static_cast<std::uint8_t>(std::lround(load_fraction_ * 100.0));
  return src;
}

void Daemon::on_datagram(Technology tech, MacAddress from,
                         std::span<const std::uint8_t> payload) {
  const auto command = wire::peek_command(payload);
  if (!command.has_value()) return;
  switch (*command) {
    case wire::Command::kFetchRequest: {
      const auto request = wire::decode_fetch_request(payload);
      if (request.has_value()) answer_fetch(tech, from, *request);
      return;
    }
    case wire::Command::kFetchResponse:
    case wire::Command::kNotModified: {
      if (!wire::decode_fetch_response(payload, received_)) return;
      if (Plugin* p = plugin(tech)) p->on_fetch_response(from, received_);
      // The entry views point into `payload`, which the backend reclaims
      // when this dispatch returns.
      received_.neighbours.clear();
      return;
    }
    default:
      return;
  }
}

void Daemon::answer_fetch(Technology tech, MacAddress from,
                          const wire::FetchRequest& request) {
  // Fault-plane duplicate suppression. Shared-id requests are not tracked
  // (that id never identifies one exchange); everything else repeats the
  // requester's latest id only when the medium duplicated the datagram.
  if (request.request_id != wire::kSharedRequestId) {
    const auto key = std::pair{from.as_u64(), static_cast<std::uint8_t>(tech)};
    const auto [memo, inserted] = last_request_.emplace(key,
                                                        request.request_id);
    if (!inserted) {
      if (memo->second == request.request_id) {
        ++duplicate_requests_;
        return;
      }
      memo->second = request.request_id;
    }
  }
  // The short fetch connection costs time on the responder too; a unified
  // all-sections exchange is one longer connection (§3.4.1). The reply frame
  // is resolved *now* (the responder serialises its state when it accepts
  // the fetch) so the deferred send captures only a shared buffer reference
  // — at the same generation every requester ships the same allocation.
  const sim::TechnologyParams& params = network_.params(tech);
  const SimDuration cost = request.sections == wire::kSectionAll
                               ? 2 * params.fetch_time
                               : params.fetch_time;
  sim::RadioMedium::FramePtr frame = cache_.respond(request, snapshot_source());
  // The reply is parked in a capped per-peer queue until its serialisation
  // cost elapses. The queue bounds memory under a requester storm (oldest
  // reply dropped, counted — the requester's retry path covers it) and ties
  // every deferred reply to this daemon's lifetime: stop() and crash()
  // cancel the events, so no pre-stop snapshot escapes a restarted daemon
  // and no event outlives the daemon. The closure stays inline-sized by
  // capturing only the entry id; the frame lives in the queue entry.
  const std::uint64_t peer = from.as_u64();
  std::size_t queued = 0;
  auto oldest = send_queue_.end();
  for (auto it = send_queue_.begin(); it != send_queue_.end(); ++it) {
    if (it->peer != peer) continue;
    if (queued++ == 0) oldest = it;
  }
  if (queued > 0 && queued >= kMaxPeerSendQueue) {
    simulator().cancel(oldest->event);
    send_queue_.erase(oldest);
    ++send_queue_drops_;
  }
  PendingSend& entry = send_queue_.emplace_back();
  entry.id = next_send_id_++;
  entry.peer = peer;
  entry.frame = std::move(frame);
  entry.tech = tech;
  auto send = [this, id = entry.id] { flush_pending_send(id); };
  static_assert(sizeof(send) <= sim::InlineCallable::kInlineSize);
  entry.event = simulator().schedule_after(cost, std::move(send));
}

void Daemon::flush_pending_send(std::uint64_t send_id) {
  // Ids ascend along the queue (appends only, erases keep the order).
  const auto it = std::lower_bound(
      send_queue_.begin(), send_queue_.end(), send_id,
      [](const PendingSend& e, std::uint64_t id) { return e.id < id; });
  if (it == send_queue_.end() || it->id != send_id) return;
  PendingSend entry = std::move(*it);
  send_queue_.erase(it);
  network_.send_datagram(self_.mac, MacAddress::from_u64(entry.peer),
                         entry.tech, std::move(entry.frame));
}

}  // namespace peerhood
