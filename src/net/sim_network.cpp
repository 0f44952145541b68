#include "net/sim_network.hpp"

#include <cassert>
#include <optional>
#include <utility>

#include "sim/simulator.hpp"

namespace peerhood::net {
namespace {

// Medium-level frame kinds.
constexpr std::uint8_t kFrameDatagram = kDatagramFrameTag;
constexpr std::uint8_t kFrameData = 1;
constexpr std::uint8_t kFrameClose = 2;

// How often open connections verify they are still in coverage.
constexpr SimDuration kKeepalivePeriod = std::chrono::milliseconds{500};

}  // namespace

// Shared state of one connection: both ends plus the coverage keepalive.
struct SimNetwork::Pair {
  std::uint64_t id{0};
  Technology tech{Technology::kBluetooth};
  NetAddress addr_a;  // initiator side
  NetAddress addr_b;  // acceptor side
  std::weak_ptr<SimConnection> end_a;
  std::weak_ptr<SimConnection> end_b;
  bool open_a{true};
  bool open_b{true};
  bool torn_down{false};
  // The link is in range up to range_until while the medium's horizon
  // epoch reads range_epoch (0: nothing proven yet).
  SimTime range_until{};
  std::uint32_t range_epoch{0};
  sim::PeriodicTask keepalive;
};

// One endpoint of a simulated connection: the frame, close and quality
// hooks over the medium.
class SimConnection final : public Connection {
 public:
  SimConnection(SimNetwork& net, std::shared_ptr<SimNetwork::Pair> pair,
                bool is_a)
      : Connection{net.simulator(), pair->id,
                   is_a ? pair->addr_a : pair->addr_b,
                   is_a ? pair->addr_b : pair->addr_a},
        net_{net},
        pair_{std::move(pair)},
        is_a_{is_a} {}

  ~SimConnection() override { close_on_drop(); }

 private:
  void transport_send(Bytes frame, std::size_t payload_offset) override {
    if (payload_offset == 0) {
      // A plain write(): copy the payload behind the header room.
      Bytes framed;
      framed.reserve(kConnFrameHeaderSize + frame.size());
      framed.resize(kConnFrameHeaderSize);
      framed.insert(framed.end(), frame.begin(), frame.end());
      frame = std::move(framed);
    }
    net_.send_conn_frame(id(), local_address().mac, remote_address().mac,
                         pair_->tech, kFrameData, std::move(frame));
  }

  void transport_close() override { net_.notify_local_close(*pair_, is_a_); }

  int transport_quality() override {
    return net_.medium().sample_quality(local_address().mac,
                                        remote_address().mac, pair_->tech);
  }

  SimNetwork& net_;
  std::shared_ptr<SimNetwork::Pair> pair_;
  bool is_a_;
};

SimNetwork::SimNetwork(sim::RadioMedium& medium) : medium_{medium} {}

SimNetwork::~SimNetwork() {
  // Quiesce every live connection end before the network dies: application
  // code (service-handler lambdas) can hold channels whose connections are
  // only reachable through handler reference cycles; when those cycles are
  // broken below, the resulting destructor runs must not call back into
  // this network or the radio medium.
  std::vector<std::shared_ptr<Pair>> pairs;
  pairs.reserve(pairs_.size());
  for (const auto& [id, pair] : pairs_) pairs.push_back(pair);
  for (const auto& pair : pairs) {
    pair->keepalive.stop();
    pair->torn_down = true;
    for (const auto& end : {pair->end_a.lock(), pair->end_b.lock()}) {
      if (end != nullptr) end->mark_closed();
    }
  }
  for (const auto& pair : pairs) {
    for (const auto& end : {pair->end_a.lock(), pair->end_b.lock()}) {
      if (end != nullptr) end->clear_handlers();
    }
  }
  pairs_.clear();
}

void SimNetwork::attach_interface(
    MacAddress mac, Technology tech,
    std::shared_ptr<const sim::MobilityModel> mobility) {
  interfaces_[iface_key(mac, tech)] = Interface{};
  medium_.register_endpoint(
      mac, tech, std::move(mobility),
      [this, mac, tech](MacAddress from, const Bytes& frame) {
        handle_frame(mac, tech, from, frame);
      });
}

void SimNetwork::detach_interface(MacAddress mac, Technology tech) {
  interfaces_.erase(iface_key(mac, tech));
  medium_.unregister_endpoint(mac, tech);
}

void SimNetwork::set_datagram_handler(MacAddress mac, Technology tech,
                                      DatagramHandler handler) {
  const auto it = interfaces_.find(iface_key(mac, tech));
  assert(it != interfaces_.end());
  it->second.datagram_handler = std::move(handler);
}

void SimNetwork::send_datagram(MacAddress from, MacAddress to, Technology tech,
                               FramePtr frame) {
  // The sender built the sealed integrity header + datagram tag in.
  assert(frame != nullptr && frame->size() > kFrameHeaderSize &&
         (*frame)[kFrameHeaderSize] == kDatagramFrameTag);
  medium_.send_frame(from, to, tech, std::move(frame));
}

void SimNetwork::begin_inquiry(MacAddress mac, Technology tech) {
  // Accounting order matches the pre-interface Plugin code exactly (count,
  // then flip the asymmetry flag) so sim runs stay byte-identical.
  ++medium_.stats().inquiries;
  medium_.set_inquiring(mac, tech, true);
}

std::vector<MacAddress> SimNetwork::end_inquiry(MacAddress mac,
                                                Technology tech) {
  medium_.set_inquiring(mac, tech, false);
  std::vector<MacAddress> responders =
      medium_.discoverable_in_range(mac, tech);
  medium_.stats().inquiry_responses += responders.size();
  return responders;
}

void SimNetwork::cancel_inquiry(MacAddress mac, Technology tech) {
  // Stopped mid-inquiry: leave the medium in a sane state, not forever
  // undiscoverable-by-asymmetry.
  medium_.set_inquiring(mac, tech, false);
}

bool SimNetwork::peerhood_tag(MacAddress mac, Technology tech) const {
  return medium_.peerhood_tag(mac, tech);
}

int SimNetwork::sample_quality(MacAddress local, MacAddress peer,
                               Technology tech) {
  return medium_.sample_quality(local, peer, tech);
}

const sim::TechnologyParams& SimNetwork::params(Technology tech) const {
  return medium_.params(tech);
}

sim::QualityObserverId SimNetwork::observe_quality(
    MacAddress a, MacAddress b, Technology tech, int threshold,
    sim::RadioMedium::QualityHandler handler) {
  return medium_.observe_quality(a, b, tech, threshold, std::move(handler));
}

void SimNetwork::unobserve_quality(sim::QualityObserverId id) {
  medium_.unobserve_quality(id);
}

sim::LinkQualityEvent SimNetwork::probe_link(MacAddress a, MacAddress b,
                                             Technology tech) {
  return medium_.probe_link(a, b, tech);
}

void SimNetwork::connect(MacAddress from_mac, const NetAddress& to,
                         ConnectHandler handler) {
  sim::Simulator& sim = simulator();
  if (from_mac == to.mac) {
    sim.schedule_after(microseconds(1), [handler] {
      handler(Error{ErrorCode::kInvalidArgument, "connect to own interface"});
    });
    return;
  }
  const sim::TechnologyParams& p = medium_.params(to.tech);
  const double delay_s =
      sim.rng().uniform(p.connect_delay_min_s, p.connect_delay_max_s);
  const bool fault = sim.rng().bernoulli(p.connect_failure_prob);
  sim.schedule_after(seconds(delay_s), [this, from_mac, to, handler, fault] {
    if (fault) {
      handler(Error{ErrorCode::kConnectionFailed,
                    "link-layer connection fault"});
      return;
    }
    finish_connect(from_mac, to, handler);
  });
}

void SimNetwork::finish_connect(MacAddress from_mac, NetAddress to,
                                ConnectHandler handler) {
  if (!medium_.in_range(from_mac, to.mac, to.tech)) {
    handler(Error{ErrorCode::kConnectionFailed, "peer out of coverage"});
    return;
  }
  // A scheduled blackout silences the link-layer handshake. Established
  // connections merely stall under a blackout (their frames drop at the
  // medium and retransmission recovers after it lifts), but a new one
  // cannot form across radio silence.
  if (medium_.link_blacked_out(from_mac, to.mac)) {
    handler(Error{ErrorCode::kConnectionFailed, "link blacked out"});
    return;
  }
  const AcceptHandler* const accept_handler = listener(to);
  if (accept_handler == nullptr) {
    handler(Error{ErrorCode::kConnectionFailed,
                  "no listener at " + to.to_string()});
    return;
  }

  auto pair = std::make_shared<Pair>();
  pair->id = next_conn_id_++;
  pair->tech = to.tech;
  pair->addr_a = NetAddress{from_mac, to.tech, 0};
  pair->addr_b = to;
  auto end_a = std::make_shared<SimConnection>(*this, pair, /*is_a=*/true);
  auto end_b = std::make_shared<SimConnection>(*this, pair, /*is_a=*/false);
  pair->end_a = end_a;
  pair->end_b = end_b;
  pairs_[pair->id] = pair;

  const std::uint64_t conn_id = pair->id;
  pair->keepalive.start(simulator(), kKeepalivePeriod,
                        [this, conn_id] { check_keepalive(conn_id); },
                        kKeepalivePeriod);

  // Acceptor first (mirrors listen/accept then connect-return ordering).
  // Copy the accept handler out of the table: it may stop_listening on this
  // very address from inside the callback.
  const AcceptHandler accept = *accept_handler;
  accept(end_b);
  handler(ConnectionPtr{end_a});
}

void SimNetwork::handle_frame(MacAddress local, Technology tech,
                              MacAddress from, const Bytes& frame) {
  ++net_stats_.frames_checked;
  const auto body = check_frame(frame);
  if (!body.has_value()) {
    // Truncated or bit-corrupted on the air (sim/fault.hpp): count and drop
    // before any decoder sees the bytes.
    ++net_stats_.corrupt_drops;
    return;
  }
  if (body->empty()) return;
  const std::uint8_t kind = (*body)[0];
  if (kind == kFrameDatagram) {
    const auto it = interfaces_.find(iface_key(local, tech));
    if (it != interfaces_.end() && it->second.datagram_handler) {
      // Copy the handler before calling: it may detach this very interface
      // (daemon stop from inside a datagram), invalidating the map slot.
      // The payload itself is handed out as a view — no copy.
      const DatagramHandler handler = it->second.datagram_handler;
      handler(from, body->subspan(1));
    }
    return;
  }
  ByteReader reader{body->subspan(1)};
  const std::uint64_t conn_id = reader.u64();
  if (!reader.ok()) return;
  if (kind == kFrameData) {
    Bytes payload;
    payload.assign(body->begin() + 9, body->end());
    on_peer_data(conn_id, local, std::move(payload));
  } else if (kind == kFrameClose) {
    on_peer_close(conn_id, local);
  }
}

void SimNetwork::send_conn_frame(std::uint64_t conn_id, MacAddress from,
                                 MacAddress to, Technology tech,
                                 std::uint8_t kind, Bytes frame) {
  assert(frame.size() >= kConnFrameHeaderSize);
  // The room after the integrity header: kind, then the big-endian id.
  std::uint8_t* header = frame.data() + kFrameHeaderSize;
  header[0] = kind;
  for (int i = 0; i < 8; ++i) {
    header[1 + i] = static_cast<std::uint8_t>(conn_id >> (56 - 8 * i));
  }
  seal_frame(frame);
  medium_.send_frame(from, to, tech, std::move(frame));
}

void SimNetwork::on_peer_data(std::uint64_t conn_id, MacAddress receiver,
                              Bytes payload) {
  const auto it = pairs_.find(conn_id);
  if (it == pairs_.end()) return;
  Pair& pair = *it->second;
  const bool to_a = receiver == pair.addr_a.mac;
  auto end = (to_a ? pair.end_a : pair.end_b).lock();
  if (end == nullptr || !end->open()) return;
  end->deliver(std::move(payload));
}

void SimNetwork::on_peer_close(std::uint64_t conn_id, MacAddress receiver) {
  const auto it = pairs_.find(conn_id);
  if (it == pairs_.end()) return;
  Pair& pair = *it->second;
  const bool to_a = receiver == pair.addr_a.mac;
  (to_a ? pair.open_a : pair.open_b) = false;
  if (auto end = (to_a ? pair.end_a : pair.end_b).lock()) {
    end->force_close();
  }
  teardown(pair, /*notify_peers=*/false);
}

void SimNetwork::notify_local_close(Pair& pair, bool is_a) {
  (is_a ? pair.open_a : pair.open_b) = false;
  if (pair.torn_down) return;
  // Tell the peer. If the fault plane loses this frame while the link stays
  // in range, the peer end stays open: nothing else closes it (the
  // half-open pair of ROADMAP.md's open items).
  const NetAddress& self = is_a ? pair.addr_a : pair.addr_b;
  const NetAddress& peer = is_a ? pair.addr_b : pair.addr_a;
  send_conn_frame(pair.id, self.mac, peer.mac, pair.tech, kFrameClose,
                  Bytes(kConnFrameHeaderSize));
  teardown(pair, /*notify_peers=*/false);
}

void SimNetwork::check_keepalive(std::uint64_t conn_id) {
  const auto it = pairs_.find(conn_id);
  if (it == pairs_.end()) return;
  Pair& pair = *it->second;
  const auto end_a = pair.end_a.lock();
  const auto end_b = pair.end_b.lock();

  // Within its range horizon the link is in coverage without a look.
  bool dead = false;
  if (pair.range_epoch != medium_.horizon_epoch() ||
      simulator().now() > pair.range_until) {
    const std::optional<SimTime> until =
        medium_.in_range_until(pair.addr_a.mac, pair.addr_b.mac, pair.tech);
    dead = !until.has_value();
    pair.range_until = until.value_or(SimTime{});
    pair.range_epoch = medium_.horizon_epoch();
  }
  // An artificial quality override that reaches 0 also kills the link
  // (§5.2.1 decay experiments).
  if (end_a != nullptr && end_a->overridden_dead()) dead = true;
  if (end_b != nullptr && end_b->overridden_dead()) dead = true;
  if (dead) teardown(pair, /*notify_peers=*/true);
}

void SimNetwork::teardown(Pair& pair, bool notify_peers) {
  if (notify_peers) {
    for (const bool side_a : {true, false}) {
      bool& open_flag = side_a ? pair.open_a : pair.open_b;
      if (!open_flag) continue;
      open_flag = false;
      if (auto end = (side_a ? pair.end_a : pair.end_b).lock()) {
        end->force_close();
      }
    }
  }
  if (pair.open_a || pair.open_b || pair.torn_down) return;
  pair.torn_down = true;
  pair.keepalive.stop();
  // Deferred erase: teardown may run inside the pair's own keepalive tick.
  const std::uint64_t id = pair.id;
  simulator().schedule_after(SimDuration{0}, [this, id] { pairs_.erase(id); });
}

std::size_t SimNetwork::live_connection_count() const {
  std::size_t count = 0;
  for (const auto& [id, pair] : pairs_) {
    if (!pair->torn_down) ++count;
  }
  return count;
}

}  // namespace peerhood::net
