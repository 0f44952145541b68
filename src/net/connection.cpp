#include "net/connection.hpp"

#include <cassert>
#include <utility>

#include "sim/simulator.hpp"

namespace peerhood::net {

Connection::Connection(sim::Simulator& sim, std::uint64_t id, NetAddress local,
                       NetAddress remote)
    : sim_{sim}, id_{id}, local_{local}, remote_{remote} {}

void Connection::close_on_drop() {
  if (!open_) return;
  open_ = false;
  close_slot_.sever();
  transport_close();
}

Status Connection::write(Bytes frame) { return send(std::move(frame), 0); }

Status Connection::write_with_room(Bytes frame) {
  assert(frame.size() >= kConnFrameHeaderSize);
  return send(std::move(frame), kConnFrameHeaderSize);
}

Status Connection::send(Bytes frame, std::size_t payload_offset) {
  if (!open_) {
    return Status{ErrorCode::kConnectionClosed, "write on closed connection"};
  }
  if (frame.size() - payload_offset > kMaxConnPayload) {
    return Status{ErrorCode::kInvalidArgument,
                  "frame exceeds the connection payload limit"};
  }
  transport_send(std::move(frame), payload_offset);
  return Status::ok_status();
}

void Connection::set_data_handler(DataHandler handler) {
  data_slot_.set(std::move(handler));
  if (!data_slot_.armed() || rx_.empty()) return;
  // Drain buffered frames through the slot. A drained frame's handler may
  // replace itself (fresh handler re-read per frame) or release the last
  // strong reference to this connection — hold a strong self-reference per
  // iteration and re-acquire it through the weak pointer, so the loop never
  // touches a freed object.
  const std::weak_ptr<Connection> self = weak_from_this();
  while (const auto strong = self.lock()) {
    if (!strong->data_slot_.armed() || strong->rx_.empty()) break;
    Bytes frame = std::move(strong->rx_.front());
    strong->rx_.pop_front();
    strong->data_slot_.invoke(frame);
  }
}

void Connection::set_close_handler(CloseHandler handler) {
  close_slot_.set(std::move(handler));
}

std::optional<Bytes> Connection::poll_frame() {
  if (rx_.empty()) return std::nullopt;
  Bytes frame = std::move(rx_.front());
  rx_.pop_front();
  return frame;
}

void Connection::close() {
  if (!open_) return;
  open_ = false;
  transport_close();
  release_handlers_deferred();
}

int Connection::link_quality() {
  if (quality_override_) return quality_override_(sim_.now());
  if (!open_) return 0;
  return transport_quality();
}

bool Connection::overridden_dead() {
  return quality_override_ && quality_override_(sim_.now()) <= 0;
}

void Connection::deliver(Bytes payload) {
  if (!open_) return;
  if (data_slot_.armed()) {
    // Slot dispatch pins the handler first: it may replace itself (e.g. the
    // engine's first-frame handshake handler hands the connection to a
    // channel) or release the last reference to this connection.
    data_slot_.invoke(payload);
  } else {
    // Undelivered frames are moved, not copied, into the rx queue.
    rx_.push_back(std::move(payload));
  }
}

void Connection::force_close() {
  if (!open_) return;
  open_ = false;
  release_handlers_deferred();
  close_slot_.fire_once();
}

void Connection::release_handlers_deferred() {
  const std::weak_ptr<Connection> self = weak_from_this();
  sim_.schedule_after(SimDuration{0}, [self] {
    if (const auto strong = self.lock()) strong->clear_handlers();
  });
}

void Connection::clear_handlers() {
  // Take both handlers out before destroying either: releasing a capture can
  // reentrantly call set_*_handler(nullptr) on this same connection (via
  // ~Channel) or even destroy this connection outright.
  auto data = data_slot_.sever_take();
  auto close_h = close_slot_.sever_take();
  // Locals destroyed here, releasing whatever they captured; no member of
  // *this is touched after this point.
}

}  // namespace peerhood::net
