#include "peerhood/channel.hpp"

#include <cassert>
#include <utility>

namespace peerhood {

Channel::Channel(std::uint64_t session_id, std::string service,
                 MacAddress peer, net::ConnectionPtr connection)
    : session_id_{session_id},
      service_{std::move(service)},
      peer_{peer},
      connection_{std::move(connection)} {
  attach();
}

Channel::~Channel() {
  if (connection_ != nullptr) {
    connection_->set_data_handler(nullptr);
    connection_->set_close_handler(nullptr);
  }
}

void Channel::attach() {
  // A closed channel must never re-arm transport handlers: set_*_handler
  // after close() is a documented no-op (TaskClient's destructor passes
  // nullptr through here in good faith).
  if (closed_ || connection_ == nullptr) return;
  // The transport-level handlers capture a raw `this`: the channel owns the
  // connection and detaches these in close()/~Channel, so they can never
  // outlive the channel.
  connection_->set_data_handler([this](const Bytes& frame) {
    if (absorb_stray_handshake(frame)) return;
    if (engine_ != nullptr) {
      engine_->on_frame(frame);
    } else {
      data_slot_.invoke(frame);
    }
  });
  connection_->set_close_handler([this] {
    // Transport lost. The session itself stays resumable (§5.2.1); the loss
    // is reported at most once per transport — the latch dedupes reentrant
    // reports (peer close frame + keepalive, or a close() from inside the
    // callback) and replace_connection() re-arms it, so a substituted
    // connection's later death is reported again. The handler may close()
    // or drop the last ChannelPtr to *this — invoke is the last statement.
    if (loss_reported_) return;
    loss_reported_ = true;
    close_slot_.invoke();
  });
}

bool Channel::absorb_stray_handshake(const Bytes& frame) {
  // Dials retransmit their handshake until acknowledged, and the medium may
  // duplicate frames on its own — so an already-established channel can
  // receive a late copy of its own handshake (the original was accepted but
  // the ack was lost) or a duplicated ack. Neither is application data.
  if (frame.empty()) return false;
  const auto command = static_cast<wire::Command>(frame[0]);
  // Only PH_OK among the acks: a failed dial closes its connection, so a
  // stray PH_FAIL cannot reach an established channel through the protocol
  // — but an application payload that merely *looks* like one can, and it
  // must be delivered opaquely (BridgeTest.BridgeDoesNotInterpretTraffic).
  if (!wire::opens_session(command) && command != wire::Command::kOk) {
    return false;
  }
  const auto handshake = wire::decode_handshake(frame);
  if (!handshake.has_value()) return false;
  if (command == wire::Command::kOk) {
    // A duplicated PH_OK that arrived after the dial resolved.
    ++stray_handshakes_absorbed_;
    return true;
  }
  const std::uint64_t id = handshake->command == wire::Command::kBridge
                               ? handshake->bridge.inner.session_id
                               : handshake->connect.session_id;
  if (id != session_id_) return false;
  // Re-ack so the (possibly bridged) dialer stops retransmitting; the relay
  // path carries this back exactly like the original acknowledgement.
  ++stray_handshakes_absorbed_;
  (void)connection_->write(wire::encode_ok());
  return true;
}

Status Channel::write(Bytes frame) {
  if (connection_ == nullptr || closed_) {
    return Status{ErrorCode::kConnectionClosed, "channel has no connection"};
  }
  if (engine_ != nullptr) return engine_->send(std::move(frame));
  return connection_->write(std::move(frame));
}

Status Channel::write_with_room(Bytes frame) {
  if (connection_ == nullptr || closed_) {
    return Status{ErrorCode::kConnectionClosed, "channel has no connection"};
  }
  return connection_->write_with_room(std::move(frame));
}

void Channel::set_data_handler(DataHandler handler) {
  data_slot_.set(std::move(handler));
  // Re-attach so that buffered frames drain into the new handler.
  attach();
}

ReliableChannel& Channel::make_reliable(sim::Simulator& sim,
                                       ReliableConfig config) {
  assert(engine_ == nullptr && "make_reliable is called once per channel");
  engine_.reset(new ReliableChannel(sim, *this, config));
  return *engine_;
}

void Channel::set_close_handler(CloseHandler handler) {
  close_slot_.set(std::move(handler));
}

void Channel::set_handover_handler(HandoverHandler handler) {
  handover_slot_.set(std::move(handler));
}

bool Channel::open() const {
  return !closed_ && connection_ != nullptr && connection_->open();
}

void Channel::close() {
  if (closed_) return;
  closed_ = true;
  if (engine_ != nullptr) engine_->stop();
  if (connection_ != nullptr) {
    // Detach before closing: the old link's demise is not a session loss.
    connection_->set_data_handler(nullptr);
    connection_->set_close_handler(nullptr);
    connection_->close();
  }
  // Sever last and destroy outside the member accesses: releasing a handler
  // capture may drop the last ChannelPtr to *this.
  auto data = data_slot_.sever_take();
  auto close_h = close_slot_.sever_take();
  auto handover = handover_slot_.sever_take();
}

int Channel::link_quality() {
  return connection_ != nullptr ? connection_->link_quality() : 0;
}

void Channel::replace_connection(net::ConnectionPtr connection) {
  if (closed_) {
    // A dead session cannot be resumed; refuse the substitute politely.
    if (connection != nullptr) connection->close();
    return;
  }
  if (connection_ != nullptr) {
    // Detach before closing: the old link's demise is not a session loss.
    connection_->set_data_handler(nullptr);
    connection_->set_close_handler(nullptr);
    connection_->close();
  }
  connection_ = std::move(connection);
  loss_reported_ = false;  // the new transport's death is a new loss
  attach();
  if (engine_ != nullptr) engine_->resync();
  handover_slot_.invoke(connection_);
}

}  // namespace peerhood
