// Channel: an application-level session that survives handovers. The paper
// substitutes the underlying connection while keeping the application-facing
// object (the ChangeConnection callback, §5.2.1 state 2); Channel is that
// object. It also carries the `sending` flag of §5.3 that tells the handover
// monitor whether connection loss currently matters.
//
// Ownership model (PR 3, see common/handler_slot.hpp): handlers installed on
// a channel must not own the channel — keep the ChannelPtr in a registry
// (session table, fixture member, scenario vector) and capture a raw/weak
// reference. close() is idempotent and severs every handler, so a closed
// channel releases its captures immediately; the close handler fires at most
// once per transport, even when the loss is reported reentrantly from both
// the endpoint and the transport side — after a substitution the re-armed
// latch reports the new connection's death again (the session-survives-
// transport contract).
//
// make_reliable() turns the channel into a reliable session: the channel's
// one ReliableChannel engine then carries its writes, received frames,
// handovers and close (peerhood/reliable_channel.hpp). The application holds
// the channel alone, reliable or plain.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/handler_slot.hpp"
#include "common/mac_address.hpp"
#include "common/result.hpp"
#include "net/connection.hpp"
#include "peerhood/protocol.hpp"
#include "peerhood/reliable_channel.hpp"

namespace peerhood {

class Channel {
 public:
  using DataHandler = std::function<void(const Bytes&)>;
  using CloseHandler = std::function<void()>;
  // Invoked after a successful connection substitution (routing handover or
  // direct resume). The argument is the new underlying connection.
  using HandoverHandler = std::function<void(const net::ConnectionPtr&)>;

  Channel(std::uint64_t session_id, std::string service, MacAddress peer,
          net::ConnectionPtr connection);
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  [[nodiscard]] std::uint64_t session_id() const { return session_id_; }
  [[nodiscard]] const std::string& service() const { return service_; }
  // The application-level peer (not the bridge the traffic flows through).
  [[nodiscard]] MacAddress peer() const { return peer_; }

  // On a reliable channel the engine buffers and sends the frame (see
  // ReliableChannel::send for its refusals).
  Status write(Bytes frame);
  // On a reliable channel the data handler gets the peer's frames in order,
  // exactly once.
  void set_data_handler(DataHandler handler);
  void set_close_handler(CloseHandler handler);
  void set_handover_handler(HandoverHandler handler);

  // Creates the channel's reliability engine; call once, before frames flow.
  // The engine lives and dies with the channel; the reference is for
  // journal_to() and the counters.
  ReliableChannel& make_reliable(sim::Simulator& sim,
                                 ReliableConfig config = {});

  [[nodiscard]] bool open() const;
  // Idempotent: stops the reliability engine's timers, severs all handlers
  // (releasing their captures), detaches and closes the transport. The
  // channel's own close handler does not fire (a local close is not a
  // session loss); afterwards set_*_handler is a no-op and the session
  // cannot be resumed.
  void close();
  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] int link_quality();

  // §5.3 "sending" flag (the paper's Getsending method): true while the
  // application still depends on the connection.
  void set_sending(bool sending) { sending_ = sending; }
  [[nodiscard]] bool sending() const { return sending_; }

  // Substitutes the underlying connection, re-attaching the application
  // handlers; the old connection is closed silently (its close must not be
  // reported as a session loss). A reliability engine resyncs before the
  // handover handler runs. No-op on a closed channel — the incoming
  // connection is closed instead.
  void replace_connection(net::ConnectionPtr connection);

  [[nodiscard]] const net::ConnectionPtr& connection() const {
    return connection_;
  }

  // Duplicate handshakes / acknowledgements this channel swallowed instead
  // of delivering to the application (dial retransmission + lossy media).
  [[nodiscard]] std::uint64_t stray_handshakes_absorbed() const {
    return stray_handshakes_absorbed_;
  }

  // Server side: reconnection parameters pushed by the client (§5.3 Method 2).
  std::optional<wire::ClientParams> client_params;

 private:
  friend class ReliableChannel;

  void attach();
  bool absorb_stray_handshake(const Bytes& frame);
  // See net::Connection::write_with_room; only the engine writes with room.
  Status write_with_room(Bytes frame);

  std::uint64_t session_id_;
  std::string service_;
  MacAddress peer_;
  net::ConnectionPtr connection_;
  HandlerSlot<void(const Bytes&)> data_slot_;
  HandlerSlot<void()> close_slot_;
  HandlerSlot<void(const net::ConnectionPtr&)> handover_slot_;
  std::unique_ptr<ReliableChannel> engine_;
  bool sending_{true};
  bool closed_{false};
  // Latches after the current transport's loss was reported; reset by
  // replace_connection so each substituted transport reports once.
  bool loss_reported_{false};
  std::uint64_t stray_handshakes_absorbed_{0};
};

using ChannelPtr = std::shared_ptr<Channel>;

}  // namespace peerhood
