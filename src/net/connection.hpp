// Connection — the one connection endpoint of the stack, the simulated and
// real counterpart of the paper's MAbstractConnection (§2.3): applications
// Write and Read opaque frames and can sample the live link quality. Frames
// are delivered in order but, as in the paper, Write is *not* aware of
// connection loss ("there exists the possibility to lose data due to Write
// function not being aware of the connection loss", Ch. 6) — reliability is
// layered above when needed.
//
// This class owns everything application-facing: the open flag, the id and
// addresses, the data and close handler slots, the receive queue and its
// reentrancy-safe drain, close() and close-on-drop, the deferred handler
// release and the quality override. A backend (SimConnection,
// PosixConnection) supplies only three transport hooks — send one frame,
// tell the peer this end closed, sample the raw link — and calls
// close_on_drop() from its destructor.
//
// One payload bound serves both backends: kMaxConnPayload is the largest
// payload whose transport frame still fits the u16 body length of the
// integrity header (net/frame_check.hpp). A larger write is refused with
// kInvalidArgument and the connection stays open.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "common/bytes.hpp"
#include "common/handler_slot.hpp"
#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "net/address.hpp"
#include "net/frame_check.hpp"

namespace peerhood::sim {
class Simulator;
}

namespace peerhood::net {

// The SimNetwork frame body is the kind byte, the u64 connection id and the
// payload; the u16 length field bounds it at 0xffff bytes.
inline constexpr std::size_t kMaxConnPayload = 0xffff - 9;

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  using DataHandler = std::function<void(const Bytes&)>;
  using CloseHandler = std::function<void()>;
  // Maps simulation time to an RSSI-style quality value; used by §5.2.1's
  // artificial-decay handover experiments.
  using QualityOverride = std::function<int(SimTime)>;

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  virtual ~Connection() = default;

  // Queues a frame towards the peer. Fails when the connection is already
  // closed locally (kConnectionClosed) or the frame exceeds kMaxConnPayload
  // (kInvalidArgument); in-flight loss is silent (see header comment).
  Status write(Bytes frame);
  // As write(), for a frame whose first kConnFrameHeaderSize bytes are room
  // the transport may overwrite with its own header; the payload follows
  // them. SimNetwork writes its frame header into that room, so the frame
  // reaches the medium in the buffer it was built in, with no copy.
  Status write_with_room(Bytes frame);

  // Push-style delivery. While no handler is installed frames accumulate and
  // can be drained with poll_frame(); installing a handler drains them
  // through it in order.
  void set_data_handler(DataHandler handler);
  void set_close_handler(CloseHandler handler);
  [[nodiscard]] std::optional<Bytes> poll_frame();

  // Closes this end and tells the peer. The local close handler does not
  // fire; the handlers are released on the next event.
  void close();
  [[nodiscard]] bool open() const { return open_; }

  // Live link-quality sample (0-255; 0 = dead). Honours any override.
  [[nodiscard]] int link_quality();
  void set_quality_override(QualityOverride override_fn) {
    quality_override_ = std::move(override_fn);
  }

  [[nodiscard]] NetAddress local_address() const { return local_; }
  [[nodiscard]] NetAddress remote_address() const { return remote_; }

  // Identifier shared by both ends; the paper uses connection IDs to target
  // handover substitution ("Connection ID is used to identify the connection
  // to substitute", §2.3).
  [[nodiscard]] std::uint64_t id() const { return id_; }

  // --- Backend side: called by the owning network --------------------------
  // Hands a received payload to the data handler, or queues it.
  void deliver(Bytes payload);
  // Peer closed or the link died: mark closed and fire the close handler at
  // most once, even when two paths report the same death.
  void force_close();
  // Network teardown, in two phases: mark_closed() first on every end so no
  // later destructor calls back into the dying network, then
  // clear_handlers() to break handler->channel->connection cycles.
  void mark_closed() { open_ = false; }
  void clear_handlers();
  // True when a quality override is installed and reads 0 or less now (an
  // overridden link that decays to 0 dies, §5.2.1).
  [[nodiscard]] bool overridden_dead();

 protected:
  Connection(sim::Simulator& sim, std::uint64_t id, NetAddress local,
             NetAddress remote);

  // Each backend's destructor calls this: dropping the last handle closes
  // this side politely.
  void close_on_drop();

 private:
  // Ships one open, size-checked frame; the payload starts at
  // `payload_offset` (0, or kConnFrameHeaderSize of room).
  virtual void transport_send(Bytes frame, std::size_t payload_offset) = 0;
  // Tells the peer (and the backend's bookkeeping) that this end closed.
  virtual void transport_close() = 0;
  // Raw link quality of an open connection.
  [[nodiscard]] virtual int transport_quality() = 0;

  Status send(Bytes frame, std::size_t payload_offset);
  // Handlers often capture the connection's own shared_ptr (handshake
  // awaiters, relay loops). Clearing them synchronously could destroy the
  // object mid-member-call, so break the cycle on the next event.
  void release_handlers_deferred();

  sim::Simulator& sim_;
  std::uint64_t id_;
  NetAddress local_;
  NetAddress remote_;
  bool open_{true};
  HandlerSlot<void(const Bytes&)> data_slot_;
  HandlerSlot<void()> close_slot_;
  QualityOverride quality_override_;
  std::deque<Bytes> rx_;
};

using ConnectionPtr = std::shared_ptr<Connection>;

}  // namespace peerhood::net
