// Connection abstraction — the simulated counterpart of the paper's
// MAbstractConnection (§2.3): applications Write and Read opaque frames and
// can sample the live link quality. Frames are delivered in order but, as in
// the paper, Write is *not* aware of connection loss ("there exists the
// possibility to lose data due to Write function not being aware of the
// connection loss", Ch. 6) — reliability is layered above when needed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "net/address.hpp"
#include "net/frame_check.hpp"

namespace peerhood::net {

class Connection {
 public:
  using DataHandler = std::function<void(const Bytes&)>;
  using CloseHandler = std::function<void()>;
  // Maps simulation time to an RSSI-style quality value; used by §5.2.1's
  // artificial-decay handover experiments.
  using QualityOverride = std::function<int(SimTime)>;

  virtual ~Connection() = default;

  // Queues a frame towards the peer. Fails only when the connection is
  // already closed locally; in-flight loss is silent (see header comment).
  virtual Status write(Bytes frame) = 0;
  // As write(), for a frame whose first kConnFrameHeaderSize bytes are room
  // the transport may overwrite with its own header; the payload follows
  // them. SimNetwork writes its frame header into that room, so the frame
  // reaches the medium in the buffer it was built in, with no copy.
  virtual Status write_with_room(Bytes frame) = 0;

  // Push-style delivery. While no handler is installed frames accumulate and
  // can be drained with poll_frame().
  virtual void set_data_handler(DataHandler handler) = 0;
  virtual void set_close_handler(CloseHandler handler) = 0;
  [[nodiscard]] virtual std::optional<Bytes> poll_frame() = 0;

  virtual void close() = 0;
  [[nodiscard]] virtual bool open() const = 0;

  // Live link-quality sample (0-255; 0 = dead). Honours any override.
  [[nodiscard]] virtual int link_quality() = 0;
  virtual void set_quality_override(QualityOverride override_fn) = 0;

  [[nodiscard]] virtual NetAddress local_address() const = 0;
  [[nodiscard]] virtual NetAddress remote_address() const = 0;

  // Identifier shared by both ends; the paper uses connection IDs to target
  // handover substitution ("Connection ID is used to identify the connection
  // to substitute", §2.3).
  [[nodiscard]] virtual std::uint64_t id() const = 0;
};

using ConnectionPtr = std::shared_ptr<Connection>;

}  // namespace peerhood::net
