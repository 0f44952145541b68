#include "peerhood/dial.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "peerhood/protocol.hpp"
#include "sim/simulator.hpp"

namespace peerhood {

namespace {

// The shared ownership state of one in-flight dial: a connection attempt
// plus the wait for its chain acknowledgement (PH_OK / PH_FAIL).
//
// The state owns the half-open connection and the completion callback; the
// connection's handlers capture only a shared_ptr to this state (never the
// connection itself), so the only cycle is state->conn->handlers->state,
// and finish()/fail() — the one completion path — breaks it. A dial still
// in flight at teardown is broken by the network's handler sever.
struct HalfOpenDial {
  HalfOpenDial(sim::Simulator& simulator, Bytes frame,
               std::function<void(Result<net::ConnectionPtr>)> callback)
      : sim{simulator},
        first_frame{std::move(frame)},
        done{std::move(callback)} {}

  sim::Simulator& sim;
  Bytes first_frame;
  // Empty once the dial resolved.
  std::function<void(Result<net::ConnectionPtr>)> done;
  sim::EventId timer{sim::kInvalidEvent};
  net::ConnectionPtr conn;

  [[nodiscard]] bool resolved() const { return !done; }

  // Resolves the dial with its acknowledged connection (handlers cleared).
  void finish() {
    net::ConnectionPtr out = release();
    take()(std::move(out));
  }

  // Resolves the dial with `error`, abandoning the half-open connection (if
  // the connect resolved): closing it lets the peer converge to closed too.
  void fail(Error error) {
    if (const net::ConnectionPtr out = release()) out->close();
    take()(std::move(error));
  }

 private:
  // Cancels the deadline and detaches the half-open connection. Severing
  // its handlers is what releases this state.
  net::ConnectionPtr release() {
    sim.cancel(timer);
    net::ConnectionPtr out = std::move(conn);
    conn = nullptr;
    if (out != nullptr) {
      out->set_data_handler(nullptr);
      out->set_close_handler(nullptr);
    }
    return out;
  }

  // Moves the callback out, so the dial reads resolved before it runs.
  std::function<void(Result<net::ConnectionPtr>)> take() {
    auto out = std::move(done);
    done = nullptr;
    return out;
  }
};

// Handshake frames ride the same lossy medium as application traffic: a
// single lost request (or lost acknowledgement) must not cost the whole
// dial timeout. Resend with doubling backoff until the dial resolves; the
// receiving side re-acks duplicates (Channel::attach), so resends are
// idempotent end to end — even across a bridge relay.
// The cadence is capped rather than purely exponential: a bursty link's
// loss state advances per frame, so sending *more* frames is what walks it
// out of a burst — backing off to silence would freeze the burst instead.
constexpr SimDuration kHandshakeRetryBase = std::chrono::milliseconds{1500};
constexpr SimDuration kHandshakeRetryCap = std::chrono::seconds{6};
// Terminal give-up: a peer that never acknowledges (crashed, partitioned
// beyond the dial's horizon) must not keep a HalfOpenDial — and the handlers
// that anchor it — alive forever. After this many resends the dial fails
// with a surfaced error. At the capped cadence this is ~36 s of retrying,
// long enough to ride out any loss burst the fault plane produces.
constexpr int kHandshakeRetryLimit = 8;

void schedule_handshake_retransmit(std::shared_ptr<HalfOpenDial> state,
                                   SimDuration delay, int attempts) {
  sim::Simulator& sim = state->sim;
  sim.schedule_after(delay, [state = std::move(state), delay, attempts] {
    if (state->resolved() || state->conn == nullptr) return;
    if (attempts >= kHandshakeRetryLimit) {
      state->fail(Error{ErrorCode::kTimeout,
                        "handshake unacknowledged after retransmission limit"});
      return;
    }
    (void)state->conn->write(state->first_frame);
    schedule_handshake_retransmit(
        state, std::min(delay * 2, kHandshakeRetryCap), attempts + 1);
  });
}

}  // namespace

void dial_with_ack(net::Network& network, MacAddress from,
                   const net::NetAddress& hop, Bytes first_frame,
                   SimDuration timeout,
                   std::function<void(Result<net::ConnectionPtr>)> done) {
  auto state = std::make_shared<HalfOpenDial>(
      network.simulator(), std::move(first_frame), std::move(done));
  state->timer = state->sim.schedule_after(timeout, [state] {
    if (!state->resolved()) {
      state->fail(Error{ErrorCode::kTimeout, "connect timed out"});
    }
  });

  network.connect(from, hop, [state](Result<net::ConnectionPtr> result) {
    if (state->resolved()) {
      // Timed out while establishing; release the late connection.
      if (result.ok()) result.value()->close();
      return;
    }
    if (!result.ok()) {
      state->fail(result.error());
      return;
    }
    // The state owns the connection while the ack is pending; the handlers
    // below deliberately capture `state`, not the connection.
    state->conn = std::move(result).value();
    (void)state->conn->write(state->first_frame);
    schedule_handshake_retransmit(state, kHandshakeRetryBase, /*attempts=*/0);
    // Await the PH_OK / PH_FAIL chain acknowledgement.
    state->conn->set_close_handler([state] {
      if (state->resolved()) return;
      state->fail(Error{ErrorCode::kConnectionClosed,
                        "closed before acknowledgement"});
    });
    state->conn->set_data_handler([state](const Bytes& frame) {
      if (state->resolved()) return;
      const auto handshake = wire::decode_handshake(frame);
      if (!handshake.has_value()) {
        state->fail(Error{ErrorCode::kProtocolError, "bad acknowledgement"});
      } else if (handshake->command == wire::Command::kOk) {
        state->finish();
      } else if (handshake->command == wire::Command::kFail) {
        state->fail(Error{handshake->fail.code, handshake->fail.message});
      } else {
        state->fail(Error{ErrorCode::kProtocolError,
                          "unexpected acknowledgement command"});
      }
    });
  });
}

void refuse_dial(net::Connection& connection, ErrorCode code,
                 std::string_view message) {
  (void)connection.write(wire::encode_fail(code, message));
  connection.close();
}

}  // namespace peerhood
