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
// The state owns the half-open connection; the connection's handlers
// capture only a shared_ptr to this state (never the connection itself), so
// the only cycle is state->conn->handlers->state, and every completion path
// breaks it with release_conn(). A dial still in flight at teardown is
// broken by the network's handler sever.
struct HalfOpenDial {
  bool done{false};
  sim::EventId timer{sim::kInvalidEvent};
  net::ConnectionPtr conn;

  // Detaches the half-open connection and returns it (empty when the
  // connect itself has not resolved yet). Severing the handlers here is
  // what releases the state — and with it, this struct's captures.
  net::ConnectionPtr release_conn() {
    net::ConnectionPtr out = std::move(conn);
    conn = nullptr;
    if (out != nullptr) {
      out->set_data_handler(nullptr);
      out->set_close_handler(nullptr);
    }
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

void schedule_handshake_retransmit(
    sim::Simulator& sim, std::shared_ptr<HalfOpenDial> state, Bytes frame,
    SimDuration delay, int attempts,
    std::shared_ptr<std::function<void(Result<net::ConnectionPtr>)>> done) {
  sim.schedule_after(delay, [&sim, state = std::move(state),
                             frame = std::move(frame), delay, attempts,
                             done = std::move(done)]() mutable {
    if (state->done || state->conn == nullptr) return;
    if (attempts >= kHandshakeRetryLimit) {
      state->done = true;
      sim.cancel(state->timer);
      if (const auto conn = state->release_conn()) conn->close();
      (*done)(Error{ErrorCode::kTimeout,
                    "handshake unacknowledged after retransmission limit"});
      return;
    }
    (void)state->conn->write(frame);
    schedule_handshake_retransmit(sim, std::move(state), std::move(frame),
                                  std::min(delay * 2, kHandshakeRetryCap),
                                  attempts + 1, std::move(done));
  });
}

}  // namespace

void dial_with_ack(net::Network& network, MacAddress from,
                   const net::NetAddress& hop, Bytes first_frame,
                   SimDuration timeout,
                   std::function<void(Result<net::ConnectionPtr>)> done) {
  sim::Simulator& sim = network.simulator();
  auto state = std::make_shared<HalfOpenDial>();
  auto shared_done =
      std::make_shared<std::function<void(Result<net::ConnectionPtr>)>>(
          std::move(done));

  state->timer = sim.schedule_after(timeout, [state, shared_done] {
    if (state->done) return;
    state->done = true;
    // Abandon the half-open connection: sever its handlers (they keep this
    // state alive) and close it so the peer converges to closed too.
    if (const auto conn = state->release_conn()) conn->close();
    (*shared_done)(Error{ErrorCode::kTimeout, "connect timed out"});
  });

  sim::Simulator* simp = &sim;
  network.connect(
      from, hop,
      [state, shared_done, simp, first_frame = std::move(first_frame)](
          Result<net::ConnectionPtr> result) mutable {
        if (state->done) {
          // Timed out while establishing; release the late connection.
          if (result.ok()) result.value()->close();
          return;
        }
        if (!result.ok()) {
          state->done = true;
          simp->cancel(state->timer);
          (*shared_done)(result.error());
          return;
        }
        // The state owns the connection while the ack is pending; the
        // handlers below deliberately capture `state`, not the connection.
        state->conn = std::move(result).value();
        (void)state->conn->write(first_frame);
        schedule_handshake_retransmit(*simp, state, std::move(first_frame),
                                      kHandshakeRetryBase, /*attempts=*/0,
                                      shared_done);
        // Await the PH_OK / PH_FAIL chain acknowledgement.
        state->conn->set_close_handler([state, shared_done, simp] {
          if (state->done) return;
          state->done = true;
          simp->cancel(state->timer);
          (void)state->release_conn();
          (*shared_done)(Error{ErrorCode::kConnectionClosed,
                               "closed before acknowledgement"});
        });
        state->conn->set_data_handler([state, shared_done,
                                       simp](const Bytes& frame) {
          if (state->done) return;
          state->done = true;
          simp->cancel(state->timer);
          const net::ConnectionPtr conn = state->release_conn();
          const auto handshake = wire::decode_handshake(frame);
          if (!handshake.has_value()) {
            conn->close();
            (*shared_done)(
                Error{ErrorCode::kProtocolError, "bad acknowledgement"});
            return;
          }
          if (handshake->command == wire::Command::kOk) {
            (*shared_done)(conn);
            return;
          }
          conn->close();
          if (handshake->command == wire::Command::kFail) {
            (*shared_done)(
                Error{handshake->fail.code, handshake->fail.message});
          } else {
            (*shared_done)(Error{ErrorCode::kProtocolError,
                                 "unexpected acknowledgement command"});
          }
        });
      });
}

}  // namespace peerhood
