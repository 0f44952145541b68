// dial_with_ack — the one dial state machine of the stack: open a transport
// connection to `hop`, send `first_frame`, and await the PH_OK / PH_FAIL
// chain acknowledgement (§4.1) under a deadline. Used by Library (connect,
// resume) and BridgeService (downstream chaining), which previously each
// hand-rolled this wiring.
//
// Ownership: the half-open connection and `done` are parked in a
// HalfOpenDial (see dial.cpp) whose handlers capture only the state; every
// completion — ack, refusal, peer close, timeout, retransmission limit,
// connect failure — goes through its one finish()/fail() pair, which severs
// the handlers, so no dial leaves a handler cycle behind. `done` fires
// exactly once, with an open connection (handlers cleared, ack consumed) or
// an error.
#pragma once

#include <functional>
#include <string_view>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "net/network.hpp"

namespace peerhood {

void dial_with_ack(net::Network& network, MacAddress from,
                   const net::NetAddress& hop, Bytes first_frame,
                   SimDuration timeout,
                   std::function<void(Result<net::ConnectionPtr>)> done);

// The answering side's refusal of a dial: PH_FAIL carrying `code` and
// `message` (the dialler's error), then close.
void refuse_dial(net::Connection& connection, ErrorCode code,
                 std::string_view message);

}  // namespace peerhood
