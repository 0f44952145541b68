// dial_with_ack — the one dial state machine of the stack: open a transport
// connection to `hop`, send `first_frame`, and await the PH_OK / PH_FAIL
// chain acknowledgement (§4.1) under a deadline. Used by Library (connect,
// resume) and BridgeService (downstream chaining), which previously each
// hand-rolled this wiring.
//
// Ownership: the half-open connection is parked in a HalfOpenDial (see
// dial.cpp) whose handlers capture only the state; every completion path —
// ack, peer close, timeout, connect failure — severs the handlers, so no
// dial leaves a handler cycle behind. `done` fires exactly
// once, with an open connection (handlers cleared, ack consumed) or an
// error.
#pragma once

#include <functional>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "net/network.hpp"

namespace peerhood {

void dial_with_ack(net::Network& network, MacAddress from,
                   const net::NetAddress& hop, Bytes first_frame,
                   SimDuration timeout,
                   std::function<void(Result<net::ConnectionPtr>)> done);

}  // namespace peerhood
