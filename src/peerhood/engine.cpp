#include "peerhood/engine.hpp"

#include "common/log.hpp"
#include "net/address.hpp"
#include "peerhood/dial.hpp"

namespace peerhood {

Engine::Engine(net::Network& network, MacAddress mac)
    : network_{network}, mac_{mac} {}

Engine::~Engine() { stop(); }

void Engine::start(const std::vector<Technology>& technologies) {
  stop();
  listening_ = technologies;
  for (const Technology tech : listening_) {
    const Status bound =
        network_.listen(net::NetAddress{mac_, tech, net::kPeerHoodEnginePort},
                        [this](net::ConnectionPtr conn) {
                          on_accept(std::move(conn));
                        });
    if (!bound.ok()) {
      // Two engines on one (mac, tech) is a wiring bug — the first keeps the
      // address (EADDRINUSE semantics); starting deaf would be silent.
      log(LogLevel::kWarn, network_.simulator().now(), "engine",
          mac_.to_string(), " listen failed: ", bound.error().to_string());
    }
  }
}

void Engine::stop() {
  for (const Technology tech : listening_) {
    network_.stop_listening(
        net::NetAddress{mac_, tech, net::kPeerHoodEnginePort});
  }
  listening_.clear();
  // Sever the handshake handlers (they capture `this`) and close the
  // half-open connections before dropping them, so a stopped engine leaves
  // neither dangling callbacks nor silently hanging peers behind.
  for (auto& [key, conn] : pending_) {
    conn->set_data_handler(nullptr);
    conn->set_close_handler(nullptr);
    conn->close();
  }
  pending_.clear();
}

void Engine::set_service_handler(std::string service_name,
                                 ServiceHandler handler) {
  service_handlers_[std::move(service_name)] = std::move(handler);
}

void Engine::remove_service_handler(const std::string& service_name) {
  service_handlers_.erase(service_name);
}

void Engine::set_bridge_handler(BridgeHandler handler) {
  bridge_slot_.set(std::move(handler));
}

void Engine::register_session(const ChannelPtr& channel) {
  sessions_[channel->session_id()] = channel;
}

void Engine::unregister_session(std::uint64_t session_id) {
  sessions_.erase(session_id);
}

ChannelPtr Engine::find_session(std::uint64_t session_id) const {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return nullptr;
  return it->second.lock();
}

bool Engine::prune_session(std::uint64_t session_id) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.lock() != nullptr) return false;
  sessions_.erase(it);
  return true;
}

void Engine::on_accept(net::ConnectionPtr connection) {
  ++stats_.accepted;
  const std::uint64_t key = connection->id();
  connection->set_close_handler([this, key] { pending_.erase(key); });
  connection->set_data_handler([this, key](const Bytes& frame) {
    const auto it = pending_.find(key);
    if (it == pending_.end()) return;
    net::ConnectionPtr conn = std::move(it->second);
    pending_.erase(it);
    conn->set_close_handler(nullptr);
    conn->set_data_handler(nullptr);
    handle_handshake(std::move(conn), frame);
  });
  pending_.emplace(key, std::move(connection));
}

void Engine::refuse(net::Connection& connection, ErrorCode code,
                    std::string_view message) {
  ++stats_.rejected;
  refuse_dial(connection, code, message);
}

ChannelPtr Engine::live_session(const wire::ConnectRequest& request) {
  ChannelPtr session = find_session(request.session_id);
  // Expiry is explicit: drop the registry entry of a dead session here
  // rather than behind a const lookup. A closed channel is equally
  // unresumable — its handlers are severed and its state retired.
  if (session == nullptr) (void)prune_session(request.session_id);
  if (session == nullptr || session->closed() ||
      session->service() != request.service) {
    return nullptr;
  }
  return session;
}

void Engine::admit(net::ConnectionPtr connection,
                   const wire::ConnectRequest& request, MacAddress peer,
                   ServiceHandler handler) {
  // The application peer: with a bridged chain the transport remote is the
  // last bridge, so prefer the pushed client parameters.
  if (request.client_params.has_value()) {
    peer = request.client_params->device.mac;
  }
  (void)connection->write(wire::encode_ok());
  auto channel = std::make_shared<Channel>(
      request.session_id, request.service, peer, std::move(connection));
  channel->client_params = request.client_params;
  register_session(channel);
  // `handler` is a copy: the callback may unregister the service (or
  // replace its handler) from inside.
  handler(channel, request);
}

void Engine::handle_handshake(net::ConnectionPtr connection,
                              const Bytes& frame) {
  const auto handshake = wire::decode_handshake(frame);
  if (!handshake.has_value()) {
    refuse(*connection, ErrorCode::kProtocolError, "bad handshake");
    return;
  }
  const wire::ConnectRequest& request = handshake->connect;
  switch (handshake->command) {
    case wire::Command::kConnect: {
      ++stats_.connects;
      const auto it = service_handlers_.find(request.service);
      if (it == service_handlers_.end()) {
        refuse(*connection, ErrorCode::kNoSuchService,
               "service not registered: " + request.service);
        return;
      }
      // A fresh connect begins a fresh session: any journalled frontier
      // under this id is a leftover from an earlier client incarnation that
      // happened to mint the same id (deterministic minting makes that
      // routine after a client restart). Restoring it would dedupe the new
      // stream's opening frames as "already delivered" — drop it.
      if (session_store_ != nullptr) {
        session_store_->erase(request.session_id);
      }
      const MacAddress remote = connection->remote_address().mac;
      admit(std::move(connection), request, remote, it->second);
      return;
    }
    case wire::Command::kResume:
    case wire::Command::kResumeRestart: {
      ++stats_.resumes;
      // A restart-resume whose session is in fact still live (the client
      // misread a transient outage as a crash) is a plain resume.
      if (const ChannelPtr session = live_session(request)) {
        (void)connection->write(wire::encode_ok());
        session->replace_connection(std::move(connection));
        return;
      }
      if (handshake->command == wire::Command::kResume) {
        // kUnknownSession tells the client this is (potentially) a restart,
        // not a missing service — its cue to re-dial with kResumeRestart.
        refuse(*connection, ErrorCode::kUnknownSession,
               "unknown session for resume");
        return;
      }
      // Otherwise the journal must vouch for the session and the service
      // must be registered again; then the handshake behaves like a connect
      // that keeps the old session id, and the application handler makes
      // the channel reliable at the journalled frontier.
      const SessionRecord* record =
          session_store_ != nullptr ? session_store_->find(request.session_id)
                                    : nullptr;
      const auto it = service_handlers_.find(request.service);
      if (record == nullptr || record->service != request.service ||
          it == service_handlers_.end()) {
        refuse(*connection, ErrorCode::kUnknownSession,
               "session not journalled");
        return;
      }
      ++stats_.restart_resumes;
      admit(std::move(connection), request, record->peer, it->second);
      return;
    }
    case wire::Command::kBridge: {
      ++stats_.bridges;
      if (!bridge_slot_.armed()) {
        refuse(*connection, ErrorCode::kNoSuchService,
               "bridge service disabled");
        return;
      }
      // Slot dispatch: the bridge service may disable itself from inside.
      bridge_slot_.invoke(std::move(connection), handshake->bridge);
      return;
    }
    default:
      ++stats_.rejected;
      connection->close();
      return;
  }
}

}  // namespace peerhood
