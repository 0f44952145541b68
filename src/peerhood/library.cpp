#include "peerhood/library.hpp"

#include <memory>

#include "common/log.hpp"
#include "peerhood/dial.hpp"

namespace peerhood {

std::vector<DeviceRecord> Library::get_device_list() const {
  return daemon_.storage().snapshot();
}

std::vector<std::pair<DeviceInfo, ServiceInfo>> Library::get_service_list()
    const {
  std::vector<std::pair<DeviceInfo, ServiceInfo>> out;
  for (const DeviceRecord& record : daemon_.storage().snapshot()) {
    for (const ServiceInfo& service : record.services) {
      if (service.attribute == kHiddenAttribute) continue;
      out.emplace_back(record.device, service);
    }
  }
  return out;
}

Status Library::register_service(ServiceInfo service,
                                 Engine::ServiceHandler handler) {
  Status status = daemon_.register_service(service);
  if (!status.ok()) return status;
  daemon_.engine().set_service_handler(service.name, std::move(handler));
  return Status::ok_status();
}

void Library::unregister_service(const std::string& name) {
  daemon_.unregister_service(name);
  daemon_.engine().remove_service_handler(name);
}

void Library::connect(MacAddress destination, std::string service,
                      ConnectOptions options, ConnectCallback callback) {
  sim::Simulator& sim = daemon_.simulator();
  // Read only before dialling: nothing below touches the storage until then.
  const DeviceRecord* record = daemon_.storage().lookup(destination);
  if (record == nullptr) {
    sim.schedule_after(microseconds(1), [callback] {
      callback(Error{ErrorCode::kNoSuchDevice, "device not in storage"});
    });
    return;
  }
  if (!options.skip_service_check && !record->provides(service)) {
    sim.schedule_after(microseconds(1), [callback, service] {
      callback(Error{ErrorCode::kNoSuchService,
                     "device does not provide " + service});
    });
    return;
  }
  if (!record->is_direct() && !options.allow_bridge) {
    sim.schedule_after(microseconds(1), [callback] {
      callback(Error{ErrorCode::kNoRoute, "remote device and bridging off"});
    });
    return;
  }

  wire::ConnectRequest request;
  request.session_id = options.session_id != 0 ? options.session_id
                                               : daemon_.next_session_id();
  request.service = service;
  if (options.include_client_params) {
    wire::ClientParams params;
    params.device = daemon_.self_info();
    params.tech = record->via_tech;
    params.reconnect_service = options.reconnect_service;
    request.client_params = std::move(params);
  }

  Bytes first_frame;
  net::NetAddress hop;
  if (record->is_direct()) {
    hop = net::NetAddress{destination, record->via_tech,
                          net::kPeerHoodEnginePort};
    first_frame = wire::encode_connect(request);
  } else {
    hop = net::NetAddress{record->bridge, record->via_tech,
                          net::kPeerHoodEnginePort};
    wire::BridgeRequest bridge_request;
    bridge_request.destination = destination;
    bridge_request.final_command = wire::Command::kConnect;
    bridge_request.inner = request;
    first_frame = wire::encode_bridge(bridge_request);
  }

  const std::uint64_t session_id = request.session_id;
  dial_with_ack(daemon_.network(), daemon_.mac(), hop, std::move(first_frame),
                options.timeout,
                [callback, session_id, service, destination](
                    Result<net::ConnectionPtr> result) {
                  if (!result.ok()) {
                    callback(result.error());
                    return;
                  }
                  callback(std::make_shared<Channel>(
                      session_id, service, destination,
                      std::move(result).value()));
                });
}

void Library::resume_via_bridge(MacAddress bridge, const ChannelPtr& channel,
                                StatusCallback callback, SimDuration timeout) {
  wire::ConnectRequest request;
  request.session_id = channel->session_id();
  request.service = channel->service();

  wire::BridgeRequest bridge_request;
  bridge_request.destination = channel->peer();
  bridge_request.final_command = wire::Command::kResume;
  bridge_request.inner = std::move(request);
  Bytes resume_frame = wire::encode_bridge(bridge_request);
  bridge_request.final_command = wire::Command::kResumeRestart;
  Bytes restart_frame = wire::encode_bridge(bridge_request);

  resume(bridge, std::move(resume_frame), std::move(restart_frame), channel,
         std::move(callback), timeout);
}

void Library::resume_direct(const ChannelPtr& channel, StatusCallback callback,
                            SimDuration timeout) {
  wire::ConnectRequest request;
  request.session_id = channel->session_id();
  request.service = channel->service();
  // The restart frame carries the same session id: the responder restores
  // it from its journal rather than the (crashed) live session map.
  resume(channel->peer(), wire::encode_resume(request),
         wire::encode_resume_restart(request), channel, std::move(callback),
         timeout);
}

void Library::resume(MacAddress hop_mac, Bytes resume_frame,
                     Bytes restart_frame, const ChannelPtr& channel,
                     StatusCallback callback, SimDuration timeout) {
  const DeviceRecord* record = daemon_.storage().lookup(hop_mac);
  const Technology tech =
      record != nullptr ? record->via_tech : Technology::kBluetooth;
  const net::NetAddress hop{hop_mac, tech, net::kPeerHoodEnginePort};
  // The fallback closure captures the network (which outlives every node)
  // and our mac, not `this` — the Library may be gone by the time the first
  // dial fails, while the dial machinery only needs the transport.
  net::Network* network = &daemon_.network();
  const MacAddress self = daemon_.mac();
  auto replace = [channel, callback](Result<net::ConnectionPtr> result) {
    if (!result.ok()) {
      callback(Status{result.error()});
      return;
    }
    channel->replace_connection(std::move(result).value());
    callback(Status::ok_status());
  };

  dial_with_ack(
      *network, self, hop, std::move(resume_frame), timeout,
      [network, self, hop, timeout, replace = std::move(replace),
       restart_frame = std::move(restart_frame)](
          Result<net::ConnectionPtr> result) mutable {
        if (!result.ok() &&
            result.error().code == ErrorCode::kUnknownSession) {
          // The server dropped the session — it restarted. Re-dial once with
          // PH_RESUME_RESTART so its journal can revive the session.
          dial_with_ack(*network, self, hop, std::move(restart_frame), timeout,
                        std::move(replace));
          return;
        }
        replace(std::move(result));
      });
}

}  // namespace peerhood
