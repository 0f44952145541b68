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

  const MacAddress hop_mac = record->is_direct() ? destination : record->bridge;
  const net::NetAddress hop{hop_mac, record->via_tech,
                            net::kPeerHoodEnginePort};
  const std::uint64_t session_id = request.session_id;
  dial_with_ack(daemon_.network(), daemon_.mac(), hop,
                wire::encode_open(wire::Command::kConnect, hop_mac,
                                  destination, request),
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

void Library::resume(MacAddress hop_mac, const ChannelPtr& channel,
                     StatusCallback callback, SimDuration timeout) {
  wire::ConnectRequest request;
  request.session_id = channel->session_id();
  request.service = channel->service();
  Bytes resume_frame = wire::encode_open(wire::Command::kResume, hop_mac,
                                         channel->peer(), request);
  // The restart frame carries the same session id: the responder restores
  // it from its journal rather than the (crashed) live session map.
  Bytes restart_frame = wire::encode_open(wire::Command::kResumeRestart,
                                          hop_mac, channel->peer(), request);

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
