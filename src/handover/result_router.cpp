#include "handover/result_router.hpp"

#include <algorithm>
#include <utility>

namespace peerhood::handover {

namespace {
// Ceiling of the doubling reconnect backoff (before jitter).
constexpr SimDuration kRetryCap = std::chrono::seconds{48};
}  // namespace

void ResultRouter::deliver(const ChannelPtr& channel, Bytes result,
                           std::function<void(Status)> done) {
  if (channel->open()) {
    const Status status = channel->write(std::move(result));
    if (status.ok()) {
      ++stats_.delivered_live;
      done(Status::ok_status());
      return;
    }
  }
  reconnect_and_send(channel, std::move(result), std::move(done),
                     config_.max_attempts);
}

void ResultRouter::reconnect_and_send(std::weak_ptr<Channel> weak_channel,
                                      Bytes result,
                                      std::function<void(Status)> done,
                                      int attempts_left) {
  const ChannelPtr channel = weak_channel.lock();
  if (channel == nullptr || channel->closed()) {
    // The session was released or retired while we waited for discovery:
    // there is nobody left to deliver to.
    ++stats_.failures;
    done(Status{ErrorCode::kConnectionClosed,
                "client session released before result delivery"});
    return;
  }
  if (attempts_left <= 0) {
    ++stats_.failures;
    done(Status{ErrorCode::kConnectionFailed,
                "result routing exhausted its attempts"});
    return;
  }
  ++stats_.attempts;

  // Resolve the client's reconnection target.
  MacAddress target = channel->peer();
  std::string service;
  if (config_.method == ReconnectMethod::kClientParams) {
    if (!channel->client_params.has_value() ||
        channel->client_params->reconnect_service.empty()) {
      ++stats_.failures;
      done(Status{ErrorCode::kInvalidArgument,
                  "client pushed no reconnection parameters"});
      return;
    }
    target = channel->client_params->device.mac;
    service = channel->client_params->reconnect_service;
  } else {
    // Method 1: find a visible client service on the peer device in our own
    // storage ("server looks for the device in its neighborhood routing
    // table", §5.3).
    const DeviceRecord* record = library_.daemon().storage().lookup(target);
    if (record != nullptr) {
      const auto it = std::find_if(
          record->services.begin(), record->services.end(),
          [](const ServiceInfo& s) { return s.attribute == "client"; });
      if (it != record->services.end()) service = it->name;
    }
  }

  // Both the retry event and the connect completion capture `this`; the
  // token lets them resolve harmlessly after this router is destroyed.
  auto retry = [this, token = sentinel_.token(), weak_channel,
                done](Bytes payload, int remaining) {
    // Jittered exponential backoff keyed to how many attempts are spent:
    // early retries catch a client that merely blinked, late ones give the
    // discovery plane whole inquiry cycles to re-route.
    sim::Simulator& sim = library_.daemon().simulator();
    const int used = std::max(config_.max_attempts - remaining, 1);
    const double base_s =
        std::chrono::duration<double>(config_.retry_base).count();
    const double cap_s =
        std::chrono::duration<double>(kRetryCap).count();
    const double backoff_s = std::min(
        base_s * static_cast<double>(std::uint64_t{1} << (used - 1)), cap_s);
    const double scale = sim.rng().uniform(1.0 - config_.retry_jitter,
                                           1.0 + config_.retry_jitter);
    sim.schedule_after(
        seconds(backoff_s * scale),
        [this, token, weak_channel, payload = std::move(payload), done,
         remaining] {
          if (token.expired()) return;
          reconnect_and_send(weak_channel, payload, done, remaining);
        });
  };

  if (service.empty()) {
    // Client not (yet) visible — wait for a discovery cycle and retry.
    retry(std::move(result), attempts_left - 1);
    return;
  }

  Library::ConnectOptions options;
  options.timeout = config_.connect_timeout;
  options.skip_service_check =
      config_.method == ReconnectMethod::kClientParams;
  library_.connect(
      target, service, options,
      [this, token = sentinel_.token(), result = std::move(result),
       done = std::move(done), retry,
       attempts_left](Result<ChannelPtr> connected) mutable {
        if (token.expired()) return;
        if (!connected.ok()) {
          retry(std::move(result), attempts_left - 1);
          return;
        }
        const ChannelPtr back = std::move(connected).value();
        const Status status = back->write(std::move(result));
        if (!status.ok()) {
          ++stats_.failures;
          done(status);
          return;
        }
        ++stats_.delivered_reconnect;
        done(Status::ok_status());
      });
}

}  // namespace peerhood::handover
