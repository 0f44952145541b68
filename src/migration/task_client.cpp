#include "migration/task_client.hpp"

#include "common/log.hpp"

namespace peerhood::migration {

TaskClient::TaskClient(Library& library, MacAddress server,
                       std::string service, TaskClientConfig config)
    : library_{library},
      server_{server},
      service_{std::move(service)},
      config_{std::move(config)} {}

TaskClient::~TaskClient() {
  sim::Simulator& sim = library_.daemon().simulator();
  sim.cancel(result_timer_);
  sim.cancel(send_timer_);
  if (handover_ != nullptr) handover_->stop();
  // Destroying the client mid-migration: the engine-registered service
  // handler and the channel handlers all capture `this` — sever them so a
  // still-running scenario cannot call into a dead client.
  if (!outcome_.has_value()) {
    library_.unregister_service(config_.reconnect_service);
  }
  for (const ChannelPtr& channel : {channel_, reconnect_channel_}) {
    if (channel != nullptr) {
      channel->set_data_handler(nullptr);
      channel->set_close_handler(nullptr);
    }
  }
}

void TaskClient::run(DoneCallback done) {
  done_ = std::move(done);
  pending_outcome_ = MigrationOutcome{};
  pending_outcome_.started = library_.daemon().simulator().now();

  // Register the call-back target for server-initiated result delivery:
  // hidden, with the parameters pushed in the connect handshake (§5.3
  // Method 2).
  (void)library_.register_service(
      ServiceInfo{config_.reconnect_service, kHiddenAttribute, 0},
      [this](ChannelPtr back_channel, const wire::ConnectRequest&) {
        back_channel->set_data_handler([this](const Bytes& frame) {
          // A malformed result frame is ignored like any stray frame.
          if (!outcome_.has_value() && decode_result(frame).has_value()) {
            finish(MigrationOutcome::Kind::kCompletedRouted);
          }
        });
        // Keep the callback connection alive until the client finishes.
        reconnect_channel_ = std::move(back_channel);
      });

  try_connect(config_.connect_attempts);

  result_timer_ = library_.daemon().simulator().schedule_after(
      config_.result_timeout, [this] {
        if (outcome_.has_value()) return;
        finish(MigrationOutcome::Kind::kFailed,
               Error{ErrorCode::kTimeout, "no result before deadline"});
      });
}

void TaskClient::try_connect(int attempts_left) {
  Library::ConnectOptions options;
  options.include_client_params = true;
  options.reconnect_service = config_.reconnect_service;
  options.timeout = config_.connect_timeout;
  library_.connect(server_, service_, options,
                   [this, token = sentinel_.token(),
                    attempts_left](Result<ChannelPtr> result) {
                     if (token.expired()) return;
                     if (result.ok()) {
                       on_connected(std::move(result).value());
                       return;
                     }
                     if (attempts_left > 1 && !outcome_.has_value()) {
                       try_connect(attempts_left - 1);
                       return;
                     }
                     finish(MigrationOutcome::Kind::kFailed, result.error());
                   });
}

void TaskClient::on_connected(ChannelPtr channel) {
  channel_ = std::move(channel);
  channel_->set_sending(true);
  channel_->set_data_handler([this](const Bytes& frame) { on_frame(frame); });
  channel_->set_close_handler([this] {
    if (outcome_.has_value()) return;
    if (!upload_finished_) pending_outcome_.upload_interrupted = true;
    // While waiting for the result the loss is expected (§5.3); the server
    // will reconnect. During upload the handover controller handles repair.
  });

  handover_ =
      std::make_unique<handover::HandoverController>(library_, channel_);
  handover_->set_event_handler([this](const handover::HandoverEvent& event) {
    using Kind = handover::HandoverEvent::Kind;
    if (event.kind == Kind::kHandoverComplete) {
      ++pending_outcome_.handovers;
      // After substitution the server replies with a progress frame that
      // tells us where to resume; sending pauses until it arrives.
    } else if (event.kind == Kind::kHandoverFailed) {
      ++pending_outcome_.handover_failures;
    } else if (event.kind == Kind::kReconnected) {
      // New provider, new session: the whole task restarts (§5.2.2).
      channel_ = event.new_channel;
      channel_->set_data_handler(
          [this](const Bytes& frame) { on_frame(frame); });
      next_to_send_ = 0;
      upload_finished_ = false;
      send_header_and_start();
    } else if (event.kind == Kind::kGaveUp) {
      if (!outcome_.has_value() && !upload_finished_) {
        finish(MigrationOutcome::Kind::kFailed,
               Error{ErrorCode::kConnectionFailed, event.detail});
      }
    }
  });
  handover_->start();

  send_header_and_start();
}

void TaskClient::send_header_and_start() {
  (void)channel_->write(encode(HeaderFrame{config_.spec}));
  send_package(0);
}

void TaskClient::send_package(std::uint32_t index) {
  if (outcome_.has_value()) return;
  next_to_send_ = index;
  if (index >= config_.spec.package_count) {
    upload_finished_ = true;
    pending_outcome_.upload_done = library_.daemon().simulator().now();
    // §5.3: tell the monitor the connection is no longer needed.
    channel_->set_sending(false);
    return;
  }
  if (!channel_->open()) {
    // Paused: either the handover controller repairs the channel (then the
    // server's progress frame restarts us) or the task fails by timeout.
    return;
  }
  PackageFrame package;
  package.index = index;
  package.size = config_.spec.package_size;
  (void)channel_->write(encode(package));
  const SimDuration gap = config_.spec.send_interval;
  send_timer_ = library_.daemon().simulator().schedule_after(
      gap, [this, index] { send_package(index + 1); });
}

void TaskClient::on_frame(const Bytes& frame) {
  const auto tag = tag_of(frame);
  if (!tag.has_value()) return;
  switch (*tag) {
    case FrameTag::kProgress: {
      // Server tells us where to resume after a connection substitution.
      const auto progress = decode_progress(frame);
      if (!progress.has_value()) return;
      if (!upload_finished_) {
        channel_->set_sending(true);
        library_.daemon().simulator().cancel(send_timer_);
        send_package(progress->next_expected);
      }
      return;
    }
    case FrameTag::kResult: {
      if (!outcome_.has_value() && decode_result(frame).has_value()) {
        finish(MigrationOutcome::Kind::kCompletedLive);
      }
      return;
    }
    default:
      return;
  }
}

void TaskClient::finish(MigrationOutcome::Kind kind, Error error) {
  if (outcome_.has_value()) return;
  pending_outcome_.kind = kind;
  pending_outcome_.error = std::move(error);
  pending_outcome_.finished = library_.daemon().simulator().now();
  outcome_ = pending_outcome_;
  if (handover_ != nullptr) handover_->stop();
  library_.daemon().simulator().cancel(result_timer_);
  library_.daemon().simulator().cancel(send_timer_);
  library_.unregister_service(config_.reconnect_service);
  if (done_) done_(*outcome_);
}

}  // namespace peerhood::migration
