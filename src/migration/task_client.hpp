// TaskClient — the mobile side of task migration (§5.1): connect to a
// processing service, upload the task packages, flag the end of sending
// (§5.3) and wait for the result — over the original channel, a handed-over
// channel, or a server-initiated reconnection.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/handler_slot.hpp"
#include "handover/handover.hpp"
#include "migration/task.hpp"
#include "peerhood/library.hpp"

namespace peerhood::migration {

struct TaskClientConfig {
  TaskSpec spec{};
  // Client-side service the server connects back to with the result. It is
  // registered hidden and its name travels in the connect handshake (§5.3
  // Method 2, the paper's preferred design); a handover controller with the
  // default policy guards the upload channel.
  std::string reconnect_service{"client.result"};
  SimDuration result_timeout{std::chrono::seconds{600}};
  SimDuration connect_timeout{std::chrono::seconds{60}};
  // Initial-connection attempts; Bluetooth establishment faults are routine
  // (§4.3), so applications retry.
  int connect_attempts{3};
};

struct MigrationOutcome {
  enum class Kind {
    kCompletedLive,    // result arrived on the (possibly handed-over) channel
    kCompletedRouted,  // result arrived via server-initiated reconnection
    kFailed,
  };
  Kind kind{Kind::kFailed};
  Error error{};
  SimTime started{};
  SimTime upload_done{};
  SimTime finished{};
  std::uint64_t handovers{0};
  std::uint64_t handover_failures{0};
  bool upload_interrupted{false};
};

class TaskClient {
 public:
  using DoneCallback = std::function<void(const MigrationOutcome&)>;

  TaskClient(Library& library, MacAddress server, std::string service,
             TaskClientConfig config = {});
  ~TaskClient();

  TaskClient(const TaskClient&) = delete;
  TaskClient& operator=(const TaskClient&) = delete;

  // Runs the full migration once. The callback fires exactly once.
  void run(DoneCallback done);

  [[nodiscard]] const std::optional<MigrationOutcome>& outcome() const {
    return outcome_;
  }
  [[nodiscard]] const ChannelPtr& channel() const { return channel_; }

 private:
  void try_connect(int attempts_left);
  void on_connected(ChannelPtr channel);
  void send_header_and_start();
  void send_package(std::uint32_t index);
  void on_frame(const Bytes& frame);
  void finish(MigrationOutcome::Kind kind, Error error = {});

  Library& library_;
  MacAddress server_;
  std::string service_;
  TaskClientConfig config_;
  DoneCallback done_;
  ChannelPtr channel_;
  // Server-initiated callback connection delivering a routed result.
  ChannelPtr reconnect_channel_;
  std::unique_ptr<handover::HandoverController> handover_;
  std::optional<MigrationOutcome> outcome_;
  MigrationOutcome pending_outcome_;
  std::uint32_t next_to_send_{0};
  bool upload_finished_{false};
  sim::EventId result_timer_{sim::kInvalidEvent};
  sim::EventId send_timer_{sim::kInvalidEvent};
  // Guards the in-flight connect attempts (their completions capture `this`
  // and may resolve after this client is destroyed mid-migration).
  DestructionSentinel sentinel_;
};

}  // namespace peerhood::migration
