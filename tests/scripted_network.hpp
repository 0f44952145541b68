// A net::Network with scripted neighbours, for driving one daemon's
// discovery plane by hand: every inquiry hears the configured responders,
// every link samples the same quality, and the datagram frames the daemon
// sends are captured for the test to decode and answer through the daemon's
// own datagram handler.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/frame_check.hpp"
#include "net/network.hpp"
#include "peerhood/protocol.hpp"
#include "sim/simulator.hpp"

namespace peerhood::testing {

class ScriptedNetwork final : public net::Network {
 public:
  explicit ScriptedNetwork(std::vector<MacAddress> responders)
      : sim_{7}, responders_{std::move(responders)} {
    params_.fetch_failure_prob = 0.0;
  }

  void attach_interface(MacAddress, Technology,
                        std::shared_ptr<const sim::MobilityModel>) override {}
  void detach_interface(MacAddress, Technology) override {}
  void set_datagram_handler(MacAddress, Technology,
                            DatagramHandler handler) override {
    handler_ = std::move(handler);
  }
  void send_datagram(MacAddress, MacAddress to, Technology,
                     FramePtr frame) override {
    sent_.push_back(Sent{to, std::move(frame)});
    ++datagrams_sent_;
  }
  void connect(MacAddress, const net::NetAddress&, ConnectHandler) override {}
  void begin_inquiry(MacAddress, Technology) override {}
  std::vector<MacAddress> end_inquiry(MacAddress, Technology) override {
    return responders_;
  }
  void cancel_inquiry(MacAddress, Technology) override {}
  bool peerhood_tag(MacAddress, Technology) const override { return true; }
  int sample_quality(MacAddress, MacAddress, Technology) override {
    return 240;
  }
  const sim::TechnologyParams& params(Technology) const override {
    return params_;
  }
  sim::Simulator& simulator() override { return sim_; }
  std::size_t live_connection_count() const override { return 0; }

  [[nodiscard]] sim::TechnologyParams& mutable_params() { return params_; }
  [[nodiscard]] std::size_t datagrams_sent() const { return datagrams_sent_; }

  // One captured fetch request: who it was sent to, and the request itself.
  struct Request {
    MacAddress to;
    wire::FetchRequest request;
  };

  // Runs the simulation until the daemon has sent a fetch request and
  // returns it, or nothing once `within` of simulated time has passed (the
  // plugin's periodic cycle never lets the event queue drain, so the wait
  // is bounded by time, not by the queue).
  std::optional<Request> next_request(SimDuration within = seconds(120.0)) {
    const SimTime deadline = sim_.now() + within;
    while (sent_.empty()) {
      if (sim_.now() > deadline || !sim_.step()) return std::nullopt;
    }
    const Sent sent = std::move(sent_.front());
    sent_.erase(sent_.begin());
    const auto body = net::check_frame(*sent.frame);
    if (!body.has_value() || body->empty() ||
        (*body)[0] != net::kDatagramFrameTag) {
      return std::nullopt;
    }
    auto request = wire::decode_fetch_request(body->subspan(1));
    if (!request.has_value()) return std::nullopt;
    return Request{sent.to, *request};
  }

  void deliver(MacAddress from, std::span<const std::uint8_t> payload) {
    handler_(from, payload);
  }

 private:
  struct Sent {
    MacAddress to;
    FramePtr frame;
  };

  sim::Simulator sim_;
  sim::TechnologyParams params_;
  std::vector<MacAddress> responders_;
  DatagramHandler handler_;
  std::vector<Sent> sent_;
  std::size_t datagrams_sent_{0};
};

}  // namespace peerhood::testing
