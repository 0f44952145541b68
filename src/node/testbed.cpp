#include "node/testbed.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace peerhood::node {

Node::Node(Testbed& testbed, std::string name, MacAddress mac,
           std::shared_ptr<const sim::MobilityModel> mobility,
           const NodeOptions& options)
    : testbed_{testbed}, name_{std::move(name)} {
  DaemonConfig config = options.daemon;
  config.device_name = name_;
  config.mobility = options.mobility;
  config.technologies = options.technologies;
  daemon_ = std::make_unique<Daemon>(testbed.network(), mac,
                                     std::move(mobility), std::move(config));
  library_ = std::make_unique<Library>(*daemon_);
  daemon_->start();
  for (const Technology tech : options.technologies) {
    testbed.medium().set_peerhood_tag(mac, tech, options.peerhood_capable);
  }
  bridge::BridgeConfig bridge_config = options.bridge;
  bridge_config.max_connections = options.daemon.max_bridge_connections;
  bridge_ = std::make_unique<bridge::BridgeService>(*daemon_, bridge_config);
  bridge_configured_ = options.start_bridge && options.daemon.bridge_enabled;
  if (bridge_configured_) {
    bridge_->start();
  }
}

Node::~Node() = default;

void Node::crash() {
  if (crashed_) return;
  crashed_ = true;
  // Order matters: the bridge unregisters its hidden service and engine
  // handler while the daemon is still up, then the daemon wipes everything
  // volatile and leaves the medium.
  bridge_->stop();
  daemon_->crash();
}

void Node::restart() {
  if (!crashed_) return;
  crashed_ = false;
  daemon_->start();
  if (bridge_configured_) bridge_->start();
}

Result<ChannelPtr> Node::connect_blocking(MacAddress destination,
                                          const std::string& service,
                                          Library::ConnectOptions options,
                                          double deadline_s) {
  std::optional<Result<ChannelPtr>> outcome;
  library_->connect(destination, service, options,
                    [&outcome](Result<ChannelPtr> result) {
                      outcome = std::move(result);
                    });
  sim::Simulator& sim = testbed_.sim();
  const SimTime deadline = sim.now() + seconds(deadline_s);
  while (!outcome.has_value() && sim.now() < deadline && sim.step()) {
  }
  if (!outcome.has_value()) {
    return Error{ErrorCode::kTimeout, "connect did not resolve in time"};
  }
  return std::move(*outcome);
}

Testbed::Testbed(std::uint64_t seed, sim::LinkQualityModel quality_model)
    : sim_{seed}, medium_{sim_, quality_model}, network_{medium_} {}

Node& Testbed::add_node(const std::string& name, sim::Vec2 position,
                        NodeOptions options) {
  return add_mobile_node(
      name, std::make_shared<sim::StaticPosition>(position), options);
}

Node& Testbed::add_mobile_node(
    const std::string& name,
    std::shared_ptr<const sim::MobilityModel> mobility, NodeOptions options) {
  const MacAddress mac = MacAddress::from_index(next_mac_index_++);
  nodes_.push_back(std::make_unique<Node>(*this, name, mac,
                                          std::move(mobility), options));
  return *nodes_.back();
}

Node& Testbed::node(const std::string& name) {
  const auto it = std::find_if(
      nodes_.begin(), nodes_.end(),
      [&name](const std::unique_ptr<Node>& n) { return n->name() == name; });
  if (it == nodes_.end()) {
    throw std::out_of_range("no node named " + name);
  }
  return **it;
}

std::vector<Node*> Testbed::nodes() {
  std::vector<Node*> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) out.push_back(node.get());
  return out;
}

std::vector<MacAddress> Testbed::macs() const {
  std::vector<MacAddress> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) out.push_back(node->mac());
  return out;
}

void Testbed::run_for(double seconds_) { sim_.run_for(seconds(seconds_)); }

void Testbed::run_discovery_rounds(int rounds) {
  // Pace rounds off the slowest technology actually configured on a node;
  // idle technologies must not stretch every scenario's timeline.
  SimDuration slowest{0};
  for (const auto& node : nodes_) {
    for (const Technology tech : node->daemon().config().technologies) {
      slowest = std::max(slowest, medium_.params(tech).inquiry_interval);
    }
  }
  if (slowest == SimDuration{0}) {
    slowest = medium_.params(Technology::kBluetooth).inquiry_interval;
  }
  // A round must also cover the per-responder fetch time; pad by 50%.
  for (int i = 0; i < rounds; ++i) {
    sim_.run_for(slowest + slowest / 2);
  }
}

}  // namespace peerhood::node
