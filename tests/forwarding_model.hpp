// A mobility model that forwards to another but leaves max_speed() at the
// default +infinity. A radio medium can prove nothing about an endpoint
// that moves this way, so every horizon check on its links measures: the
// always-measure side of the horizon oracles.
#pragma once

#include <memory>
#include <utility>

#include "sim/mobility.hpp"

namespace peerhood::testing {

class ForwardingModel final : public sim::MobilityModel {
 public:
  explicit ForwardingModel(std::shared_ptr<const sim::MobilityModel> inner)
      : inner_{std::move(inner)} {}

  [[nodiscard]] sim::Vec2 position_at(SimTime t) const override {
    return inner_->position_at(t);
  }
  [[nodiscard]] sim::Vec2 velocity_at(SimTime t) const override {
    return inner_->velocity_at(t);
  }
  [[nodiscard]] bool is_static() const override {
    return inner_->is_static();
  }

 private:
  std::shared_ptr<const sim::MobilityModel> inner_;
};

// `model` as is, or behind a ForwardingModel when `unbounded`.
inline std::shared_ptr<const sim::MobilityModel> maybe_unbounded(
    std::shared_ptr<const sim::MobilityModel> model, bool unbounded) {
  if (!unbounded) return model;
  return std::make_shared<ForwardingModel>(std::move(model));
}

}  // namespace peerhood::testing
