// The simulation kernel: a virtual clock plus the event queue. All PeerHood
// "threads" from the paper (inquiry, advertise, handover monitor, bridge main
// loop) are cooperative tasks scheduled here — deterministic and replayable
// (C++ Core Guidelines CP.4: think in terms of tasks, not threads).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/handler_slot.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "sim/event_queue.hpp"

namespace peerhood::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed) : rng_{seed} {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  // Time observers fire whenever the virtual clock actually advances (never
  // for same-time events). The radio medium uses this to invalidate its
  // position cache and spatial grids exactly once per distinct SimTime.
  using TimeObserver = std::function<void()>;
  using TimeObserverId = std::size_t;

  TimeObserverId add_time_observer(TimeObserver observer) {
    // Reuse a removed slot so repeated register/unregister cycles (e.g. many
    // scenario media on one simulator) don't grow the observer list.
    for (TimeObserverId id = 0; id < time_observers_.size(); ++id) {
      if (time_observers_[id] == nullptr) {
        time_observers_[id] = std::move(observer);
        return id;
      }
    }
    time_observers_.push_back(std::move(observer));
    return time_observers_.size() - 1;
  }

  void remove_time_observer(TimeObserverId id) {
    if (id < time_observers_.size()) time_observers_[id] = nullptr;
  }

  // Actions are InlineCallables: lambdas whose captures fit the inline
  // buffer schedule with zero heap traffic (see sim/inline_callable.hpp).
  EventId schedule_at(SimTime at, InlineCallable action) {
    return queue_.schedule(at < now_ ? now_ : at, std::move(action));
  }

  EventId schedule_after(SimDuration delay, InlineCallable action) {
    return queue_.schedule(now_ + delay, std::move(action));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  // Runs a single event; returns false when the queue is empty. The clock
  // advances *before* the event runs so callbacks observe the fire time.
  bool step() {
    if (queue_.empty()) return false;
    advance_to(queue_.next_time());
    (void)queue_.run_next();
    return true;
  }

  // Runs events until the queue is empty or the clock would pass `deadline`.
  // The clock is left at `deadline` (so repeated run_until calls compose).
  void run_until(SimTime deadline) {
    while (!queue_.empty() && queue_.next_time() <= deadline) {
      advance_to(queue_.next_time());
      (void)queue_.run_next();
    }
    if (now_ < deadline) advance_to(deadline);
  }

  void run_for(SimDuration duration) { run_until(now_ + duration); }

  // Time of the earliest pending event; only valid when !idle().
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }

  // Drains the queue completely (with a safety cap against runaway loops).
  void run_all(std::uint64_t max_events = 50'000'000) {
    while (max_events-- > 0 && step()) {
    }
  }

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] Rng fork_rng() { return rng_.fork(); }

 private:
  void advance_to(SimTime t) {
    if (t == now_) return;
    now_ = t;
    // Keep the queue's near-horizon window tracking the clock, so events
    // scheduled after an idle stretch still take the O(1) wheel path.
    queue_.advance_window(t);
    for (const TimeObserver& observer : time_observers_) {
      if (observer) observer();
    }
  }

  SimTime now_{};
  EventQueue queue_;
  Rng rng_;
  std::vector<TimeObserver> time_observers_;
};

// Repeating task helper (inquiry loops, link monitors, relay polls). The task
// stops rearming once cancelled or destroyed; destruction is safe mid-cycle —
// including from *inside* the tick itself (a tick callback may destroy the
// object owning this task, e.g. an application event handler tearing down a
// HandoverController from a monitor tick).
class PeriodicTask {
 public:
  PeriodicTask() = default;
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;
  ~PeriodicTask() { stop(); }

  void start(Simulator& sim, SimDuration period, std::function<void()> tick,
             SimDuration initial_delay = SimDuration{0}) {
    stop();
    sim_ = &sim;
    period_ = period;
    tick_ = std::make_shared<const std::function<void()>>(std::move(tick));
    stopped_ = false;
    arm(initial_delay);
  }

  void stop() {
    stopped_ = true;
    if (sim_ != nullptr && event_ != kInvalidEvent) {
      sim_->cancel(event_);
    }
    event_ = kInvalidEvent;
  }

  [[nodiscard]] bool running() const { return !stopped_ && sim_ != nullptr; }

 private:
  void arm(SimDuration delay) {
    // Pin the tick and watch the sentinel: the callback may stop() this
    // task or destroy it outright; members are only touched while the
    // token is live.
    event_ = sim_->schedule_after(
        delay, [this, token = sentinel_.token(), tick = tick_] {
          event_ = kInvalidEvent;
          (*tick)();
          if (token.expired()) return;  // tick destroyed this task
          if (!stopped_) arm(period_);
        });
  }

  Simulator* sim_{nullptr};
  SimDuration period_{};
  std::shared_ptr<const std::function<void()>> tick_;
  EventId event_{kInvalidEvent};
  bool stopped_{true};
  peerhood::DestructionSentinel sentinel_;
};

}  // namespace peerhood::sim
