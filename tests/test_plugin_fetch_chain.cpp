// The discovery plugin's fetch chain is a state machine on plugin members;
// stop() must end it wherever it is waiting. These tests park the chain in
// the short-connection failure wait (fetch_failure_prob = 1, so every
// exchange fails after its connection cost) and stop the daemon there.
#include <gtest/gtest.h>

#include "peerhood/daemon.hpp"
#include "scripted_network.hpp"

namespace peerhood {
namespace {

const MacAddress kSelf = MacAddress::from_index(1);

class PluginFetchChain : public ::testing::Test {
 protected:
  // Three responders: after the first failed exchange the chain still has
  // jobs left, so a chain that survives stop() would keep fetching.
  PluginFetchChain()
      : network_{{MacAddress::from_index(2), MacAddress::from_index(3),
                  MacAddress::from_index(4)}},
        daemon_{network_, kSelf, nullptr, DaemonConfig{}} {
    network_.mutable_params().fetch_failure_prob = 1.0;
    daemon_.start();
  }

  const Plugin::Stats& stats() {
    return daemon_.plugin(Technology::kBluetooth)->stats();
  }

  // Steps until the first exchange has failed: its completion is now
  // scheduled one connection cost ahead.
  void run_into_failure_wait() {
    const SimTime deadline = network_.simulator().now() + seconds(60.0);
    while (stats().fetch_failures == 0 &&
           network_.simulator().now() < deadline) {
      ASSERT_TRUE(network_.simulator().step());
    }
    ASSERT_EQ(stats().fetch_failures, 1u);
  }

  testing::ScriptedNetwork network_;
  Daemon daemon_;
};

TEST_F(PluginFetchChain, StopDuringFailureWaitEndsTheChain) {
  run_into_failure_wait();
  const std::uint64_t attempts = stats().fetch_attempts;
  const std::uint64_t loops = stats().loops;
  daemon_.stop();
  network_.simulator().run_for(seconds(60.0));
  EXPECT_EQ(stats().fetch_attempts, attempts)
      << "a stopped plugin kept fetching";
  EXPECT_EQ(network_.datagrams_sent(), 0u);
  EXPECT_EQ(stats().loops, loops);
  EXPECT_FALSE(daemon_.plugin(Technology::kBluetooth)->cycle_active());
}

TEST_F(PluginFetchChain, RestartDuringFailureWaitRunsOneChain) {
  run_into_failure_wait();
  const std::uint64_t attempts = stats().fetch_attempts;
  const std::uint64_t loops = stats().loops;
  daemon_.stop();
  daemon_.start();
  // The restarted plugin's first cycle fetches only after its random phase
  // plus a whole inquiry window (>= inquiry_duration); the old chain's
  // failure completion was due within one connection cost. Nothing may
  // fetch before the new cycle does.
  const SimDuration quiet = network_.params(Technology::kBluetooth)
                                .inquiry_duration;
  network_.simulator().run_for(quiet - milliseconds(1));
  EXPECT_EQ(stats().fetch_attempts, attempts)
      << "the pre-stop chain resumed after the restart";
  // The new chain runs normally: one full cycle later it has fetched from
  // every responder and completed.
  const SimTime deadline = network_.simulator().now() + seconds(60.0);
  while (stats().loops < loops + 2 && network_.simulator().now() < deadline) {
    ASSERT_TRUE(network_.simulator().step());
  }
  EXPECT_GE(stats().loops, loops + 2);
  EXPECT_GT(stats().fetch_attempts, attempts);
}

}  // namespace
}  // namespace peerhood
