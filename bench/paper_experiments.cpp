// The paper's experiments E1-E12 as one deterministic report. Every trial is
// seeded, so the output is byte-stable, and the golden_paper_experiments
// ctest compares it with tests/golden/paper_experiments.txt. Each result the
// paper states is a checked claim, printed as "claim held: ..." or "claim NOT
// HELD: ...", followed by the measured value against its bound. The bounds
// come from the thesis figures cited in each experiment's comment. A claim
// that does not hold is printed as it stands; the golden pins the verdict.
//
// After a change that moves a table on purpose, regenerate the golden:
//   ./build/paper_experiments > tests/golden/paper_experiments.txt
#include <cstdarg>
#include <optional>

#include "baseline/gnutella.hpp"
#include "baseline/visibility.hpp"
#include "bench_util.hpp"
#include "discovery/analyzer.hpp"
#include "handover/handover.hpp"
#include "handover/result_router.hpp"
#include "migration/task_client.hpp"
#include "migration/task_server.hpp"

namespace {

using namespace peerhood;
using namespace peerhood::bench;

[[gnu::format(printf, 1, 2)]] std::string strprintf(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

void claim(bool held, const std::string& text, const std::string& measured) {
  std::printf("    claim %s: %s (%s)\n", held ? "held" : "NOT HELD",
              text.c_str(), measured.c_str());
}

// Claims that `values` rises (with `falling`, falls) from each row to the
// next, row i being `labels[i] unit`. It shows the step closest to breaking
// the claim.
void claim_trend(const std::string& text, const std::vector<double>& values,
                 const std::vector<int>& labels, const char* value_fmt,
                 const char* unit, bool falling = false) {
  const double sign = falling ? -1.0 : 1.0;
  const auto rise = [&](std::size_t i) {
    return sign * (values[i] - values[i - 1]);
  };
  std::size_t at = 1;
  for (std::size_t i = 2; i < values.size(); ++i) {
    if (rise(i) < rise(at)) at = i;
  }
  claim(rise(at) > 0.0, text,
        strprintf(value_fmt, values[at]) +
            strprintf(" at %d %s vs %s ", labels[at], unit,
                      falling ? "<" : ">") +
            strprintf(value_fmt, values[at - 1]) +
            strprintf(" at %d", labels[at - 1]));
}

// Registers `service` on `node`; each session hands its frames to
// `on_data`, or echoes them without one. Sessions live in an explicit
// registry: handlers must not own their own channel (see
// common/handler_slot.hpp).
void serve(node::Node& node, ServiceInfo service,
           std::vector<ChannelPtr>& sessions,
           Channel::DataHandler on_data = nullptr) {
  (void)node.library().register_service(
      std::move(service),
      [&sessions, on_data](ChannelPtr channel, const wire::ConnectRequest&) {
        sessions.push_back(channel);
        if (on_data) {
          channel->set_data_handler(on_data);
          return;
        }
        channel->set_data_handler([raw = channel.get()](const Bytes& frame) {
          (void)raw->write(frame);
        });
      });
}

// Writes `payload` once a second, `count` times, then runs `window_s`;
// returns the round-trip times of the echoes that came back, in seconds.
std::vector<double> ping(node::Testbed& testbed, const ChannelPtr& channel,
                         int count, const Bytes& payload, double window_s) {
  // The handler stays on the channel after this returns, so it owns what it
  // writes to.
  auto rtts = std::make_shared<std::vector<double>>();
  auto sent_at = std::make_shared<double>(0.0);
  channel->set_data_handler([&testbed, rtts, sent_at](const Bytes&) {
    rtts->push_back(testbed.sim().now().seconds() - *sent_at);
  });
  for (int i = 0; i < count; ++i) {
    testbed.sim().schedule_after(
        seconds(static_cast<double>(i)),
        [channel, sent_at, payload, &testbed] {
          if (!channel->open()) return;
          *sent_at = testbed.sim().now().seconds();
          (void)channel->write(payload);
        });
  }
  testbed.run_for(window_s);
  return *rtts;
}

// --- E1 + E2: coverage exclusion and notification delay ---------------------
//
// Legacy PeerHood [2] sees at most two jumps (Fig. 3.3); dynamic device
// discovery reaches the whole connected network (Fig. 3.6). The delay for a
// change k hops away is at most k searching cycles (Fig. 3.10).

void build_line(node::Testbed& testbed, int n, bool legacy) {
  for (int i = 0; i < n; ++i) {
    node::NodeOptions options = scenario_node(MobilityClass::kStatic);
    options.daemon.propagate_routes = !legacy;
    testbed.add_node("n" + std::to_string(i), {8.0 * i, 0.0}, options);
  }
}

void e1_awareness() {
  heading("E1  Coverage exclusion: visible devices per node (line, 8 m spacing)");
  std::printf("%6s %10s | %-22s | %-22s\n", "nodes", "mode", "routable (min/mean/max)",
              "visible (min/mean/max)");
  double legacy_visible = 0.0;
  double dynamic_shortfall = 0.0;
  for (const int n : {3, 5, 8}) {
    for (const bool legacy : {true, false}) {
      std::vector<double> routable;
      std::vector<double> visible;
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        node::Testbed testbed{seed};
        testbed.medium().configure(ideal_bluetooth());
        build_line(testbed, n, legacy);
        testbed.run_discovery_rounds(n + 4);
        for (node::Node* node : testbed.nodes()) {
          routable.push_back(static_cast<double>(
              baseline::routable_device_count(node->daemon().storage())));
          visible.push_back(static_cast<double>(baseline::visible_device_count(
              node->daemon().storage(), node->mac())));
        }
      }
      const Summary r = summarize(routable);
      const Summary v = summarize(visible);
      std::printf("%6d %10s | %5.1f / %5.2f / %5.1f  | %5.1f / %5.2f / %5.1f\n",
                  n, legacy ? "legacy[2]" : "dynamic", r.min, r.mean, r.max,
                  v.min, v.mean, v.max);
      if (legacy) {
        legacy_visible = std::max(legacy_visible, v.max);
      } else {
        dynamic_shortfall = std::max(dynamic_shortfall, (n - 1) - r.min);
      }
    }
  }
  // Two jumps each way on a line: four devices at most.
  claim(legacy_visible <= 4.0,
        "legacy vision stops after two jumps (Fig. 3.3)",
        strprintf("at most %.0f visible vs <= 4", legacy_visible));
  claim(dynamic_shortfall == 0.0,
        "dynamic discovery gives every node the whole network (Fig. 3.6)",
        strprintf("routes missing at worst %.0f vs 0", dynamic_shortfall));
}

void e2_notification_delay() {
  heading("E2  Max notification delay vs. hop count (Fig. 3.10)");
  std::printf("%6s %16s %18s\n", "hops", "mean delay (s)", "delay / cycle (x)");
  const double cycle_s = 10.0;  // nominal Bluetooth searching cycle
  std::vector<double> means;
  for (const int hops : {1, 2, 3, 4, 5}) {
    std::vector<double> delays;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      node::Testbed testbed{seed};
      testbed.medium().configure(ideal_bluetooth());
      build_line(testbed, hops + 1, /*legacy=*/false);
      testbed.run_discovery_rounds(hops + 4);
      // A new device appears next to the far end; measure when the near end
      // learns about it.
      testbed.add_node("fresh", {8.0 * hops, 8.0},
                       scenario_node(MobilityClass::kStatic));
      const double appeared = testbed.sim().now().seconds();
      const MacAddress fresh = testbed.node("fresh").mac();
      auto& observer = testbed.node("n0");
      const SimTime deadline = testbed.sim().now() + seconds(400.0);
      while (!observer.daemon().storage().contains(fresh) &&
             testbed.sim().now() < deadline) {
        testbed.run_for(0.5);
      }
      if (observer.daemon().storage().contains(fresh)) {
        delays.push_back(testbed.sim().now().seconds() - appeared);
      }
    }
    const Summary s = summarize(delays);
    std::printf("%6d %16.1f %18.2f\n", hops, s.mean, s.mean / cycle_s);
    means.push_back(s.mean);
  }
  std::size_t worst = 0;  // the row furthest above its bound
  for (std::size_t i = 1; i < means.size(); ++i) {
    if (means[i] / cycle_s - i > means[worst] / cycle_s - worst) worst = i;
  }
  claim(means[worst] / cycle_s <= worst + 1.0,
        "a change k hops away arrives within k searching cycles (Fig. 3.10)",
        strprintf("%.2f cycles at hop count %zu vs <= %zu",
                  means[worst] / cycle_s, worst + 1, worst + 1));
  claim_trend("the delay grows with the hop count (Fig. 3.10)", means,
              {1, 2, 3, 4, 5}, "%.1f s", "hops");
}

// --- E3: Gnutella flooding vs PeerHood's neighbour-only inquiry (§3.2) ------
//
// Flooding generates "huge network traffic" that a battery-powered network
// cannot afford, while PeerHood's discovery sends inquiries only to direct
// neighbours ("the inquiry petition is not repeated like Gnutella network").

void e3_traffic() {
  heading("E3  Full-awareness traffic: Gnutella flooding vs PeerHood");
  std::printf("%6s %8s %8s | %16s %18s %8s\n", "nodes", "edges", "deg",
              "gnutella total", "peerhood total", "ratio");
  const std::vector<int> sizes = {10, 20, 40, 80};
  std::vector<double> ratios;
  for (const int n : sizes) {
    // Field side scales with sqrt(n): constant density, mean degree ~6.
    const double side = 6.0 * std::sqrt(static_cast<double>(n));
    node::Testbed testbed{static_cast<std::uint64_t>(n)};
    testbed.medium().configure(ideal_bluetooth());
    Rng layout{testbed.sim().rng().next_u64()};
    for (int i = 0; i < n; ++i) {
      testbed.add_node(
          "n" + std::to_string(i),
          {layout.uniform(0.0, side), layout.uniform(0.0, side)},
          scenario_node(MobilityClass::kStatic));
    }
    const auto macs = testbed.macs();
    const auto overlay = baseline::GnutellaOverlay::from_medium(
        testbed.medium(), macs, Technology::kBluetooth);
    // Gnutella full awareness: every node floods one query (TTL 7).
    double gnutella_total = 0.0;
    for (const MacAddress origin : macs) {
      gnutella_total +=
          static_cast<double>(overlay.flood_messages(origin, 7));
    }
    // PeerHood full awareness: diameter-many discovery cycles, counting
    // every protocol frame on the air (inquiry responses + fetches).
    const int cycles = 5;  // >= graph diameter at this density
    const auto before = testbed.medium().stats();
    testbed.run_discovery_rounds(cycles);
    const auto after = testbed.medium().stats();
    const double peerhood_total =
        static_cast<double>(after.frames - before.frames);

    std::printf("%6d %8zu %8.1f | %16.0f %18.0f %8.2f\n", n,
                overlay.edge_count(),
                2.0 * overlay.edge_count() / n, gnutella_total,
                peerhood_total, gnutella_total / peerhood_total);
    ratios.push_back(gnutella_total / peerhood_total);
  }
  note("gnutella total = one TTL-7 flood per node (each node must search");
  note("to learn the network); peerhood total = 5 discovery cycles of");
  note("neighbour-only inquiry+fetch frames; ratio = gnutella / peerhood.");
  std::size_t lowest = 0;
  for (std::size_t i = 1; i < ratios.size(); ++i) {
    if (ratios[i] < ratios[lowest]) lowest = i;
    if (ratios[i - 1] <= 1.0 && ratios[i] > 1.0) {
      note(strprintf("PeerHood sends more frames than flooding up to %d "
                     "nodes, flooding sends more from %d nodes.",
                     sizes[i - 1], sizes[i]));
    }
  }
  claim(ratios[lowest] > 1.0,
        "flooding sends more frames than PeerHood at every size (§3.2)",
        strprintf("ratio %.2f at %d nodes vs > 1", ratios[lowest],
                  sizes[lowest]));
  claim_trend("flooding's cost grows faster with size than PeerHood's",
              ratios, sizes, "ratio %.2f", "nodes");
}

// --- E4: route selection on the Fig. 3.8 / Fig. 3.9 diamond -----------------
//
// Quality-sum addition picks A-B-D (Fig. 3.8); with equal sums the per-link
// 230 threshold rejects the route whose individual link is too weak
// (Fig. 3.9).

MacAddress mac(std::uint64_t i) { return MacAddress::from_index(i); }

// Runs the analyzer on a diamond A-{B,C}-D with the given link qualities
// and returns the bridge selected for D.
MacAddress select_bridge(int q_ab, int q_bd, int q_ac, int q_cd) {
  DeviceStorage storage;
  NeighbourhoodAnalyzer analyzer{mac(1)};  // A

  auto direct = [&](std::uint64_t idx, int quality) {
    DeviceRecord r;
    r.device.mac = mac(idx);
    r.device.name = idx == 2 ? "B" : "C";
    r.device.mobility = MobilityClass::kStatic;
    r.jump = 0;
    r.quality_sum = quality;
    r.min_link_quality = quality;
    return r;
  };
  auto entry = [&](int quality) {
    NeighbourSnapshotEntry e;
    e.device.mac = mac(4);
    e.device.name = "D";
    e.jump = 0;
    e.quality_sum = quality;
    e.min_link_quality = quality;
    return e;
  };
  analyzer.integrate(storage, direct(2, q_ab), {entry(q_bd)},
                     Technology::kBluetooth, SimTime{});
  analyzer.integrate(storage, direct(3, q_ac), {entry(q_cd)},
                     Technology::kBluetooth, SimTime{});
  return storage.find(mac(4))->bridge;
}

const char* bridge_name(MacAddress bridge) {
  return bridge == mac(2) ? "B" : bridge == mac(3) ? "C" : "?";
}

void e4_route_selection() {
  heading("E4  Route selection (Fig. 3.8 / Fig. 3.9 diamond)");
  struct Case {
    const char* name;
    int ab, bd, ac, cd;
    const char* expect;
  };
  const Case cases[] = {
      {"Fig 3.8: AB+BD=495 > AC+CD=475", 250, 245, 240, 235, "B"},
      {"Fig 3.8 mirrored", 240, 235, 250, 245, "C"},
      {"Fig 3.9: equal sums, AC=210<230", 230, 230, 210, 250, "B"},
      {"Fig 3.9 mirrored", 210, 250, 230, 230, "C"},
      {"both inadmissible: larger sum", 220, 220, 210, 215, "B"},
  };
  std::printf("%-36s %6s %6s %6s %6s | %8s %8s\n", "case", "AB", "BD", "AC",
              "CD", "chosen", "expected");
  std::size_t as_expected = 0;
  for (const Case& c : cases) {
    const char* name = bridge_name(select_bridge(c.ab, c.bd, c.ac, c.cd));
    const bool ok = std::string{name} == c.expect;
    as_expected += ok ? 1 : 0;
    std::printf("%-36s %6d %6d %6d %6d | %8s %8s %s\n", c.name, c.ab, c.bd,
                c.ac, c.cd, name, c.expect, ok ? "ok" : "MISMATCH");
  }
  claim(as_expected == std::size(cases),
        "each diamond picks the bridge Figs. 3.8 and 3.9 predict",
        strprintf("%zu of %zu cases vs all", as_expected, std::size(cases)));

  heading("E4b Threshold sweep: route C has the better sum (CD = 250) but");
  note("its first link q(AC) degrades; B path fixed at 235/235 (sum 470)");
  std::printf("%8s %10s %8s\n", "q(AC)", "sum(C)", "chosen");
  const int threshold = sim::LinkQualityModel::kDefaultThreshold;
  int rows = 0;
  int as_threshold = 0;
  for (const int q_ac : {250, 240, 232, 229, 222, 200}) {
    const char* name = bridge_name(select_bridge(235, 235, q_ac, 250));
    std::printf("%8d %10d %8s\n", q_ac, q_ac + 250, name);
    ++rows;
    as_threshold += std::string{name} == (q_ac >= threshold ? "C" : "B");
  }
  claim(as_threshold == rows,
        "a route with a link below 230 is not accepted, whatever its sum "
        "(Fig. 3.9)",
        strprintf("%d of %d rows pick C exactly when q(AC) >= %d vs all",
                  as_threshold, rows, threshold));
}

// --- E5: static vs dynamic bridge reliability (Fig. 3.11) --------------------
//
// Relayed connections through a fixed bridge survive; through a wandering
// mobile bridge they die when the bridge drifts out of either side's
// coverage. Static terminals "are more suitable for functioning as a
// bridge" (§3.4.3).

struct RelayResult {
  bool connected{false};
  double survival_s{0.0};
  int frames_delivered{0};
};

RelayResult run_relay(std::uint64_t seed, bool static_bridge) {
  node::Testbed testbed{seed};
  testbed.medium().configure(ideal_bluetooth());
  auto& client = testbed.add_node("client", {0.0, 0.0},
                                  scenario_node(MobilityClass::kDynamic));
  auto& server = testbed.add_node("server", {16.0, 0.0},
                                  scenario_node(MobilityClass::kStatic));
  if (static_bridge) {
    testbed.add_node("bridge", {8.0, 0.0},
                     scenario_node(MobilityClass::kStatic));
  } else {
    // Mobile bridge: wanders around the midpoint at walking speed.
    sim::RandomWaypoint::Config wander;
    wander.area_min = {2.0, -14.0};
    wander.area_max = {14.0, 14.0};
    wander.speed_min_mps = 0.4;
    wander.speed_max_mps = 1.2;
    testbed.add_mobile_node(
        "bridge",
        std::make_shared<sim::RandomWaypoint>(wander, sim::Vec2{8.0, 0.0},
                                              Rng{seed * 31 + 7}),
        scenario_node(MobilityClass::kDynamic));
  }

  int received = 0;
  std::vector<ChannelPtr> sessions;
  serve(server, {"echo", "", 0}, sessions,
        [&received](const Bytes&) { ++received; });
  testbed.run_discovery_rounds(4);

  RelayResult result;
  auto connect = client.connect_blocking(server.mac(), "echo", {}, 120.0);
  if (!connect.ok()) return result;
  result.connected = true;
  const ChannelPtr channel = connect.value();
  const double established = testbed.sim().now().seconds();
  double closed_at = -1.0;
  channel->set_close_handler([&] {
    closed_at = testbed.sim().now().seconds();
  });
  // One message per second for 5 minutes.
  for (int i = 0; i < 300; ++i) {
    testbed.sim().schedule_after(seconds(static_cast<double>(i)), [channel] {
      if (channel->open()) (void)channel->write(Bytes{1});
    });
  }
  testbed.run_for(305.0);
  result.survival_s =
      (closed_at < 0 ? testbed.sim().now().seconds() : closed_at) -
      established;
  result.frames_delivered = received;
  return result;
}

void e5_bridge_mobility() {
  heading("E5  Bridge mobility classes (Fig. 3.11): relay survival");
  std::printf("%10s %10s %16s %18s\n", "bridge", "connect %",
              "survival (s)", "frames delivered");
  double survival_s[2] = {};
  int connected_trials[2] = {};
  for (const bool static_bridge : {true, false}) {
    std::vector<double> survival;
    std::vector<double> frames;
    int connected = 0;
    const int trials = 10;
    for (std::uint64_t seed = 1; seed <= trials; ++seed) {
      const RelayResult r = run_relay(seed, static_bridge);
      if (!r.connected) continue;
      ++connected;
      survival.push_back(r.survival_s);
      frames.push_back(static_cast<double>(r.frames_delivered));
    }
    const Summary s = summarize(survival);
    const Summary f = summarize(frames);
    std::printf("%10s %10.0f %16.1f %18.1f\n",
                static_bridge ? "static" : "dynamic",
                100.0 * connected / trials, s.mean, f.mean);
    survival_s[static_bridge ? 0 : 1] = s.mean;
    connected_trials[static_bridge ? 0 : 1] = connected;
  }
  claim(survival_s[0] >= 300.0,
        "a static bridge keeps the relay for the full 300 s (Fig. 3.11)",
        strprintf("%.1f s vs >= 300 s", survival_s[0]));
  // A chain that never connected has no survival to compare.
  claim(connected_trials[1] > 0 && survival_s[1] < 300.0,
        "a wandering bridge drops the chain early (§3.4.3)",
        connected_trials[1] > 0
            ? strprintf("%.1f s vs < 300 s", survival_s[1])
            : std::string{"no dynamic-bridge chain connected"});
}

// --- E6: the §4.3 bridge performance test (Fig. 4.5) ------------------------
//
// Two clients, one bridge, one server, real Bluetooth parameters. The paper
// reports: 10 connection attempts, 3 failed on "normal Bluetooth connection
// fault"; the successful ones took 3-18 s; and the 20-message / 1-second
// loop then ran with "an almost negligible time delay". Retry ("the
// connection attempt repetition ... would be necessary") should lift the
// success rate.

struct AttemptResult {
  bool ok{false};
  double connect_s{0.0};
  double relay_delay_ms{0.0};
  int echoes{0};
};

AttemptResult run_attempt(std::uint64_t seed, bool retry_enabled) {
  node::Testbed testbed{seed};
  testbed.medium().configure(sim::bluetooth_params());

  node::NodeOptions bridge_options = scenario_node(MobilityClass::kStatic);
  bridge_options.bridge.connect_retries = retry_enabled ? 1 : 0;
  auto& client = testbed.add_node("client", {0.0, 0.0},
                                  scenario_node(MobilityClass::kDynamic));
  testbed.add_node("bridge", {8.0, 0.0}, bridge_options);
  auto& server = testbed.add_node("server", {16.0, 0.0},
                                  scenario_node(MobilityClass::kStatic));
  std::vector<ChannelPtr> sessions;
  serve(server, {"echo", "", 0}, sessions);
  testbed.run_discovery_rounds(5);

  AttemptResult result;
  const double start = testbed.sim().now().seconds();
  auto connect = client.connect_blocking(server.mac(), "echo", {}, 90.0);
  if (!connect.ok()) return result;
  result.ok = true;
  result.connect_s = testbed.sim().now().seconds() - start;

  // The paper's loop: a message per second, 20 times; one-way = RTT/2.
  std::vector<double> delays =
      ping(testbed, connect.value(), 20, Bytes{0x42}, 25.0);
  for (double& d : delays) d /= 2.0;
  result.echoes = static_cast<int>(delays.size());
  result.relay_delay_ms = summarize(delays).mean * 1000.0;
  return result;
}

void e6_bridge_connection() {
  heading("E6  Bridge connection test (§4.3, Fig. 4.5) — paper Bluetooth");
  std::printf("%8s %12s %24s %20s %10s\n", "retry", "success",
              "connect time min/mean/max", "one-way delay (ms)", "echoes");
  const int attempts = 30;
  int successes[2] = {};
  Summary connect_s;
  double delay_ms = 0.0;
  for (const bool retry : {false, true}) {
    int ok = 0;
    std::vector<double> connect_times;
    std::vector<double> delays;
    std::vector<double> echoes;
    for (std::uint64_t seed = 1; seed <= attempts; ++seed) {
      const AttemptResult r = run_attempt(seed, retry);
      if (!r.ok) continue;
      ++ok;
      connect_times.push_back(r.connect_s);
      delays.push_back(r.relay_delay_ms);
      echoes.push_back(static_cast<double>(r.echoes));
    }
    const Summary ct = summarize(connect_times);
    const Summary d = summarize(delays);
    const Summary e = summarize(echoes);
    std::printf("%8s %9d/%-2d %8.1f/%5.1f/%5.1f s %20.1f %10.1f\n",
                retry ? "on" : "off", ok, attempts, ct.min, ct.mean, ct.max,
                d.mean, e.mean);
    successes[retry ? 1 : 0] = ok;
    if (!retry) {
      connect_s = ct;
      delay_ms = d.mean;
    }
  }
  // The paper's 7 of 10 is one small sample: +-0.15 around its share.
  const double share = static_cast<double>(successes[0]) / attempts;
  claim(std::abs(share - 0.7) <= 0.15,
        "7 of 10 attempts succeed without retry (§4.3)",
        strprintf("%.2f vs 0.70 +- 0.15", share));
  claim(connect_s.min >= 3.0 && connect_s.max <= 18.0,
        "a successful connection takes 3-18 s (§4.3)",
        strprintf("%.1f-%.1f s vs 3-18 s", connect_s.min, connect_s.max));
  claim(delay_ms < 100.0,
        "relaying adds a negligible delay: tens of ms (§4.3)",
        strprintf("%.1f ms vs < 100 ms", delay_ms));
  claim(successes[1] > successes[0],
        "retrying the connection lifts the success rate (§4.3)",
        strprintf("%d/%d vs > %d/%d", successes[1], attempts, successes[0],
                  attempts));
}

// --- E7a: the Fig. 5.8 decay simulation (§5.2) ------------------------------
//
// The monitored link quality is decreased artificially by 1 every second
// from 250; when it has been below 230 for more than 3 one-second samples
// the HandoverThread re-routes the connection through the second route. The
// quality first reads below 230 after 20 s, so detection lands at 21-25 s.

struct DecayResult {
  bool handover_done{false};
  double detect_s{0.0};   // decay start -> degradation detected
  double execute_s{0.0};  // degradation -> substituted connection
  bool lost_first{false};
};

DecayResult run_decay(std::uint64_t seed, bool paper_radio) {
  node::Testbed testbed{seed};
  testbed.medium().configure(paper_radio ? sim::bluetooth_params()
                                         : ideal_bluetooth());
  auto& a = testbed.add_node("a", {0.0, 0.0},
                             scenario_node(MobilityClass::kDynamic));
  auto& s = testbed.add_node("s", {4.0, 0.0},
                             scenario_node(MobilityClass::kStatic));
  testbed.add_node("c", {2.0, 3.0}, scenario_node(MobilityClass::kStatic));
  std::vector<ChannelPtr> sessions;
  serve(s, {"print", "", 0}, sessions, [](const Bytes&) {});
  testbed.run_discovery_rounds(4);

  auto connect = a.connect_blocking(s.mac(), "print", {}, 120.0);
  DecayResult result;
  if (!connect.ok()) return result;
  const ChannelPtr channel = connect.value();

  // Fig. 5.8 decay: -1 per second from 250.
  const double t0 = testbed.sim().now().seconds();
  channel->connection()->set_quality_override([t0](SimTime now) {
    return static_cast<int>(250.0 - (now.seconds() - t0));
  });

  handover::HandoverController controller{a.library(), channel, {}};
  double detected_at = -1.0;
  double done_at = -1.0;
  controller.set_event_handler([&](const handover::HandoverEvent& event) {
    using Kind = handover::HandoverEvent::Kind;
    if (event.kind == Kind::kDegradationDetected && detected_at < 0) {
      detected_at = testbed.sim().now().seconds();
    }
    if (event.kind == Kind::kHandoverComplete && done_at < 0) {
      done_at = testbed.sim().now().seconds();
    }
  });
  bool lost = false;
  channel->set_close_handler([&] { lost = done_at < 0; });
  controller.start();
  testbed.run_for(120.0);

  result.handover_done = done_at >= 0;
  result.lost_first = lost && !result.handover_done;
  if (detected_at >= 0) result.detect_s = detected_at - t0;
  if (done_at >= 0 && detected_at >= 0) result.execute_s = done_at - detected_at;
  return result;
}

void e7a_decay() {
  heading("E7a Fig. 5.8 decay simulation (threshold 230, low-count > 3)");
  std::printf("%12s %10s %14s %14s %12s\n", "radio", "handover %",
              "detect (s)", "execute (s)", "lost first %");
  const int trials = 20;
  double fast_done = 0.0;
  double detect_lo = 1e9;
  double detect_hi = 0.0;
  for (const bool paper_radio : {false, true}) {
    int done = 0;
    int lost = 0;
    std::vector<double> detect;
    std::vector<double> execute;
    for (std::uint64_t seed = 1; seed <= trials; ++seed) {
      const DecayResult r = run_decay(seed, paper_radio);
      if (r.handover_done) {
        ++done;
        detect.push_back(r.detect_s);
        execute.push_back(r.execute_s);
      }
      if (r.lost_first) ++lost;
    }
    const double detect_s = summarize(detect).mean;
    std::printf("%12s %10.0f %14.1f %14.1f %12.0f\n",
                paper_radio ? "paper BT" : "fast BT", 100.0 * done / trials,
                detect_s, summarize(execute).mean, 100.0 * lost / trials);
    if (!paper_radio) fast_done = 100.0 * done / trials;
    detect_lo = std::min(detect_lo, detect_s);
    detect_hi = std::max(detect_hi, detect_s);
  }
  note("The decay is an override on the channel, invisible to the radio");
  note("model, so the predictive observers stay silent: this is the");
  note("reactive-fallback path of the handover engine. The handover claim");
  note("reads the fast BT row; the paper BT row adds the §4.3 faults.");
  claim(fast_done == 100.0,
        "the HandoverThread re-routes the decaying connection (Fig. 5.8)",
        strprintf("%.0f%% of trials on fast BT vs 100%%", fast_done));
  claim(detect_lo >= 21.0 && detect_hi <= 25.0,
        "degradation is detected 21-25 s after the decay starts (Fig. 5.8)",
        strprintf("%.1f-%.1f s vs 21-25 s", detect_lo, detect_hi));
}

// --- E8: task migration outcome vs upload size (§5.3, Figs. 5.9/5.10) ------
//
// The paper's three regimes for the picture-analyse migration while the
// client walks away:
//  1. small upload  -> task completes before the device leaves coverage;
//  2. medium upload -> connection breaks during processing; the server
//     routes the result back through the neighbourhood;
//  3. huge upload   -> connection breaks mid-transmission; the handover
//     thread must re-establish through a neighbour node.

using migration::MigrationOutcome;

struct MigrationResult {
  MigrationOutcome::Kind kind{MigrationOutcome::Kind::kFailed};
  std::uint64_t handovers{0};
  double total_s{0.0};
};

MigrationResult run_migration(std::uint64_t seed, std::uint32_t packages,
                              double processing_per_package_s) {
  node::Testbed testbed{seed};
  testbed.medium().configure(ideal_bluetooth());
  auto& server = testbed.add_node("server", {0.0, 0.0},
                                  scenario_node(MobilityClass::kStatic));
  testbed.add_node("bridge", {8.0, 0.0},
                   scenario_node(MobilityClass::kStatic));
  auto& client = testbed.add_mobile_node(
      "client",
      std::make_shared<sim::WaypointPath>(
          std::vector<sim::WaypointPath::Waypoint>{
              {SimTime{} + seconds(0.0), {2.0, 0.0}},
              {SimTime{} + seconds(90.0), {2.0, 0.0}},
              {SimTime{} + seconds(146.0), {16.0, 0.0}},
          }),
      scenario_node(MobilityClass::kDynamic));

  migration::TaskServerConfig server_config;
  server_config.result_routing.max_attempts = 8;
  migration::TaskServer task_server{server.library(), server_config};
  task_server.start();
  testbed.run_discovery_rounds(4);

  migration::TaskClientConfig config;
  config.spec.package_count = packages;
  config.spec.package_size = 1000;
  config.spec.per_package_processing = seconds(processing_per_package_s);
  config.spec.send_interval = seconds(1.0);
  config.result_timeout = seconds(900.0);
  migration::TaskClient task_client{client.library(), server.mac(),
                                    "picture.analyse", config};
  std::optional<MigrationOutcome> outcome;
  task_client.run([&](const MigrationOutcome& o) { outcome = o; });
  testbed.run_for(950.0);

  MigrationResult result;
  if (outcome.has_value()) {
    result.kind = outcome->kind;
    result.handovers = outcome->handovers;
    result.total_s = (outcome->finished - outcome->started).count() * 1e-6;
  }
  return result;
}

void e8_migration() {
  heading("E8  Migration outcome vs upload size (client leaves at t=90 s)");
  std::printf("%12s %8s | %10s %10s %8s | %12s %10s\n", "packages",
              "upload s", "live %", "routed %", "fail %", "handovers",
              "total s");
  struct Row {
    std::uint32_t packages;
    double processing_s;  // per package
    const char* regime;
  };
  struct Shares {
    double live, routed, failed, handovers;
  };
  std::vector<Shares> shares;
  // small: everything finishes inside coverage. medium: upload finishes in
  // coverage but processing outlasts it (paper case 2 — result routed).
  // huge: the walk interrupts the upload itself (paper case 3 — handover).
  for (const Row row : {Row{20, 0.5, "small"}, Row{30, 4.0, "medium"},
                        Row{130, 0.5, "huge"}}) {
    int live = 0;
    int routed = 0;
    int failed = 0;
    std::vector<double> handovers;
    std::vector<double> totals;
    const int trials = 8;
    for (std::uint64_t seed = 1; seed <= trials; ++seed) {
      const MigrationResult o =
          run_migration(seed, row.packages, row.processing_s);
      switch (o.kind) {
        case MigrationOutcome::Kind::kCompletedLive: ++live; break;
        case MigrationOutcome::Kind::kCompletedRouted: ++routed; break;
        case MigrationOutcome::Kind::kFailed: ++failed; break;
      }
      handovers.push_back(static_cast<double>(o.handovers));
      totals.push_back(o.total_s);
    }
    const Shares s{100.0 * live / trials, 100.0 * routed / trials,
                   100.0 * failed / trials, summarize(handovers).mean};
    const std::string label =
        std::to_string(row.packages) + " (" + row.regime + ")";
    std::printf("%12s %8.0f | %10.0f %10.0f %8.0f | %12.1f %10.1f\n",
                label.c_str(),
                static_cast<double>(row.packages) /* 1 pkg/s upload */,
                s.live, s.routed, s.failed, s.handovers,
                summarize(totals).mean);
    shares.push_back(s);
  }
  claim(shares[0].live > 50.0,
        "a small task finishes inside coverage with a live result (§5.3)",
        strprintf("%.0f%% live vs > 50%%", shares[0].live));
  claim(shares[1].routed > 50.0,
        "a medium task breaks in processing; its result is routed (§5.3)",
        strprintf("%.0f%% routed vs > 50%%", shares[1].routed));
  claim(shares[2].handovers >= 1.0 && shares[2].failed < 50.0,
        "a huge task breaks mid-upload; the handover re-establishes it "
        "(§5.3)",
        strprintf("%.1f handovers, %.0f%% failed vs >= 1, < 50%%",
                  shares[2].handovers, shares[2].failed));
}

// --- E9: coverage amplification (Fig. 6.1) ----------------------------------
//
// A tunnel without GPRS signal is covered by a chain of Bluetooth bridge
// nodes leading to a server outside that owns the GPRS uplink. A phone deep
// in the tunnel reaches the GPRS network by bridging hop by hop to the
// server; long jump chains multiply the connection time (§5.3).

struct TunnelResult {
  bool reachable{false};   // route known to the phone
  bool connected{false};   // end-to-end chain established
  double connect_s{0.0};
  double rtt_ms{0.0};
};

// depth = number of bridge nodes between the phone and the tunnel mouth.
TunnelResult run_tunnel(std::uint64_t seed, int depth, bool paper_radio) {
  node::Testbed testbed{seed};
  testbed.medium().configure(paper_radio ? sim::bluetooth_params()
                                         : ideal_bluetooth());
  // Gateway server at the tunnel mouth (x = 0), bridges every 8 m inward,
  // phone 6 m past the last bridge.
  auto& gateway = testbed.add_node("gateway", {0.0, 0.0},
                                   scenario_node(MobilityClass::kStatic));
  for (int i = 1; i <= depth; ++i) {
    testbed.add_node("bt" + std::to_string(i), {8.0 * i, 0.0},
                     scenario_node(MobilityClass::kStatic));
  }
  auto& phone = testbed.add_node("phone", {8.0 * depth + 6.0, 0.0},
                                 scenario_node(MobilityClass::kDynamic));
  // The gateway's GPRS uplink echoes to model the round trip to the
  // outside network.
  std::vector<ChannelPtr> sessions;
  serve(gateway, {"gprs.uplink", "gateway", 0}, sessions);
  testbed.run_discovery_rounds(depth + 5);

  TunnelResult result;
  const auto record = phone.daemon().storage().find(gateway.mac());
  result.reachable = record.has_value() && record->provides("gprs.uplink");
  if (!result.reachable) return result;

  const double start = testbed.sim().now().seconds();
  auto connect =
      phone.connect_blocking(gateway.mac(), "gprs.uplink", {}, 300.0);
  if (!connect.ok()) return result;
  result.connected = true;
  result.connect_s = testbed.sim().now().seconds() - start;

  std::vector<double> rtts =
      ping(testbed, connect.value(), 10, Bytes(100, 0x11), 15.0);
  for (double& r : rtts) r *= 1000.0;
  result.rtt_ms = summarize(rtts).mean;
  return result;
}

void e9_coverage() {
  heading("E9  Coverage amplification (Fig. 6.1): tunnel bridge chain");
  std::printf("%8s %8s | %10s %10s %14s %10s\n", "radio", "bridges",
              "route %", "connect %", "connect (s)", "RTT (ms)");
  const std::vector<int> depths = {1, 2, 3, 4};
  double route_min = 100.0;
  std::vector<double> connect_s[2];    // per radio: fast, paper
  std::vector<double> connect_pct[2];
  for (const bool paper_radio : {false, true}) {
    for (const int depth : depths) {
      int reachable = 0;
      int connected = 0;
      std::vector<double> connect_times;
      std::vector<double> rtts;
      const int trials = 8;
      for (std::uint64_t seed = 1; seed <= trials; ++seed) {
        const TunnelResult r = run_tunnel(seed, depth, paper_radio);
        if (r.reachable) ++reachable;
        if (r.connected) {
          ++connected;
          connect_times.push_back(r.connect_s);
          rtts.push_back(r.rtt_ms);
        }
      }
      const double route_pct = 100.0 * reachable / trials;
      connect_pct[paper_radio].push_back(100.0 * connected / trials);
      connect_s[paper_radio].push_back(summarize(connect_times).mean);
      std::printf("%8s %8d | %10.0f %10.0f %14.1f %10.1f\n",
                  paper_radio ? "paper" : "fast", depth, route_pct,
                  connect_pct[paper_radio].back(),
                  connect_s[paper_radio].back(), summarize(rtts).mean);
      route_min = std::min(route_min, route_pct);
    }
  }
  claim(route_min == 100.0,
        "discovery reaches the phone at any depth (Fig. 6.1)",
        strprintf("route %.0f%% at worst vs 100%%", route_min));
  claim_trend("chain setup time grows with the hop count (§5.3), fast radio",
              connect_s[0], depths, "%.1f s", "bridges");
  claim_trend("chain setup time grows with the hop count (§5.3), paper radio",
              connect_s[1], depths, "%.1f s", "bridges");
  claim_trend("with the paper's Bluetooth, deeper chains fail setup more often",
              connect_pct[1], depths, "%.0f%%", "bridges", /*falling=*/true);
}

// --- E10: split vs unified information fetch (§3.4.1, Fig. 3.7) -------------
//
// "we could unify these 4 short connections to an only one longer
// connection to get a more reliable value". With a per-connection fault
// probability p, a split update of four exchanges aborts with probability
// 1-(1-p)^4, a unified one with p: fewer failure points and less air time,
// at the cost of a longer critical section.

struct FetchResult {
  double convergence_s{-1.0};
  std::uint64_t fetch_attempts{0};
  std::uint64_t updates{0};  // device updates decided
  std::uint64_t aborted{0};  // ... of which aborted
};

FetchResult run_fetch(std::uint64_t seed, bool unified, double fault_prob) {
  node::Testbed testbed{seed};
  sim::TechnologyParams bt = ideal_bluetooth();
  bt.fetch_failure_prob = fault_prob;
  testbed.medium().configure(bt);
  for (int i = 0; i < 4; ++i) {
    node::NodeOptions options = scenario_node(MobilityClass::kStatic);
    options.daemon.unified_fetch = unified;
    // The thesis's always-full fetch: with conditional fetch a stored
    // device's service check is one exchange in either mode.
    options.daemon.conditional_fetch = false;
    testbed.add_node("n" + std::to_string(i), {8.0 * i, 0.0}, options);
  }
  // Run until n0 knows the whole line (or deadline).
  auto& n0 = testbed.node("n0");
  const SimTime deadline = SimTime{} + seconds(600.0);
  while (n0.daemon().storage().size() < 3 && testbed.sim().now() < deadline) {
    testbed.run_for(1.0);
  }
  FetchResult result;
  if (n0.daemon().storage().size() >= 3) {
    result.convergence_s = testbed.sim().now().seconds();
  }
  for (node::Node* node : testbed.nodes()) {
    const Plugin::Stats& s =
        node->daemon().plugin(Technology::kBluetooth)->stats();
    result.fetch_attempts += s.fetch_attempts;
    // A failed exchange or a timeout with no retry left aborts its update.
    const std::uint64_t aborted =
        s.fetch_failures + s.fetch_timeouts - s.fetch_retries;
    result.aborted += aborted;
    result.updates += s.updates_answered + aborted;
  }
  return result;
}

void e10_fetch() {
  heading("E10 Ablation: split (4 short) vs unified information fetch");
  std::printf("%8s %10s | %16s %16s %14s %10s\n", "fault p", "mode",
              "convergence (s)", "fetch msgs", "update aborts", "predicted");
  double worst_sigmas = 0.0;
  std::string worst;
  std::string slowest;
  double slowest_gain = 1e9;
  for (const double fault : {0.02, 0.10, 0.25}) {
    double split_convergence = 0.0;
    for (const bool unified : {false, true}) {
      std::vector<double> convergence;
      std::vector<double> attempts;
      std::uint64_t updates = 0;
      std::uint64_t aborted = 0;
      const int trials = 6;
      for (std::uint64_t seed = 1; seed <= trials; ++seed) {
        const FetchResult r = run_fetch(seed, unified, fault);
        if (r.convergence_s >= 0) convergence.push_back(r.convergence_s);
        attempts.push_back(static_cast<double>(r.fetch_attempts));
        updates += r.updates;
        aborted += r.aborted;
      }
      const double share =
          static_cast<double>(aborted) / static_cast<double>(updates);
      const double predicted =
          unified ? fault : 1.0 - std::pow(1.0 - fault, 4.0);
      const double convergence_s = summarize(convergence).mean;
      std::printf("%8.2f %10s | %16.1f %16.1f %14.3f %10.3f\n", fault,
                  unified ? "unified" : "split", convergence_s,
                  summarize(attempts).mean, share, predicted);
      // Three binomial standard deviations over the updates counted.
      const double sigma = std::sqrt(predicted * (1.0 - predicted) /
                                     static_cast<double>(updates));
      if (std::abs(share - predicted) / sigma > worst_sigmas) {
        worst_sigmas = std::abs(share - predicted) / sigma;
        worst = strprintf("%.3f vs %.3f +- %.3f (%s, p = %.2f)", share,
                          predicted, 3.0 * sigma,
                          unified ? "unified" : "split", fault);
      }
      if (!unified) {
        split_convergence = convergence_s;
      } else if (split_convergence - convergence_s < slowest_gain) {
        slowest_gain = split_convergence - convergence_s;
        slowest = strprintf("unified %.1f s vs < split %.1f s at p = %.2f",
                            convergence_s, split_convergence, fault);
      }
    }
  }
  note("update aborts = share of device updates (four split exchanges or");
  note("one unified fetch) that fail; predicted = 1-(1-p)^4 split, p unified.");
  claim(worst_sigmas <= 3.0,
        "a split update aborts with 1-(1-p)^4, a unified one with p (§3.4.1)",
        worst);
  claim(slowest_gain > 0.0,
        "the unified fetch converges faster at every fault rate (§3.4.1)",
        slowest);
}

// --- E11: load-based de-rating of the advertised link quality (§4) ----------
//
// "an extra connection number/maximum connection number percentage could be
// transmitted during the device discovery process and proportionally the
// link quality parameter is decreased" to avoid the "bottle neck".
// Topology: two parallel bridges between a client and a server; one bridge
// is pre-loaded with relayed connections. Without de-rating the quality-sum
// tie-break keeps routing through the closer (busier) bridge; with de-rating
// new routes shift to the idle one.

// Adds the discovery rounds in which the client's route to the server runs
// via the busy bridge, and those via the idle one.
void run_load(std::uint64_t seed, bool derating, int& via_busy,
              int& via_idle) {
  node::Testbed testbed{seed};
  testbed.medium().configure(ideal_bluetooth());

  node::NodeOptions bridge_options = scenario_node(MobilityClass::kStatic);
  bridge_options.daemon.load_derating = derating;
  bridge_options.bridge.max_connections = 4;

  node::NodeOptions client_options = scenario_node(MobilityClass::kDynamic);
  client_options.daemon.load_derating = derating;

  auto& client = testbed.add_node("c0", {0.0, 0.0}, client_options);
  // The busy bridge sits on the straight line (best possible sum); the
  // idle one is clearly off-axis and therefore nominally worse.
  auto& busy = testbed.add_node("busy", {6.5, 0.5}, bridge_options);
  testbed.add_node("idle", {6.5, -3.5}, bridge_options);
  auto& server = testbed.add_node("server", {13.0, 0.0},
                                  scenario_node(MobilityClass::kStatic));
  std::vector<ChannelPtr> sessions;
  serve(server, {"echo", "", 0}, sessions);

  // Pre-load the busy bridge with relayed pairs so its occupancy is high.
  busy.daemon().set_load_fraction(0.75);
  testbed.run_discovery_rounds(5);

  for (int i = 0; i < 6; ++i) {
    const auto record = client.daemon().storage().find(server.mac());
    if (!record.has_value() || record->is_direct()) continue;
    ++(record->bridge == busy.mac() ? via_busy : via_idle);
    testbed.run_discovery_rounds(1);
  }
}

void e11_load() {
  heading("E11 Ablation: bridge-load de-rating of advertised quality");
  std::printf("%10s | %14s %14s\n", "derating", "via busy (%)",
              "via idle (%)");
  double busy_pct[2] = {};
  for (const bool derating : {false, true}) {
    int busy_total = 0;
    int idle_total = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      run_load(seed, derating, busy_total, idle_total);
    }
    const double total = std::max(busy_total + idle_total, 1);
    std::printf("%10s | %14.0f %14.0f\n", derating ? "on" : "off",
                100.0 * busy_total / total, 100.0 * idle_total / total);
    busy_pct[derating ? 1 : 0] = 100.0 * busy_total / total;
  }
  claim(busy_pct[0] > 50.0,
        "without de-rating the busy bridge keeps winning the route (§4)",
        strprintf("%.0f%% via busy vs > 50%%", busy_pct[0]));
  claim(busy_pct[1] < 50.0,
        "with de-rating by its 75% occupancy routes shift to the idle bridge",
        strprintf("%.0f%% via idle vs > 50%%", 100.0 - busy_pct[1]));
}

// --- E12: the two §5.3 result-delivery reconnection methods -----------------
//
// Method 1 ("client service"): the client registers a *visible* client
// service and the server finds it through discovery. The paper's critique:
// it "would increment the number of network service unnecessary and the
// application will be visible for the whole PeerHood network" ("target of
// possible attacks"). Method 2 ("connection parameters"): the client pushes
// its reconnection parameters in the connect handshake; the paper calls it
// "the best option".

using handover::ReconnectMethod;

// Adds one to `delivered` if the result reaches the client, and one to
// `visible` if an unrelated node can see the client's callback service (the
// Method 1 visibility cost).
void run_reconnect(std::uint64_t seed, ReconnectMethod method, int& delivered,
                   int& visible) {
  node::Testbed testbed{seed};
  testbed.medium().configure(ideal_bluetooth());
  auto& client = testbed.add_node("client", {0.0, 0.0},
                                  scenario_node(MobilityClass::kDynamic));
  auto& server = testbed.add_node("server", {5.0, 0.0},
                                  scenario_node(MobilityClass::kStatic));
  auto& observer = testbed.add_node("observer", {-5.0, 0.0},
                                    scenario_node(MobilityClass::kStatic));

  const bool listed = method == ReconnectMethod::kClientService;
  bool client_got_result = false;
  std::vector<ChannelPtr> callback_sessions;
  serve(client, {"client.result", listed ? "client" : kHiddenAttribute, 0},
        callback_sessions,
        [&client_got_result](const Bytes&) { client_got_result = true; });
  ChannelPtr server_channel;
  (void)server.library().register_service(
      ServiceInfo{"compute", "", 0},
      [&](ChannelPtr channel, const wire::ConnectRequest&) {
        server_channel = channel;
      });
  testbed.run_discovery_rounds(4);

  Library::ConnectOptions options;
  options.include_client_params = method == ReconnectMethod::kClientParams;
  options.reconnect_service = "client.result";
  auto connect = client.connect_blocking(server.mac(), "compute", options);
  if (!connect.ok() || server_channel == nullptr) return;
  connect.value()->close();
  testbed.run_for(3.0);

  handover::ResultRouterConfig config;
  config.method = method;
  handover::ResultRouter router{server.library(), config};
  std::optional<Status> status;
  router.deliver(server_channel, Bytes(500, 0x33),
                 [&](Status s) { status = s; });
  testbed.run_for(120.0);
  delivered += status.has_value() && status->ok() && client_got_result;
  for (const auto& [device, service] : observer.library().get_service_list()) {
    if (service.name == "client.result") {
      ++visible;
      break;
    }
  }
}

void e12_reconnect() {
  heading("E12 Ablation: result-routing reconnect Method 1 vs Method 2");
  std::printf("%22s | %12s %22s\n", "method", "delivered %",
              "service visible to LAN %");
  double delivered_pct[2] = {};
  double visible_pct[2] = {};
  for (const ReconnectMethod method :
       {ReconnectMethod::kClientService, ReconnectMethod::kClientParams}) {
    int delivered = 0;
    int visible = 0;
    const int trials = 10;
    for (std::uint64_t seed = 1; seed <= trials; ++seed) {
      run_reconnect(seed, method, delivered, visible);
    }
    const bool first = method == ReconnectMethod::kClientService;
    std::printf("%22s | %12.0f %22.0f\n",
                first ? "1: client service" : "2: connection params",
                100.0 * delivered / trials, 100.0 * visible / trials);
    delivered_pct[first ? 0 : 1] = 100.0 * delivered / trials;
    visible_pct[first ? 0 : 1] = 100.0 * visible / trials;
  }
  claim(delivered_pct[0] == 100.0 && delivered_pct[1] == 100.0,
        "both methods deliver the result (§5.3)",
        strprintf("%.0f%% and %.0f%% vs 100%%", delivered_pct[0],
                  delivered_pct[1]));
  claim(visible_pct[0] == 100.0 && visible_pct[1] == 0.0,
        "Method 1 shows the callback service to every node, Method 2 hides "
        "it (§5.3)",
        strprintf("%.0f%% and %.0f%% vs 100%% and 0%%", visible_pct[0],
                  visible_pct[1]));
}

}  // namespace

int main() {
  e1_awareness();
  e2_notification_delay();
  e3_traffic();
  e4_route_selection();
  e5_bridge_mobility();
  e6_bridge_connection();
  e7a_decay();
  e8_migration();
  e9_coverage();
  e10_fetch();
  e11_load();
  e12_reconnect();
  return 0;
}
