// realnet_node — one PeerHood daemon process on real sockets.
//
// The same protocol stack every sim scenario runs (Daemon, Engine, Plugin
// discovery, Library, BridgeService, reliable Channel) composed over
// net::PosixNetwork instead of net::SimNetwork: UDP datagrams for the
// discovery plane, framed TCP for sessions, epoll for both. Three roles:
//
//   server  registers the "echo" sink service, journals every session's
//           resume frontier to --journal, and verifies exactly-once
//           delivery of the client's counter stream — across kill -9.
//   client  discovers the server, dials "echo", streams counters 1..N over
//           a reliable channel, rides out the server's death via
//           Library::resume with the server as the hop (kResume ->
//           kUnknownSession -> kResumeRestart), then migrates the session
//           through the bridge relay (resume with the relay as the hop) and
//           streams the remainder.
//   bridge  a plain daemon whose BridgeService relays PH_BRIDGE traffic.
//
// The process speaks a line protocol on stdout (READY / PROGRESS / SRV_DONE
// / CLIENT_OK / CLIENT_DONE ...) that the integration driver
// (tests/test_realnet_integration.cpp) sequences and asserts on. Every line
// is flushed: the driver may kill -9 us at any moment, and an unflushed
// oracle line is the two-generals race the harness must not depend on.
//
// Usage:
//   realnet_node --role=server --index=2 --udp=40002 --tcp=40102 \
//                --journal=/tmp/ph.journal --total=450 \
//                --peer=1:40001:40101 --peer=3:40003:40103
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bridge/bridge_service.hpp"
#include "net/posix_network.hpp"
#include "peerhood/channel.hpp"
#include "peerhood/daemon.hpp"
#include "peerhood/library.hpp"

using namespace peerhood;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

struct Options {
  std::string role;
  std::uint64_t index{1};
  std::uint16_t udp{0};
  std::uint16_t tcp{0};
  std::string journal;
  std::uint64_t target_index{0};  // client: the server's --index
  std::uint64_t bridge_index{0};  // client: the relay's --index
  std::uint64_t phase1{0};        // client: counters sent before migration
  std::uint64_t total{0};         // grand-total counters in the stream
  std::uint64_t pace_ms{2};       // client: send cadence (kill-window width)
  std::vector<net::PosixPeer> peers;
};

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "role") {
      options.role = value;
    } else if (key == "index") {
      options.index = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "udp") {
      options.udp = static_cast<std::uint16_t>(std::atoi(value.c_str()));
    } else if (key == "tcp") {
      options.tcp = static_cast<std::uint16_t>(std::atoi(value.c_str()));
    } else if (key == "journal") {
      options.journal = value;
    } else if (key == "target") {
      options.target_index = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "bridge") {
      options.bridge_index = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "phase1") {
      options.phase1 = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "total") {
      options.total = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "pace") {
      options.pace_ms = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "peer") {
      // index:udp:tcp
      net::PosixPeer peer;
      unsigned long long idx = 0, udp = 0, tcp = 0;
      if (std::sscanf(value.c_str(), "%llu:%llu:%llu", &idx, &udp, &tcp) !=
          3) {
        return false;
      }
      peer.mac = MacAddress::from_index(idx);
      peer.udp_port = static_cast<std::uint16_t>(udp);
      peer.tcp_port = static_cast<std::uint16_t>(tcp);
      options.peers.push_back(peer);
    } else {
      return false;
    }
  }
  return !options.role.empty();
}

void say(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::fflush(stdout);  // the driver's oracle; never leave a line buffered
}

// Counter payload: [u64 counter][u64 grand_total], and counter == the
// reliable channel's sequence by construction (counters are the only frames on
// the session), so the server-side journal frontier `expected` IS the next
// counter — the identity the kill -9 oracle rests on.
Bytes encode_counter(std::uint64_t counter, std::uint64_t total) {
  ByteWriter writer;
  writer.u64(counter);
  writer.u64(total);
  return std::move(writer).take();
}

ReliableConfig snappy_reliable() {
  ReliableConfig config;
  config.ack_delay = milliseconds(30);
  config.retransmit_interval = milliseconds(250);
  config.retransmit_cap = seconds(2.0);
  return config;
}

// Everything one daemon process is made of.
struct Stack {
  std::unique_ptr<net::PosixNetwork> network;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Library> library;
  std::unique_ptr<bridge::BridgeService> bridge;

  // Binds the sockets and starts the daemon. A network that cannot bind
  // (a port in use, say) prints a FATAL line and fails before READY.
  bool open(const Options& options) {
    net::PosixConfig net_config;
    net_config.mac = MacAddress::from_index(options.index);
    net_config.udp_port = options.udp;
    net_config.tcp_port = options.tcp;
    net_config.seed = options.index;
    auto opened = net::PosixNetwork::open(net_config);
    if (!opened.ok()) {
      say("FATAL network: %s\n", opened.error().to_string().c_str());
      return false;
    }
    network = std::move(opened).value();
    for (const net::PosixPeer& peer : options.peers) {
      network->add_peer(peer);
    }

    DaemonConfig daemon_config;
    daemon_config.device_name = options.role + std::to_string(options.index);
    daemon_config.technologies = {Technology::kBluetooth};
    daemon_config.session_journal_path = options.journal;
    daemon = std::make_unique<Daemon>(*network,
                                      MacAddress::from_index(options.index),
                                      nullptr, std::move(daemon_config));
    library = std::make_unique<Library>(*daemon);
    daemon->start();
    bridge = std::make_unique<bridge::BridgeService>(*daemon);
    return true;
  }
};

// --- server ------------------------------------------------------------------

int run_server(const Options& options) {
  Stack stack;
  if (!stack.open(options)) return 1;
  Daemon& daemon = *stack.daemon;

  std::map<std::uint64_t, ChannelPtr> sessions;
  std::uint64_t expected_counter = 1;  // next counter the app should see
  std::uint64_t dup = 0;
  std::uint64_t gaps = 0;
  bool done = false;

  // On restart the journal tells us where the stream stood: frontier
  // `expected` is the next reliable seq == next counter (see
  // encode_counter). Deliveries must continue contiguously from there.
  const auto handler = [&](ChannelPtr channel,
                           const wire::ConnectRequest& request) {
    const std::uint64_t session_id = request.session_id;
    if (const SessionRecord* record =
            daemon.session_store().find(session_id)) {
      expected_counter = record->expected;
      say("RESUMED session=%llu expected=%llu\n",
          static_cast<unsigned long long>(session_id),
          static_cast<unsigned long long>(record->expected));
    }
    channel->make_reliable(stack.network->simulator(), snappy_reliable())
        .journal_to(daemon.session_store());
    channel->set_data_handler([&](const Bytes& payload) {
      ByteReader reader{payload};
      const std::uint64_t counter = reader.u64();
      const std::uint64_t total = reader.u64();
      if (!reader.ok()) return;
      if (counter < expected_counter) {
        ++dup;
      } else {
        gaps += counter - expected_counter;
        expected_counter = counter + 1;
      }
      if (counter % 50 == 0) {
        say("PROGRESS %llu\n", static_cast<unsigned long long>(counter));
      }
      if (counter == total) {
        done = true;
        say("SRV_DONE total=%llu dup=%llu gaps=%llu restart_resumes=%llu\n",
            static_cast<unsigned long long>(total),
            static_cast<unsigned long long>(dup),
            static_cast<unsigned long long>(gaps),
            static_cast<unsigned long long>(
                daemon.engine().stats().restart_resumes));
      }
    });
    // A restart-resume of a session this incarnation also held just
    // substitutes the transport, so a replaced entry is a dead channel.
    sessions[session_id] = std::move(channel);
  };

  const Status bound =
      stack.library->register_service(ServiceInfo{"echo", "sink", 9}, handler);
  if (!bound.ok()) {
    say("FATAL register_service: %s\n", bound.error().to_string().c_str());
    return 1;
  }
  say("READY udp=%u tcp=%u\n", stack.network->udp_port(),
      stack.network->tcp_port());

  while (g_stop == 0) {
    stack.network->poll_once(milliseconds(20));
    // After the stream completes, keep serving (the client's final ack
    // exchange and the driver's shutdown signal are still in flight).
    (void)done;
  }
  const net::NetStats stats = stack.network->net_stats();
  say("SRV_EXIT frames_checked=%llu corrupt=%llu queue_drops=%llu "
      "reconnects=%llu\n",
      static_cast<unsigned long long>(stats.frames_checked),
      static_cast<unsigned long long>(stats.corrupt_drops),
      static_cast<unsigned long long>(stats.send_queue_drops),
      static_cast<unsigned long long>(stats.reconnect_attempts));
  return 0;
}

// --- client ------------------------------------------------------------------

int run_client(const Options& options) {
  Stack stack;
  if (!stack.open(options)) return 1;
  const MacAddress target = MacAddress::from_index(options.target_index);
  const MacAddress relay = MacAddress::from_index(options.bridge_index);
  say("READY udp=%u tcp=%u\n", stack.network->udp_port(),
      stack.network->tcp_port());

  // Phase 0: discovery. The plugins' inquiry/fetch cycles must surface the
  // server's "echo" service before Library::connect will dial it.
  const auto discovered = [&] {
    for (const auto& [device, service] : stack.library->get_service_list()) {
      if (device.mac == target && service.name == "echo") return true;
    }
    return false;
  };
  while (!discovered()) {
    if (g_stop != 0) return 1;
    stack.network->poll_once(milliseconds(20));
  }
  say("DISCOVERED\n");

  // Phase 1: dial.
  ChannelPtr channel;
  bool connect_failed = false;
  Library::ConnectOptions connect_options;
  connect_options.timeout = seconds(20.0);
  stack.library->connect(target, "echo", connect_options,
                         [&](Result<ChannelPtr> result) {
                           if (result.ok()) {
                             channel = std::move(result).value();
                           } else {
                             say("FATAL connect: %s\n",
                                 result.error().to_string().c_str());
                             connect_failed = true;
                           }
                         });
  while (channel == nullptr && !connect_failed && g_stop == 0) {
    stack.network->poll_once(milliseconds(20));
  }
  if (channel == nullptr) return 1;
  say("CONNECTED session=%llu\n",
      static_cast<unsigned long long>(channel->session_id()));

  // The close handler signals server death.
  const ReliableChannel& reliable =
      channel->make_reliable(stack.network->simulator(), snappy_reliable());
  bool link_down = false;
  bool resume_in_flight = false;
  std::uint64_t resumes = 0;
  channel->set_close_handler([&] { link_down = true; });

  // Retry a direct resume until the restarted server answers. The library
  // handles the kResume -> kUnknownSession -> kResumeRestart ladder; we just
  // keep knocking while the process is down (connection refused).
  const auto try_resume = [&] {
    if (resume_in_flight) return;
    resume_in_flight = true;
    stack.library->resume(
        channel->peer(), channel,
        [&](Status status) {
          resume_in_flight = false;
          if (status.ok()) {
            link_down = false;
            ++resumes;
            say("RESUME_OK n=%llu\n", static_cast<unsigned long long>(resumes));
          }
        },
        seconds(5.0));
  };

  // Counter pump: paced by wall clock so the transfer spans a predictable
  // window (the driver must be able to land a kill -9 mid-stream),
  // backpressure-aware (a refused send is retried on the next tick), and
  // paused while the link is down.
  std::uint64_t next_counter = 1;
  const std::uint64_t phase1_end = options.phase1;
  const SimDuration pace = milliseconds(static_cast<std::int64_t>(
      options.pace_ms));
  SimTime next_send = stack.network->wall_now();
  const auto pump = [&](std::uint64_t limit) {
    if (link_down || next_counter > limit) return;
    if (stack.network->wall_now() < next_send) return;
    if (channel->write(encode_counter(next_counter, options.total)).ok()) {
      ++next_counter;
      next_send = stack.network->wall_now() + pace;
    }
  };

  // Phase 2: stream counters 1..phase1; survive the kill -9 in the middle.
  while ((next_counter <= phase1_end || reliable.unacked() > 0) &&
         g_stop == 0) {
    pump(phase1_end);
    if (link_down) try_resume();
    stack.network->poll_once(milliseconds(5));
  }
  if (g_stop != 0) return 1;
  say("CLIENT_OK acked=%llu resumes=%llu\n",
      static_cast<unsigned long long>(phase1_end),
      static_cast<unsigned long long>(resumes));

  // Phase 3: migrate the session through the bridge relay (§4 PH_BRIDGE +
  // §5.2.1 routing handover, on real sockets), then stream the remainder.
  bool migrated = false;
  bool migrate_failed = false;
  stack.library->resume(
      relay, channel,
      [&](Status status) {
        if (status.ok()) {
          migrated = true;
        } else {
          say("FATAL migrate: %s\n", status.error().to_string().c_str());
          migrate_failed = true;
        }
      },
      seconds(20.0));
  while (!migrated && !migrate_failed && g_stop == 0) {
    stack.network->poll_once(milliseconds(5));
  }
  if (!migrated) return 1;
  say("MIGRATED\n");

  while ((next_counter <= options.total || reliable.unacked() > 0) &&
         g_stop == 0) {
    pump(options.total);
    if (link_down) try_resume();
    stack.network->poll_once(milliseconds(5));
  }
  if (g_stop != 0) return 1;
  say("CLIENT_DONE sent=%llu resumes=%llu retransmissions=%llu\n",
      static_cast<unsigned long long>(options.total),
      static_cast<unsigned long long>(resumes),
      static_cast<unsigned long long>(reliable.retransmissions()));
  return 0;
}

// --- bridge ------------------------------------------------------------------

int run_bridge(const Options& options) {
  Stack stack;
  if (!stack.open(options)) return 1;
  stack.bridge->start();
  say("READY udp=%u tcp=%u\n", stack.network->udp_port(),
      stack.network->tcp_port());
  while (g_stop == 0) {
    stack.network->poll_once(milliseconds(20));
  }
  const bridge::BridgeService::Stats& stats = stack.bridge->stats();
  say("BRIDGE_EXIT established=%llu relayed_frames=%llu\n",
      static_cast<unsigned long long>(stats.established),
      static_cast<unsigned long long>(stats.relayed_frames));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: %s --role=server|client|bridge --index=N --udp=P "
                 "--tcp=P [--journal=FILE] [--target=N] [--bridge=N] "
                 "[--phase1=N] [--total=N] --peer=IDX:UDP:TCP ...\n",
                 argv[0]);
    return 2;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  if (options.role == "server") return run_server(options);
  if (options.role == "client") return run_client(options);
  if (options.role == "bridge") return run_bridge(options);
  std::fprintf(stderr, "unknown role '%s'\n", options.role.c_str());
  return 2;
}
