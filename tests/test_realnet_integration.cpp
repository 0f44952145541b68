// Three-process localhost integration: the crash contract on real sockets.
//
// Spawns three realnet_node processes (server, bridge relay, client) on
// kernel-granted loopback ports, then drives the full arc over actual UDP +
// TCP: discovery, dial, a reliable counter stream, kill -9 of the server
// MID-TRANSFER, restart from the on-disk SessionStore journal, recovery via
// the kResume -> kUnknownSession -> kResumeRestart ladder, a bridged
// session migration (Library::resume with the relay as the hop), and stream
// completion. The oracle:
//
//   * the client reports every counter acked, with >= 1 successful resume;
//   * the restarted server incarnation verifies the delivered counter
//     stream is contiguous from its journalled frontier — dup=0 gaps=0 —
//     and that the session came back through the restart-resume path.
//
// Counter == reliable sequence by construction, and only the restarted
// incarnation's self-check is trusted: lines the first incarnation printed
// before dying prove nothing (a kill -9 can land between a delivery and its
// journal write — that at-least-once sliver is exactly what the resume
// protocol's dedup absorbs, and what this test pins down).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Asks the kernel for a currently free TCP or UDP port. The tiny window
// between close and reuse is acceptable for a localhost test.
std::uint16_t free_port(int type) {
  const int fd = ::socket(AF_INET, type, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

struct NodePorts {
  std::uint16_t udp;
  std::uint16_t tcp;
};

class RealnetHarness {
 public:
  RealnetHarness() {
    binary_ = std::getenv("REALNET_NODE") != nullptr
                  ? std::getenv("REALNET_NODE")
                  : "";
    // One directory per harness instance — logs and the journal must not
    // leak between test cases (a stale journal is a real scenario, but one
    // tested deliberately, not by accident).
    std::string tmpl = ::testing::TempDir() + "realnet_XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      tmpl = ::testing::TempDir() + "realnet_fallback";
      (void)::mkdir(tmpl.c_str(), 0755);
    }
    dir_ = tmpl;
    for (auto& ports : ports_) {
      ports = NodePorts{free_port(SOCK_DGRAM), free_port(SOCK_STREAM)};
    }
  }

  ~RealnetHarness() {
    for (const pid_t pid : pids_) {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
  }

  [[nodiscard]] const std::string& binary() const { return binary_; }
  [[nodiscard]] std::string journal() const { return dir_ + "/server.journal"; }
  [[nodiscard]] std::string log_path(const std::string& name) const {
    return dir_ + "/" + name + ".log";
  }

  // Spawns a realnet_node role; stdout+stderr append to its log file
  // (append, so a restarted server writes below its first incarnation).
  pid_t spawn(const std::string& name, std::vector<std::string> args) {
    args.insert(args.begin(), binary_);
    const pid_t pid = ::fork();
    if (pid == 0) {
      const int fd = ::open(log_path(name).c_str(),
                            O_WRONLY | O_CREAT | O_APPEND, 0644);
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(binary_.c_str(), argv.data());
      std::perror("execv");
      ::_exit(127);
    }
    pids_.push_back(pid);
    return pid;
  }

  // Shared topology arguments for node `index` (1=client 2=server 3=bridge).
  std::vector<std::string> node_args(int index) {
    std::vector<std::string> args{
        "--index=" + std::to_string(index),
        "--udp=" + std::to_string(ports_[index - 1].udp),
        "--tcp=" + std::to_string(ports_[index - 1].tcp),
    };
    for (int peer = 1; peer <= 3; ++peer) {
      if (peer == index) continue;
      args.push_back("--peer=" + std::to_string(peer) + ":" +
                     std::to_string(ports_[peer - 1].udp) + ":" +
                     std::to_string(ports_[peer - 1].tcp));
    }
    return args;
  }

  // Polls `name`'s log until `needle` appears. Returns false on deadline.
  bool wait_for(const std::string& name, const std::string& needle,
                int deadline_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (read_file(log_path(name)).find(needle) != std::string::npos) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  // Waits until the PROGRESS counter crosses `threshold` — "mid-transfer".
  bool wait_for_progress(const std::string& name, std::uint64_t threshold,
                         int deadline_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      std::istringstream lines{read_file(log_path(name))};
      std::string line;
      while (std::getline(lines, line)) {
        unsigned long long counter = 0;
        if (std::sscanf(line.c_str(), "PROGRESS %llu", &counter) == 1 &&
            counter >= threshold) {
          return true;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  void forget(pid_t pid) {
    for (pid_t& tracked : pids_) {
      if (tracked == pid) tracked = -1;
    }
  }

  std::string dump_logs() {
    std::string out;
    for (const char* name : {"server", "bridge", "client"}) {
      out += "--- " + std::string(name) + " ---\n" + read_file(log_path(name));
    }
    return out;
  }

 private:
  std::string binary_;
  std::string dir_;
  NodePorts ports_[3]{};
  std::vector<pid_t> pids_;
};

TEST(RealnetIntegration, CrashMidTransferRecoversExactlyOnce) {
  RealnetHarness harness;
  ASSERT_FALSE(harness.binary().empty())
      << "REALNET_NODE env var not set (see CMakeLists test properties)";

  constexpr std::uint64_t kPhase1 = 400;  // counters before the migration
  constexpr std::uint64_t kTotal = 450;   // grand total across both phases

  // Phase A: server + bridge come up and bind their ports.
  auto server_args = harness.node_args(2);
  server_args.push_back("--role=server");
  server_args.push_back("--journal=" + harness.journal());
  const pid_t server1 = harness.spawn("server", server_args);
  auto bridge_args = harness.node_args(3);
  bridge_args.push_back("--role=bridge");
  harness.spawn("bridge", bridge_args);
  ASSERT_TRUE(harness.wait_for("server", "READY")) << harness.dump_logs();
  ASSERT_TRUE(harness.wait_for("bridge", "READY")) << harness.dump_logs();

  // Phase B: client discovers over real UDP beacons/fetches, dials over
  // real TCP, and starts the reliable counter stream.
  auto client_args = harness.node_args(1);
  client_args.push_back("--role=client");
  client_args.push_back("--target=2");
  client_args.push_back("--bridge=3");
  client_args.push_back("--phase1=" + std::to_string(kPhase1));
  client_args.push_back("--total=" + std::to_string(kTotal));
  const pid_t client = harness.spawn("client", client_args);
  ASSERT_TRUE(harness.wait_for("client", "DISCOVERED")) << harness.dump_logs();
  ASSERT_TRUE(harness.wait_for("client", "CONNECTED")) << harness.dump_logs();

  // Phase C: kill -9 the server mid-transfer — after it has delivered and
  // journalled a meaningful prefix, well before the stream ends.
  ASSERT_TRUE(harness.wait_for_progress("server", 100))
      << harness.dump_logs();
  ASSERT_EQ(::kill(server1, SIGKILL), 0);
  ASSERT_EQ(::waitpid(server1, nullptr, 0), server1);
  harness.forget(server1);

  // Phase D: restart the server on the same ports with the same journal.
  // The client has been knocking with a direct resume the whole time.
  const pid_t server2 = harness.spawn("server", server_args);
  ASSERT_TRUE(harness.wait_for("server", "RESUMED", 60000))
      << harness.dump_logs();

  // Phase E: recovery + bridged migration + completion.
  ASSERT_TRUE(harness.wait_for("client", "CLIENT_OK", 60000))
      << harness.dump_logs();
  ASSERT_TRUE(harness.wait_for("client", "MIGRATED", 60000))
      << harness.dump_logs();
  ASSERT_TRUE(harness.wait_for("client", "CLIENT_DONE", 60000))
      << harness.dump_logs();
  ASSERT_TRUE(harness.wait_for("server", "SRV_DONE", 60000))
      << harness.dump_logs();

  // The client exits 0 with every counter acked.
  int client_status = 0;
  ASSERT_EQ(::waitpid(client, &client_status, 0), client);
  harness.forget(client);
  EXPECT_TRUE(WIFEXITED(client_status) && WEXITSTATUS(client_status) == 0)
      << harness.dump_logs();

  const std::string client_log = read_file(harness.log_path("client"));
  EXPECT_NE(client_log.find("CLIENT_OK acked=400"), std::string::npos)
      << client_log;
  // At least one successful resume — the kill -9 really interrupted it.
  EXPECT_EQ(client_log.find("resumes=0\n"), std::string::npos) << client_log;

  // The restarted incarnation's self-check: the delivered stream continued
  // contiguously from the journalled frontier, exactly once, and arrived
  // through the kResumeRestart journal path.
  const std::string server_log = read_file(harness.log_path("server"));
  EXPECT_NE(server_log.find("RESUMED session="), std::string::npos)
      << server_log;
  EXPECT_NE(server_log.find("SRV_DONE total=450 dup=0 gaps=0"),
            std::string::npos)
      << server_log;
  EXPECT_NE(server_log.find("restart_resumes=1"), std::string::npos)
      << server_log;

  // Orderly shutdown of the survivors.
  ::kill(server2, SIGTERM);
  harness.wait_for("server", "SRV_EXIT", 5000);
}

// Crash soak: the server is kill -9'd twice during the same reliable
// stream; every incarnation recovers from the journal and the stream still
// arrives exactly-once. No bridge migration here — the second kill leaves
// phase 2 as the whole test.
TEST(RealnetIntegration, RepeatedKillsStillExactlyOnce) {
  RealnetHarness harness;
  ASSERT_FALSE(harness.binary().empty())
      << "REALNET_NODE env var not set (see CMakeLists test properties)";

  constexpr std::uint64_t kTotal = 500;

  auto server_args = harness.node_args(2);
  server_args.push_back("--role=server");
  server_args.push_back("--journal=" + harness.journal());
  pid_t server = harness.spawn("server", server_args);
  auto bridge_args = harness.node_args(3);
  bridge_args.push_back("--role=bridge");
  harness.spawn("bridge", bridge_args);
  ASSERT_TRUE(harness.wait_for("server", "READY")) << harness.dump_logs();

  auto client_args = harness.node_args(1);
  client_args.push_back("--role=client");
  client_args.push_back("--target=2");
  client_args.push_back("--bridge=3");
  // phase1 == total: the stream ends before the migration leg would start.
  client_args.push_back("--phase1=" + std::to_string(kTotal));
  client_args.push_back("--total=" + std::to_string(kTotal));
  client_args.push_back("--pace=4");  // wide kill windows
  const pid_t client = harness.spawn("client", client_args);
  ASSERT_TRUE(harness.wait_for("client", "CONNECTED")) << harness.dump_logs();

  for (const std::uint64_t threshold : {std::uint64_t{100},
                                        std::uint64_t{250}}) {
    ASSERT_TRUE(harness.wait_for_progress("server", threshold))
        << harness.dump_logs();
    ASSERT_EQ(::kill(server, SIGKILL), 0);
    ASSERT_EQ(::waitpid(server, nullptr, 0), server);
    harness.forget(server);
    server = harness.spawn("server", server_args);
  }

  ASSERT_TRUE(harness.wait_for("client", "CLIENT_OK", 60000))
      << harness.dump_logs();
  ASSERT_TRUE(harness.wait_for("server", "SRV_DONE", 60000))
      << harness.dump_logs();

  int client_status = 0;
  ASSERT_EQ(::waitpid(client, &client_status, 0), client);
  harness.forget(client);
  EXPECT_TRUE(WIFEXITED(client_status) && WEXITSTATUS(client_status) == 0)
      << harness.dump_logs();

  const std::string server_log = read_file(harness.log_path("server"));
  // Two restarts, each recovered through the journal; the final stream
  // check sees neither duplicates nor gaps.
  std::size_t resumed_lines = 0;
  for (std::size_t at = server_log.find("RESUMED session=");
       at != std::string::npos;
       at = server_log.find("RESUMED session=", at + 1)) {
    ++resumed_lines;
  }
  EXPECT_EQ(resumed_lines, 2u) << server_log;
  EXPECT_NE(server_log.find("SRV_DONE total=500 dup=0 gaps=0"),
            std::string::npos)
      << server_log;

  ::kill(server, SIGTERM);
  harness.wait_for("server", "SRV_EXIT", 5000);
}

}  // namespace
