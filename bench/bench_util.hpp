// Shared helpers for the benches: argument parsing, scenario builders,
// summary statistics and table printing. The paper's measured Bluetooth
// (per-hop connect 1.5-9 s, per-hop fault probability 0.16, §4.3) is
// sim::bluetooth_params() itself.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "node/testbed.hpp"

namespace peerhood::bench {

// A bench's command line: no argument runs the full workload, `--smoke` a
// tiny one. Anything else prints usage and exits 2, so a stale flag fails
// loudly instead of being ignored.
inline bool smoke_flag(int argc, char** argv) {
  if (argc == 1) return false;
  if (argc == 2 && std::strcmp(argv[1], "--smoke") == 0) return true;
  std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
  std::exit(2);
}

// Keeps a timed loop's result alive: the optimiser must assume the value is
// read, so it cannot drop the work that produced it.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct Summary {
  double mean{0.0};
  double min{0.0};
  double max{0.0};
};

inline Summary summarize(std::vector<double> values) {
  Summary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  s.mean = std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
  return s;
}

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void note(const std::string& text) {
  std::printf("    %s\n", text.c_str());
}

// Machine-readable perf record: accumulates fields, then prints one
//   BENCH_JSON {"bench":"...","n":2000,...}
// line. CI greps these lines so the perf trajectory can be tracked across
// PRs without parsing the human-readable tables.
class JsonRecord {
 public:
  explicit JsonRecord(const std::string& bench) { field("bench", bench); }

  JsonRecord& field(const std::string& key, const std::string& value) {
    add_key(key);
    body_ += '"';
    append_escaped(value);
    body_ += '"';
    return *this;
  }

  JsonRecord& field(const std::string& key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    add_key(key);
    body_ += buf;
    return *this;
  }

  JsonRecord& field(const std::string& key, bool value) {
    add_key(key);
    body_ += value ? "true" : "false";
    return *this;
  }

  // Without this, a string literal would bind to the bool overload (standard
  // conversion beats user-defined conversion to std::string).
  JsonRecord& field(const std::string& key, const char* value) {
    return field(key, std::string{value});
  }

  template <typename Int,
            typename = std::enable_if_t<std::is_integral_v<Int>>>
  JsonRecord& field(const std::string& key, Int value) {
    add_key(key);
    body_ += std::to_string(value);
    return *this;
  }

  void emit() const { std::printf("BENCH_JSON {%s}\n", body_.c_str()); }

 private:
  void add_key(const std::string& key) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    append_escaped(key);
    body_ += "\":";
  }

  void append_escaped(const std::string& text) {
    for (const char c : text) {
      if (c == '"' || c == '\\') body_ += '\\';
      body_ += c;
    }
  }

  std::string body_;
};

// Node options matching the thesis deployment: Bluetooth only, per-loop
// neighbourhood refresh.
inline node::NodeOptions scenario_node(MobilityClass mobility) {
  node::NodeOptions options;
  options.mobility = mobility;
  options.daemon.service_check_interval = seconds(5.0);
  return options;
}

// Bluetooth with stochastic faults disabled (for benches isolating protocol
// behaviour from the §4.3 fault statistics).
inline sim::TechnologyParams ideal_bluetooth() {
  sim::TechnologyParams bt = sim::bluetooth_params();
  bt.connect_failure_prob = 0.0;
  bt.fetch_failure_prob = 0.0;
  bt.connect_delay_min_s = 0.5;
  bt.connect_delay_max_s = 1.0;
  return bt;
}

}  // namespace peerhood::bench
