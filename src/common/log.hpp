// Lightweight leveled logger. Simulation components tag messages with the
// simulated clock so traces read like the paper's activity diagrams.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

#include "common/sim_time.hpp"

namespace peerhood {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  static Logger& instance();

  [[nodiscard]] LogLevel level() const { return level_; }

  [[nodiscard]] bool enabled(LogLevel level) const { return level >= level_; }

  void write(LogLevel level, SimTime now, std::string_view component,
             std::string_view message);

 private:
  LogLevel level_{LogLevel::kWarn};
};

// Streams `parts...` into a single log line when the level is enabled.
template <typename... Parts>
void log(LogLevel level, SimTime now, std::string_view component,
         const Parts&... parts) {
  Logger& logger = Logger::instance();
  if (!logger.enabled(level)) return;
  std::ostringstream os;
  (os << ... << parts);
  logger.write(level, now, component, os.str());
}

}  // namespace peerhood
