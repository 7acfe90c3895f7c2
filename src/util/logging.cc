#include "util/logging.h"

#include <atomic>
#include <cstdlib>
#include <iostream>

namespace granulock {
namespace {

// Read from every thread that logs (ParallelRunner workers included) and
// written by flag parsing before fan-out; atomic because no mutex guards
// it.
std::atomic<LogLevel> g_threshold{LogLevel::kInfo};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

}  // namespace

void SetLogThreshold(LogLevel level) { g_threshold.store(level); }

LogLevel GetLogThreshold() { return g_threshold.load(); }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  if (level_ >= g_threshold.load() || level_ == LogLevel::kFatal) {
    std::cerr << "[" << LevelName(level_) << " " << file_ << ":" << line_
              << "] " << stream_.str() << std::endl;
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace granulock
