#include "src/util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace ddr {
namespace {

// Serializes log lines so concurrent fibers/threads do not interleave output.
std::mutex& LogMutex() {
  static std::mutex mu;
  return mu;
}

char SeverityLetter(LogSeverity severity) {
  switch (severity) {
    case LogSeverity::kDebug:
      return 'D';
    case LogSeverity::kInfo:
      return 'I';
    case LogSeverity::kWarning:
      return 'W';
    case LogSeverity::kError:
      return 'E';
    case LogSeverity::kFatal:
      return 'F';
  }
  return '?';
}

}  // namespace

namespace logging_internal {

const char* ShortFileName(const char* file) {
  const char* slash = std::strrchr(file, '/');
  return slash != nullptr ? slash + 1 : file;
}

}  // namespace logging_internal

LogMessage::LogMessage(const char* file, int line, LogSeverity severity)
    : file_(file), line_(line), severity_(severity) {}

LogMessage::~LogMessage() {
  // kDebug messages are discarded.
  if (severity_ >= LogSeverity::kInfo) {
    std::lock_guard<std::mutex> lock(LogMutex());
    std::fprintf(stderr, "[%c %s:%d] %s\n", SeverityLetter(severity_),
                 logging_internal::ShortFileName(file_), line_, stream_.str().c_str());
    std::fflush(stderr);
  }
  if (severity_ == LogSeverity::kFatal) {
    std::abort();
  }
}

}  // namespace ddr
