// Minimal leveled logging and assertion macros for the ddr toolkit.
//
// LOG(INFO) << "message";            leveled logging to stderr
// CHECK(cond) << "detail";           fatal if cond is false (always on)
// CHECK_EQ(a, b) / CHECK_NE / ...    fatal comparisons, print both operands
// DCHECK(cond)                       CHECK in debug builds, no-op in NDEBUG
//
// FATAL log messages abort the process after flushing.

#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

#include <cstdint>
#include <sstream>
#include <string>

namespace ddr {

enum class LogSeverity : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

// Accumulates one log line and emits it (to stderr) on destruction.
class LogMessage {
 public:
  LogMessage(const char* file, int line, LogSeverity severity);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  const char* file_;
  int line_;
  LogSeverity severity_;
  std::ostringstream stream_;
};

// Swallows a log stream; used for disabled DCHECKs.
class LogMessageVoidify {
 public:
  void operator&(std::ostream&) {}
};

namespace logging_internal {

// Returns a short file name (basename) for log prefixes.
const char* ShortFileName(const char* file);

}  // namespace logging_internal

#define DDR_LOG_DEBUG ::ddr::LogSeverity::kDebug
#define DDR_LOG_INFO ::ddr::LogSeverity::kInfo
#define DDR_LOG_WARNING ::ddr::LogSeverity::kWarning
#define DDR_LOG_ERROR ::ddr::LogSeverity::kError
#define DDR_LOG_FATAL ::ddr::LogSeverity::kFatal

#define LOG(severity) ::ddr::LogMessage(__FILE__, __LINE__, DDR_LOG_##severity).stream()

#define LOG_IF(severity, cond) \
  !(cond) ? (void)0 : ::ddr::LogMessageVoidify() & LOG(severity)

#define CHECK(cond)                                                               \
  (cond) ? (void)0                                                               \
         : ::ddr::LogMessageVoidify() &                                          \
               ::ddr::LogMessage(__FILE__, __LINE__, ::ddr::LogSeverity::kFatal) \
                   .stream()                                                     \
               << "Check failed: " #cond " "

#define DDR_CHECK_OP(name, op, a, b)                                              \
  ((a)op(b)) ? (void)0                                                           \
             : ::ddr::LogMessageVoidify() &                                      \
                   ::ddr::LogMessage(__FILE__, __LINE__,                         \
                                     ::ddr::LogSeverity::kFatal)                 \
                       .stream()                                                 \
                   << "Check failed: " #a " " #op " " #b " (" << (a) << " vs. " \
                   << (b) << ") "

#define CHECK_EQ(a, b) DDR_CHECK_OP(EQ, ==, a, b)
#define CHECK_NE(a, b) DDR_CHECK_OP(NE, !=, a, b)
#define CHECK_LE(a, b) DDR_CHECK_OP(LE, <=, a, b)
#define CHECK_LT(a, b) DDR_CHECK_OP(LT, <, a, b)
#define CHECK_GE(a, b) DDR_CHECK_OP(GE, >=, a, b)
#define CHECK_GT(a, b) DDR_CHECK_OP(GT, >, a, b)

#ifdef NDEBUG
#define DCHECK(cond) \
  while (false) CHECK(cond)
#define DCHECK_EQ(a, b) \
  while (false) CHECK_EQ(a, b)
#define DCHECK_NE(a, b) \
  while (false) CHECK_NE(a, b)
#define DCHECK_LE(a, b) \
  while (false) CHECK_LE(a, b)
#define DCHECK_LT(a, b) \
  while (false) CHECK_LT(a, b)
#define DCHECK_GE(a, b) \
  while (false) CHECK_GE(a, b)
#define DCHECK_GT(a, b) \
  while (false) CHECK_GT(a, b)
#else
#define DCHECK(cond) CHECK(cond)
#define DCHECK_EQ(a, b) CHECK_EQ(a, b)
#define DCHECK_NE(a, b) CHECK_NE(a, b)
#define DCHECK_LE(a, b) CHECK_LE(a, b)
#define DCHECK_LT(a, b) CHECK_LT(a, b)
#define DCHECK_GE(a, b) CHECK_GE(a, b)
#define DCHECK_GT(a, b) CHECK_GT(a, b)
#endif

}  // namespace ddr

#endif  // SRC_UTIL_LOGGING_H_
