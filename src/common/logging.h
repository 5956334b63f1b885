#ifndef NATTO_COMMON_LOGGING_H_
#define NATTO_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace natto::internal_logging {

[[noreturn]] void FatalCheckFailure(const char* file, int line,
                                    const char* expr, const std::string& msg);

/// Sink for release-build NATTO_DCHECK: accepts any streamed operand chain
/// without evaluating it (the whole statement sits behind `while (false)`,
/// so neither the condition nor the operands ever run).
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

class CheckMessage {
 public:
  CheckMessage(const char* file, int line, const char* expr)
      : file_(file), line_(line), expr_(expr) {}
  [[noreturn]] ~CheckMessage() {
    FatalCheckFailure(file_, line_, expr_, stream_.str());
  }

  template <typename T>
  CheckMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  const char* expr_;
  std::ostringstream stream_;
};

}  // namespace natto::internal_logging

/// Fatal assertion, always on. Streams an optional explanation:
///   NATTO_CHECK(a < b) << "details";
#define NATTO_CHECK(expr)                                             \
  if (expr) {                                                         \
  } else                                                              \
    ::natto::internal_logging::CheckMessage(__FILE__, __LINE__, #expr)

/// Debug-only assertion. In NDEBUG builds it is a true no-op: the condition
/// and any streamed operands are typechecked but never evaluated (the
/// `false &&` short-circuits at compile time and the dead `while` body is
/// eliminated), and no check plumbing is instantiated.
#ifdef NDEBUG
#define NATTO_DCHECK(expr)       \
  while (false && bool(expr)) ::natto::internal_logging::NullStream()
#else
#define NATTO_DCHECK(expr) NATTO_CHECK(expr)
#endif

#endif  // NATTO_COMMON_LOGGING_H_
