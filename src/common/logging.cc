#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace natto::internal_logging {

void FatalCheckFailure(const char* file, int line, const char* expr,
                       const std::string& msg) {
  std::fprintf(stderr, "[FATAL %s:%d] Check failed: %s %s\n", file, line, expr,
               msg.c_str());
  std::abort();
}

}  // namespace natto::internal_logging
