#ifndef NATTO_COMMON_PARSE_NUMBER_H_
#define NATTO_COMMON_PARSE_NUMBER_H_

#include <charconv>
#include <cstdio>
#include <string_view>

#include "common/logging.h"

namespace natto {

/// Parses all of `text` as a number into `out`. An empty value, trailing
/// characters or a value out of `T`'s range is an error: it prints
/// "<name>: not a number: '<text>'" to stderr, where `name` is the flag or
/// environment variable the text came from, and returns false.
template <typename T>
bool ParseNumber(const char* name, std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (!text.empty() && ec == std::errc() && ptr == end) return true;
  std::fprintf(stderr, "%s: not a number: '%.*s'\n", name,
               static_cast<int>(text.size()), text.data());
  return false;
}

/// `text`, the value of environment variable `name`, as an integer of at
/// least `min`. A malformed or smaller value fails a NATTO_CHECK that names
/// the variable and its value.
inline int ParseEnvInt(const char* name, const char* text, int min) {
  int v = 0;
  const bool ok = ParseNumber(name, text, &v) && v >= min;
  NATTO_CHECK(ok) << name << "=" << text << " is not an integer >= " << min;
  return v;
}

}  // namespace natto

#endif  // NATTO_COMMON_PARSE_NUMBER_H_
