// Strict argument reading for the campaign CLIs: a typo must print usage
// and exit 1, never run a different campaign than the one asked for.
#ifndef EXAMPLES_CLI_ARGS_H_
#define EXAMPLES_CLI_ARGS_H_

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

namespace fst {

// Reads `s` as a whole decimal int: an optional '-' and digits, nothing
// else. False, leaving *out alone, for anything else or an out-of-range
// value.
inline bool ParseWholeInt(const char* s, int* out) {
  const char* digits = *s == '-' ? s + 1 : s;
  if (!std::isdigit(static_cast<unsigned char>(*digits))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < INT_MIN || v > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

// Reads `s` as a whole finite decimal number (strtod syntax without
// leading space). False, leaving *out alone, for anything else, an
// overflow, an infinity or a NaN.
inline bool ParseFiniteDouble(const char* s, double* out) {
  if (*s == '\0' || std::isspace(static_cast<unsigned char>(*s))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (*end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace fst

#endif  // EXAMPLES_CLI_ARGS_H_
