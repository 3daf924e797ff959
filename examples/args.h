// Strict numeric argv parsing shared by the examples. The whole argument
// must be a number inside the documented range; anything else is a usage
// error (exit 2), never a silent default: a lenient parse reads "abc" as
// 0 (turning `topobench_cli rel ... abc` into an absolute-mode query) and
// "0.05x" as 0.05.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

namespace examples {

/// Whole-string base-10 integer in [lo, hi]; false on anything else
/// (empty, leading blanks, trailing text, overflow, out of range).
inline bool parse_int(const std::string& s, long lo, long hi, long* out) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

/// Whole-string finite decimal number strictly inside (lo, hi); false on
/// anything else.
inline bool parse_double(const std::string& s, double lo, double hi,
                         double* out) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  if (!std::isfinite(v) || !(v > lo) || !(v < hi)) return false;
  *out = v;
  return true;
}

}  // namespace examples
