#include "util/env.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace tb::env {
namespace {

[[noreturn]] void reject(const char* name, const std::string& value,
                         const char* expected) {
  throw std::invalid_argument(std::string(name) + "=\"" + value +
                              "\" is malformed (expected " + expected + ")");
}

}  // namespace

std::optional<std::string> raw(const char* name) {
  // topobench-lint: allow(raw-getenv) the one sanctioned environment read
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

int int_knob(const char* name, int fallback, int lo, int hi) {
  const std::optional<std::string> v = raw(name);
  if (!v) return fallback;
  const std::string expected =
      "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  std::size_t pos = 0;
  long parsed = 0;
  try {
    parsed = std::stol(*v, &pos, 10);
  } catch (const std::exception&) {
    reject(name, *v, expected.c_str());
  }
  if (pos != v->size()) reject(name, *v, expected.c_str());
  if (parsed < lo || parsed > hi) reject(name, *v, expected.c_str());
  return static_cast<int>(parsed);
}

double double_knob(const char* name, double fallback, double lo, double hi) {
  const std::optional<std::string> v = raw(name);
  if (!v) return fallback;
  char lo_text[32];
  char hi_text[32];
  std::snprintf(lo_text, sizeof(lo_text), "%g", lo);
  std::snprintf(hi_text, sizeof(hi_text), "%g", hi);
  const std::string expected = std::string("a finite number in (") +
                               lo_text + ", " + hi_text + ")";
  std::size_t pos = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(*v, &pos);
  } catch (const std::exception&) {
    reject(name, *v, expected.c_str());
  }
  if (pos != v->size() || !std::isfinite(parsed) || !(parsed > lo) ||
      !(parsed < hi)) {
    reject(name, *v, expected.c_str());
  }
  return parsed;
}

bool flag_knob(const char* name, bool fallback) {
  const std::optional<std::string> v = raw(name);
  if (!v) return fallback;
  if (*v == "1") return true;
  if (*v == "0") return false;
  reject(name, *v, "\"0\" or \"1\"");
}

}  // namespace tb::env
