// Fixture (never compiled): raw-getenv positives.
#include <cstdlib>

double eps_from_env() {
  const char* s = std::getenv("TOPOBENCH_EPS");  // line 5: hit
  return s ? std::strtod(s, nullptr) : 0.1;
}

const char* shard_from_env() {
  return getenv("TOPOBENCH_SHARD");  // line 10: hit
}

const char* secure_read() { return secure_getenv("HOME"); }  // line 13: hit
