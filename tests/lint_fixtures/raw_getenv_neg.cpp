// Fixture (never compiled): strict loaders and lookalikes are fine.
#include <optional>
#include <string>

#include "util/env.h"

double eps_from_env() {
  // Prose naming std::getenv never trips the rule.
  return tb::env::double_knob("TOPOBENCH_EPS", 0.1, 0.0, 0.5);
}

std::optional<std::string> shard_from_env() {
  const char* note = "getenv(\"TOPOBENCH_SHARD\") in a string";
  (void)note;
  return tb::env::raw("TOPOBENCH_SHARD");
}

int my_getenv_count = 0;  // an identifier merely containing the name
