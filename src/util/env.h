// Single-point, strict environment-knob loaders. Configuration structs
// (exp::RunOptions, api::ServiceConfig), the sweep-shape knobs of
// exp/sweep.h and the bench drivers' gates call these, so every
// TOPOBENCH_* variable is parsed in exactly one place with one failure
// policy: unset means the documented default, and a set but malformed or
// out-of-range value throws std::invalid_argument naming the variable and
// the offending text. A fleet must fail loudly, not silently fall back to
// a default that changes which work gets done. raw() holds the only
// getenv call (topobench_lint's raw-getenv rule).
#pragma once

#include <optional>
#include <string>

namespace tb::env {

/// Raw value of `name`, or nullopt when unset. Empty string counts as set.
std::optional<std::string> raw(const char* name);

/// Integer knob: unset -> `fallback`; otherwise the value must parse fully
/// as a base-10 integer in [lo, hi] or the call throws
/// std::invalid_argument naming the variable.
int int_knob(const char* name, int fallback, int lo, int hi);

/// Real knob: unset -> `fallback`; otherwise the value must parse fully as
/// a finite decimal number strictly inside (lo, hi) (`hi` may be
/// infinity) or the call throws std::invalid_argument naming the variable.
double double_knob(const char* name, double fallback, double lo, double hi);

/// Boolean knob: unset -> `fallback`; otherwise the value must be exactly
/// "0" or "1" (the only spellings the docs advertise) or the call throws
/// std::invalid_argument naming the variable.
bool flag_knob(const char* name, bool fallback);

}  // namespace tb::env
