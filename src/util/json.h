// Minimal strict JSON for the topobench_server wire protocol: a tagged
// value type, a recursive-descent parser, and a deterministic serializer.
//
// Determinism: objects preserve insertion/document order in an ordered
// vector of (key, value) pairs — never a hash map — so serializing a value
// is a pure function of how it was built and replaying a request script
// yields byte-identical responses. Numbers serialize with %.17g (the CSV
// writers' discipline: every finite double round-trips exactly).
//
// Strictness: parse() accepts exactly one RFC-8259 text (objects, arrays,
// strings with \uXXXX escapes decoded to UTF-8, numbers, true/false/null)
// followed by optional whitespace, rejects everything else with
// std::invalid_argument naming the byte offset, and caps nesting depth so
// hostile input cannot blow the stack. No NaN/Infinity literals exist in
// JSON; absent metrics are published as null by the callers.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace tb::json {

enum class Kind { Null, Bool, Number, String, Array, Object };

/// One JSON value. Members are public and callers build values directly;
/// the static factories below just make call sites readable.
struct Value {
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> items;                                ///< Kind::Array
  std::vector<std::pair<std::string, Value>> members;      ///< Kind::Object

  static Value null();
  static Value boolean_v(bool b);
  static Value number_v(double v);
  static Value string_v(std::string s);
  static Value array();
  static Value object();

  /// Object member lookup (first match, document order); nullptr when this
  /// is not an object or the key is absent.
  const Value* find(const std::string& key) const;

  /// Append a member (objects) — no duplicate-key checking; the protocol
  /// layer controls its own keys.
  void set(std::string key, Value v);

  // Checked accessors for protocol decoding: throw std::invalid_argument
  // naming `what` when the value is not of the requested kind.
  const std::string& as_string(const char* what) const;
  double as_number(const char* what) const;
  bool as_bool(const char* what) const;
  /// as_number plus an integrality + range check.
  long as_int(const char* what, long lo, long hi) const;
};

/// Parse exactly one JSON text (plus trailing whitespace). Throws
/// std::invalid_argument with a byte offset on any violation.
Value parse(const std::string& text);

/// Serialize deterministically: object members in stored order, numbers
/// %.17g (integers render without exponent), strings escaped per escape().
std::string dump(const Value& v);

/// JSON string-literal escaping of `s` (no surrounding quotes): the two
/// mandatory escapes, \n \r \t, and \u00XX for remaining control bytes.
std::string escape(const std::string& s);

}  // namespace tb::json
