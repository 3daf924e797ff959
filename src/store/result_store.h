// On-disk content-addressed result store: the Runner's in-process cache
// promoted to a file, so repeat questions across processes are answered in
// O(lookup) instead of O(solve).
//
// Keys are the Runner's cache identity (topology label, TM label, scenario
// label, cell seed, solver/cut/scenario configuration fingerprint, trial
// count — see exp::cell_result_key); values are the uniform CSV row codec
// (exp::csv_row / exp::cell_from_csv_row), so a stored CellResult replays
// bit-exactly: a sweep answered from the store emits byte-identical CSV.
//
// File format (version 1) — a single append-only text-framed file:
//
//   #! topobench-store v1 schema=<16-hex FNV-1a of the CSV header>
//   @ <key_len> <value_len> <16-hex FNV-1a of key+'\x1f'+value>
//   <key bytes>
//   <value bytes>
//   @ ...
//
// The lengths are authoritative (keys/values may legally contain newlines
// via RFC-4180 quoting); the newlines after the frame header, key, and
// value are fixed frame delimiters. Each record is written with a single
// write(2) on an O_APPEND descriptor. The magic line pins both the
// container version and the value schema: bumping the CSV column set
// changes the schema hash, so a store written by an older binary is
// rejected loudly instead of mis-parsed.
//
// Integrity: any malformed frame, checksum mismatch, or magic/schema
// mismatch throws std::runtime_error naming the file and byte offset —
// corruption is never skipped silently. The one sanctioned exception is a
// truncated *trailing* record seen by a ReadOnly store: that is what a
// concurrent writer's in-flight append looks like, so the reader stops
// before it and picks it up on the next refresh(). A ReadWrite open of such
// a file still throws (appending after a torn tail would corrupt the file
// for every reader).
//
// Concurrency: many ReadOnly readers plus at most one ReadWrite writer.
// The writer holds a non-blocking flock(2) exclusive lock for its lifetime;
// a second writer fails fast at open. Readers never lock — records are
// immutable once their final byte lands, and the length-prefixed framing
// makes a partial append detectable (see above). A ResultStore instance
// itself is NOT thread-safe; callers serialize (the Runner probes and
// appends under its own cache mutex).
//
// Idempotence: put() of a key that is already present verifies the value
// bytes match and becomes a no-op; differing bytes throw — two executions
// of the same cell identity disagreeing on the result is a determinism
// violation, the one thing this subsystem exists to make loud.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
// topobench-lint: allow(unordered-container) lookup-only index below
#include <unordered_map>

#include "exp/results.h"

namespace tb::store {

/// Store format version; reported by the server's `hello` handshake and
/// embedded in the magic line.
inline constexpr int kStoreFormatVersion = 1;

/// FNV-1a 64-bit over `bytes` — the store's record checksum and schema
/// fingerprint primitive (same hash family as exp::grid_fingerprint).
std::uint64_t fnv1a64(const std::string& bytes);

/// The schema fingerprint: fnv1a64 of the uniform CSV header line. Written
/// into (and demanded of) every store file's magic line.
std::uint64_t store_schema_fingerprint();

/// The exact magic line (no trailing newline) a version-1 store begins with.
std::string store_magic_line();

class ResultStore {
 public:
  enum class Mode { ReadOnly, ReadWrite };

  /// Open (ReadWrite: create if absent) the store at `path` and scan its
  /// index. Throws std::runtime_error on missing file (ReadOnly), lock
  /// conflict (ReadWrite), or any integrity violation.
  ResultStore(std::string path, Mode mode);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// The stored result for `key`, decoded; nullopt when absent. Throws
  /// std::runtime_error if the stored value bytes fail to decode.
  std::optional<exp::CellResult> get(const std::string& key) const;

  /// Append (key, r). No-op when the key already holds exactly these value
  /// bytes; throws std::runtime_error when it holds different bytes
  /// (determinism violation) and std::logic_error on a ReadOnly store.
  void put(const std::string& key, const exp::CellResult& r);

  /// Scan any records appended by the (single) writer since this store was
  /// opened or last refreshed; returns the number of new records indexed.
  /// Meaningful for ReadOnly readers watching a live writer.
  std::size_t refresh();

  std::size_t size() const noexcept { return index_.size(); }
  const std::string& path() const noexcept { return path_; }
  Mode mode() const noexcept { return mode_; }

 private:
  /// Parse records from scan_offset_ to EOF, updating the index and
  /// scan_offset_. Tail policy: a truncated trailing record is tolerated
  /// (left unconsumed) by ReadOnly stores, corruption for ReadWrite.
  std::size_t scan();

  [[noreturn]] void corrupt(std::uint64_t offset, const std::string& what) const;

  std::string path_;
  Mode mode_;
  int fd_ = -1;
  std::uint64_t scan_offset_ = 0;  ///< first byte not yet durably parsed
  // Order-independent by construction: point lookups only (find/emplace),
  // never iterated — bucket order cannot reach any output.
  // topobench-lint: allow(unordered-container) lookup-only, never iterated
  std::unordered_map<std::string, std::string> index_;  ///< key -> value bytes
};

}  // namespace tb::store
