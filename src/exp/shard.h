// Distributed sweep sharding: deterministic partition of a sweep's flat
// cell grid into contiguous, concatenable slices, plus the merge contract
// that proves a sharded run equivalent to the unsharded one byte-for-byte.
//
// Partition contract: shard i of n covers the contiguous cell range
// [lo, hi) with lo = i*q + min(i, r), hi = lo + q + (i < r ? 1 : 0) where
// q = total/n and r = total%n — a balanced tiling of [0, total) that
// depends only on (total, i, n), never on thread count, failure grouping, or
// cache state. Cells keep their *global* flat indices inside a shard, so
// per-cell seeding (mix_seed(base, cell, trial)), cache identity, and
// failure grouping are position-stable across shards: shard i's rows are
// bitwise the rows [lo, hi) of the unsharded run.
//
// Slice format: a sharded run emits, before the CSV header,
//   # <caption>
//   #! topobench-slice v1 grid=<16-hex fp> cells=<N> shard=<i>/<n>
//      range=[<lo>,<hi>)          (one line)
// followed by exactly hi-lo rows (cells lo..hi-1 in order) and a trailing
// blank line. `grid` is grid_fingerprint(sweep) (see runner.h): a hash of
// the sweep's structural identity, so slices of different grids can never
// be merged silently. `#` lines are comments to ResultSet::from_csv, so a
// slice stays parseable as an ordinary result CSV.
//
// Merge contract: merge_slices consumes one or more concatenated slices
// (`cat shard_*.csv`), verifies a single caption/header/fingerprint/total,
// verifies the declared ranges tile [0, total) disjointly and exhaustively
// and that every slice carries exactly its declared rows, and reproduces
// the unsharded emission byte-for-byte — or throws std::runtime_error with
// a description of the overlap / gap / mismatch. tools/topobench_merge is
// the CLI wrapper.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

namespace tb::exp {

/// One shard of a sharded sweep: this process evaluates shard `index` of
/// `count`. The default {0, 1} is the whole grid.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  bool valid() const noexcept { return count >= 1 && index < count; }
  bool whole() const noexcept { return index == 0 && count == 1; }
};

/// Parse "i/n" (strict: decimal digits, one slash, i < n, n >= 1).
/// Throws std::invalid_argument on anything else — "0/0", "3/2", "-1/4",
/// garbage — naming the offending text.
ShardSpec parse_shard_spec(const std::string& text);

/// The TOPOBENCH_SHARD environment knob: nullopt when unset, the parsed
/// spec when set, std::invalid_argument (via parse_shard_spec) when set to
/// something malformed — a fleet run must fail loudly, not run the whole
/// grid per machine.
std::optional<ShardSpec> env_shard();

/// Contiguous cell range of `shard` in a grid of `total` cells (see the
/// partition contract above). Empty ranges are legal (count > total).
struct CellRange {
  std::size_t lo = 0;
  std::size_t hi = 0;  ///< exclusive
};
CellRange shard_range(std::size_t total, const ShardSpec& shard);

/// Machine-checkable identity of an emitted slice.
struct SliceMeta {
  std::uint64_t grid = 0;  ///< grid_fingerprint of the sweep
  std::size_t total = 0;   ///< cells in the whole grid
  ShardSpec shard;         ///< which shard produced the slice
  std::size_t lo = 0;      ///< first cell of the slice
  std::size_t hi = 0;      ///< one past the last cell
};

/// The "#! topobench-slice ..." header line (no trailing newline).
std::string slice_header_line(const SliceMeta& meta);

/// True when `line` begins a slice header ("#!" prefix).
bool is_slice_header_line(const std::string& line);

/// Parse a slice header line; throws std::invalid_argument when the line
/// does not match the v1 format exactly or declares an invalid shard or
/// range.
SliceMeta parse_slice_header_line(const std::string& line);

/// Merge concatenated slices from `in` into the unsharded emission (see
/// the merge contract above). Throws std::runtime_error on overlapping or
/// missing slices, mismatched grid fingerprints / captions / headers,
/// or slices whose rows do not match their declared range.
std::string merge_slices(std::istream& in);

}  // namespace tb::exp
