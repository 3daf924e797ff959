#include "exp/shard.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "exp/results.h"
#include "util/env.h"

namespace tb::exp {
namespace {

[[noreturn]] void bad_spec(const std::string& text) {
  throw std::invalid_argument("shard spec \"" + text +
                              "\" is not \"i/n\" with 0 <= i < n "
                              "(e.g. TOPOBENCH_SHARD=2/4)");
}

/// Strict decimal parse of a spec component; rejects empty, non-digit and
/// overflow-length fields so "-1/4", "1e2/4" and "999999999999/4" all fail.
std::size_t parse_component(const std::string& text, const std::string& whole) {
  if (text.empty() || text.size() > 9) bad_spec(whole);
  for (const char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) bad_spec(whole);
  }
  return static_cast<std::size_t>(std::strtoull(text.c_str(), nullptr, 10));
}

}  // namespace

ShardSpec parse_shard_spec(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) bad_spec(text);
  ShardSpec spec;
  spec.index = parse_component(text.substr(0, slash), text);
  spec.count = parse_component(text.substr(slash + 1), text);
  if (!spec.valid()) bad_spec(text);
  return spec;
}

std::optional<ShardSpec> env_shard() {
  const std::optional<std::string> s = env::raw("TOPOBENCH_SHARD");
  if (!s) return std::nullopt;
  return parse_shard_spec(*s);
}

CellRange shard_range(std::size_t total, const ShardSpec& shard) {
  // Balanced contiguous tiling without index*total overflow: the first
  // total%count shards take one extra cell.
  const std::size_t q = total / shard.count;
  const std::size_t r = total % shard.count;
  CellRange range;
  range.lo = q * shard.index + std::min(shard.index, r);
  range.hi = range.lo + q + (shard.index < r ? 1 : 0);
  return range;
}

std::string slice_header_line(const SliceMeta& meta) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "#! topobench-slice v1 grid=%016llx cells=%zu "
                "shard=%zu/%zu range=[%zu,%zu)",
                static_cast<unsigned long long>(meta.grid), meta.total,
                meta.shard.index, meta.shard.count, meta.lo, meta.hi);
  return buf;
}

bool is_slice_header_line(const std::string& line) {
  return line.rfind("#!", 0) == 0;
}

SliceMeta parse_slice_header_line(const std::string& line) {
  unsigned long long grid = 0, cells = 0, index = 0, count = 0, lo = 0, hi = 0;
  int consumed = 0;
  const int matched =
      std::sscanf(line.c_str(),
                  "#! topobench-slice v1 grid=%16llx cells=%llu "
                  "shard=%llu/%llu range=[%llu,%llu)%n",
                  &grid, &cells, &index, &count, &lo, &hi, &consumed);
  if (matched != 6 || consumed != static_cast<int>(line.size())) {
    throw std::invalid_argument("unrecognized slice header: \"" + line + '"');
  }
  SliceMeta meta;
  meta.grid = grid;
  meta.total = static_cast<std::size_t>(cells);
  meta.shard.index = static_cast<std::size_t>(index);
  meta.shard.count = static_cast<std::size_t>(count);
  meta.lo = static_cast<std::size_t>(lo);
  meta.hi = static_cast<std::size_t>(hi);
  if (!meta.shard.valid()) {
    throw std::invalid_argument("slice header declares invalid shard: \"" +
                                line + '"');
  }
  // The range is a function of (total, shard); a header that disagrees was
  // hand-edited or produced by a different partition function.
  const CellRange expected = shard_range(meta.total, meta.shard);
  if (meta.lo != expected.lo || meta.hi != expected.hi) {
    throw std::invalid_argument(
        "slice header range disagrees with the partition contract: \"" + line +
        '"');
  }
  return meta;
}

namespace {

struct Slice {
  SliceMeta meta;
  std::string caption;            ///< the "# ..." line preceding the header
  std::string header;             ///< the CSV column-header line
  std::vector<std::string> rows;  ///< raw records, cells lo..hi-1 in order
};

[[noreturn]] void merge_fail(const std::string& what) {
  throw std::runtime_error("slice merge failed: " + what);
}

std::string range_str(std::size_t lo, std::size_t hi) {
  // Built up by append: the `const char* + std::string&&` chain trips a
  // GCC 12 -Wrestrict false positive (PR105651).
  std::string s = "[";
  s += std::to_string(lo);
  s += ',';
  s += std::to_string(hi);
  s += ')';
  return s;
}

/// Leading cell index of a raw CSV record (the first column is `cell`).
std::size_t record_cell(const std::string& record) {
  std::size_t end = 0;
  while (end < record.size() &&
         std::isdigit(static_cast<unsigned char>(record[end]))) {
    ++end;
  }
  if (end == 0 || end == record.size() || record[end] != ',') {
    merge_fail("data row does not start with a cell index: \"" +
               record.substr(0, 40) + "...\"");
  }
  return static_cast<std::size_t>(
      std::strtoull(record.substr(0, end).c_str(), nullptr, 10));
}

void finish_slice(const Slice& s) {
  if (s.header.empty()) {
    merge_fail("slice " + std::to_string(s.meta.shard.index) + "/" +
               std::to_string(s.meta.shard.count) + " has no CSV header line");
  }
  if (s.rows.size() != s.meta.hi - s.meta.lo) {
    merge_fail("slice " + std::to_string(s.meta.shard.index) + "/" +
               std::to_string(s.meta.shard.count) + " declares cells " +
               range_str(s.meta.lo, s.meta.hi) + " but carries " +
               std::to_string(s.rows.size()) + " rows");
  }
}

}  // namespace

std::string merge_slices(std::istream& in) {
  std::vector<Slice> slices;
  Slice* current = nullptr;
  std::string pending_caption;
  bool have_caption = false;
  std::string record;
  while (read_csv_record(in, record)) {
    if (is_slice_header_line(record)) {
      if (!have_caption) {
        merge_fail("slice header without a preceding \"# caption\" line");
      }
      if (current != nullptr) finish_slice(*current);
      Slice s;
      try {
        s.meta = parse_slice_header_line(record);
      } catch (const std::invalid_argument& e) {
        merge_fail(e.what());
      }
      s.caption = pending_caption;
      have_caption = false;
      slices.push_back(std::move(s));
      current = &slices.back();
      continue;
    }
    if (record[0] == '#') {
      pending_caption = record;
      have_caption = true;
      continue;
    }
    // A complete record: the slice's CSV header, or one of its rows.
    if (current == nullptr) {
      merge_fail("data outside any slice (is this an unsharded CSV or a "
                 "truncated slice?): \"" + record.substr(0, 40) + "...\"");
    }
    if (current->header.empty()) {
      current->header = std::move(record);
    } else {
      const std::size_t cell = record_cell(record);
      const std::size_t expected = current->meta.lo + current->rows.size();
      if (cell != expected || cell >= current->meta.hi) {
        merge_fail("slice " + std::to_string(current->meta.shard.index) + "/" +
                   std::to_string(current->meta.shard.count) +
                   " declares cells " +
                   range_str(current->meta.lo, current->meta.hi) +
                   " but row " + std::to_string(current->rows.size()) +
                   " carries cell " + std::to_string(cell));
      }
      current->rows.push_back(std::move(record));
    }
  }
  if (!record.empty()) merge_fail("unterminated quoted field at end of input");
  if (slices.empty()) merge_fail("no slices in input");
  finish_slice(slices.back());

  // Cross-slice identity: one grid, one caption, one header.
  const Slice& first = slices.front();
  for (const Slice& s : slices) {
    if (s.meta.grid != first.meta.grid) {
      char a[24], b[24];
      std::snprintf(a, sizeof(a), "%016llx",
                    static_cast<unsigned long long>(first.meta.grid));
      std::snprintf(b, sizeof(b), "%016llx",
                    static_cast<unsigned long long>(s.meta.grid));
      merge_fail(std::string("mismatched grid fingerprints: ") + a + " vs " +
                 b + " (slices come from different sweeps)");
    }
    if (s.meta.total != first.meta.total) {
      merge_fail("mismatched grid sizes: " + std::to_string(first.meta.total) +
                 " vs " + std::to_string(s.meta.total) + " cells");
    }
    if (s.caption != first.caption) {
      merge_fail("mismatched captions: \"" + first.caption + "\" vs \"" +
                 s.caption + '"');
    }
    if (s.header != first.header) {
      merge_fail("mismatched CSV headers between slices");
    }
  }

  // Coverage: the declared ranges must tile [0, total) — no overlap, no gap.
  std::vector<const Slice*> ordered;
  ordered.reserve(slices.size());
  for (const Slice& s : slices) ordered.push_back(&s);
  std::sort(ordered.begin(), ordered.end(),
            [](const Slice* a, const Slice* b) {
              return a->meta.lo != b->meta.lo ? a->meta.lo < b->meta.lo
                                              : a->meta.hi < b->meta.hi;
            });
  std::size_t covered = 0;
  for (const Slice* s : ordered) {
    if (s->meta.lo < covered) {
      merge_fail("overlapping slices: cells " +
                 range_str(s->meta.lo, std::min(covered, s->meta.hi)) +
                 " appear more than once");
    }
    if (s->meta.lo > covered) {
      merge_fail("missing slice covering cells " +
                 range_str(covered, s->meta.lo));
    }
    covered = s->meta.hi;
  }
  if (covered < first.meta.total) {
    merge_fail("missing slice covering cells " +
               range_str(covered, first.meta.total));
  }

  // Byte-identical reconstruction of the unsharded emission: caption,
  // header, every row in cell order, and the trailing blank line
  // ResultSet::emit writes.
  std::ostringstream out;
  out << first.caption << '\n' << first.header << '\n';
  for (const Slice* s : ordered) {
    for (const std::string& row : s->rows) out << row << '\n';
  }
  out << '\n';
  return out.str();
}

}  // namespace tb::exp
