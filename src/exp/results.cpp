#include "exp/results.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "util/env.h"

namespace tb::exp {
namespace {

/// How a column renders beyond its member's type, and its NA sentinel.
enum class Kind {
  Int,       ///< integer; a JSON number
  Seed,      ///< 64-bit seed; a JSON decimal string (a double cannot hold it)
  IntOrNa,   ///< integer whose -1 (any negative) is NA: "na" / null
  Real,      ///< double; NaN is "na" in text, null in JSON
  Label,     ///< string; always a JSON string
  OptLabel,  ///< string whose empty value means NA: "na" / null
};

// Both unsigned alternatives exist because std::size_t (cell) and
// std::uint64_t (seed) are each one of them, the same one or not by ABI.
using Member =
    std::variant<int CellResult::*, long CellResult::*,
                 unsigned long CellResult::*, unsigned long long CellResult::*,
                 double CellResult::*, std::string CellResult::*>;

struct Column {
  const char* name;
  Kind kind;
  Member member;
};

/// The uniform record's columns, in CSV order: the one place a column is
/// spelled. The header, CSV row, parser and JSON object are all loops over
/// this list, and the store's schema hash is the header's hash, so adding
/// a column is adding one entry here.
constexpr Column kColumns[] = {
    {"cell", Kind::Int, &CellResult::cell},
    {"topology", Kind::Label, &CellResult::topology},
    {"servers", Kind::Int, &CellResult::servers},
    {"switches", Kind::Int, &CellResult::switches},
    {"tm", Kind::Label, &CellResult::tm},
    {"seed", Kind::Seed, &CellResult::seed},
    {"solver", Kind::Label, &CellResult::solver},
    {"trials", Kind::Int, &CellResult::trials},
    {"throughput", Kind::Real, &CellResult::throughput},
    {"random_mean", Kind::Real, &CellResult::random_mean},
    {"random_ci95", Kind::Real, &CellResult::random_ci95},
    {"relative", Kind::Real, &CellResult::relative},
    {"relative_ci95", Kind::Real, &CellResult::relative_ci95},
    {"cut_bound", Kind::Real, &CellResult::cut_bound},
    {"cut_gap", Kind::Real, &CellResult::cut_gap},
    {"cut_method", Kind::OptLabel, &CellResult::cut_method},
    {"scenario", Kind::OptLabel, &CellResult::scenario},
    {"failed_links", Kind::IntOrNa, &CellResult::failed_links},
    {"throughput_drop", Kind::Real, &CellResult::throughput_drop},
    {"risk_group", Kind::IntOrNa, &CellResult::risk_group},
    {"tm_scale", Kind::Real, &CellResult::tm_scale},
    {"growth_step", Kind::IntOrNa, &CellResult::growth_step},
    {"pivots", Kind::Int, &CellResult::pivots},
    {"phases", Kind::Int, &CellResult::phases},
    {"dijkstras", Kind::Int, &CellResult::dijkstras},
    {"pushes", Kind::Int, &CellResult::pushes},
    {"relabels", Kind::Int, &CellResult::relabels},
    {"global_relabels", Kind::Int, &CellResult::global_relabels},
    {"warm", Kind::Int, &CellResult::warm},
    {"solver_threads", Kind::Int, &CellResult::solver_threads},
};

/// Each kind names its member's type, so a mismatched entry fails the build.
constexpr bool kinds_match_members() {
  for (const Column& c : kColumns) {
    const bool text = c.kind == Kind::Label || c.kind == Kind::OptLabel;
    if (text != std::holds_alternative<std::string CellResult::*>(c.member) ||
        (c.kind == Kind::Real) !=
            std::holds_alternative<double CellResult::*>(c.member)) {
      return false;
    }
  }
  return true;
}
static_assert(kinds_match_members());

/// %.17g round-trips every finite double exactly.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Split one CSV line honoring RFC-4180 quoting.
std::vector<std::string> csv_split(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

/// True when `v` is column `c`'s NA sentinel: NaN, the -1 of an IntOrNa
/// column, or the empty string of an OptLabel column.
template <class T>
bool is_na(const Column& c, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return c.kind == Kind::OptLabel && v.empty();
  } else if constexpr (std::is_same_v<T, double>) {
    return std::isnan(v);
  } else if constexpr (std::is_signed_v<T>) {
    return c.kind == Kind::IntOrNa && v < 0;
  } else {
    return false;
  }
}

/// Column `c` of `r` as its CSV field: doubles %.17g, labels quoted (an
/// empty label empty), other NA sentinels "na".
std::string field_text(const Column& c, const CellResult& r) {
  return std::visit(
      [&](auto m) -> std::string {
        const auto& v = r.*m;
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return csv_quote(v);
        } else if (is_na(c, v)) {
          return "na";
        } else if constexpr (std::is_same_v<T, double>) {
          return num(v);
        } else {
          return std::to_string(v);
        }
      },
      c.member);
}

json::Value field_json(const Column& c, const CellResult& r) {
  return std::visit(
      [&](auto m) {
        const auto& v = r.*m;
        using T = std::decay_t<decltype(v)>;
        if (is_na(c, v)) return json::Value::null();
        if constexpr (std::is_same_v<T, std::string>) {
          return json::Value::string_v(v);
        } else if constexpr (std::is_same_v<T, double>) {
          return json::Value::number_v(v);  // an infinity dumps as null
        } else if (c.kind == Kind::Seed) {
          return json::Value::string_v(std::to_string(v));
        } else {
          return json::Value::number_v(static_cast<double>(v));
        }
      },
      c.member);
}

/// Strict inverse of field_text: a numeric field must be consumed whole
/// ("0.5x" and "abc" are errors, an unsigned column rejects a sign), and
/// "na" is the only spelling of NA, accepted only by the kinds that have a
/// sentinel.
void parse_field(const Column& c, const std::string& s, CellResult& r) {
  std::visit(
      [&](auto m) {
        auto& v = r.*m;
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          v = s;
        } else if (s == "na" &&
                   (c.kind == Kind::Real || c.kind == Kind::IntOrNa)) {
          if constexpr (std::is_same_v<T, double>) {
            v = std::numeric_limits<double>::quiet_NaN();
          } else {
            v = -1;
          }
        } else {
          const char* end = s.data() + s.size();
          const auto [ptr, ec] = std::from_chars(s.data(), end, v);
          if (s.empty() || ec != std::errc() || ptr != end || is_na(c, v)) {
            throw std::invalid_argument(
                std::string("cell_from_csv_row: column ") + c.name +
                ": bad value \"" + s + '"');
          }
        }
      },
      c.member);
}

}  // namespace

const CellResult& ResultSet::at(const std::string& topology,
                                const std::string& tm) const {
  for (const CellResult& r : rows_) {
    if (r.topology == topology && r.tm == tm) return r;
  }
  throw std::out_of_range("ResultSet::at: no cell (" + topology + ", " + tm +
                          ")");
}

const std::string& csv_header() {
  static const std::string header = [] {
    std::string h;
    for (const Column& c : kColumns) {
      if (!h.empty()) h += ',';
      h += c.name;
    }
    return h;
  }();
  return header;
}

std::string csv_row(const CellResult& r) {
  std::string row;
  for (const Column& c : kColumns) {
    if (&c != kColumns) row += ',';
    row += field_text(c, r);
  }
  return row;
}

CellResult cell_from_csv_row(const std::string& row) {
  // Reject unbalanced quoting up front: csv_split would otherwise read an
  // unterminated quote to end-of-string and mis-count fields confusingly.
  if (std::count(row.begin(), row.end(), '"') % 2 != 0) {
    throw std::invalid_argument("cell_from_csv_row: unterminated quote");
  }
  const std::vector<std::string> f = csv_split(row);
  if (f.size() != std::size(kColumns)) {
    throw std::invalid_argument("cell_from_csv_row: bad row arity (" +
                                std::to_string(f.size()) + " fields)");
  }
  CellResult r;
  for (std::size_t i = 0; i < f.size(); ++i) parse_field(kColumns[i], f[i], r);
  return r;
}

json::Value cell_json(const CellResult& r) {
  json::Value o = json::Value::object();
  for (const Column& c : kColumns) o.set(c.name, field_json(c, r));
  return o;
}

bool read_csv_record(std::istream& in, std::string& record) {
  record.clear();
  std::string line;
  while (std::getline(in, line)) {
    if (record.empty()) {
      if (line.empty()) continue;
      record = std::move(line);
      if (record[0] == '#') return true;
    } else {
      record += '\n';
      record += line;
    }
    if (std::count(record.begin(), record.end(), '"') % 2 == 0) return true;
  }
  return false;
}

std::string ResultSet::to_csv() const {
  std::string out = csv_header() + '\n';
  for (const CellResult& r : rows_) {
    out += csv_row(r);
    out += '\n';
  }
  return out;
}

ResultSet ResultSet::from_csv(const std::string& csv) {
  ResultSet rs;
  std::istringstream in(csv);
  std::string record;
  bool saw_header = false;
  while (read_csv_record(in, record)) {
    if (record[0] == '#') continue;
    if (!saw_header) {
      if (record != csv_header()) {
        throw std::invalid_argument("ResultSet::from_csv: unexpected header");
      }
      saw_header = true;
      continue;
    }
    try {
      rs.add(cell_from_csv_row(record));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("ResultSet::from_csv: record " +
                                  std::to_string(rs.size() + 1) + ": " +
                                  e.what());
    }
  }
  if (!record.empty()) {
    throw std::invalid_argument("ResultSet::from_csv: unterminated quote");
  }
  if (!saw_header) {
    throw std::invalid_argument("ResultSet::from_csv: no header line");
  }
  return rs;
}

bool ResultSet::emit(std::ostream& os, const std::string& caption) const {
  // A slice is only meaningful as CSV (the "#!" header + mergeable rows),
  // so a sharded run emits CSV even without TOPOBENCH_CSV=1.
  if (!csv_mode() && !slice_) return false;
  os << "# " << caption << '\n';
  if (slice_) os << slice_header_line(*slice_) << '\n';
  os << to_csv() << '\n';
  return true;
}

bool csv_mode() { return env::flag_knob("TOPOBENCH_CSV", false); }

}  // namespace tb::exp
