// A self-contained linear-programming solver (single-phase Big-M revised
// simplex).
//
// The paper computes throughput with Gurobi; Gurobi is proprietary, so this
// module provides the exact-LP substrate from scratch. It is a revised
// simplex with sparse constraint columns and a dense explicit basis inverse,
// updated in place on every pivot (the pivot row scaled, every row with a
// nonzero FTRAN entry eliminated). GE/EQ rows get artificial columns priced
// at a Big-M cost (1e7 times the largest objective magnitude), so
// feasibility and optimality are reached in one phase. The cold start is
// the slack/artificial identity basis; a caller's starting basis
// (Options::warm_basis) is imported by pivoting its columns into that
// identity with the same FTRAN and update, so no second dense matrix is
// ever built. Dantzig pricing with a Bland's-rule anti-cycling fallback,
// and dual extraction (the duals certify optimality in tests via the
// sparsest-cut relaxation of Theorem 3). The solve is serial: at the sizes
// the Auto dispatch sends here, per-pivot scans are too short to pay for a
// thread pool's hand-off.
//
// Intended scale: a few thousand rows/columns — exact throughput on small
// networks, path-restricted LPs (Fig 15), and the Kodialam TM LP. Large
// instances use the Garg-Konemann engine in src/mcf instead.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace tb::lp {

enum class Sense { LE, GE, EQ };

/// A constraint: sum_j terms[j].coef * x[terms[j].var] (sense) rhs.
struct Row {
  std::vector<std::pair<int, double>> terms;
  Sense sense = Sense::LE;
  double rhs = 0.0;
};

/// LP over variables x >= 0.
struct Problem {
  int num_vars = 0;
  bool maximize = true;
  std::vector<double> objective;  ///< size num_vars
  std::vector<Row> rows;

  /// Create a fresh variable with the given objective coefficient.
  int add_var(double obj_coef) {
    objective.push_back(obj_coef);
    return num_vars++;
  }
  void add_row(Row r) { rows.push_back(std::move(r)); }
};

enum class Status { Optimal, Infeasible, Unbounded, IterationLimit };

struct Result {
  Status status = Status::IterationLimit;
  double objective = 0.0;
  std::vector<double> x;     ///< primal solution, size num_vars
  std::vector<double> dual;  ///< dual value per input row (sign per sense)
  long iterations = 0;
};

struct Options {
  long max_iterations = 0;   ///< 0 means automatic (50 * (rows + cols) + 5000)
  /// Candidate starting basis: m distinct internal column indices, in any
  /// order, typically built from the problem's structure. Internal columns
  /// are numbered, after the standardizer turns every negative-rhs row
  /// around (LE <-> GE):
  ///   [0, num_vars)   structural variables;
  ///   then            one slack (LE row) or surplus (GE row) per LE/GE
  ///                   row, in row order;
  ///   then            one artificial per GE/EQ row, in row order.
  /// Imported by pivoting each candidate column into the cold
  /// slack/artificial identity basis. Tried opportunistically: if it is
  /// the wrong size, repeats a column or names one out of range, is
  /// singular, or is infeasible for this instance (x_B < -1e-7), the
  /// solver discards the partial import and runs the cold
  /// slack/artificial start. Never affects correctness — only the pivot
  /// count.
  const std::vector<int>* warm_basis = nullptr;
};

/// Solve the LP. The returned x satisfies all rows within ~1e-6.
Result solve(const Problem& p, const Options& opts = {});

const char* status_name(Status s);

}  // namespace tb::lp
