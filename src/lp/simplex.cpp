#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "lp/basis.h"

namespace prete::lp {

SimplexBasis SimplexBasis::truncated(int rows, int structurals) const {
  SimplexBasis out;
  rows = std::max(0, std::min(rows, num_rows()));
  if (rows == 0) return out;
  if (structurals < 0 || structurals > num_structural()) {
    structurals = num_structural();
  }
  out.structural_status.assign(structural_status.begin(),
                               structural_status.begin() + structurals);
  out.slack_status.assign(slack_status.begin(), slack_status.begin() + rows);
  out.basic.assign(basic.begin(), basic.begin() + rows);

  // Basis entries pointing at dropped slack or structural columns cannot
  // survive; the engine seats each such row's own slack instead.
  for (auto& entry : out.basic) {
    if ((entry.kind == Kind::kSlack && entry.index >= rows) ||
        (entry.kind == Kind::kStructural && entry.index >= structurals)) {
      entry = {Kind::kArtificial, 0};
    }
  }
  // Columns that were basic only in dropped rows demote to a bound; the
  // engine re-validates statuses against the bounds at apply time.
  std::vector<char> referenced_structural(structural_status.size(), 0);
  std::vector<char> referenced_slack(static_cast<std::size_t>(rows), 0);
  for (const auto& entry : out.basic) {
    if (entry.kind == Kind::kStructural) {
      referenced_structural[static_cast<std::size_t>(entry.index)] = 1;
    } else if (entry.kind == Kind::kSlack) {
      referenced_slack[static_cast<std::size_t>(entry.index)] = 1;
    }
  }
  for (std::size_t j = 0; j < out.structural_status.size(); ++j) {
    if (out.structural_status[j] == Status::kBasic && !referenced_structural[j]) {
      out.structural_status[j] = Status::kAtLower;
    }
  }
  for (std::size_t i = 0; i < out.slack_status.size(); ++i) {
    if (out.slack_status[i] == Status::kBasic && !referenced_slack[i]) {
      out.slack_status[i] = Status::kAtLower;
    }
  }
  return out;
}

namespace {

enum class VarStatus { kBasic, kAtLower, kAtUpper, kFreeAtZero };

// Internal equality-form problem: columns = structural vars, slacks, and
// artificials; every row is an equality. All costs are for minimization.
struct Workspace {
  int m = 0;           // rows
  int total = 0;       // total columns
  int num_structural = 0;
  int num_slack = 0;   // == m
  // Column-wise sparse matrix.
  std::vector<std::vector<Coefficient>> columns;
  std::vector<double> lower;
  std::vector<double> upper;
  std::vector<double> phase2_cost;
  std::vector<double> rhs;

  std::vector<VarStatus> status;
  std::vector<int> basis;          // basis[r] = column basic in row r
  std::vector<double> basic_value; // value of basis[r]
  std::vector<double> nonbasic_value;  // value for every column (basic entries stale)
};

double bound_start_value(double lower, double upper) {
  if (std::isfinite(lower)) return lower;
  if (std::isfinite(upper)) return upper;
  return 0.0;
}

VarStatus bound_start_status(double lower, double upper) {
  if (std::isfinite(lower)) return VarStatus::kAtLower;
  if (std::isfinite(upper)) return VarStatus::kAtUpper;
  return VarStatus::kFreeAtZero;
}

class SimplexEngine {
 public:
  SimplexEngine(const Model& model, const SimplexOptions& options,
                const SimplexBasis* warm)
      : options_(options) {
    build(model, warm);
  }

  Solution run(const Model& model) {
    Solution solution;
    int total_iters = 0;
    const auto stop = [&](SolveStatus status) {
      solution.status = status;
      solution.iterations = total_iters;
      return solution;
    };

    // Dual phase of a warm start whose seated basis is dual feasible but
    // violates bounds. Any outcome other than a feasible point or an expired
    // budget falls back to the artificial start, deterministically.
    if (dual_start_) {
      const DualOutcome outcome = dual_phase(ws_.phase2_cost, total_iters);
      if (outcome == DualOutcome::kLimit) return stop(SolveStatus::kIterationLimit);
      if (outcome != DualOutcome::kFeasible) {
        ws_.status = start_status_;
        ws_.nonbasic_value = start_value_;
        install_artificial_basis();
      }
    }

    // Phase 1: minimize the sum of artificial variables. With a warm basis
    // and no basic artificials this terminates without a single pivot.
    std::vector<double> phase1_cost(static_cast<std::size_t>(ws_.total), 0.0);
    for (int j = first_artificial_; j < ws_.total; ++j) {
      phase1_cost[static_cast<std::size_t>(j)] = 1.0;
    }
    const SolveStatus phase1 = optimize(phase1_cost, /*phase1=*/true, total_iters);
    if (phase1 == SolveStatus::kIterationLimit) {
      return stop(SolveStatus::kIterationLimit);
    }
    if (current_objective(phase1_cost) > 1e3 * options_.feasibility_tol) {
      return stop(SolveStatus::kInfeasible);
    }
    // Lock the artificials at zero for phase 2.
    for (int j = first_artificial_; j < ws_.total; ++j) {
      ws_.upper[static_cast<std::size_t>(j)] = 0.0;
      if (ws_.status[static_cast<std::size_t>(j)] != VarStatus::kBasic) {
        ws_.status[static_cast<std::size_t>(j)] = VarStatus::kAtLower;
        ws_.nonbasic_value[static_cast<std::size_t>(j)] = 0.0;
      }
    }
    // A phase-1 optimum can leave an artificial basic at a small positive
    // residue. Locked at zero it now violates its bound, and the phase-1
    // basis is dual feasible for the phase-1 costs, so the dual phase either
    // drives the residue out or proves the rows cannot be met. A point that
    // stays infeasible is never reported as optimal.
    if (!basic_point_feasible()) {
      const DualOutcome outcome = dual_phase(phase1_cost, total_iters);
      if (outcome == DualOutcome::kLimit) return stop(SolveStatus::kIterationLimit);
      if (outcome != DualOutcome::kFeasible) return stop(SolveStatus::kInfeasible);
    }

    const SolveStatus phase2 = optimize(ws_.phase2_cost, /*phase1=*/false, total_iters);
    solution.iterations = total_iters;
    solution.status = phase2;
    if (phase2 != SolveStatus::kOptimal &&
        phase2 != SolveStatus::kIterationLimit) {
      return solution;
    }

    // Extract primal values for structural variables. On a phase-2 iteration
    // limit the current point is still primal feasible (the ratio test never
    // leaves the feasible region), so the incumbent x and its objective go
    // out with the kIterationLimit status instead of silent garbage.
    solution.x.assign(static_cast<std::size_t>(ws_.num_structural), 0.0);
    std::vector<double> full(static_cast<std::size_t>(ws_.total), 0.0);
    for (int j = 0; j < ws_.total; ++j) {
      full[static_cast<std::size_t>(j)] = ws_.nonbasic_value[static_cast<std::size_t>(j)];
    }
    for (int r = 0; r < ws_.m; ++r) {
      full[static_cast<std::size_t>(ws_.basis[static_cast<std::size_t>(r)])] =
          ws_.basic_value[static_cast<std::size_t>(r)];
    }
    for (int j = 0; j < ws_.num_structural; ++j) {
      solution.x[static_cast<std::size_t>(j)] = full[static_cast<std::size_t>(j)];
    }

    double obj = 0.0;
    for (int j = 0; j < ws_.num_structural; ++j) {
      obj += ws_.phase2_cost[static_cast<std::size_t>(j)] *
             solution.x[static_cast<std::size_t>(j)];
    }
    if (model.sense() == Sense::kMaximize) obj = -obj;
    solution.objective = obj;
    // Duals only at optimality: the incumbent basis of a truncated solve is
    // not dual-feasible and its shadow prices would poison Benders cuts.
    if (phase2 != SolveStatus::kOptimal) return solution;

    std::vector<double> y;
    compute_duals(ws_.phase2_cost, y);
    if (model.sense() == Sense::kMaximize) {
      for (double& v : y) v = -v;
    }
    solution.duals.assign(static_cast<std::size_t>(ws_.m), 0.0);
    for (int r = 0; r < ws_.m; ++r) {
      solution.duals[static_cast<std::size_t>(r)] = y[static_cast<std::size_t>(r)];
    }
    return solution;
  }

  const BasisState::Stats& kernel_stats() const { return basis_.stats(); }

  // Snapshot of the final basis; only meaningful after an optimal run().
  void export_basis(SimplexBasis& out) const {
    const auto to_status = [](VarStatus st) {
      switch (st) {
        case VarStatus::kBasic:
          return SimplexBasis::Status::kBasic;
        case VarStatus::kAtUpper:
          return SimplexBasis::Status::kAtUpper;
        case VarStatus::kFreeAtZero:
          return SimplexBasis::Status::kFreeAtZero;
        case VarStatus::kAtLower:
          break;
      }
      return SimplexBasis::Status::kAtLower;
    };
    out.structural_status.resize(static_cast<std::size_t>(ws_.num_structural));
    for (int j = 0; j < ws_.num_structural; ++j) {
      out.structural_status[static_cast<std::size_t>(j)] =
          to_status(ws_.status[static_cast<std::size_t>(j)]);
    }
    out.slack_status.resize(static_cast<std::size_t>(ws_.m));
    for (int i = 0; i < ws_.m; ++i) {
      out.slack_status[static_cast<std::size_t>(i)] =
          to_status(ws_.status[static_cast<std::size_t>(ws_.num_structural + i)]);
    }
    out.basic.resize(static_cast<std::size_t>(ws_.m));
    for (int r = 0; r < ws_.m; ++r) {
      const int b = ws_.basis[static_cast<std::size_t>(r)];
      SimplexBasis::Entry entry;
      if (b < ws_.num_structural) {
        entry = {SimplexBasis::Kind::kStructural, b};
      } else if (b < first_artificial_) {
        entry = {SimplexBasis::Kind::kSlack, b - ws_.num_structural};
      } else {
        entry = {SimplexBasis::Kind::kArtificial, 0};
      }
      out.basic[static_cast<std::size_t>(r)] = entry;
    }
  }

 private:
  void build(const Model& model, const SimplexBasis* warm) {
    const int n = model.num_variables();
    const int m = model.num_rows();
    ws_.m = m;
    ws_.num_structural = n;
    ws_.num_slack = m;
    first_artificial_ = n + m;
    ws_.total = n + 2 * m;

    basis_.configure(options_.kernel, options_.refactor_interval);
    pricing_window_ = ws_.total;
    if (options_.pricing_window > 0) {
      pricing_window_ = std::min(options_.pricing_window, ws_.total);
    } else if (options_.pricing_window == 0) {
      // A shrunken candidate list only pays when the pricing scan dominates
      // the per-pivot cost, i.e. when columns heavily outnumber rows. On
      // row-dominated LPs the O(m^2) kernel solves dwarf the scan, so a
      // window just lengthens the pivot path for no savings — price fully.
      const int automatic = std::clamp(ws_.total / 8, 64, 512);
      if (ws_.total >= 4 * m && automatic < ws_.total) {
        pricing_window_ = automatic;
      }
    }

    ws_.columns.assign(static_cast<std::size_t>(ws_.total), {});
    ws_.lower.assign(static_cast<std::size_t>(ws_.total), 0.0);
    ws_.upper.assign(static_cast<std::size_t>(ws_.total), kInfinity);
    ws_.phase2_cost.assign(static_cast<std::size_t>(ws_.total), 0.0);
    ws_.rhs.assign(static_cast<std::size_t>(m), 0.0);

    const double sign = model.sense() == Sense::kMaximize ? -1.0 : 1.0;
    for (int j = 0; j < n; ++j) {
      const Variable& v = model.variable(j);
      ws_.lower[static_cast<std::size_t>(j)] = v.lower;
      ws_.upper[static_cast<std::size_t>(j)] = v.upper;
      ws_.phase2_cost[static_cast<std::size_t>(j)] = sign * v.objective;
    }
    for (int i = 0; i < m; ++i) {
      const Row& row = model.row(i);
      ws_.rhs[static_cast<std::size_t>(i)] = row.rhs;
      for (const auto& coef : row.coefficients) {
        if (coef.value != 0.0) {
          ws_.columns[static_cast<std::size_t>(coef.var)].push_back({i, coef.value});
        }
      }
      // Slack column: row becomes a*x + s = b.
      const int slack = n + i;
      ws_.columns[static_cast<std::size_t>(slack)].push_back({i, 1.0});
      switch (row.type) {
        case RowType::kLessEqual:
          ws_.lower[static_cast<std::size_t>(slack)] = 0.0;
          ws_.upper[static_cast<std::size_t>(slack)] = kInfinity;
          break;
        case RowType::kGreaterEqual:
          ws_.lower[static_cast<std::size_t>(slack)] = -kInfinity;
          ws_.upper[static_cast<std::size_t>(slack)] = 0.0;
          break;
        case RowType::kEqual:
          ws_.lower[static_cast<std::size_t>(slack)] = 0.0;
          ws_.upper[static_cast<std::size_t>(slack)] = 0.0;
          break;
      }
    }

    // Initial nonbasic point: every structural/slack variable at its nearest
    // finite bound (or zero if free).
    ws_.status.assign(static_cast<std::size_t>(ws_.total), VarStatus::kAtLower);
    ws_.nonbasic_value.assign(static_cast<std::size_t>(ws_.total), 0.0);
    for (int j = 0; j < first_artificial_; ++j) {
      ws_.status[static_cast<std::size_t>(j)] =
          bound_start_status(ws_.lower[static_cast<std::size_t>(j)],
                             ws_.upper[static_cast<std::size_t>(j)]);
      ws_.nonbasic_value[static_cast<std::size_t>(j)] =
          bound_start_value(ws_.lower[static_cast<std::size_t>(j)],
                            ws_.upper[static_cast<std::size_t>(j)]);
    }

    const bool compatible = warm != nullptr && warm->valid() &&
                            warm->num_structural() <= n && warm->num_rows() <= m;
    if (compatible) {
      // Overlay the hint's nonbasic statuses; even when the basis install
      // below fails, starting each variable at the bound it ended at last
      // time keeps the phase-1 residual small.
      for (int j = 0; j < warm->num_structural(); ++j) {
        apply_warm_status(j, warm->structural_status[static_cast<std::size_t>(j)]);
      }
      for (int i = 0; i < warm->num_rows(); ++i) {
        apply_warm_status(n + i, warm->slack_status[static_cast<std::size_t>(i)]);
      }
    }

    ws_.basis.assign(static_cast<std::size_t>(m), 0);
    ws_.basic_value.assign(static_cast<std::size_t>(m), 0.0);

    if (compatible && install_warm_basis(*warm)) return;
    install_artificial_basis();
  }

  // Moves a nonbasic column to the hinted bound when the bound structure
  // still permits it; kBasic is handled by the basis install.
  void apply_warm_status(int j, SimplexBasis::Status hinted) {
    const double lo = ws_.lower[static_cast<std::size_t>(j)];
    const double up = ws_.upper[static_cast<std::size_t>(j)];
    switch (hinted) {
      case SimplexBasis::Status::kAtLower:
        if (std::isfinite(lo)) {
          ws_.status[static_cast<std::size_t>(j)] = VarStatus::kAtLower;
          ws_.nonbasic_value[static_cast<std::size_t>(j)] = lo;
        }
        break;
      case SimplexBasis::Status::kAtUpper:
        if (std::isfinite(up)) {
          ws_.status[static_cast<std::size_t>(j)] = VarStatus::kAtUpper;
          ws_.nonbasic_value[static_cast<std::size_t>(j)] = up;
        }
        break;
      case SimplexBasis::Status::kFreeAtZero:
        if (!std::isfinite(lo) && !std::isfinite(up)) {
          ws_.status[static_cast<std::size_t>(j)] = VarStatus::kFreeAtZero;
          ws_.nonbasic_value[static_cast<std::size_t>(j)] = 0.0;
        }
        break;
      case SimplexBasis::Status::kBasic:
        break;
    }
  }

  // Residual b - A x of the current nonbasic starting point.
  std::vector<double> starting_residual() const {
    std::vector<double> residual = ws_.rhs;
    for (int j = 0; j < first_artificial_; ++j) {
      const double xj = ws_.nonbasic_value[static_cast<std::size_t>(j)];
      if (xj == 0.0) continue;
      for (const auto& entry : ws_.columns[static_cast<std::size_t>(j)]) {
        residual[static_cast<std::size_t>(entry.var)] -= entry.value * xj;
      }
    }
    return residual;
  }

  // Tries to seat the hinted basis: hinted columns stay basic in their rows,
  // and every row beyond the hint (or hinted artificial) gets its own slack
  // as the basic column. A truncated hint can leave a row whose slack is
  // already basic elsewhere, or keep columns independent only on the
  // dropped rows; such a basis is repaired (see repair_basis) rather than
  // abandoned. A point inside the bounds starts primal phase 2 directly; a
  // point that violates bounds while every reduced cost keeps its sign
  // starts the dual phase (appended rows and changed right-hand sides both
  // land here). Anything else — an inconsistent hint, a basis the repair
  // cannot mend, or a point neither primal nor dual feasible — returns false
  // with the state restored, and the caller takes the all-artificial start.
  bool install_warm_basis(const SimplexBasis& warm) {
    const int n = ws_.num_structural;
    const int m = ws_.m;
    std::vector<int> plan(static_cast<std::size_t>(m), -1);
    std::vector<char> used(static_cast<std::size_t>(first_artificial_), 0);
    for (int r = 0; r < warm.num_rows(); ++r) {
      const SimplexBasis::Entry entry = warm.basic[static_cast<std::size_t>(r)];
      int col = -1;
      if (entry.kind == SimplexBasis::Kind::kStructural) {
        if (entry.index < 0 || entry.index >= warm.num_structural()) return false;
        col = entry.index;
      } else if (entry.kind == SimplexBasis::Kind::kSlack) {
        if (entry.index < 0 || entry.index >= warm.num_rows()) return false;
        col = n + entry.index;
      } else {
        continue;  // artificial row: filled with its slack below
      }
      if (used[static_cast<std::size_t>(col)]) return false;
      used[static_cast<std::size_t>(col)] = 1;
      plan[static_cast<std::size_t>(r)] = col;
    }
    for (int r = 0; r < m; ++r) {
      if (plan[static_cast<std::size_t>(r)] >= 0) continue;
      const int slack = n + r;
      if (used[static_cast<std::size_t>(slack)]) continue;  // a hole, repaired
      used[static_cast<std::size_t>(slack)] = 1;
      plan[static_cast<std::size_t>(r)] = slack;
    }

    start_status_ = ws_.status;
    start_value_ = ws_.nonbasic_value;
    for (int r = 0; r < m; ++r) {
      const int col = plan[static_cast<std::size_t>(r)];
      if (col >= 0) ws_.status[static_cast<std::size_t>(col)] = VarStatus::kBasic;
      ws_.basis[static_cast<std::size_t>(r)] = col;
    }
    // Refactorizing also computes the basic values exactly.
    LuFactorization::Deficiency deficiency;
    bool ok = refactorize(&deficiency) ||
              (repair_basis(deficiency) && refactorize());
    if (ok && !basic_point_feasible()) {
      ok = dual_feasible(ws_.phase2_cost);
      dual_start_ = ok;
    }
    if (!ok) {
      ws_.status = start_status_;
      dual_start_ = false;
    }
    return ok;
  }

  // Swaps each dependent column of a singular seated basis (a hole counts as
  // an empty column) for the slack of a row the LU left unpivoted. A slack
  // is the unit column of its row, so the repaired basis is nonsingular;
  // the demoted columns return to their start status. False when there is
  // nothing to repair or such a slack is already basic.
  bool repair_basis(const LuFactorization::Deficiency& deficiency) {
    const int n = ws_.num_structural;
    if (deficiency.columns.empty()) return false;
    for (const int row : deficiency.rows) {
      if (ws_.status[static_cast<std::size_t>(n + row)] == VarStatus::kBasic) {
        return false;
      }
    }
    for (std::size_t q = 0; q < deficiency.columns.size(); ++q) {
      int& col = ws_.basis[static_cast<std::size_t>(deficiency.columns[q])];
      if (col >= 0) {
        ws_.status[static_cast<std::size_t>(col)] =
            start_status_[static_cast<std::size_t>(col)];
      }
      col = n + deficiency.rows[q];
      ws_.status[static_cast<std::size_t>(col)] = VarStatus::kBasic;
    }
    return true;
  }

  // True when every basic value lies within its bounds up to the primal
  // feasibility tolerance.
  bool basic_point_feasible() const {
    const double tol = options_.feasibility_tol;
    for (int r = 0; r < ws_.m; ++r) {
      const int b = ws_.basis[static_cast<std::size_t>(r)];
      const double v = ws_.basic_value[static_cast<std::size_t>(r)];
      if (v < ws_.lower[static_cast<std::size_t>(b)] - tol ||
          v > ws_.upper[static_cast<std::size_t>(b)] + tol) {
        return false;
      }
    }
    return true;
  }

  // True when no movable nonbasic column prices out under `cost` with exact
  // duals: the current basis is then a valid start for the dual phase.
  bool dual_feasible(const std::vector<double>& cost) {
    std::vector<double> y;
    compute_duals(cost, y);
    for (int j = 0; j < ws_.total; ++j) {
      const VarStatus st = ws_.status[static_cast<std::size_t>(j)];
      if (st == VarStatus::kBasic ||
          ws_.lower[static_cast<std::size_t>(j)] ==
              ws_.upper[static_cast<std::size_t>(j)]) {
        continue;
      }
      const double d = reduced_cost(j, cost, y);
      if ((st != VarStatus::kAtUpper && d < -options_.optimality_tol) ||
          (st != VarStatus::kAtLower && d > options_.optimality_tol)) {
        return false;
      }
    }
    return true;
  }

  enum class DualOutcome { kFeasible, kInfeasible, kFailed, kLimit };

  // Devex weights (primal columns, dual rows) re-anchor their reference
  // frame once the largest weight exceeds this.
  static constexpr double kDevexResetThreshold = 1e7;

  // Bounded dual simplex from a dual feasible basis. Each pass lets the
  // basic variable with the largest bound violation leave at the violated
  // bound (under devex pricing, the largest violation^2 / w_r against dual
  // devex row weights w_r); the textbook bounded ratio test over its pivot
  // row picks the entering column that keeps every reduced cost's sign
  // (Harris' two passes, larger pivot among the near-ties, then the lower
  // index). Every pass is charged to the deadline. Returns kFeasible once
  // the basic point is within its bounds, kInfeasible when a violated row
  // admits no entering column (the rows cannot be met), kLimit on an expired
  // budget, and kFailed on numerical trouble, an exhausted iteration cap, or
  // a stall: more than `degenerate_pivot_limit` consecutive pivots that
  // neither move the dual objective nor lower the total bound violation
  // below its best.
  DualOutcome dual_phase(const std::vector<double>& cost, int& total_iters) {
    const int m = ws_.m;
    const int max_iters = options_.max_iterations > 0
                              ? options_.max_iterations
                              : 2000 + 40 * (ws_.total + m);
    const double tol = options_.feasibility_tol;
    const double dtol = options_.optimality_tol;
    constexpr double kPivotTol = 1e-9;
    std::vector<double> w(static_cast<std::size_t>(m), 0.0);
    std::vector<double> y;
    compute_duals(cost, y);
    int stall = 0;
    double best_violation = kInfinity;
    struct Candidate {
      int j;
      double mag;    // |pivot-row entry|
      double slack;  // distance of the reduced cost from changing sign
    };
    std::vector<Candidate> candidates;
    // Dual devex (the row-wise mirror of the primal reference framework):
    // every basic row starts at weight 1 and tracks an approximate dual
    // steepest-edge norm, re-anchored when the largest weight outgrows
    // kDevexResetThreshold.
    const bool devex = options_.pricing == PricingRule::kDevex;
    std::vector<double> row_weight;
    if (devex) row_weight.assign(static_cast<std::size_t>(m), 1.0);

    for (int iter = 0; iter < max_iters; ++iter, ++total_iters) {
      if (options_.deadline != nullptr) {
        if (options_.deadline->expired()) return DualOutcome::kLimit;
        options_.deadline->charge_pivots();
      }
      // Leaving row: the largest (weighted) bound violation, lowest row on
      // ties.
      int leaving = -1;
      bool to_lower = false;
      double worst = 0.0;
      double violation = 0.0;
      for (int r = 0; r < m; ++r) {
        const int b = ws_.basis[static_cast<std::size_t>(r)];
        const double v = ws_.basic_value[static_cast<std::size_t>(r)];
        const double below = ws_.lower[static_cast<std::size_t>(b)] - v;
        const double above = v - ws_.upper[static_cast<std::size_t>(b)];
        const double excess = std::max(below, above);
        if (excess <= tol) continue;
        violation += excess;
        const double merit =
            devex ? excess * excess / row_weight[static_cast<std::size_t>(r)]
                  : excess;
        if (merit > worst) {
          worst = merit;
          leaving = r;
          to_lower = below > above;
        }
      }
      if (leaving < 0) return DualOutcome::kFeasible;

      // Ratio test over the pivot row. Raising a basic variable to its
      // lower bound needs an entering column with a negative row entry when
      // it sits at its lower bound (positive at its upper); lowering one to
      // its upper bound needs the opposite signs.
      basis_.pivot_row(leaving, rho_);
      candidates.clear();
      double bound = kInfinity;  // Harris pass 1: the relaxed step bound
      for (int j = 0; j < ws_.total; ++j) {
        const VarStatus st = ws_.status[static_cast<std::size_t>(j)];
        if (st == VarStatus::kBasic ||
            ws_.lower[static_cast<std::size_t>(j)] ==
                ws_.upper[static_cast<std::size_t>(j)]) {
          continue;
        }
        double alpha = 0.0;
        for (const auto& entry : ws_.columns[static_cast<std::size_t>(j)]) {
          alpha += rho_[static_cast<std::size_t>(entry.var)] * entry.value;
        }
        if (to_lower) alpha = -alpha;
        const bool up_ok = st != VarStatus::kAtUpper && alpha > kPivotTol;
        const bool down_ok = st != VarStatus::kAtLower && alpha < -kPivotTol;
        if (!up_ok && !down_ok) continue;
        const double d = reduced_cost(j, cost, y);
        const double slack = up_ok ? std::max(d, 0.0) : std::max(-d, 0.0);
        const double mag = std::abs(alpha);
        candidates.push_back({j, mag, slack});
        bound = std::min(bound, (slack + dtol) / mag);
      }
      if (candidates.empty()) return DualOutcome::kInfeasible;
      int entering = -1;
      double best_mag = 0.0;
      for (const Candidate& c : candidates) {
        if (c.slack / c.mag <= bound && c.mag > best_mag) {
          best_mag = c.mag;
          entering = c.j;
        }
      }
      if (entering < 0) return DualOutcome::kFailed;

      basis_.ftran(ws_.columns[static_cast<std::size_t>(entering)], w);
      const double pivot = w[static_cast<std::size_t>(leaving)];
      if (std::abs(pivot) < kPivotTol ||
          std::abs(std::abs(pivot) - best_mag) > 1e-6 * std::max(1.0, best_mag)) {
        return DualOutcome::kFailed;  // FTRAN and the pivot row disagree
      }
      const double d_q = reduced_cost(entering, cost, y);
      const bool progress =
          std::abs(d_q) > dtol || violation < best_violation - tol;
      best_violation = std::min(best_violation, violation);
      stall = progress ? 0 : stall + 1;
      if (stall > options_.degenerate_pivot_limit) return DualOutcome::kFailed;

      // Primal step: the leaving variable lands exactly on its bound.
      const int leave_var = ws_.basis[static_cast<std::size_t>(leaving)];
      const double target = to_lower ? ws_.lower[static_cast<std::size_t>(leave_var)]
                                     : ws_.upper[static_cast<std::size_t>(leave_var)];
      const double step =
          (ws_.basic_value[static_cast<std::size_t>(leaving)] - target) / pivot;
      for (int r = 0; r < m; ++r) {
        ws_.basic_value[static_cast<std::size_t>(r)] -=
            step * w[static_cast<std::size_t>(r)];
      }
      ws_.status[static_cast<std::size_t>(leave_var)] =
          to_lower ? VarStatus::kAtLower : VarStatus::kAtUpper;
      ws_.nonbasic_value[static_cast<std::size_t>(leave_var)] = target;
      ws_.status[static_cast<std::size_t>(entering)] = VarStatus::kBasic;
      ws_.basis[static_cast<std::size_t>(leaving)] = entering;
      ws_.basic_value[static_cast<std::size_t>(leaving)] =
          ws_.nonbasic_value[static_cast<std::size_t>(entering)] + step;

      // Dual step along the same pre-pivot row: y' = y + (d_q / w_r) rho.
      const double theta_d = d_q / pivot;
      if (theta_d != 0.0) {
        for (int i = 0; i < m; ++i) {
          y[static_cast<std::size_t>(i)] += theta_d * rho_[static_cast<std::size_t>(i)];
        }
      }
      if (devex) {
        // Row update from the entering column: w_i grows to at least
        // (w_i / w_r)^2 * w_r for every other row; the pivot row takes
        // max(w_r / pivot^2, 1).
        const double beta_r = row_weight[static_cast<std::size_t>(leaving)];
        double max_weight = 1.0;
        for (int i = 0; i < m; ++i) {
          const double ratio = w[static_cast<std::size_t>(i)] / pivot;
          if (i == leaving || ratio == 0.0) continue;
          double& g = row_weight[static_cast<std::size_t>(i)];
          g = std::max(g, ratio * ratio * beta_r);
          max_weight = std::max(max_weight, g);
        }
        double& g_leave = row_weight[static_cast<std::size_t>(leaving)];
        g_leave = std::max(beta_r / (pivot * pivot), 1.0);
        max_weight = std::max(max_weight, g_leave);
        if (max_weight > kDevexResetThreshold) {
          std::fill(row_weight.begin(), row_weight.end(), 1.0);
        }
      }
      if (basis_.update(leaving, w)) {
        if (!refactorize()) return DualOutcome::kFailed;
        compute_duals(cost, y);
      }
    }
    return DualOutcome::kFailed;
  }

  // The all-artificial cold basis (also the warm-start fallback), absorbing
  // whatever residual the current nonbasic starting point leaves.
  void install_artificial_basis() {
    const int m = ws_.m;
    const std::vector<double> residual = starting_residual();
    std::vector<double> signs(static_cast<std::size_t>(m), 1.0);
    for (int i = 0; i < m; ++i) {
      const int art = first_artificial_ + i;
      const double sign = residual[static_cast<std::size_t>(i)] >= 0.0 ? 1.0 : -1.0;
      signs[static_cast<std::size_t>(i)] = sign;
      ws_.columns[static_cast<std::size_t>(art)].assign(1, {i, sign});
      ws_.status[static_cast<std::size_t>(art)] = VarStatus::kBasic;
      ws_.basis[static_cast<std::size_t>(i)] = art;
      ws_.basic_value[static_cast<std::size_t>(i)] =
          std::abs(residual[static_cast<std::size_t>(i)]);
    }
    basis_.reset_diagonal(m, signs);  // inverse of the +-1 diagonal basis
  }

  double current_objective(const std::vector<double>& cost) const {
    double obj = 0.0;
    for (int j = 0; j < ws_.total; ++j) {
      if (ws_.status[static_cast<std::size_t>(j)] != VarStatus::kBasic) {
        obj += cost[static_cast<std::size_t>(j)] *
               ws_.nonbasic_value[static_cast<std::size_t>(j)];
      }
    }
    for (int r = 0; r < ws_.m; ++r) {
      obj += cost[static_cast<std::size_t>(ws_.basis[static_cast<std::size_t>(r)])] *
             ws_.basic_value[static_cast<std::size_t>(r)];
    }
    return obj;
  }

  // y = c_B^T B^-1 via BTRAN through the kernel.
  void compute_duals(const std::vector<double>& cost, std::vector<double>& y) {
    cb_.assign(static_cast<std::size_t>(ws_.m), 0.0);
    for (int r = 0; r < ws_.m; ++r) {
      cb_[static_cast<std::size_t>(r)] =
          cost[static_cast<std::size_t>(ws_.basis[static_cast<std::size_t>(r)])];
    }
    basis_.btran(cb_, y);
  }

  double reduced_cost(int j, const std::vector<double>& cost,
                      const std::vector<double>& y) const {
    double d = cost[static_cast<std::size_t>(j)];
    for (const auto& entry : ws_.columns[static_cast<std::size_t>(j)]) {
      d -= y[static_cast<std::size_t>(entry.var)] * entry.value;
    }
    return d;
  }

  // Rebuilds the kernel's anchor from the current basis columns (a hole, -1,
  // while a warm basis is seated, is an empty column), then recomputes the
  // basic values.
  bool refactorize(LuFactorization::Deficiency* deficiency = nullptr) {
    static const std::vector<Coefficient> kHole;
    basis_cols_.clear();
    basis_cols_.reserve(static_cast<std::size_t>(ws_.m));
    for (int r = 0; r < ws_.m; ++r) {
      const int col = ws_.basis[static_cast<std::size_t>(r)];
      basis_cols_.push_back(
          col < 0 ? &kHole : &ws_.columns[static_cast<std::size_t>(col)]);
    }
    if (!basis_.refactorize(basis_cols_, deficiency)) return false;
    recompute_basic_values();
    return true;
  }

  void recompute_basic_values() {
    // x_B = B^-1 (b - N x_N)
    std::vector<double> rhs = ws_.rhs;
    for (int j = 0; j < ws_.total; ++j) {
      if (ws_.status[static_cast<std::size_t>(j)] == VarStatus::kBasic) continue;
      const double xj = ws_.nonbasic_value[static_cast<std::size_t>(j)];
      if (xj == 0.0) continue;
      for (const auto& entry : ws_.columns[static_cast<std::size_t>(j)]) {
        rhs[static_cast<std::size_t>(entry.var)] -= entry.value * xj;
      }
    }
    basis_.apply_inverse(rhs, ws_.basic_value);
  }

  // Legacy-ordered segment scan for the entering variable: strictly-better
  // merit wins; an equal merit at a lower column index wins only across the
  // wrap of a rotated window (within one ascending segment the first-seen
  // candidate already has the lowest index, exactly the historical rule).
  void price_segment(int begin, int end, const std::vector<double>& cost,
                     const std::vector<double>& y, bool devex,
                     const std::vector<double>& devex_weight,
                     double& best_merit, int& entering, double& entering_dir) const {
    for (int j = begin; j < end; ++j) {
      const VarStatus st = ws_.status[static_cast<std::size_t>(j)];
      if (st == VarStatus::kBasic) continue;
      // Locked variables (fixed artificials, equality slacks) cannot move.
      if (ws_.lower[static_cast<std::size_t>(j)] ==
          ws_.upper[static_cast<std::size_t>(j)]) {
        continue;
      }
      const double d = reduced_cost(j, cost, y);
      double score = 0.0;
      double dir = 0.0;
      if ((st == VarStatus::kAtLower || st == VarStatus::kFreeAtZero) &&
          d < -options_.optimality_tol) {
        score = -d;
        dir = 1.0;
      } else if ((st == VarStatus::kAtUpper || st == VarStatus::kFreeAtZero) &&
                 d > options_.optimality_tol) {
        score = d;
        dir = -1.0;
      }
      if (score <= 0.0) continue;
      const double merit =
          devex ? score * score / devex_weight[static_cast<std::size_t>(j)]
                : score;
      if (merit > best_merit ||
          (merit == best_merit && entering >= 0 && j < entering)) {
        best_merit = merit;
        entering = j;
        entering_dir = dir;
      }
    }
  }

  // Entering-variable selection. Full pricing scans every column; partial
  // pricing scans the rotating candidate window, advancing it only when the
  // window prices out, and declares optimality only after a full rotation
  // finds no eligible column — the optimality conditions are identical to a
  // full pass, only the pivot path differs.
  int select_entering(const std::vector<double>& cost,
                      const std::vector<double>& y, bool use_bland, bool devex,
                      const std::vector<double>& devex_weight,
                      double& entering_dir) {
    if (use_bland) {  // first eligible index, every column
      for (int j = 0; j < ws_.total; ++j) {
        const VarStatus st = ws_.status[static_cast<std::size_t>(j)];
        if (st == VarStatus::kBasic) continue;
        if (ws_.lower[static_cast<std::size_t>(j)] ==
            ws_.upper[static_cast<std::size_t>(j)]) {
          continue;
        }
        const double d = reduced_cost(j, cost, y);
        if ((st == VarStatus::kAtLower || st == VarStatus::kFreeAtZero) &&
            d < -options_.optimality_tol) {
          entering_dir = 1.0;
          return j;
        }
        if ((st == VarStatus::kAtUpper || st == VarStatus::kFreeAtZero) &&
            d > options_.optimality_tol) {
          entering_dir = -1.0;
          return j;
        }
      }
      return -1;
    }

    const double merit_floor = devex ? 0.0 : options_.optimality_tol;
    int entering = -1;
    if (pricing_window_ >= ws_.total) {
      double best_merit = merit_floor;
      price_segment(0, ws_.total, cost, y, devex, devex_weight, best_merit,
                    entering, entering_dir);
      return entering;
    }
    const int windows = (ws_.total + pricing_window_ - 1) / pricing_window_;
    for (int attempt = 0; attempt < windows; ++attempt) {
      double best_merit = merit_floor;
      const int begin = pricing_offset_;
      const int end = begin + pricing_window_;
      price_segment(begin, std::min(end, ws_.total), cost, y, devex,
                    devex_weight, best_merit, entering, entering_dir);
      if (end > ws_.total) {
        price_segment(0, end - ws_.total, cost, y, devex, devex_weight,
                      best_merit, entering, entering_dir);
      }
      if (entering >= 0) return entering;
      pricing_offset_ = end % ws_.total;
    }
    return -1;
  }

  // Applies fn(j) to every column the current pricing pass covers: the
  // active window under partial pricing, every column otherwise. The devex
  // weight update iterates the same set — weights outside the window go
  // stale (too small), which only overstates those columns' merit when the
  // window rotates onto them; path quality, never correctness.
  template <typename Fn>
  void for_each_priced(bool full, Fn&& fn) const {
    if (full || pricing_window_ >= ws_.total) {
      for (int j = 0; j < ws_.total; ++j) fn(j);
      return;
    }
    const int begin = pricing_offset_;
    const int end = begin + pricing_window_;
    for (int j = begin; j < std::min(end, ws_.total); ++j) fn(j);
    if (end > ws_.total) {
      for (int j = 0; j < end - ws_.total; ++j) fn(j);
    }
  }

  SolveStatus optimize(const std::vector<double>& cost, bool phase1,
                       int& total_iters) {
    const int m = ws_.m;
    const int max_iters =
        options_.max_iterations > 0
            ? options_.max_iterations
            : 2000 + 40 * (ws_.total + m);
    std::vector<double> w(static_cast<std::size_t>(m), 0.0);
    std::vector<double> y;
    int degenerate_streak = 0;

    // Dual maintenance. The historical kernel recomputes y = c_B^T B^-1 by
    // a full BTRAN every pivot — the single most expensive operation in the
    // solve (phase 1's all-artificial cost vector makes c_B dense). The eta
    // kernel instead updates the duals in O(m) per pivot from the identity
    // y' = y + (d_q / w_r) * rho, where d_q is the entering column's reduced
    // cost, w_r the pivot element, and rho the (pre-pivot) devex pivot row
    // it already computes. Accumulated rounding is bounded by refreshing the
    // duals at every reinversion, and optimality is never declared on
    // updated duals: pricing out triggers one exact recompute and a
    // re-price, so the termination conditions match the historical kernel's.
    // The Bland anti-cycling regime also recomputes exactly every pivot —
    // its guarantees assume exact reduced costs.
    const bool incremental_duals = basis_.kernel() == BasisKernel::kEtaFile;
    bool y_valid = false;  // y matches the current basis (exactly or updated)
    bool y_exact = false;  // y came from a full BTRAN, not O(m) updates

    // Devex reference framework (Forrest & Goldfarb): every nonbasic column
    // starts at weight 1 (the phase's starting nonbasic set is the reference
    // frame) and the weights track approximate steepest-edge norms as the
    // basis walks away from it. The frame is re-anchored when the largest
    // weight outgrows its trust window. Eligibility (reduced cost beyond the
    // optimality tolerance) is identical to Dantzig's, so the pricing rule
    // changes only the pivot path, never the optimality conditions.
    //
    // Devex prices phase 2 only. The phase-1 composite objective is
    // transient and its all-artificial starting basis makes the reference
    // frame uninformative — measured on this workload, devex phase 1 costs
    // 15-20% more pivots than Dantzig, while devex phase 2 saves 8% across
    // the Benders pipeline's warm re-solves.
    const bool devex = options_.pricing == PricingRule::kDevex && !phase1;
    std::vector<double> devex_weight;
    if (devex) devex_weight.assign(static_cast<std::size_t>(ws_.total), 1.0);

    for (int iter = 0; iter < max_iters; ++iter, ++total_iters) {
      // Cooperative deadline: checked before the pivot so the overrun past
      // expiry is at most the pivot in flight. Each loop iteration (pivot or
      // bound flip) charges one pivot, making pivot-budget expiry a pure
      // function of the work done — deterministic at any thread count.
      if (options_.deadline != nullptr) {
        if (options_.deadline->expired()) return SolveStatus::kIterationLimit;
        options_.deadline->charge_pivots();
      }
      // Pricing.
      const bool use_bland = degenerate_streak > options_.degenerate_pivot_limit;
      if (!incremental_duals || use_bland || !y_valid) {
        compute_duals(cost, y);
        y_valid = true;
        y_exact = true;
      }
      double entering_dir = 0.0;
      int entering =
          select_entering(cost, y, use_bland, devex, devex_weight, entering_dir);
      if (entering < 0 && incremental_duals && !y_exact) {
        // Priced out on updated duals: verify against an exact recompute
        // before declaring dual feasibility.
        compute_duals(cost, y);
        y_exact = true;
        entering = select_entering(cost, y, use_bland, devex, devex_weight,
                                   entering_dir);
      }
      if (entering < 0) return SolveStatus::kOptimal;  // dual feasible

      basis_.ftran(ws_.columns[static_cast<std::size_t>(entering)], w);

      // Ratio test. The entering variable moves by t >= 0 in direction
      // entering_dir; basic variable r changes at rate -entering_dir * w[r].
      double t_max = ws_.upper[static_cast<std::size_t>(entering)] -
                     ws_.lower[static_cast<std::size_t>(entering)];
      if (!std::isfinite(t_max)) t_max = kInfinity;
      int leaving = -1;  // row index of the blocking basic variable
      bool leaving_to_upper = false;
      double best_pivot_mag = 0.0;
      constexpr double kPivotTol = 1e-9;
      for (int r = 0; r < m; ++r) {
        const double rate = -entering_dir * w[static_cast<std::size_t>(r)];
        if (std::abs(rate) < kPivotTol) continue;
        const int b = ws_.basis[static_cast<std::size_t>(r)];
        const double xb = ws_.basic_value[static_cast<std::size_t>(r)];
        double limit = kInfinity;
        bool to_upper = false;
        if (rate < 0.0) {  // decreasing toward its lower bound
          const double lb = ws_.lower[static_cast<std::size_t>(b)];
          if (std::isfinite(lb)) limit = (xb - lb) / (-rate);
        } else {  // increasing toward its upper bound
          const double ub = ws_.upper[static_cast<std::size_t>(b)];
          if (std::isfinite(ub)) {
            limit = (ub - xb) / rate;
            to_upper = true;
          }
        }
        if (limit < -1e-12) limit = 0.0;
        if (limit < t_max - 1e-12 ||
            (limit < t_max + 1e-12 &&
             std::abs(w[static_cast<std::size_t>(r)]) > best_pivot_mag)) {
          t_max = std::max(limit, 0.0);
          leaving = r;
          leaving_to_upper = to_upper;
          best_pivot_mag = std::abs(w[static_cast<std::size_t>(r)]);
        }
      }

      if (!std::isfinite(t_max)) {
        return phase1 ? SolveStatus::kInfeasible : SolveStatus::kUnbounded;
      }
      degenerate_streak = t_max < 1e-11 ? degenerate_streak + 1 : 0;

      // Apply the step to the basic values.
      if (t_max > 0.0) {
        for (int r = 0; r < m; ++r) {
          ws_.basic_value[static_cast<std::size_t>(r)] -=
              t_max * entering_dir * w[static_cast<std::size_t>(r)];
        }
      }

      if (leaving < 0) {
        // Bound flip: the entering variable runs to its opposite bound.
        auto& st = ws_.status[static_cast<std::size_t>(entering)];
        st = entering_dir > 0 ? VarStatus::kAtUpper : VarStatus::kAtLower;
        ws_.nonbasic_value[static_cast<std::size_t>(entering)] =
            entering_dir > 0 ? ws_.upper[static_cast<std::size_t>(entering)]
                             : ws_.lower[static_cast<std::size_t>(entering)];
        continue;
      }

      // Pivot: entering becomes basic in row `leaving`.
      const int leave_var = ws_.basis[static_cast<std::size_t>(leaving)];
      const double entering_value =
          ws_.nonbasic_value[static_cast<std::size_t>(entering)] +
          entering_dir * t_max;

      ws_.status[static_cast<std::size_t>(leave_var)] =
          leaving_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      ws_.nonbasic_value[static_cast<std::size_t>(leave_var)] =
          leaving_to_upper ? ws_.upper[static_cast<std::size_t>(leave_var)]
                           : ws_.lower[static_cast<std::size_t>(leave_var)];
      ws_.status[static_cast<std::size_t>(entering)] = VarStatus::kBasic;
      ws_.basis[static_cast<std::size_t>(leaving)] = entering;
      ws_.basic_value[static_cast<std::size_t>(leaving)] = entering_value;

      // The pre-pivot row of the inverse serves both the devex weight update
      // and the incremental dual update, so one kernel call covers both.
      const bool need_rho = devex || (incremental_duals && !use_bland);
      if (need_rho) basis_.pivot_row(leaving, rho_);
      if (incremental_duals && !use_bland) {
        const double d_q = reduced_cost(entering, cost, y);
        const double theta_d = d_q / w[static_cast<std::size_t>(leaving)];
        if (theta_d != 0.0) {
          for (int i = 0; i < m; ++i) {
            y[static_cast<std::size_t>(i)] +=
                theta_d * rho_[static_cast<std::size_t>(i)];
          }
        }
        y_exact = false;
      } else {
        y_valid = false;  // pivot without a dual update: recompute next pass
      }

      if (devex) {
        // Reference-framework update: with entering weight gamma_q and pivot
        // element alpha_q = w[leaving], every priced nonbasic column j
        // updates to max(gamma_j, (alpha_j / alpha_q)^2 * gamma_q) where
        // alpha_j is its pivot-row entry under the *pre-pivot* inverse; the
        // leaving column gets max(gamma_q / alpha_q^2, 1). Bound flips above
        // skip this — the basis (and hence the framework geometry) did not
        // change.
        const double gamma_q = devex_weight[static_cast<std::size_t>(entering)];
        const double alpha_q = w[static_cast<std::size_t>(leaving)];
        const double alpha_q_sq = alpha_q * alpha_q;
        double max_weight = 1.0;
        for_each_priced(use_bland, [&](int j) {
          if (j == entering || j == leave_var) return;
          if (ws_.status[static_cast<std::size_t>(j)] == VarStatus::kBasic) {
            return;
          }
          if (ws_.lower[static_cast<std::size_t>(j)] ==
              ws_.upper[static_cast<std::size_t>(j)]) {
            return;  // locked columns never price, so their weight is dead
          }
          double alpha_j = 0.0;
          for (const auto& entry : ws_.columns[static_cast<std::size_t>(j)]) {
            alpha_j += rho_[static_cast<std::size_t>(entry.var)] * entry.value;
          }
          if (alpha_j != 0.0) {
            double& g = devex_weight[static_cast<std::size_t>(j)];
            const double cand = (alpha_j * alpha_j / alpha_q_sq) * gamma_q;
            if (cand > g) g = cand;
            if (g > max_weight) max_weight = g;
          }
        });
        double& g_leave = devex_weight[static_cast<std::size_t>(leave_var)];
        g_leave = std::max(gamma_q / alpha_q_sq, 1.0);
        if (g_leave > max_weight) max_weight = g_leave;
        devex_weight[static_cast<std::size_t>(entering)] = 1.0;
        if (max_weight > kDevexResetThreshold) {
          // Re-anchor the reference frame at the current nonbasic set.
          std::fill(devex_weight.begin(), devex_weight.end(), 1.0);
        }
      }

      // Kernel pivot accounting: dense elimination or an eta append; a true
      // return means the periodic interval or the drift trigger fired.
      if (basis_.update(leaving, w)) {
        if (!refactorize()) return SolveStatus::kIterationLimit;
        y_valid = false;  // refresh the duals from the clean anchor
      }
    }
    return SolveStatus::kIterationLimit;
  }

  SimplexOptions options_;
  Workspace ws_;
  BasisState basis_;
  int first_artificial_ = 0;
  int pricing_window_ = 0;
  int pricing_offset_ = 0;
  std::vector<const std::vector<Coefficient>*> basis_cols_;
  std::vector<double> cb_;
  std::vector<double> rho_;
  // Warm start that begins with the dual phase, and the hint-overlaid
  // nonbasic point its fallback to the artificial start returns to.
  bool dual_start_ = false;
  std::vector<VarStatus> start_status_;
  std::vector<double> start_value_;
};

}  // namespace

Solution SimplexSolver::solve(const Model& model, const SimplexBasis* warm,
                              SimplexBasis* basis_out) const {
  if (model.num_rows() == 0) {
    // Pure bound problem: each variable sits at whichever bound its cost
    // prefers; unbounded if the preferred direction has no finite bound.
    Solution solution;
    solution.status = SolveStatus::kOptimal;
    solution.x.assign(static_cast<std::size_t>(model.num_variables()), 0.0);
    const double sign = model.sense() == Sense::kMaximize ? -1.0 : 1.0;
    for (int j = 0; j < model.num_variables(); ++j) {
      const Variable& v = model.variable(j);
      const double c = sign * v.objective;
      double x = 0.0;
      if (c > 0) {
        x = v.lower;
      } else if (c < 0) {
        x = v.upper;
      } else {
        x = bound_start_value(v.lower, v.upper);
      }
      if (!std::isfinite(x)) {
        solution.status = SolveStatus::kUnbounded;
        return solution;
      }
      solution.x[static_cast<std::size_t>(j)] = x;
    }
    solution.objective = model.objective_value(solution.x);
    return solution;
  }
  SimplexEngine engine(model, options_, warm);
  Solution solution = engine.run(model);
  solution.reinversions = engine.kernel_stats().reinversions;
  solution.eta_peak = engine.kernel_stats().eta_peak;
  if (basis_out != nullptr && solution.status == SolveStatus::kOptimal) {
    engine.export_basis(*basis_out);
  }
  return solution;
}

}  // namespace prete::lp
