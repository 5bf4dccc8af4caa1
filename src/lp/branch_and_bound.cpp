#include "lp/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "lp/presolve.h"
#include "runtime/parallel.h"

namespace prete::lp {

namespace {

struct Node {
  // Extra bounds imposed by branching: (var, lower, upper).
  std::vector<std::tuple<int, double, double>> bounds;
  double relaxation_bound;  // parent relaxation objective (minimization form)
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    return a.relaxation_bound > b.relaxation_bound;  // best-first
  }
};

// One relaxation scratch, reused across the nodes a wave slot evaluates.
// Instead of resetting every variable's bounds per node (O(n) per node, and
// n dwarfs the branch depth on the Benders masters), only the variables the
// previous node's branch path touched are restored from the base model.
struct Scratch {
  Model model;
  std::vector<int> touched;
};

struct NodeResult {
  bool conflict = false;
  Solution relax;
};

NodeResult evaluate_node(const Model& base, const SimplexSolver& simplex,
                         Scratch& scratch, const Node& node) {
  for (const int var : scratch.touched) {
    const Variable& v = base.variable(var);
    scratch.model.set_bounds(var, v.lower, v.upper);
  }
  scratch.touched.clear();

  NodeResult result;
  for (const auto& [var, lo, hi] : node.bounds) {
    const Variable& v = scratch.model.variable(var);
    const double new_lo = std::max(v.lower, lo);
    const double new_hi = std::min(v.upper, hi);
    if (new_lo > new_hi) {
      result.conflict = true;
      return result;
    }
    scratch.model.set_bounds(var, new_lo, new_hi);
    scratch.touched.push_back(var);
  }
  result.relax = simplex.solve(scratch.model);
  return result;
}

int most_fractional(const Model& model, const std::vector<double>& x,
                    double tol) {
  int best = -1;
  double best_frac = tol;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (!model.variable(j).is_integer) continue;
    const double v = x[static_cast<std::size_t>(j)];
    const double frac = std::abs(v - std::round(v));
    if (frac > best_frac) {
      best_frac = frac;
      best = j;
    }
  }
  return best;
}

}  // namespace

Solution BranchAndBound::solve(const Model& model) const {
  if (!options_.simplex.presolve) return solve_direct(model);

  const PresolveResult pre = presolve(model);
  if (pre.infeasible) {
    Solution out;
    out.status = SolveStatus::kInfeasible;
    return out;
  }
  // An integer variable presolve fixed at a fractional value (a singleton
  // row forcing x = 0.5, say) makes the MIP infeasible — the reduced model
  // no longer carries the variable, so the check must happen here.
  for (int j = 0; j < model.num_variables(); ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (!model.variable(j).is_integer || pre.variable_map[js] >= 0) continue;
    const double v = pre.fixed_value[js];
    if (std::abs(v - std::round(v)) > options_.integrality_tol) {
      Solution out;
      out.status = SolveStatus::kInfeasible;
      return out;
    }
  }
  BranchAndBound inner_solver([&] {
    BranchAndBoundOptions inner = options_;
    inner.simplex.presolve = false;
    return inner;
  }());
  Solution reduced = inner_solver.solve_direct(pre.reduced);
  if (reduced.x.empty()) return reduced;
  reduced.x = pre.restore(reduced.x);
  reduced.objective = model.objective_value(reduced.x);
  reduced.duals.clear();  // presolve re-indexed the rows; see class comment
  return reduced;
}

Solution BranchAndBound::solve_direct(const Model& model) const {
  SimplexSolver simplex(options_.simplex);
  if (!model.has_integers()) return simplex.solve(model);

  const double sense_sign = model.sense() == Sense::kMaximize ? -1.0 : 1.0;

  Solution incumbent;
  incumbent.status = SolveStatus::kInfeasible;
  double incumbent_value = kInfinity;  // minimization form

  // A shared deadline's pivot accounting (and its latched wall-clock expiry)
  // would race across concurrent relaxations, so deadline solves go serial.
  const int wave =
      options_.simplex.deadline != nullptr ? 1 : std::max(1, options_.wave_size);

  std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
  open.push({{}, -kInfinity});
  int nodes = 0;
  bool hit_node_limit = false;
  int total_pivots = 0;
  int total_reinversions = 0;
  int eta_peak = 0;

  std::vector<Scratch> slots;
  slots.reserve(static_cast<std::size_t>(wave));
  for (int s = 0; s < wave; ++s) slots.push_back({model, {}});
  std::vector<Node> wave_nodes;
  wave_nodes.reserve(static_cast<std::size_t>(wave));

  while (!open.empty() && nodes < options_.max_nodes) {
    // Pop the wave: up to `wave` best-bound nodes that survive pruning
    // against the incumbent as of the wave boundary. Pop order (and with it
    // the whole node tree) is a pure function of the queue contents.
    wave_nodes.clear();
    while (!open.empty() && static_cast<int>(wave_nodes.size()) < wave &&
           nodes < options_.max_nodes) {
      Node node = open.top();
      open.pop();
      ++nodes;
      if (node.relaxation_bound >= incumbent_value - options_.gap_tol *
                                        (1.0 + std::abs(incumbent_value))) {
        continue;  // cannot improve
      }
      wave_nodes.push_back(std::move(node));
    }
    if (wave_nodes.empty()) continue;

    // Evaluate the wave. Each slot owns its scratch model, every relaxation
    // is a self-contained function of its node's branch path, and
    // parallel_map preserves slot order — bit-identical at any pool size.
    std::vector<NodeResult> results;
    if (wave_nodes.size() == 1) {
      results.push_back(
          evaluate_node(model, simplex, slots[0], wave_nodes[0]));
    } else {
      results = runtime::parallel_map(wave_nodes.size(), [&](std::size_t s) {
        return evaluate_node(model, simplex, slots[s], wave_nodes[s]);
      });
    }

    // Merge in fixed slot order; the incumbent may tighten mid-merge, which
    // prunes later slots of the same wave exactly as it would serially.
    for (std::size_t s = 0; s < results.size(); ++s) {
      const NodeResult& result = results[s];
      if (result.conflict) continue;
      const Solution& relax = result.relax;
      total_pivots += relax.iterations;
      total_reinversions += relax.reinversions;
      eta_peak = std::max(eta_peak, relax.eta_peak);
      if (relax.status == SolveStatus::kUnbounded) {
        // An unbounded relaxation at the root means the MIP itself may be
        // unbounded; report it rather than silently pruning.
        if (wave_nodes[s].bounds.empty()) {
          Solution out;
          out.status = SolveStatus::kUnbounded;
          out.iterations = total_pivots;
          out.reinversions = total_reinversions;
          out.eta_peak = eta_peak;
          out.nodes_explored = nodes;
          return out;
        }
        continue;
      }
      if (relax.status != SolveStatus::kOptimal) continue;
      const double relax_value = sense_sign * relax.objective;
      if (relax_value >= incumbent_value - options_.gap_tol *
                             (1.0 + std::abs(incumbent_value))) {
        continue;
      }

      const int branch_var =
          most_fractional(model, relax.x, options_.integrality_tol);
      if (branch_var < 0) {
        // Integral: new incumbent.
        incumbent = relax;
        incumbent_value = relax_value;
        continue;
      }

      const double v = relax.x[static_cast<std::size_t>(branch_var)];
      Node down = wave_nodes[s];
      down.relaxation_bound = relax_value;
      down.bounds.emplace_back(branch_var, -kInfinity, std::floor(v));
      Node up = wave_nodes[s];
      up.relaxation_bound = relax_value;
      up.bounds.emplace_back(branch_var, std::ceil(v), kInfinity);
      open.push(std::move(down));
      open.push(std::move(up));
    }
  }
  hit_node_limit = !open.empty() && nodes >= options_.max_nodes;

  if (incumbent.status == SolveStatus::kOptimal) {
    // Round integer variables exactly.
    for (int j = 0; j < model.num_variables(); ++j) {
      if (model.variable(j).is_integer) {
        incumbent.x[static_cast<std::size_t>(j)] =
            std::round(incumbent.x[static_cast<std::size_t>(j)]);
      }
    }
    if (hit_node_limit) incumbent.status = SolveStatus::kIterationLimit;
    incumbent.iterations = total_pivots;
    incumbent.reinversions = total_reinversions;
    incumbent.eta_peak = eta_peak;
    incumbent.nodes_explored = nodes;
    return incumbent;
  }
  Solution out;
  out.status =
      hit_node_limit ? SolveStatus::kIterationLimit : SolveStatus::kInfeasible;
  out.iterations = total_pivots;
  out.reinversions = total_reinversions;
  out.eta_peak = eta_peak;
  out.nodes_explored = nodes;
  return out;
}

}  // namespace prete::lp
