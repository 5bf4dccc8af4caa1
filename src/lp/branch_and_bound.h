#pragma once

#include "lp/model.h"
#include "lp/simplex.h"

namespace prete::lp {

struct BranchAndBoundOptions {
  SimplexOptions simplex;
  double integrality_tol = 1e-6;
  // Relative optimality gap at which the search stops.
  double gap_tol = 1e-6;
  int max_nodes = 20000;
  // Nodes popped (best-first) and relaxed per wave. Waves are evaluated in
  // parallel on the runtime pool, then merged in fixed slot order, and the
  // wave size never depends on the worker count — so the node tree, the
  // incumbent sequence, and every returned bit are identical at any
  // PRETE_THREADS. Values <= 1 evaluate serially; a solve with
  // simplex.deadline set is always serial regardless of this setting,
  // because concurrent relaxations would race on the shared deadline's
  // pivot accounting (and wall-clock expiry mid-wave would make the node
  // tree timing-dependent).
  int wave_size = 8;
};

// Best-first branch-and-bound over the model's integer variables, using the
// simplex core for node relaxations. Intended for the small MIPs left after
// Benders decomposition (the master problem over binary scenario selectors)
// and for verifying the decomposition in tests.
//
// Node relaxations are evaluated in deterministic parallel waves (see
// BranchAndBoundOptions::wave_size). The returned Solution aggregates work
// counters across every node relaxation: `iterations` (total simplex
// pivots), `reinversions` (summed sparse-LU anchor rebuilds), `eta_peak`
// (maxed) and `nodes_explored`.
//
// When `options.simplex.presolve` is set, the model is run through
// lp::presolve first and the branch-and-bound search operates on the
// reduced model; the returned `x` is lifted back to the original variable
// space and the objective re-evaluated against the original model. Duals
// are not lifted (presolve re-indexes rows) — they come back empty, which
// is safe here because no branch-and-bound caller consumes duals; the
// dual-consuming Benders path calls SimplexSolver directly, where the flag
// is deliberately ignored (see SimplexOptions::presolve).
class BranchAndBound {
 public:
  explicit BranchAndBound(BranchAndBoundOptions options = {})
      : options_(options) {}

  Solution solve(const Model& model) const;

 private:
  Solution solve_direct(const Model& model) const;

  BranchAndBoundOptions options_;
};

}  // namespace prete::lp
