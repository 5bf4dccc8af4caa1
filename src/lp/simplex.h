#pragma once

#include <cstdint>
#include <vector>

#include "lp/basis.h"
#include "lp/model.h"
#include "util/deadline.h"

namespace prete::lp {

// Entering-variable selection rule for the pivot loop.
//
// kDantzig picks the most negative reduced cost — cheap per iteration but
// iteration counts grow sharply on TWAN-scale masters. kDevex (Forrest &
// Goldfarb reference-framework devex) weighs each reduced cost by an
// approximate steepest-edge norm, trading one extra pivot-row sweep per
// pivot for fewer pivots on the TE formulations; it applies to phase 2
// (phase 1, whose transient composite objective starts from an
// all-artificial frame, always prices by Dantzig) and, as dual devex row
// weights, to the dual phase's leaving-row choice. Both rules are pure
// functions of the model and warm-start hint (ties break toward the lowest
// column index), so solve sequences stay deterministic at any thread count;
// the Bland anti-cycling regime overrides either rule after a degenerate
// streak.
enum class PricingRule : std::uint8_t { kDantzig, kDevex };

struct SimplexOptions {
  // Primal feasibility tolerance on bound/constraint violation.
  double feasibility_tol = 1e-7;
  // Dual feasibility (reduced-cost) tolerance.
  double optimality_tol = 1e-7;
  // 0 means "choose automatically from problem size".
  int max_iterations = 0;
  // Rebuild the basis inverse from scratch every this many pivots to bound
  // numerical drift of the product-form updates. The eta-file kernel also
  // reinverts early when an appended eta column's magnitude spread signals
  // drift (see BasisState::update).
  int refactor_interval = 128;
  // Basis-inverse representation (see lp::BasisKernel). kEtaFile replaces
  // the O(m^2)-per-pivot dense inverse update with an O(nnz) eta append on
  // top of a sparse LU anchor rebuilt at each reinversion; kDenseBinv is the
  // historical kernel, kept as the bit-stable reference for equivalence
  // tests and the bench gates.
  BasisKernel kernel = BasisKernel::kEtaFile;
  // Run lp::presolve ahead of the solve and lift the reduced solution back
  // (see lp::solve_with_presolve). Honored by lp::BranchAndBound root and
  // node relaxations via its own wiring; the raw SimplexSolver ignores it
  // because presolve re-indexes rows, and every raw-solver call site in the
  // Benders stack consumes `duals` positionally against the original row
  // order to build cuts — lifting duals through eliminated rows would need
  // the dropped multipliers that presolve discards. Branch-and-bound never
  // reads duals, so the flag lives safely there.
  bool presolve = false;
  // Candidate-list partial pricing: price a rotating window of this many
  // columns per iteration, advancing the window only when it prices out (no
  // eligible column); optimality is declared only after a full rotation
  // finds nothing, so the optimality conditions are unchanged — only the
  // pivot path moves. 0 sizes the window automatically (total/8, clamped to
  // [64, 512]) but engages it only on column-dominated LPs (total >= 4m)
  // where the pricing scan outweighs the kernel solves; row-dominated
  // problems and problems smaller than the window price fully. Negative
  // forces full pricing. The window position is a pure function of the
  // solve history and ties still break toward the lowest column index, so
  // partial pricing preserves determinism at any thread count. The Bland
  // anti-cycling regime always scans every column.
  int pricing_window = 0;
  // Switch to Bland's anti-cycling rule after this many consecutive
  // degenerate pivots.
  int degenerate_pivot_limit = 200;
  // Entering-variable (and dual-phase leaving-row) selection rule (see
  // PricingRule).
  PricingRule pricing = PricingRule::kDevex;
  // Optional cooperative budget, checked (and charged one pivot) at every
  // pivot of both phases. On expiry the solve stops with kIterationLimit;
  // if phase 2 had begun, the returned solution still carries the current
  // primal-feasible point (see SolveStatus::kIterationLimit notes on
  // SimplexSolver::solve). The pointee is mutated by the solve, is not
  // owned, and nullptr (the default) means unlimited — default-constructed
  // solves behave exactly as before.
  util::Deadline* deadline = nullptr;
};

// Snapshot of an optimal basis, reusable as a warm start for a later solve.
// Valid as a hint only when the later model extends the snapshot's model as
// a prefix: the first num_structural() variables and the first num_rows()
// rows (bounds, coefficients, rhs) must be unchanged — appended variables
// and appended rows are fine. Row generation (Benders subproblems, lazy CVaR
// rows) satisfies this by construction. The caller owns that contract; the
// solver only validates internal consistency and falls back to a cold start
// on any mismatch it can detect.
struct SimplexBasis {
  enum class Status : std::uint8_t { kAtLower, kAtUpper, kFreeAtZero, kBasic };
  enum class Kind : std::uint8_t { kStructural, kSlack, kArtificial };
  struct Entry {
    Kind kind = Kind::kArtificial;
    int index = 0;  // structural column j, or the slack's row i
  };

  std::vector<Status> structural_status;  // per structural variable
  std::vector<Status> slack_status;       // per row
  std::vector<Entry> basic;               // basic column of each row

  int num_structural() const { return static_cast<int>(structural_status.size()); }
  int num_rows() const { return static_cast<int>(slack_status.size()); }
  bool valid() const {
    return !slack_status.empty() && basic.size() == slack_status.size();
  }

  // Hint for a model that keeps only the first `rows` rows of the snapshot's
  // model (e.g. the shared capacity-row prefix of successive Benders
  // subproblems). Basic columns of dropped rows demote to their nearest
  // bound. When `structurals >= 0`, statuses of structural variables beyond
  // that count are also dropped (for models that append lazy variables —
  // CVaR shortfall columns — on top of a shared allocation prefix); the
  // default keeps every structural status.
  SimplexBasis truncated(int rows, int structurals = -1) const;
};

// Two-phase bounded-variable revised primal simplex with a dual phase for
// warm starts. The basis inverse is kept either as an explicit dense matrix
// or (the default) as a product-form eta file anchored on a sparse LU
// factorization rebuilt at periodic reinversions — see BasisKernel.
// Designed for the mid-sized LPs produced by the TE formulations (hundreds
// to a few thousand rows once lazy row generation is applied).
//
// A warm start seats the hinted basis and gives every row the hint does not
// cover its own slack. A truncated hint whose slack fill clashes (the slack
// is basic in another row) or whose basis is singular is repaired: the LU
// reports the dependent columns and unpivoted rows, and each dependent
// column gives way to an unpivoted row's slack. When the seated point
// violates bounds but every reduced cost keeps its sign — rows appended
// since the hint, or right-hand sides that moved — a bounded dual simplex
// phase restores primal feasibility (its leaving row priced by dual devex
// under PricingRule::kDevex), and primal phase 2 then certifies optimality
// with exact duals. A hint that cannot be seated this way (neither primal
// nor dual feasible, a repair whose fill slack is already basic) and a dual
// phase that stalls fall back to the all-artificial start; both fallbacks
// are deterministic.
// The same dual phase, under the phase-1 costs, removes an artificial
// residue a phase-1 optimum can leave behind; an LP whose residue it cannot
// remove is reported kInfeasible, never kOptimal.
//
// The returned duals are shadow prices d(objective)/d(rhs) in the model's
// own sense (for kMaximize they are the derivatives of the maximum).
class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  Solution solve(const Model& model) const { return solve(model, nullptr, nullptr); }

  // Warm-startable solve. `warm` (may be null) seeds the starting point and
  // basis from a previous solve under the prefix contract documented on
  // SimplexBasis; `basis_out` (may be null) receives the optimal basis for
  // the next solve in the sequence. Warm starts change only the pivot path,
  // never the optimality conditions, and depend on nothing but the hint —
  // so solve sequences stay deterministic at any thread count.
  //
  // Status contract on kIterationLimit (pivot cap or an expired
  // options.deadline; dual-phase pivots are charged like any other): if the
  // limit fell in phase 2 the solution carries the incumbent — a
  // primal-feasible `x` and its true `objective` — so callers can install it
  // as a best-effort answer; `duals` stay empty because the incumbent basis
  // is not dual-feasible (never build cuts from it). A limit during phase 1
  // or during a dual phase returns an empty `x`: no feasible point was
  // reached. A kOptimal solution satisfies every row and bound up to the
  // feasibility tolerance.
  Solution solve(const Model& model, const SimplexBasis* warm,
                 SimplexBasis* basis_out) const;

 private:
  SimplexOptions options_;
};

}  // namespace prete::lp
