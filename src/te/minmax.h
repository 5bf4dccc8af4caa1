#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"
#include "te/scenario.h"
#include "te/types.h"

namespace prete::te {

// Solver for the paper's availability-constrained min-max-loss program
// (Eqns 2-8): choose tunnel allocations a_{f,t} minimizing the maximum
// beta-quantile loss Phi across flows, where each flow may ignore failure
// scenarios totalling at most (1 - beta) probability (binary delta_{f,q}).
//
// Reformulation used throughout: the loss variables l_{f,q} are eliminated
// (they sit at max(0, 1 - sum_alive a/d) at any optimum), leaving rows
//   Phi + sum_{t in (T u Y)_{f,q}} a_{f,t} / d_f >= delta_{f,q}
// with delta only in the right-hand side — which makes Benders cuts exact
// subgradients of the subproblem value function.
// A learned warm-start hint for solve_min_max_benders, produced by
// ml::WarmStartOracle from solver traces of earlier epochs. A hint is
// advisory only and verified on arrival (see MinMaxOptions::warm_hint):
// nothing in it can change the converged objective, only how fast the
// decomposition reaches it.
struct WarmHint {
  // problem_shape_signature(problem) the prediction was made for. A
  // mismatch (e.g. tunnels were rebuilt mid-call) rejects the whole hint.
  std::uint64_t shape_signature = 0;

  // Predicted per-tunnel allocation (same units/order as
  // TePolicy::allocation). Verified finite, non-negative, and
  // capacity-feasible; on acceptance it seeds the incumbent *policy* — the
  // fallback shipped if a deadline expires before any subproblem finishes —
  // but never the bound pair, which only exact LP values may move.
  std::vector<double> allocation;

  // A (flow, scenario-pattern) pair, the cross-epoch-stable key used by the
  // cut bank: `pattern` is scenario_signature of the failed-fiber set, so
  // the pair survives reduce_scenarios reordering and probability drift.
  // `weight` is meaningful only for `drops`: the predicted master envelope
  // weight that justified the drop (the max-over-cuts aggregate a converged
  // cold solve recorded, see MinMaxResult::trace_drops). It is clamped into
  // [0, 1] — the range genuine Phi-row duals live in — before entering the
  // steering pseudo-cut, so a prediction competes with the fresh cuts on
  // equal footing instead of overriding them with sentinel weights: a wrong
  // drop set loses the master pass to the genuine duals and costs
  // iterations, never a different certificate. Non-finite or negative
  // weights reject the whole hint; a zero weight drops the pair from the
  // steering cut (the master never drops weight-0 scenarios anyway).
  struct Pair {
    int flow = 0;
    std::uint64_t pattern = 0;
    double weight = 0.0;
  };

  // Predicted converged drop set: the scenarios each flow's master is
  // expected to ignore. Steers the first master pass (and drop ordering)
  // via a pseudo-cut that is excluded from the lower bound and the bank.
  std::vector<Pair> drops;

  // Predicted Phi-rows of the final subproblem; valid pairs pre-seed the
  // first subproblem's lazy rows, cutting row-generation rounds.
  std::vector<Pair> active_rows;

  // Oracle's running estimate of an unhinted solve's simplex pivots for
  // this shape (0 = unknown); MinMaxResult::hint_pivots_saved reports
  // max(0, expected_cold_pivots - actual pivots) for accepted hints.
  int expected_cold_pivots = 0;
};

struct MinMaxOptions {
  double beta = 0.99;
  // Benders convergence threshold on UB - LB (Algorithm 2's epsilon).
  double epsilon = 1e-4;
  int max_iterations = 25;
  // The Benders solve is followed by a CVaR refinement that keeps the
  // quantile guarantee "loss <= Phi*" as hard rows — but only when Phi* is
  // small enough to be SLA-meaningful. Past this threshold a fairness
  // guarantee of (say) 22% loss for everyone has no operational value, and
  // enforcing it destroys bulk availability; the refinement then runs
  // unconstrained (pure CVaR on the calibrated scenario set).
  double guarantee_threshold = 0.05;
  // Passed through to every LP solve inside the decomposition (pricing rule,
  // tolerances). Defaults select devex pricing.
  lp::SimplexOptions simplex;
  // Optional cooperative budget (see util::Deadline), checked at every
  // Benders iteration and — via the simplex options — at every pivot of
  // every LP solve in the decomposition, refinement included. On expiry
  // solve_min_max_benders returns its best incumbent with
  // `deadline_exceeded` set and the bound gap it reached, instead of running
  // over. nullptr (the default) is unlimited and leaves the solve bitwise
  // identical to a build without deadlines.
  util::Deadline* deadline = nullptr;
  // Optional learned warm-start hint (not owned; may be null). Every field
  // is verified before use — shape signature, allocation feasibility,
  // pattern validity — and a hint that fails any check is discarded whole:
  // the solve is then bitwise identical to one with no hint. Accepted hints
  // steer the master's first drop selection and pre-seed subproblem rows but
  // are excluded from the bound arithmetic and the cut bank, so the
  // converged phi stays bitwise-equal to the unhinted solve's.
  const WarmHint* warm_hint = nullptr;
  // Fill MinMaxResult::trace_drops / trace_active_rows so a caller can
  // harvest this solve as an oracle training example. Off the default path:
  // tracing only formats keys after convergence, it never changes the solve.
  bool collect_trace = false;
};

struct MinMaxResult {
  TePolicy policy;
  double phi = 1.0;       // maximum beta-quantile loss achieved
  int iterations = 0;     // Benders iterations (1 for the direct solver)
  double upper_bound = 1.0;
  double lower_bound = 0.0;  // clamped to upper_bound for reporting
  bool converged = false;
  // The raw master lower bound exceeded the incumbent upper bound at some
  // iteration — a symptom of stale/incorrect cuts. A crossed bound is never
  // reported as convergence; callers treating `converged` as a certificate
  // should check this flag.
  bool bound_crossed = false;
  // Probability mass of fatal (no-surviving-tunnel) scenarios pre-dropped
  // per flow; each entry fits inside that flow's covered_probability - beta
  // budget and is charged against it before the master drops anything else.
  std::vector<double> pinned_fatal_mass;
  // Total simplex pivots spent across every LP solve in the decomposition
  // (subproblem rounds, per-flow masters, CVaR refinement). The number a
  // basis cache is supposed to shrink.
  int simplex_pivots = 0;
  // Branch-and-bound nodes explored by solve_min_max_direct (0 for the
  // Benders path, which never branches).
  int bb_nodes = 0;
  // Cut-bank provenance (all zero when no CutBank was passed): how many
  // persisted cuts the solve replayed onto its master before iterating, how
  // many stored cuts failed the validity check (changed demand, no surviving
  // pattern) and were dropped, and how many fresh cuts this solve banked for
  // the next epoch.
  int cuts_replayed = 0;
  int cuts_invalidated = 0;
  int cuts_banked = 0;
  // Warm-hint provenance (all zero when MinMaxOptions::warm_hint was null):
  // whether the hint passed verification and was applied, whether it was
  // rejected (shape mismatch, infeasible allocation, or its steered first
  // iteration failed to close the gap and the steering was dropped), and
  // how many pivots the accepted hint saved against the oracle's
  // expected-cold estimate (0 when the estimate is unknown).
  int hint_accepted = 0;
  int hint_rejected = 0;
  int hint_pivots_saved = 0;
  // Bounded-basis stops: subproblems accepted because their lazy LP reached
  // the row cap, and the delta-selected (flow, scenario) pairs whose loss
  // under that subproblem's allocation still exceeds its phi (summed over
  // the stops). Such a subproblem's phi understates the allocation's true
  // worst selected-pair loss; these counters only make that visible, they
  // change no decision.
  int capped_subproblems = 0;
  int capped_violated_pairs = 0;
  // Solve trace for oracle harvesting, filled only when
  // MinMaxOptions::collect_trace is set and the solve converged: the
  // converged master drop set (excluding pre-pinned fatal scenarios) and
  // the final subproblem's generated Phi-rows, both keyed by
  // (flow, pattern signature) so they stay meaningful across epochs. Each
  // drop also records the final master pass's envelope weight for its pair
  // — the quantity a future epoch's steering cut needs to reproduce this
  // drop ordering with genuine-scale weights.
  std::vector<WarmHint::Pair> trace_drops;
  std::vector<WarmHint::Pair> trace_active_rows;
  // The MinMaxOptions deadline expired mid-solve: `policy` is the best
  // incumbent reached (possibly empty if not even one subproblem finished)
  // and `upper_bound`/`lower_bound` bracket how far the decomposition got.
  // `converged` stays meaningful: it is true only when the Benders bounds
  // genuinely closed before the expiry (the deadline then fell in the
  // post-convergence CVaR refinement, which ships the incumbent as-is).
  // Callers should treat the policy as best-effort and consult gap() for
  // the certified slack.
  bool deadline_exceeded = false;

  // Reported bound gap: how far the incumbent is from proven optimal. Always
  // finite and non-negative (the reporting lower bound is clamped).
  double gap() const { return upper_bound - std::min(lower_bound, upper_bound); }
};

// Cross-epoch warm-start state for the Benders decomposition, owned by the
// caller (te::PreTeScheme keeps one per problem shape). `signature` must be
// problem_shape_signature(problem) of the TeProblem the bases were exported
// from: the allocation-variable prefix and capacity-row prefix of the lazy
// LPs are pure functions of the problem shape, so a matching signature means
// the SimplexBasis prefix contract holds and the snapshots are valid hints.
// On a signature mismatch solve_min_max_benders resets the entry and runs
// cold — a stale cache can cost pivots, never correctness.
//
// Each basis is the FULL final basis of its LP, stored together with the
// ordered recipe of the lazy rows (and, for the refinement, lazy shortfall
// variables) that LP had grown. The next solve replays the recipe — adding
// the same rows in the same order before its first solve, stopping at the
// first entry its own state no longer admits — so the snapshot lines up
// row-for-row and the carried optimum survives installation. Truncating the
// basis to the capacity-row prefix instead is useless in practice: the
// allocation variables are basic in the dropped Phi-rows, so truncation
// demotes them to zero and the warm start degenerates to a cold one.
struct BasisCache {
  std::uint64_t signature = 0;

  // Final subproblem basis + the (flow, scenario) keys of its Phi-rows, in
  // row order after the capacity prefix.
  lp::SimplexBasis benders;
  std::vector<std::pair<int, std::size_t>> benders_rows;

  // Final CVaR-refinement basis + its lazy-row recipe. CVaR rows also append
  // one shortfall variable each, so the recipe records the row kind to
  // replay the structural prefix in order.
  struct RefineRow {
    bool guarantee = false;  // false: CVaR row (appends a shortfall variable)
    int flow = 0;
    std::size_t q = 0;
  };
  lp::SimplexBasis refine;
  std::vector<RefineRow> refine_rows;

  int hits = 0;         // solves that consumed a carried basis
  int cold_starts = 0;  // solves that found no usable basis
};

// Cross-epoch bank of Benders optimality cuts, owned by the caller next to
// its BasisCache (te::PreTeScheme keeps one per problem shape). Cuts are
// stored with their weights re-keyed from scenario *indices* to scenario
// *pattern signatures* (scenario_signature), so they survive
// reduce_scenarios reordering and probability drift between epochs — the
// subproblem value function v(delta) depends only on the problem shape,
// demands, capacities, and each scenario's failed-fiber set, never on the
// probabilities, which enter the master alone.
//
// Replay validity is checked, not assumed (see solve_min_max_benders):
//  - `signature` / `environment` mismatches reset the bank — a different LP
//    shape, capacity vector, or link->fiber mapping changes v(delta) itself.
//  - A stored cut replays only when every clamped demand equals its
//    creation-time snapshot. A shrunk demand breaks the inequality (v is
//    monotone nondecreasing in each demand, via the 1/d_f Phi-row
//    coefficients); a grown demand keeps the cut valid but mispriced — its
//    weights permanently outrank fresh cuts in the greedy master's drop
//    ordering and steer the warm solve away from the current optimum — so
//    any demand change drops the cut.
//  - Weight terms whose pattern vanished from the current scenario set are
//    dropped with the constant untouched, which weakens the cut (treats the
//    pattern as delta = 0) but keeps it valid.
// A cut that survives replay is byte-for-byte the inequality the original
// subproblem proved, so warm solves keep the cold solve's convergence
// semantics and bit-determinism across PRETE_THREADS.
struct CutBank {
  std::uint64_t signature = 0;   // problem_shape_signature of the cuts' origin
  std::uint64_t environment = 0;  // cut_environment_signature (capacities,
                                  // link->fiber map) — shape excludes these

  struct Term {
    int flow = 0;
    std::uint64_t pattern = 0;  // scenario_signature of the failed-fiber set
    double weight = 0.0;
  };
  struct Cut {
    double constant = 0.0;
    std::vector<Term> terms;      // sorted by (flow, pattern)
    std::vector<double> demands;  // per-flow demand snapshot at derivation
    std::uint64_t last_active = 0;  // bank epoch the cut last influenced a
                                    // solve (master drop or lower bound)
  };

  std::vector<Cut> cuts;
  std::uint64_t epoch = 0;  // advanced once per banked solve

  // Eviction policy: a cut idle for `inactivity_ttl` epochs is dropped; the
  // total size is bounded by `max_cuts` with oldest-activity-first victims
  // and a deterministic lexicographic tie-break on (terms, constant).
  std::size_t max_cuts = 256;
  std::uint64_t inactivity_ttl = 8;

  // Monotone counters (reset with the bank on a signature change).
  int replayed = 0;     // cuts successfully replayed onto a master
  int invalidated = 0;  // stored cuts dropped by the validity check
  int inserted = 0;     // fresh cuts banked
  int evicted = 0;      // cuts removed by TTL or the size bound
};

// Hash of the subproblem data the shape signature deliberately excludes but
// cut validity depends on: per-link capacities and the link->fiber mapping
// (which fixes what each failure pattern means for tunnel liveness). A warm
// basis is self-revalidating, so BasisCache does not need this; a stale cut
// would silently overestimate the subproblem, so CutBank does.
std::uint64_t cut_environment_signature(const TeProblem& problem);

// Stable hash of the LP-shape-determining parts of a TeProblem: link count,
// tunnel count, and each tunnel's (flow, path) — everything that fixes the
// variable order and the capacity-row coefficients. Demands are deliberately
// excluded: they only move bounds/rhs, which the warm-start installation
// revalidates anyway, and demand drift between epochs is exactly the case a
// carried basis is meant to accelerate.
std::uint64_t problem_shape_signature(const TeProblem& problem);

// Tracks the Benders bound pair across iterations. The lower bound is kept
// raw: a candidate above the upper bound marks the bounds as crossed instead
// of being clamped into a spurious zero gap (the clamp used to convert the
// crossing into `converged = true` silently).
struct BendersBounds {
  double upper = 1.0;
  double lower = 0.0;  // raw best master bound, may exceed `upper` if crossed
  bool crossed = false;

  static constexpr double kCrossingTol = 1e-9;

  void observe_upper(double candidate) { upper = std::min(upper, candidate); }

  // Folds in a master lower-bound estimate; returns true when the gap has
  // genuinely closed. Never reports convergence once the bounds crossed.
  bool update(double candidate, double epsilon) {
    lower = std::max(lower, candidate);
    if (lower > upper + kCrossingTol) crossed = true;
    return !crossed && upper - lower <= epsilon;
  }

  // Reporting form: lower_bound <= upper_bound always holds for callers.
  double clamped_lower() const { return std::min(lower, upper); }
};

// The exact mixed-integer program behind solve_min_max_direct: allocation
// variables, Phi, and per (flow, scenario) a binary delta and a loss l with
// rows (4) sum_{t alive} a + d * l >= d and (6) Phi - l - delta >= -1, the
// capacity rows, and per flow (5) sum_q p_q delta >= beta.
struct DirectModel {
  lp::Model model{lp::Sense::kMinimize};
  std::vector<int> alloc;  // allocation variable of each tunnel
  int phi = -1;            // the Phi variable
};
DirectModel build_min_max_direct_model(const TeProblem& problem,
                                       const ScenarioSet& scenarios,
                                       double beta);

// Exact mixed-integer solve via branch-and-bound over all delta_{f,q}.
// Only tractable for small instances (|F| x |Q| <~ 60); used as the ground
// truth in tests and for the worked examples of Figures 2/3/7.
MinMaxResult solve_min_max_direct(const TeProblem& problem,
                                  const ScenarioSet& scenarios,
                                  const MinMaxOptions& options = {});

// Benders decomposition (Algorithm 2 + Appendix A.4): subproblem LP with
// lazy rows, optimality cuts from the duals, and a per-flow master that
// selects which scenarios each flow must survive (probability mass >= beta).
//
// `cache` (may be null) carries simplex bases across calls: on entry a cache
// whose signature matches the problem shape seeds the subproblem and
// refinement warm starts; on exit the final bases and row recipes are
// written back. A warm start never changes an LP's optimal value
// (installation revalidates feasibility and falls back cold), but it can
// steer which optimal basis — and hence which lazy rows — the decomposition
// visits, so cached and uncached runs may return different policies of equal
// quality. For a fixed cache state the solve is still a pure function of its
// inputs: repeated runs, at any thread count, are bit-identical.
//
// `cut_bank` (may be null) carries Benders optimality cuts across calls: on
// entry every stored cut that passes the validity check (see CutBank) is
// replayed onto the master before iteration 1, so steady-state epochs
// converge in fewer iterations; on exit this solve's fresh cuts are banked
// and idle cuts evicted. Replayed cuts are exact inequalities of the current
// instance, so convergence, bound semantics, and thread-count bit-identity
// are preserved; the solve remains a pure function of (inputs, cache state,
// bank state).
MinMaxResult solve_min_max_benders(const TeProblem& problem,
                                   const ScenarioSet& scenarios,
                                   const MinMaxOptions& options = {},
                                   BasisCache* cache = nullptr,
                                   CutBank* cut_bank = nullptr);

}  // namespace prete::te
