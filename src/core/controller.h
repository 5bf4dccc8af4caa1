#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ml/oracle.h"
#include "ml/predictor.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "optical/detector.h"
#include "optical/sanitize.h"
#include "sim/latency.h"
#include "te/availability.h"
#include "te/prete.h"
#include "util/deadline.h"

namespace prete::core {

// Configuration of a PreTE deployment.
struct ControllerConfig {
  te::PreTeConfig te;
  sim::LatencyModel latency;
  // How long a dynamic tunnel is kept after a degradation clears (one TE
  // period by default, §4.2).
  double dynamic_tunnel_ttl_sec = 300.0;
  // Per-decision solve budget (see util::Deadline): maximum simplex pivots
  // and wall-clock milliseconds the TE solve may spend before the controller
  // degrades to a fallback policy. 0 disables the respective limit; both 0
  // (the default) leaves decisions bitwise identical to an unbudgeted build.
  // The pivot budget is deterministic; the wall-clock budget is not and
  // should stay off in reproducibility-sensitive runs.
  std::int64_t solver_pivot_budget = 0;
  double solver_wall_ms = 0.0;
  // Learned warm-start oracle (ml::WarmStartOracle): when enabled the
  // controller harvests converged solver traces each decision, trains the
  // oracle incrementally after the decision is assembled (off the solve
  // path), and passes its predictions into the Benders solve as
  // verified-on-arrival hints. A hint can only reduce pivots — converged
  // objectives are bitwise-unaffected by construction (see
  // te::MinMaxOptions::warm_hint) — so the knob defaults off purely to keep
  // the default controller allocation-free of oracle state.
  bool learned_warm_start = false;
  ml::OracleConfig oracle;
};

// Which rung of the controller's graceful-degradation ladder produced a
// decision. Ordered from best to worst; every rung's policy passes
// validate_policy before installation.
enum class FallbackLevel {
  kFull = 0,         // Benders solve ran to completion
  kIncumbent = 1,    // deadline expired; solver's best incumbent installed
  kLastGood = 2,     // last validated policy re-projected onto current tunnels
  kStaticFloor = 3,  // capacity-safe equal split (no solver involved)
};

// The outcome of one control decision: the policy to install, the pipeline
// timing that producing it would take on the testbed, and bookkeeping about
// the tunnels created.
struct ControlDecision {
  te::TePolicy policy;
  te::ScenarioSet believed_scenarios;
  sim::PipelineTrace pipeline;
  int new_tunnels = 0;
  double phi = 0.0;  // guaranteed beta-quantile loss (1.0 on fallback rungs)
  // Simplex pivots spent producing this decision — drops on epochs that
  // reuse a carried basis (see te::BasisCache).
  int solver_pivots = 0;
  // Benders iterations the solve took (0 when the solve threw before
  // returning). Steady-state epochs with a warm cut bank converge in fewer
  // iterations than cold ones.
  int benders_iterations = 0;
  // Cut-bank provenance of the solve behind this decision (see te::CutBank):
  // persisted cuts replayed onto the master, stored cuts dropped by the
  // validity check, and fresh cuts banked for the next epoch. All zero when
  // the solve threw — on the ladder's lower rungs the counters still
  // describe the attempted solve, whose bank writeback already happened.
  int cuts_replayed = 0;
  int cuts_invalidated = 0;
  int cuts_banked = 0;
  // Warm-hint provenance of the solve (see te::MinMaxResult): whether a
  // learned hint was applied, rejected (verification failure or mid-solve
  // discard), and how many pivots an applied hint saved against the
  // oracle's expected-cold estimate. All zero when the oracle is disabled,
  // abstained, or the solve threw.
  int hint_accepted = 0;
  int hint_rejected = 0;
  int hint_pivots_saved = 0;
  // Row-cap provenance of the solve (see te::MinMaxResult): subproblems
  // accepted at the bounded-basis stop, and the selected (flow, scenario)
  // pairs their allocations left violated. Reported phi does not account
  // for those pairs. All zero when the solve threw.
  int capped_subproblems = 0;
  int capped_violated_pairs = 0;
  // Degradation-ladder bookkeeping: which rung produced `policy`, whether
  // the solve deadline expired on the way, and the Benders bound gap of the
  // installed policy (0 at proven optimality, 1.0 on the ladder's lower
  // rungs where no bound exists).
  FallbackLevel fallback_level = FallbackLevel::kFull;
  bool deadline_exceeded = false;
  double gap = 0.0;
  // True when the solve behind this decision was cancelled by a superseding
  // epoch (util::Deadline::request_cancel). The harvested incumbent is
  // still installed through the ladder, but a superseded decision never
  // refreshes the last-good snapshot: the canceller is about to install a
  // fresher policy, and a half-finished solve must not become the state the
  // controller falls back to.
  bool superseded = false;
};

// The side-effect-free front half of a telemetry epoch (input guards,
// sanitization, degradation detection, failure prediction, scenario
// regeneration), produced by Controller::prepare_telemetry and consumed by
// Controller::decide_prepared. The epoch pipeline prepares epoch t+1 on the
// thread pool while epoch t's solve is still running.
struct PreparedEpoch {
  // Window rejected by the input guards (unknown fiber, empty/oversized
  // trace, negative start, bad healthy loss): nothing else is filled in.
  bool malformed = false;
  // A degradation was found; `scenario` and `prepared` are valid.
  bool has_signal = false;
  optical::TelemetryQuality quality;
  te::DegradationScenario scenario;
  // Scenario regeneration done ahead of the solve (see
  // te::PreTeScheme::prepare_scenarios).
  std::optional<te::PreTeScheme::Prepared> prepared;
};

// The PreTE controller (Figure 8): consumes per-second optical telemetry,
// detects degradations, queries the failure predictor, reactively creates
// tunnels, and solves the availability-constrained TE program.
//
// The controller owns a mutable tunnel table seeded from the topology; each
// degradation may append dynamic tunnels, and `on_degradation_cleared`
// restores the original state.
//
// Fault tolerance: every decision descends a graceful-degradation ladder
// (FallbackLevel) until a rung produces a policy that passes
// validate_policy. A solver exception, an expired deadline with no usable
// incumbent, or a validator rejection moves to the next rung; the static
// floor always succeeds, so a decision is always produced and is always
// safe to install.
class Controller {
 public:
  Controller(const net::Topology& topology,
             std::vector<double> static_fiber_probs,
             std::shared_ptr<const ml::FailurePredictor> predictor,
             ControllerConfig config = {});

  // Periodic TE run (every TE period, no degradation signal).
  ControlDecision on_te_period(const net::TrafficMatrix& demands);

  // Telemetry-triggered run: a trace window for one fiber is scanned; if a
  // degradation is found, the full reactive pipeline executes. Returns
  // nullopt when the trace shows no degradation — or when the window is
  // malformed (unknown fiber, empty/oversized trace, negative start time,
  // non-positive or non-finite healthy loss) or carried no usable signal;
  // consult last_telemetry_quality() to distinguish. The raw trace is
  // sanitized (optical::sanitize_trace) before detection; a window that is
  // degraded but untrusted (mostly-missing, stuck-at) still triggers the
  // pipeline, using the fiber's static probability instead of the ML
  // predictor whose features the garbage window would have fed.
  std::optional<ControlDecision> on_telemetry(
      net::FiberId fiber, const std::vector<double>& trace_db,
      optical::TimeSec trace_start_sec, double healthy_loss_db,
      const net::TrafficMatrix& demands);

  // Degradation event already extracted (e.g. by an external telemetry
  // system): run prediction + tunnel updates + optimization.
  ControlDecision on_degradation(const optical::DegradationFeatures& features,
                                 const net::TrafficMatrix& demands);

  // The telemetry front half of on_telemetry, with no controller-state side
  // effects: input guards, sanitization, detection, prediction, and
  // scenario regeneration. Const and safe to call concurrently with a
  // running decide_prepared — this is how the epoch pipeline overlaps epoch
  // t+1's ingest with epoch t's solve. The failure predictor must be
  // thread-safe for concurrent preparation; every predictor in this repo is
  // a pure const function of the features.
  PreparedEpoch prepare_telemetry(net::FiberId fiber,
                                  const std::vector<double>& trace_db,
                                  optical::TimeSec trace_start_sec,
                                  double healthy_loss_db) const;

  // The stateful back half: tunnel updates, the (budgeted) solve, the
  // degradation ladder, and last-good bookkeeping. on_telemetry is exactly
  // prepare_telemetry + decide_prepared, so pipelined and serial execution
  // produce bit-identical decision sequences.
  //
  // `external`, when non-null, is the deadline threaded through the solve
  // in place of an internal one (the configured budgets are armed on it
  // first): another thread may request_cancel() it to abandon the solve
  // mid-flight, harvesting the best incumbent through the ladder. A
  // cancelled solve's decision is marked `superseded` and never refreshes
  // the last-good snapshot.
  ControlDecision decide_prepared(const PreparedEpoch& prepared,
                                  const net::TrafficMatrix& demands,
                                  util::Deadline* external = nullptr);

  // The degradation cleared without a cut (or the cut was repaired):
  // dynamic tunnels are dismantled (§4.2).
  void on_degradation_cleared();

  // Replaces the solve budget for subsequent decisions. Exists so fault
  // campaigns and operators can tighten or lift the budget without
  // rebuilding the controller. Semantics of the two knobs:
  //  - pivot_budget = 0 disables the pivot budget; wall_ms = 0 disables the
  //    wall clock. Both 0 means unlimited solves.
  //  - wall_ms = 0 with pivot_budget > 0 is the pivot-budget-only mode:
  //    solves are cut after exactly `pivot_budget` simplex pivots, which is
  //    a pure function of the work done — decisions stay bit-identical
  //    across runs and thread counts. This is the mode reproducibility-
  //    sensitive deployments (and every deterministic test) should use.
  //  - wall_ms > 0 arms a real-time bound as well; expiry then depends on
  //    machine load, so decisions are no longer reproducible run-to-run.
  // Negative pivot_budget, or negative/NaN wall_ms, is a contract violation
  // and throws std::invalid_argument without touching the current budget.
  void set_solver_budget(std::int64_t pivot_budget, double wall_ms = 0.0);

  // Chaos-engineering seam: the next `n` solve attempts throw from inside
  // the solve stage (before the scheme runs), exercising the ladder's
  // exception containment exactly as a crashing solver would. Used by the
  // fault campaign's solver-exception injection; never armed in production.
  void arm_solver_exception(int n) { armed_solver_faults_ = n; }

  const net::TunnelSet& tunnels() const { return tunnels_; }
  const ControllerConfig& config() const { return config_; }
  const std::vector<double>& static_probs() const { return static_probs_; }
  // The long-lived TE scheme — exposes basis-cache statistics so callers
  // can observe cross-epoch warm-start behavior.
  const te::PreTeScheme& scheme() const { return scheme_; }
  // Quality verdict of the most recent on_telemetry window (default-
  // constructed before the first call).
  const optical::TelemetryQuality& last_telemetry_quality() const {
    return last_telemetry_quality_;
  }
  // The learned warm-start oracle's counters (all zero when
  // ControllerConfig::learned_warm_start is off).
  ml::WarmStartOracle::Stats oracle_stats() const {
    return oracle_ ? oracle_->stats() : ml::WarmStartOracle::Stats{};
  }

 private:
  ControlDecision run_pipeline(const te::DegradationScenario& scenario,
                               const net::TrafficMatrix& demands,
                               bool include_detection,
                               const te::PreTeScheme::Prepared* prepared =
                                   nullptr,
                               util::Deadline* external = nullptr);
  // Builds the degradation scenario for one detected event, querying the
  // failure predictor (with the static-probability fallback on a throwing
  // predictor). Const: shared by on_degradation and prepare_telemetry.
  te::DegradationScenario scenario_for_features(
      const optical::DegradationFeatures& features) const;
  // Rung 2: the last validated policy, truncated to the static tunnel
  // prefix, re-sized to the current tunnel table. Nullopt when no decision
  // has been validated yet or the re-projection fails validation.
  std::optional<te::TePolicy> last_good_projection() const;
  // Rung 3: per-flow equal split over the static tunnels, scaled down by
  // the worst link-overload ratio — capacity-safe by construction.
  te::TePolicy static_floor(const net::TrafficMatrix& demands) const;
  te::TeProblem current_problem(const net::TrafficMatrix& demands) const;

  const net::Topology& topology_;
  std::vector<double> static_probs_;
  std::shared_ptr<const ml::FailurePredictor> predictor_;
  ControllerConfig config_;
  net::TunnelSet tunnels_;
  // Persists across on_te_period / on_degradation calls so its per-shape
  // basis caches carry simplex warm starts — and its per-shape cut banks
  // carry Benders optimality cuts — from epoch to epoch. A topology or
  // tunnel-set change alters the problem-shape signature, which invalidates
  // the affected entry (cold solve, identical result). Degradation-ladder
  // interaction: a deadline-starved solve (kIncumbent rung) still banks the
  // cuts its completed subproblems derived — they are exact inequalities
  // regardless of convergence — so even a string of degraded epochs keeps
  // warming the next full solve; only a solve that throws banks nothing.
  te::PreTeScheme scheme_;
  // Ladder state. The last-good policy is stored truncated to the static
  // tunnel prefix: dynamic tunnel ids are reused across
  // on_degradation_cleared, so allocations beyond the prefix would silently
  // land on different tunnels than they were computed for.
  // Learned warm-start state (engaged only when the config enables it).
  // Owned here — not by the scheme — because harvesting needs the
  // controller's view of the epoch (effective fiber probabilities, the
  // post-update tunnel table) and training must run off the solve path.
  std::optional<ml::WarmStartOracle> oracle_;
  int num_static_tunnels_ = 0;
  std::optional<te::TePolicy> last_good_;
  optical::TelemetryQuality last_telemetry_quality_;
  // Armed solver-exception count (see arm_solver_exception).
  int armed_solver_faults_ = 0;
};

}  // namespace prete::core
