#pragma once

#include <functional>

#include "net/topology.h"
#include "net/traffic.h"
#include "sim/fault_injector.h"
#include "te/availability.h"
#include "te/evaluator.h"

namespace prete::sim {

// Monte Carlo validation of the analytic availability study: instead of
// probability-weighting enumerated scenarios, sample TE epochs end to end —
// degradation arrivals per fiber, conditional cuts, abrupt cuts — evaluate
// the deployed policy's flow losses in each sampled epoch, and report the
// empirical availability. The analytic and sampled numbers must agree
// within Monte Carlo error; this closes the loop on the evaluator.
//
// Epochs run in parallel on the runtime thread pool. Each run draws exactly
// one u64 from the caller's rng to derive a root stream; epoch e then
// samples from root.split(e), and the availability sums fold in fixed chunk
// order — so results are bit-identical at any PRETE_THREADS setting.
struct MonteCarloConfig {
  int epochs = 4000;
  double beta = 0.99;
  te::ScenarioOptions planning_scenarios;
  te::TunnelUpdateConfig tunnel_update;
  double loss_tolerance = 1e-4;
  // Optional pluggable believed-scenario generator (SRLG-correlated models,
  // scenario reduction): replaces generate_failure_scenarios for the static
  // schemes' beliefs and is forwarded to PreTeScheme in run_prete. Must be
  // deterministic.
  te::ScenarioSource planning_source;
  // Optional correlated nature model: after the independent per-fiber
  // draws, each cut event fires with its probability and cuts its members
  // per the conditional probabilities — still one split stream per epoch,
  // so determinism is unchanged. Null = independent nature (bit-compatible
  // with pre-correlation runs). The pointee must outlive the study.
  const te::CorrelatedFailureModel* correlated_nature = nullptr;
};

struct MonteCarloResult {
  double mean_flow_availability = 0.0;
  int epochs_with_degradation = 0;
  int epochs_with_cut = 0;
  // Standard error of the availability estimate (per-epoch variance).
  double standard_error = 0.0;
  // Component faults applied to policy computation (fault-aware run_prete
  // only; 0 otherwise). Control-plane kinds, and prediction faults drawn for
  // the no-degradation signature, change nothing and are not counted.
  int faults_injected = 0;
};

class MonteCarloStudy {
 public:
  MonteCarloStudy(const net::Topology& topology, te::PlantStatistics stats,
                  MonteCarloConfig config = {});

  // Samples epochs for a static policy (computed once on the believed
  // static probabilities, like the baselines).
  MonteCarloResult run_static(te::TeScheme& scheme,
                              const net::TrafficMatrix& demands,
                              util::Rng& rng) const;

  // Samples epochs for PreTE: each degradation epoch recomputes the policy
  // with the calibrated probability and Algorithm-1 tunnels.
  //
  // `faults` (may be null = no faults) injects component faults into each
  // policy computation, keyed by signature step = degraded_fiber + 1:
  // predictor NaN/throw become a NaN prediction (sanitized to the static
  // prior by PreTeScheme), telemetry corruption becomes an absurd
  // prediction (clamped), kDeadlineExpiry solves under a tight pivot
  // budget, and kSolverCollapse under a 1-pivot budget (the policy comes
  // back empty and evaluates as fully lost — degraded availability, never
  // a crash). Determinism contract unchanged: results are bit-identical at
  // any thread count for a fixed (rng, faults) pair.
  MonteCarloResult run_prete(const net::TrafficMatrix& demands,
                             util::Rng& rng,
                             const FaultInjector* faults = nullptr) const;

 private:
  // Samples which fibers degrade and which fail in one epoch.
  struct Epoch {
    std::vector<bool> degraded;
    std::vector<bool> failed;
  };
  Epoch sample_epoch(util::Rng& rng) const;

  double epoch_availability(const te::TeProblem& problem,
                            const te::TePolicy& policy,
                            const Epoch& epoch) const;

  const net::Topology& topology_;
  te::PlantStatistics stats_;
  MonteCarloConfig config_;
  net::TunnelSet base_tunnels_;
};

}  // namespace prete::sim
