#include "sim/monte_carlo.h"

#include <cmath>
#include <limits>

#include "runtime/parallel.h"
#include "util/deadline.h"
#include "te/prete.h"
#include "te/scenario.h"

namespace prete::sim {

namespace {

// Per-epoch accumulator folded by parallel_reduce in fixed chunk order.
struct EpochAccumulator {
  double sum = 0.0;
  double sum_sq = 0.0;
  int degraded = 0;
  int cut = 0;
};

EpochAccumulator merge(EpochAccumulator a, const EpochAccumulator& b) {
  a.sum += b.sum;
  a.sum_sq += b.sum_sq;
  a.degraded += b.degraded;
  a.cut += b.cut;
  return a;
}

// Epochs per scheduled task: sampling + one loss evaluation is cheap, so
// batch enough of them to amortize the pool overhead.
constexpr std::size_t kEpochGrain = 16;

MonteCarloResult finalize(const EpochAccumulator& acc, int epochs) {
  MonteCarloResult result;
  result.epochs_with_degradation = acc.degraded;
  result.epochs_with_cut = acc.cut;
  const double n = static_cast<double>(epochs);
  result.mean_flow_availability = acc.sum / n;
  const double var =
      std::max(0.0, acc.sum_sq / n - result.mean_flow_availability *
                                         result.mean_flow_availability);
  result.standard_error = std::sqrt(var / n);
  return result;
}

}  // namespace

MonteCarloStudy::MonteCarloStudy(const net::Topology& topology,
                                 te::PlantStatistics stats,
                                 MonteCarloConfig config)
    : topology_(topology),
      stats_(std::move(stats)),
      config_(config),
      base_tunnels_(net::build_tunnels(topology.network, topology.flows)) {}

MonteCarloStudy::Epoch MonteCarloStudy::sample_epoch(util::Rng& rng) const {
  Epoch epoch;
  const auto n = static_cast<std::size_t>(stats_.num_fibers());
  epoch.degraded.assign(n, false);
  epoch.failed.assign(n, false);
  for (std::size_t f = 0; f < n; ++f) {
    if (rng.bernoulli(stats_.degradation_prob[f])) {
      epoch.degraded[f] = true;
      // Degradation-conditioned cut.
      if (rng.bernoulli(stats_.cut_given_degradation[f])) {
        epoch.failed[f] = true;
      }
    } else if (rng.bernoulli((1.0 - stats_.alpha) * stats_.cut_prob[f])) {
      // Quiet-epoch (unpredictable) cut, per Theorem 4.1's discount.
      epoch.failed[f] = true;
    }
  }
  // Correlated events (conduit dig-ups, weather cells) stack on the
  // independent draws: abrupt multi-fiber cuts with no degradation warning.
  if (config_.correlated_nature != nullptr) {
    for (const te::CutEvent& event : config_.correlated_nature->events) {
      if (!rng.bernoulli(event.probability)) continue;
      for (std::size_t i = 0; i < event.fibers.size(); ++i) {
        if (rng.bernoulli(event.conditional[i])) {
          epoch.failed[static_cast<std::size_t>(event.fibers[i])] = true;
        }
      }
    }
  }
  return epoch;
}

double MonteCarloStudy::epoch_availability(const te::TeProblem& problem,
                                           const te::TePolicy& policy,
                                           const Epoch& epoch) const {
  te::FailureScenario scenario;
  scenario.fiber_failed = epoch.failed;
  scenario.probability = 1.0;
  const auto losses = te::flow_losses(problem, policy, scenario);
  int ok = 0;
  for (double loss : losses) {
    if (loss <= config_.loss_tolerance) ++ok;
  }
  return losses.empty() ? 1.0
                        : static_cast<double>(ok) /
                              static_cast<double>(losses.size());
}

MonteCarloResult MonteCarloStudy::run_static(te::TeScheme& scheme,
                                             const net::TrafficMatrix& demands,
                                             util::Rng& rng) const {
  te::TeProblem problem;
  problem.network = &topology_.network;
  problem.flows = &topology_.flows;
  problem.tunnels = &base_tunnels_;
  problem.demands = demands;
  const auto believed =
      config_.planning_source
          ? config_.planning_source(stats_.cut_prob)
          : te::generate_failure_scenarios(stats_.cut_prob,
                                           config_.planning_scenarios);
  const te::TePolicy policy = scheme.compute(problem, believed);

  // One draw advances the caller's rng identically at any thread count;
  // epoch e samples from the index-derived stream root.split(e).
  const util::Rng root(rng.next_u64());
  const EpochAccumulator total = runtime::parallel_reduce(
      static_cast<std::size_t>(config_.epochs), EpochAccumulator{},
      [&](std::size_t e) {
        util::Rng stream = root.split(e);
        const Epoch epoch = sample_epoch(stream);
        EpochAccumulator acc;
        bool any_degr = false;
        bool any_cut = false;
        for (std::size_t f = 0; f < epoch.degraded.size(); ++f) {
          any_degr = any_degr || epoch.degraded[f];
          any_cut = any_cut || epoch.failed[f];
        }
        acc.degraded = any_degr ? 1 : 0;
        acc.cut = any_cut ? 1 : 0;
        const double a = epoch_availability(problem, policy, epoch);
        acc.sum = a;
        acc.sum_sq = a * a;
        return acc;
      },
      merge, kEpochGrain);
  return finalize(total, config_.epochs);
}

MonteCarloResult MonteCarloStudy::run_prete(const net::TrafficMatrix& demands,
                                            util::Rng& rng,
                                            const FaultInjector* faults) const {
  te::PreTeConfig config;
  config.beta = config_.beta;
  config.alpha = stats_.alpha;
  config.tunnel_update = config_.tunnel_update;
  config.scenario_options = config_.planning_scenarios;
  config.scenario_source = config_.planning_source;

  // Three phases so the epoch evaluation loop only ever reads shared state:
  // (1) sample every epoch from its split stream, (2) compute the policy
  // cache for the degradation signatures that actually occurred —
  // no-degradation, or a single degraded fiber (multi-degradation epochs
  // are second-order rare and reuse the first degraded fiber's policy as an
  // approximation) — one parallel task per distinct signature, (3) evaluate
  // the epochs against the now-immutable cache.
  const util::Rng root(rng.next_u64());
  const std::vector<Epoch> epochs = runtime::parallel_map(
      static_cast<std::size_t>(config_.epochs),
      [&](std::size_t e) {
        util::Rng stream = root.split(e);
        return sample_epoch(stream);
      },
      kEpochGrain);

  // First degraded fiber per epoch (-1 = none), and the distinct signatures.
  std::vector<int> epoch_fiber(epochs.size(), -1);
  std::vector<char> needed(static_cast<std::size_t>(stats_.num_fibers()) + 1,
                           0);
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    for (std::size_t f = 0; f < epochs[e].degraded.size(); ++f) {
      if (epochs[e].degraded[f]) {
        epoch_fiber[e] = static_cast<int>(f);
        break;
      }
    }
    needed[static_cast<std::size_t>(epoch_fiber[e] + 1)] = 1;
  }
  std::vector<int> signatures;
  for (std::size_t i = 0; i < needed.size(); ++i) {
    if (needed[i]) signatures.push_back(static_cast<int>(i) - 1);
  }

  struct CachedPolicy {
    net::TunnelSet tunnels{0};
    te::TePolicy policy;
    int faulted = 0;
  };
  std::vector<CachedPolicy> cache(needed.size());
  runtime::parallel_for(signatures.size(), [&](std::size_t s) {
    const int degraded_fiber = signatures[s];
    auto& slot = cache[static_cast<std::size_t>(degraded_fiber + 1)];
    slot.tunnels = base_tunnels_;
    te::PreTeScheme prete(stats_.cut_prob, config);
    te::DegradationScenario scenario =
        te::DegradationScenario::none(stats_.num_fibers());
    if (degraded_fiber >= 0) {
      scenario.degraded[static_cast<std::size_t>(degraded_fiber)] = true;
      scenario.predicted_prob[static_cast<std::size_t>(degraded_fiber)] =
          stats_.cut_given_degradation[static_cast<std::size_t>(
              degraded_fiber)];
    }
    // Fault injection (step = signature index in the degraded-fiber space):
    // corrupt the prediction or starve the solver, then prove the pipeline
    // absorbs it. fault_at is a pure function of (plan, step), so the
    // parallel schedule cannot perturb which signature gets which fault.
    // Only faults actually applied are counted: a prediction fault drawn
    // for the no-degradation signature has no prediction to corrupt.
    util::Deadline budget = util::Deadline::unlimited();
    util::Deadline* deadline = nullptr;
    if (faults != nullptr) {
      switch (faults->fault_at(degraded_fiber + 1)) {
        case FaultKind::kPredictorNaN:
        case FaultKind::kPredictorThrow:
          // A throwing predictor surfaces to the scheme as "no usable
          // prediction" — identical to NaN from its point of view.
          if (degraded_fiber >= 0) {
            scenario.predicted_prob[static_cast<std::size_t>(degraded_fiber)] =
                std::numeric_limits<double>::quiet_NaN();
            slot.faulted = 1;
          }
          break;
        case FaultKind::kTelemetryCorruption:
          if (degraded_fiber >= 0) {
            scenario.predicted_prob[static_cast<std::size_t>(degraded_fiber)] =
                1e9;  // absurd collector output; the scheme clamps it
            slot.faulted = 1;
          }
          break;
        case FaultKind::kDeadlineExpiry:
          budget.set_pivot_budget(FaultInjector::kDeadlineExpiryPivots);
          deadline = &budget;
          slot.faulted = 1;
          break;
        case FaultKind::kSolverCollapse:
          budget.set_pivot_budget(FaultInjector::kSolverCollapsePivots);
          deadline = &budget;
          slot.faulted = 1;
          break;
        case FaultKind::kStageStall:
        case FaultKind::kWindowDrop:
        case FaultKind::kWindowDuplicate:
        case FaultKind::kSolverThrow:
          // Control-plane faults act on the epoch pipeline, which a study
          // does not run: nothing to apply, nothing to count.
        case FaultKind::kNone:
          break;
      }
    }
    const auto outcome = prete.compute_for_degradation(
        topology_.network, topology_.flows, slot.tunnels, demands, scenario,
        deadline);
    slot.policy = outcome.policy;
  });

  const EpochAccumulator total = runtime::parallel_reduce(
      epochs.size(), EpochAccumulator{},
      [&](std::size_t e) {
        const Epoch& epoch = epochs[e];
        EpochAccumulator acc;
        bool any_cut = false;
        for (std::size_t f = 0; f < epoch.failed.size(); ++f) {
          any_cut = any_cut || epoch.failed[f];
        }
        acc.degraded = epoch_fiber[e] >= 0 ? 1 : 0;
        acc.cut = any_cut ? 1 : 0;

        const CachedPolicy& deployed =
            cache[static_cast<std::size_t>(epoch_fiber[e] + 1)];
        te::TeProblem problem;
        problem.network = &topology_.network;
        problem.flows = &topology_.flows;
        problem.tunnels = &deployed.tunnels;
        problem.demands = demands;
        const double a = epoch_availability(problem, deployed.policy, epoch);
        acc.sum = a;
        acc.sum_sq = a * a;
        return acc;
      },
      merge, kEpochGrain);
  MonteCarloResult result = finalize(total, config_.epochs);
  for (const CachedPolicy& slot : cache) result.faults_injected += slot.faulted;
  return result;
}

}  // namespace prete::sim
