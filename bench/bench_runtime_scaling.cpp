// Runtime scaling: wall-clock for the 4000-epoch Monte Carlo study (the
// MonteCarloConfig default) at 1 thread vs the configured pool size, with a
// bit-identity check between the two runs. This is the determinism +
// speedup demonstration for the parallel runtime; the per-phase timings
// feed the BENCH_*.json trajectory.
//
// Usage: bench_runtime_scaling [--threads=N]   (default: PRETE_THREADS or
// hardware concurrency for the parallel run).
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>

#include "core/epoch_pipeline.h"
#include "core/fault_campaign.h"
#include "lp/simplex.h"
#include "ml/oracle.h"
#include "net/tunnels.h"
#include "sim/monte_carlo.h"
#include "te/lp_common.h"
#include "te/minmax.h"
#include "te/schemes.h"
#include "workload/continental.h"

using namespace prete;

namespace {

sim::MonteCarloConfig mc_config(int epochs) {
  sim::MonteCarloConfig c;
  c.epochs = epochs;
  c.beta = 0.99;
  c.planning_scenarios.max_simultaneous_failures = 1;
  c.planning_scenarios.max_scenarios = 40;
  return c;
}

// Benders master phase: repeated solves on a B4 instance with a two-failure
// scenario set, so cut evaluation and the per-flow drop ordering dominate.
struct MasterSample {
  double phi = 0;
  double lower_bound = 0;
  int iterations = 0;
  bool operator==(const MasterSample& o) const {
    return phi == o.phi && lower_bound == o.lower_bound &&
           iterations == o.iterations;
  }
};

MasterSample run_master_phase(const bench::Context& ctx,
                              const net::TunnelSet& tunnels,
                              const net::TrafficMatrix& demands, int repeats) {
  te::TeProblem problem;
  problem.network = &ctx.topo.network;
  problem.flows = &ctx.topo.flows;
  problem.tunnels = &tunnels;
  problem.demands = demands;
  te::ScenarioOptions so;
  so.max_simultaneous_failures = 2;
  so.max_scenarios = 200;
  const auto scenarios = te::generate_failure_scenarios(ctx.stats.cut_prob, so);
  te::MinMaxOptions options;
  options.beta = std::min(0.99, scenarios.covered_probability);
  MasterSample sample;
  for (int r = 0; r < repeats; ++r) {
    const auto result = te::solve_min_max_benders(problem, scenarios, options);
    sample.phi = result.phi;
    sample.lower_bound = result.lower_bound;
    sample.iterations += result.iterations;
  }
  return sample;
}

// Telemetry phase: a plant-wide event log plus per-fiber loss traces, the
// two PlantSimulator paths sharded over the pool.
struct TelemetrySample {
  std::size_t cuts = 0;
  std::size_t degradations = 0;
  double trace_checksum = 0;
  bool operator==(const TelemetrySample& o) const {
    return cuts == o.cuts && degradations == o.degradations &&
           trace_checksum == o.trace_checksum;
  }
};

TelemetrySample run_telemetry_phase(const optical::PlantSimulator& plant,
                                    double horizon_sec) {
  util::Rng rng(7);
  const auto log =
      plant.simulate(static_cast<optical::TimeSec>(horizon_sec), rng);
  const auto traces = plant.loss_traces(log, 0, 3600, rng);
  TelemetrySample sample;
  sample.cuts = log.cuts.size();
  sample.degradations = log.degradations.size();
  for (const auto& trace : traces) {
    for (double v : trace) {
      if (!std::isnan(v)) sample.trace_checksum += v;
    }
  }
  return sample;
}

// Simplex pricing phase, two legs. Cold leg: a fixed sequence of
// subproblem-style LP instances (capacity rows plus a growing slice of
// Phi-rows on B4), each solved cold with Dantzig and with devex pricing.
// The instances are identical for both rules and their optimum (the min-max
// loss Phi) is a unique value both must report bitwise-identically; only
// the pivot path — and hence the pivot count — may differ. Pipeline leg:
// the full Benders decomposition under each rule, the production shape
// where devex's phase-2 advantage compounds across hundreds of warm
// re-solves (different pivot paths may visit different lazy rows there, so
// the phi values are compared within solver tolerance, not bitwise).
struct PricingSample {
  int dantzig_pivots = 0;
  int devex_pivots = 0;
  int pipeline_dantzig_pivots = 0;
  int pipeline_devex_pivots = 0;
  bool objectives_bitwise_equal = true;
  double objective_checksum = 0.0;
  double pipeline_phi_delta = 0.0;
  bool operator==(const PricingSample& o) const {
    return dantzig_pivots == o.dantzig_pivots &&
           devex_pivots == o.devex_pivots &&
           pipeline_dantzig_pivots == o.pipeline_dantzig_pivots &&
           pipeline_devex_pivots == o.pipeline_devex_pivots &&
           objectives_bitwise_equal == o.objectives_bitwise_equal &&
           objective_checksum == o.objective_checksum &&
           pipeline_phi_delta == o.pipeline_phi_delta;
  }
};

// One benders_master-style subproblem LP: allocation variables + Phi, the
// capacity rows, then the first 4 + e scenarios' Phi-rows for every flow —
// related but distinct LPs, like successive Benders subproblem rounds.
// Shared by the pricing phase and the lp_kernel phase so both benchmark the
// same workload.
lp::Model build_subproblem_lp(const te::TeProblem& problem,
                              const net::TunnelSet& tunnels,
                              const te::ScenarioSet& scenarios, int e) {
  const auto& Q = scenarios.scenarios;
  lp::Model model(lp::Sense::kMinimize);
  const std::vector<int> alloc = te::add_allocation_variables(model, problem);
  const int phi = model.add_variable(0.0, 1.0, 1.0, "Phi");
  te::add_capacity_rows(model, problem, alloc);
  const std::size_t slice = std::min(Q.size(), static_cast<std::size_t>(4 + e));
  for (const net::Flow& flow : *problem.flows) {
    const double d = std::max(problem.demand(flow.id), 1e-9);
    for (std::size_t q = 0; q < slice; ++q) {
      std::vector<lp::Coefficient> coefs;
      for (net::TunnelId t : tunnels.tunnels_for_flow(flow.id)) {
        if (tunnels.alive(*problem.network, t, Q[q].fiber_failed)) {
          coefs.push_back({alloc[static_cast<std::size_t>(t)], 1.0 / d});
        }
      }
      coefs.push_back({phi, 1.0});
      model.add_row(std::move(coefs), lp::RowType::kGreaterEqual, 1.0);
    }
  }
  return model;
}

PricingSample run_pricing_phase(const bench::Context& ctx,
                                const net::TunnelSet& tunnels,
                                const net::TrafficMatrix& demands,
                                int instances, int pipeline_iterations) {
  te::TeProblem problem;
  problem.network = &ctx.topo.network;
  problem.flows = &ctx.topo.flows;
  problem.tunnels = &tunnels;
  problem.demands = demands;
  te::ScenarioOptions so;
  so.max_simultaneous_failures = 2;
  so.max_scenarios = 200;
  const auto scenarios = te::generate_failure_scenarios(ctx.stats.cut_prob, so);

  PricingSample sample;
  for (int e = 0; e < instances; ++e) {
    const lp::Model model = build_subproblem_lp(problem, tunnels, scenarios, e);
    lp::SimplexOptions dantzig_opts;
    dantzig_opts.pricing = lp::PricingRule::kDantzig;
    lp::SimplexOptions devex_opts;
    devex_opts.pricing = lp::PricingRule::kDevex;
    const lp::Solution dantzig = lp::SimplexSolver(dantzig_opts).solve(model);
    const lp::Solution devex = lp::SimplexSolver(devex_opts).solve(model);
    sample.dantzig_pivots += dantzig.iterations;
    sample.devex_pivots += devex.iterations;
    if (dantzig.objective != devex.objective) {
      sample.objectives_bitwise_equal = false;
    }
    sample.objective_checksum += devex.objective;
  }

  // Pipeline leg: one full decomposition per rule, no cache.
  te::MinMaxOptions options;
  options.beta = std::min(0.99, scenarios.covered_probability);
  options.max_iterations = pipeline_iterations;
  options.simplex.pricing = lp::PricingRule::kDantzig;
  const te::MinMaxResult bd = te::solve_min_max_benders(problem, scenarios, options);
  options.simplex.pricing = lp::PricingRule::kDevex;
  const te::MinMaxResult bv = te::solve_min_max_benders(problem, scenarios, options);
  sample.pipeline_dantzig_pivots = bd.simplex_pivots;
  sample.pipeline_devex_pivots = bv.simplex_pivots;
  sample.pipeline_phi_delta = std::abs(bd.phi - bv.phi);
  return sample;
}

// LP kernel phase: the same benders_master-style instance sequence solved
// under the historical dense-binv kernel with full pricing (the reference)
// and under the eta-file kernel at its production defaults (sparse LU
// anchor, incremental dual updates, auto pricing — on this
// row-dominated workload the auto heuristic resolves to full pricing;
// candidate-list windows are exercised by the pricing phase and the kernel
// property tests). The gate demands bitwise-equal
// objectives and eta wall-clock no worse than dense — the whole point of
// the product-form kernel. Timing excludes model construction (built once,
// solved per variant).
struct KernelSample {
  double dense_seconds = 0;
  double eta_seconds = 0;
  int dense_pivots = 0;
  int eta_pivots = 0;
  int dense_reinversions = 0;
  int eta_reinversions = 0;
  int eta_peak = 0;  // longest eta file across the sequence
  bool objectives_bitwise_equal = true;
  double objective_checksum = 0.0;
  // Wall-clock stays out of the bit-identity comparison.
  bool operator==(const KernelSample& o) const {
    return dense_pivots == o.dense_pivots && eta_pivots == o.eta_pivots &&
           dense_reinversions == o.dense_reinversions &&
           eta_reinversions == o.eta_reinversions && eta_peak == o.eta_peak &&
           objectives_bitwise_equal == o.objectives_bitwise_equal &&
           objective_checksum == o.objective_checksum;
  }
};

KernelSample run_kernel_phase(const bench::Context& ctx,
                              const net::TunnelSet& tunnels,
                              const net::TrafficMatrix& demands, int instances,
                              int repeats) {
  te::TeProblem problem;
  problem.network = &ctx.topo.network;
  problem.flows = &ctx.topo.flows;
  problem.tunnels = &tunnels;
  problem.demands = demands;
  te::ScenarioOptions so;
  so.max_simultaneous_failures = 2;
  so.max_scenarios = 200;
  const auto scenarios = te::generate_failure_scenarios(ctx.stats.cut_prob, so);

  std::vector<lp::Model> models;
  models.reserve(static_cast<std::size_t>(instances));
  for (int e = 0; e < instances; ++e) {
    models.push_back(build_subproblem_lp(problem, tunnels, scenarios, e));
  }

  lp::SimplexOptions dense_opts;
  dense_opts.kernel = lp::BasisKernel::kDenseBinv;
  dense_opts.pricing_window = -1;  // historical full pricing
  lp::SimplexOptions eta_opts;
  eta_opts.kernel = lp::BasisKernel::kEtaFile;
  eta_opts.pricing_window = 0;  // auto window (the default)

  KernelSample sample;
  std::vector<double> dense_obj(models.size(), 0.0);
  using clock = std::chrono::steady_clock;
  {
    const auto start = clock::now();
    for (int r = 0; r < repeats; ++r) {
      for (std::size_t i = 0; i < models.size(); ++i) {
        const lp::Solution s = lp::SimplexSolver(dense_opts).solve(models[i]);
        if (r == 0) {
          dense_obj[i] = s.objective;
          sample.dense_pivots += s.iterations;
          sample.dense_reinversions += s.reinversions;
        }
      }
    }
    sample.dense_seconds =
        std::chrono::duration<double>(clock::now() - start).count() / repeats;
  }
  {
    const auto start = clock::now();
    for (int r = 0; r < repeats; ++r) {
      for (std::size_t i = 0; i < models.size(); ++i) {
        const lp::Solution s = lp::SimplexSolver(eta_opts).solve(models[i]);
        if (r == 0) {
          if (s.objective != dense_obj[i]) {
            sample.objectives_bitwise_equal = false;
          }
          sample.objective_checksum += s.objective;
          sample.eta_pivots += s.iterations;
          sample.eta_reinversions += s.reinversions;
          sample.eta_peak = std::max(sample.eta_peak, s.eta_peak);
        }
      }
    }
    sample.eta_seconds =
        std::chrono::duration<double>(clock::now() - start).count() / repeats;
  }
  return sample;
}

// LU-anchor phase: the LU-anchored eta kernel against the dense reference
// kernel on a thousand-row continental master (the regime the sparse
// Markowitz LU was built for). Two masters over the same rows: the
// base-demand master, whose optimum is exactly 0 — there both kernels must
// converge to the bit — and a demand-pressured master with a nonzero
// optimum, which carries the timing comparison. At a nonzero vertex the
// kernels may legitimately differ in the last ulps (ftran/btran round
// differently, so pivot paths can split on near-ties), so the pressured leg
// gates on relative agreement within solver tolerance, not bitwise. The
// wall-clock gate: at m >= 1000 the LU-anchored kernel must beat the dense
// reference end to end.
struct LuAnchorSample {
  int rows = 0;
  double dense_seconds = 0;
  double lu_seconds = 0;
  int dense_pivots = 0;
  int lu_pivots = 0;
  int dense_reinversions = 0;
  int lu_reinversions = 0;  // sparse LU factorizations inside the LU solves
  bool all_optimal = true;
  bool base_objectives_bitwise_equal = true;
  double pressured_objective_delta = 0.0;  // relative, dense vs LU
  double objective_checksum = 0.0;
  // Wall-clock stays out of the bit-identity comparison.
  bool operator==(const LuAnchorSample& o) const {
    return rows == o.rows && dense_pivots == o.dense_pivots &&
           lu_pivots == o.lu_pivots &&
           dense_reinversions == o.dense_reinversions &&
           lu_reinversions == o.lu_reinversions &&
           all_optimal == o.all_optimal &&
           base_objectives_bitwise_equal == o.base_objectives_bitwise_equal &&
           pressured_objective_delta == o.pressured_objective_delta &&
           objective_checksum == o.objective_checksum;
  }
};

LuAnchorSample run_lu_anchor_phase(const workload::ContinentalWorkload& w,
                                   const workload::ContinentalConfig& config,
                                   const net::TunnelSet& tunnels, int repeats) {
  te::TeProblem problem;
  problem.network = &w.topology.network;
  problem.flows = &w.topology.flows;
  problem.tunnels = &tunnels;
  // A few hundred reduced scenarios give plenty of Phi-rows; the full 1500
  // would only slow model construction.
  te::ReductionOptions reduction = config.reduction;
  reduction.max_scenarios = 400;
  const te::ScenarioSource source = workload::make_scenario_source(
      w.failure_model, config.scenario_gen, reduction);
  const te::ScenarioSet set = source(w.cut_probs);

  // Widen the scenario slice until the master clears a thousand rows.
  problem.demands = w.matrices.front();
  lp::Model base = build_subproblem_lp(problem, tunnels, set, 0);
  for (int e = 1; base.num_rows() < 1000 && e < 256; ++e) {
    base = build_subproblem_lp(problem, tunnels, set, e);
  }
  LuAnchorSample sample;
  sample.rows = base.num_rows();
  // Same rows, demands scaled until capacity pressure makes the optimum a
  // nonzero interior vertex (at the base matrix the plant fully protects the
  // sliced scenarios and Phi = 0 exactly).
  problem.demands = net::scale_traffic(w.matrices.front(), 30.0);
  lp::Model pressured = build_subproblem_lp(problem, tunnels, set, 0);
  for (int e = 1; pressured.num_rows() < 1000 && e < 256; ++e) {
    pressured = build_subproblem_lp(problem, tunnels, set, e);
  }

  lp::SimplexOptions dense_opts;
  dense_opts.kernel = lp::BasisKernel::kDenseBinv;
  lp::SimplexOptions lu_opts;
  lu_opts.kernel = lp::BasisKernel::kEtaFile;

  using clock = std::chrono::steady_clock;
  double dense_obj = 0.0;
  {
    const auto start = clock::now();
    for (int r = 0; r < repeats; ++r) {
      const lp::Solution s = lp::SimplexSolver(dense_opts).solve(pressured);
      if (r == 0) {
        dense_obj = s.objective;
        sample.dense_pivots = s.iterations;
        sample.dense_reinversions = s.reinversions;
        sample.all_optimal =
            sample.all_optimal && s.status == lp::SolveStatus::kOptimal;
      }
    }
    sample.dense_seconds =
        std::chrono::duration<double>(clock::now() - start).count() / repeats;
  }
  {
    const auto start = clock::now();
    for (int r = 0; r < repeats; ++r) {
      const lp::Solution s = lp::SimplexSolver(lu_opts).solve(pressured);
      if (r == 0) {
        sample.lu_pivots = s.iterations;
        sample.lu_reinversions = s.reinversions;
        sample.all_optimal =
            sample.all_optimal && s.status == lp::SolveStatus::kOptimal;
        sample.pressured_objective_delta =
            std::abs(s.objective - dense_obj) /
            std::max(1.0, std::abs(dense_obj));
        sample.objective_checksum += s.objective;
      }
    }
    sample.lu_seconds =
        std::chrono::duration<double>(clock::now() - start).count() / repeats;
  }

  const lp::Solution base_dense = lp::SimplexSolver(dense_opts).solve(base);
  const lp::Solution base_lu = lp::SimplexSolver(lu_opts).solve(base);
  sample.all_optimal = sample.all_optimal &&
                       base_dense.status == lp::SolveStatus::kOptimal &&
                       base_lu.status == lp::SolveStatus::kOptimal;
  sample.base_objectives_bitwise_equal =
      base_dense.objective == base_lu.objective;
  sample.objective_checksum += base_lu.objective;
  return sample;
}

// Direct-solver phase: the exact MIP (branch-and-bound over every delta)
// on a triangle instance small enough for solve_min_max_direct. The node
// waves evaluate on the pool, so this is the thread-scaling witness for the
// parallel branch-and-bound — and every bit of the result (phi, pivots,
// nodes) must survive the pool resize.
struct BnbSample {
  double phi = 0.0;
  int pivots = 0;
  int nodes = 0;
  bool operator==(const BnbSample& o) const {
    return phi == o.phi && pivots == o.pivots && nodes == o.nodes;
  }
};

BnbSample run_bnb_phase(int repeats) {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels{2};
  tunnels.add_tunnel(0, {0});
  tunnels.add_tunnel(0, {2, 5});
  tunnels.add_tunnel(1, {2});
  tunnels.add_tunnel(1, {0, 4});
  te::TeProblem problem;
  problem.network = &topo.network;
  problem.flows = &topo.flows;
  problem.tunnels = &tunnels;
  problem.demands = {10.0, 10.0};
  const auto scenarios = te::generate_failure_scenarios({0.02, 0.03, 0.01});
  te::MinMaxOptions options;
  options.beta = 0.95;
  BnbSample sample;
  for (int r = 0; r < repeats; ++r) {
    const auto result = te::solve_min_max_direct(problem, scenarios, options);
    sample.phi = result.phi;
    sample.pivots += result.simplex_pivots;
    sample.nodes += result.bb_nodes;
  }
  return sample;
}

// Basis-carry phase: the same epoch sequence (fixed topology and tunnel set,
// demands drifting a little each epoch, as across TE periods) solved twice —
// once stateless (every epoch cold) and once through a te::BasisCache. After
// the first epoch the cached run must spend fewer pivots.
struct CarrySample {
  int cold_first_epoch_pivots = 0;
  int cold_tail_pivots = 0;     // epochs after the first, stateless
  int carried_tail_pivots = 0;  // epochs after the first, cache carried
  int cache_hits = 0;
  double max_phi_delta = 0.0;  // |phi_cold - phi_carried| over the sequence
  bool operator==(const CarrySample& o) const {
    return cold_first_epoch_pivots == o.cold_first_epoch_pivots &&
           cold_tail_pivots == o.cold_tail_pivots &&
           carried_tail_pivots == o.carried_tail_pivots &&
           cache_hits == o.cache_hits && max_phi_delta == o.max_phi_delta;
  }
};

CarrySample run_carry_phase(const bench::Context& ctx,
                            const net::TunnelSet& tunnels,
                            const net::TrafficMatrix& demands, int epochs) {
  te::TeProblem problem;
  problem.network = &ctx.topo.network;
  problem.flows = &ctx.topo.flows;
  problem.tunnels = &tunnels;
  te::ScenarioOptions so;
  so.max_simultaneous_failures = 2;
  so.max_scenarios = 200;
  const auto scenarios = te::generate_failure_scenarios(ctx.stats.cut_prob, so);
  te::MinMaxOptions options;
  options.beta = std::min(0.99, scenarios.covered_probability);

  CarrySample sample;
  te::BasisCache cache;
  for (int e = 0; e < epochs; ++e) {
    // Demand drift leaves the problem shape (and so the basis-cache
    // signature) unchanged — exactly the regime the cache targets.
    problem.demands = net::scale_traffic(demands, 1.0 + 0.02 * e);
    const te::MinMaxResult cold =
        te::solve_min_max_benders(problem, scenarios, options);
    const te::MinMaxResult carried =
        te::solve_min_max_benders(problem, scenarios, options, &cache);
    if (e == 0) {
      sample.cold_first_epoch_pivots = cold.simplex_pivots;
    } else {
      sample.cold_tail_pivots += cold.simplex_pivots;
      sample.carried_tail_pivots += carried.simplex_pivots;
    }
    sample.max_phi_delta =
        std::max(sample.max_phi_delta, std::abs(cold.phi - carried.phi));
  }
  sample.cache_hits = cache.hits;
  return sample;
}

// Cross-epoch cut bank phase: steady-state TE epochs on the continental
// workload. Demands are fixed (cut replay requires demand equality) and
// scaled until the plant is under real capacity pressure — at the base
// matrix the Benders solve converges in one iteration with phi = 0 and a
// warm start has nothing to save. Each epoch one fiber's predicted cut
// probability drifts, so the regenerated reduced scenario set reorders —
// exactly what the bank's signature keying must absorb. Every epoch is
// solved twice: cold (no state) and warm (a carried te::CutBank); the gate
// requires the warm steady-state tail to cut Benders iterations AND total
// pivots while agreeing with every cold objective to the bit.
struct CutBankSample {
  int cold_tail_iterations = 0;
  int warm_tail_iterations = 0;
  int cold_tail_pivots = 0;
  int warm_tail_pivots = 0;
  int cuts_replayed = 0;
  int cuts_invalidated = 0;
  int cuts_banked = 0;
  bool all_converged = true;
  bool objectives_bitwise_equal = true;
  double phi_checksum = 0.0;
  bool operator==(const CutBankSample& o) const {
    return cold_tail_iterations == o.cold_tail_iterations &&
           warm_tail_iterations == o.warm_tail_iterations &&
           cold_tail_pivots == o.cold_tail_pivots &&
           warm_tail_pivots == o.warm_tail_pivots &&
           cuts_replayed == o.cuts_replayed &&
           cuts_invalidated == o.cuts_invalidated &&
           cuts_banked == o.cuts_banked && all_converged == o.all_converged &&
           objectives_bitwise_equal == o.objectives_bitwise_equal &&
           phi_checksum == o.phi_checksum;
  }
};

CutBankSample run_cut_bank_phase(const workload::ContinentalWorkload& w,
                                 const workload::ContinentalConfig& config,
                                 const net::TunnelSet& tunnels,
                                 int steady_epochs) {
  te::TeProblem problem;
  problem.network = &w.topology.network;
  problem.flows = &w.topology.flows;
  problem.tunnels = &tunnels;
  problem.demands = net::scale_traffic(w.matrices.front(), 8.0);
  // The full 1500-scenario reduction would make each pressured cold solve
  // several times more expensive without changing the story; the trimmed
  // set keeps the phase honest (hundreds of correlated scenarios, nonzero
  // residual) and the bench fast.
  te::ReductionOptions reduction = config.reduction;
  reduction.max_scenarios = 600;
  const te::ScenarioSource source = workload::make_scenario_source(
      w.failure_model, config.scenario_gen, reduction);

  CutBankSample sample;
  te::CutBank bank;
  for (int e = 0; e <= steady_epochs; ++e) {
    std::vector<double> probs = w.cut_probs;
    probs[7] *= 1.0 + 0.25 * e;  // one fiber's prediction drifts per epoch
    const te::ScenarioSet set = source(probs);
    te::MinMaxOptions options;
    options.beta = std::min(0.99, set.covered_probability);
    const te::MinMaxResult cold =
        te::solve_min_max_benders(problem, set, options);
    const te::MinMaxResult warm =
        te::solve_min_max_benders(problem, set, options, nullptr, &bank);
    sample.all_converged =
        sample.all_converged && cold.converged && warm.converged;
    sample.objectives_bitwise_equal =
        sample.objectives_bitwise_equal && warm.phi == cold.phi;
    sample.phi_checksum += cold.phi;
    if (e == 0) continue;  // warm-up epoch: fills the bank, replays nothing
    sample.cold_tail_iterations += cold.iterations;
    sample.warm_tail_iterations += warm.iterations;
    sample.cold_tail_pivots += cold.simplex_pivots;
    sample.warm_tail_pivots += warm.simplex_pivots;
    sample.cuts_replayed += warm.cuts_replayed;
    sample.cuts_invalidated += warm.cuts_invalidated;
    sample.cuts_banked += warm.cuts_banked;
  }
  return sample;
}

// Learned warm-start phase: the oracle's home regime — drifting demands on
// the continental workload. Demand drift is exactly where the cut bank and
// basis cache run out of road (the bank requires demand equality; the cache
// only re-anchors per-LP bases), but the oracle regresses the predicted
// allocation and drop-set envelope from recent traces, so its hints track
// the drift. Warm-up epochs harvest cold solver traces online; every gated
// epoch is then solved twice, cold (the reference) and hinted, and the gate
// requires every hint verified-accepted, a >= 2x total pivot reduction over
// the gated tail, and every converged objective bitwise equal to cold.
struct WarmStartSample {
  int cold_tail_iterations = 0;
  int hinted_tail_iterations = 0;
  int cold_tail_pivots = 0;
  int hinted_tail_pivots = 0;
  int epochs_gated = 0;
  int hints_accepted = 0;
  int hints_rejected = 0;
  bool all_converged = true;
  bool objectives_bitwise_equal = true;
  double phi_checksum = 0.0;
  bool operator==(const WarmStartSample& o) const {
    return cold_tail_iterations == o.cold_tail_iterations &&
           hinted_tail_iterations == o.hinted_tail_iterations &&
           cold_tail_pivots == o.cold_tail_pivots &&
           hinted_tail_pivots == o.hinted_tail_pivots &&
           epochs_gated == o.epochs_gated &&
           hints_accepted == o.hints_accepted &&
           hints_rejected == o.hints_rejected &&
           all_converged == o.all_converged &&
           objectives_bitwise_equal == o.objectives_bitwise_equal &&
           phi_checksum == o.phi_checksum;
  }
};

WarmStartSample run_learned_warm_start_phase(
    const workload::ContinentalWorkload& w,
    const workload::ContinentalConfig& config, const net::TunnelSet& tunnels,
    int warmup_epochs, int gated_epochs) {
  te::TeProblem problem;
  problem.network = &w.topology.network;
  problem.flows = &w.topology.flows;
  problem.tunnels = &tunnels;
  // Same pressure scaling and trimmed reduction as the cut-bank phase: at
  // the base matrix the solve converges in one iteration and a warm start
  // has nothing to save.
  const net::TrafficMatrix base = net::scale_traffic(w.matrices.front(), 8.0);
  te::ReductionOptions reduction = config.reduction;
  reduction.max_scenarios = 600;
  const te::ScenarioSource source = workload::make_scenario_source(
      w.failure_model, config.scenario_gen, reduction);
  const te::ScenarioSet set = source(w.cut_probs);

  ml::WarmStartOracle oracle;
  WarmStartSample sample;
  for (int e = 0; e < warmup_epochs + gated_epochs; ++e) {
    // Per-epoch demand drift: small enough that the drop-set votes stay
    // stable across the harvested traces, large enough that a cut bank
    // keyed on demand equality could replay nothing here.
    problem.demands = net::scale_traffic(base, 1.0 + 0.004 * e);
    te::MinMaxOptions options;
    options.beta = std::min(0.99, set.covered_probability);
    options.collect_trace = true;
    // Tracing is pure reporting (warm_hint_test pins traced == untraced to
    // the bit), so this cold solve doubles as the gate reference.
    const te::MinMaxResult cold =
        te::solve_min_max_benders(problem, set, options);
    sample.all_converged = sample.all_converged && cold.converged;
    if (e >= warmup_epochs) {
      const auto hint = oracle.predict(problem, w.cut_probs);
      te::MinMaxOptions hinted_options;
      hinted_options.beta = options.beta;
      hinted_options.warm_hint = hint ? &*hint : nullptr;
      const te::MinMaxResult hinted =
          te::solve_min_max_benders(problem, set, hinted_options);
      ++sample.epochs_gated;
      sample.cold_tail_iterations += cold.iterations;
      sample.hinted_tail_iterations += hinted.iterations;
      sample.cold_tail_pivots += cold.simplex_pivots;
      sample.hinted_tail_pivots += hinted.simplex_pivots;
      sample.hints_accepted += hinted.hint_accepted;
      sample.hints_rejected += hinted.hint_rejected;
      sample.all_converged = sample.all_converged && hinted.converged;
      sample.objectives_bitwise_equal =
          sample.objectives_bitwise_equal && hinted.phi == cold.phi;
      sample.phi_checksum += cold.phi;
    }
    // Online harvest continues through the gated tail so the regression
    // keeps tracking the drift — training happens between solves, never
    // inside one.
    oracle.observe(problem, w.cut_probs, cold);
    oracle.train();
  }
  return sample;
}

// Fault-campaign phase: the deterministic robustness harness end to end —
// the controller driven through injected telemetry corruption, predictor
// faults, and starved solver budgets. The decision digest doubles as the
// bit-identity witness; the gate requires a clean run (no exceptions, no
// validator failures) that exercised every degradation rung.
core::FaultCampaignReport run_campaign_phase(const bench::Context& ctx,
                                             const net::TrafficMatrix& demands,
                                             int steps) {
  core::FaultCampaignConfig config;
  config.steps = steps;
  config.te.beta = 0.99;
  return core::run_fault_campaign(ctx.topo, ctx.stats.cut_prob, demands,
                                  config);
}

// Epoch-pipeline phase: the overlapped control plane on the continental
// workload. Each epoch's ingest (sanitize + detector scan + correlated
// scenario generation and reduction — the pure, parallelizable stage)
// dominates; the base-demand solve commits quickly. The serial drive pays
// ingest and solve back to back; the pipeline overlaps up to
// max_in_flight ingests across the pool while commits stay strictly
// ordered — so the decisions must replay the serial run bit for bit while
// epochs/sec climbs with the thread count. The drives run in serial /
// pipelined pairs; seconds and the per-pair speedup are medians over the
// pairs, so one pair slowed by a noisy neighbour does not decide the gate.
struct EpochPipelineSample {
  int epochs = 0;
  double serial_seconds = 0;     // median over the pairs
  double pipelined_seconds = 0;  // median over the pairs
  double speedup = 0;            // median of serial / pipelined per pair
  std::size_t decided = 0;
  bool decisions_bitwise_equal = true;
  double alloc_checksum = 0.0;
  // Wall-clock stays out of the bit-identity comparison.
  bool operator==(const EpochPipelineSample& o) const {
    return epochs == o.epochs && decided == o.decided &&
           decisions_bitwise_equal == o.decisions_bitwise_equal &&
           alloc_checksum == o.alloc_checksum;
  }
};

class BenchPredictor : public ml::FailurePredictor {
 public:
  double predict(const optical::DegradationFeatures&) const override {
    return 0.45;
  }
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

EpochPipelineSample run_epoch_pipeline_phase(
    const workload::ContinentalWorkload& w,
    const workload::ContinentalConfig& config, int epochs, int pairs) {
  te::ReductionOptions reduction = config.reduction;
  reduction.max_scenarios = 300;
  core::ControllerConfig cc;
  cc.te.scenario_source = workload::make_scenario_source(
      w.failure_model, config.scenario_gen, reduction);
  auto predictor = std::make_shared<BenchPredictor>();

  const auto num_fibers = w.topology.network.num_fibers();
  std::vector<core::EpochInput> inputs;
  inputs.reserve(static_cast<std::size_t>(epochs));
  for (int e = 0; e < epochs; ++e) {
    core::EpochInput in;
    in.fiber = static_cast<net::FiberId>(e % num_fibers);
    // A +6 dB mid-window pulse over the healthy baseline; per-sample dither
    // keeps the plateaus below the stuck-at run length.
    in.trace_db.resize(120);
    for (int t = 0; t < 120; ++t) {
      const double base = (t >= 40 && t < 90) ? 11.0 : 5.0;
      in.trace_db[static_cast<std::size_t>(t)] =
          base + 0.002 * static_cast<double>(t % 5) +
          0.01 * static_cast<double>(e % 3);
    }
    in.trace_start_sec = static_cast<optical::TimeSec>(e) * 300;
    in.healthy_loss_db = 5.0;
    in.demands = w.matrices.front();
    inputs.push_back(std::move(in));
  }

  EpochPipelineSample sample;
  sample.epochs = epochs;
  using clock = std::chrono::steady_clock;

  std::vector<double> serial_seconds;
  std::vector<double> pipelined_seconds;
  std::vector<double> speedups;
  for (int pair = 0; pair < pairs; ++pair) {
    std::vector<std::optional<core::ControlDecision>> serial;
    {
      core::Controller controller(w.topology, w.cut_probs, predictor, cc);
      const auto start = clock::now();
      for (const core::EpochInput& in : inputs) {
        serial.push_back(controller.on_telemetry(
            in.fiber, in.trace_db, in.trace_start_sec, in.healthy_loss_db,
            in.demands));
      }
      serial_seconds.push_back(
          std::chrono::duration<double>(clock::now() - start).count());
    }
    core::Controller controller(w.topology, w.cut_probs, predictor, cc);
    core::EpochPipelineConfig pipe_config;
    pipe_config.max_in_flight = 4;
    core::EpochPipeline pipeline(controller, pipe_config);
    const auto start = clock::now();
    for (const core::EpochInput& in : inputs) pipeline.submit(in);
    const auto results = pipeline.drain();
    pipelined_seconds.push_back(
        std::chrono::duration<double>(clock::now() - start).count());
    speedups.push_back(serial_seconds.back() /
                       std::max(pipelined_seconds.back(), 1e-9));

    // Every pair must replay its serial stream; the counts and checksum
    // come from the first pair.
    for (std::size_t e = 0; e < results.size(); ++e) {
      if (results[e].decision.has_value() != serial[e].has_value()) {
        sample.decisions_bitwise_equal = false;
        continue;
      }
      if (!results[e].decision.has_value()) continue;
      if (pair == 0) ++sample.decided;
      const auto& a = serial[e]->policy.allocation;
      const auto& b = results[e].decision->policy.allocation;
      if (a.size() != b.size()) {
        sample.decisions_bitwise_equal = false;
        continue;
      }
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) sample.decisions_bitwise_equal = false;
        if (pair == 0) sample.alloc_checksum += b[i];
      }
    }
  }
  sample.serial_seconds = median(serial_seconds);
  sample.pipelined_seconds = median(pipelined_seconds);
  sample.speedup = median(speedups);
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  const unsigned parallel_threads = runtime::ThreadPool::global().size();
  bench::print_header("Runtime scaling: Monte Carlo epochs, serial vs pool");

  bench::Context ctx(net::make_b4());
  const int epochs = bench::fast_mode() ? 800 : 4000;
  const auto demands = net::scale_traffic(ctx.base_demands, 2.0);
  const sim::MonteCarloStudy mc(ctx.topo, ctx.stats, mc_config(epochs));
  te::TeaVarScheme teavar(0.99);

  const net::TunnelSet tunnels =
      net::build_tunnels(ctx.topo.network, ctx.topo.flows);
  const int master_repeats = bench::fast_mode() ? 1 : 3;
  const double telemetry_horizon =
      bench::fast_mode() ? 90.0 * 86400.0 : 365.0 * 86400.0;
  const optical::PlantSimulator plant(ctx.topo.network, ctx.params, ctx.logit);

  util::Table table({"phase", "threads", "seconds", "availability"});
  sim::MonteCarloResult serial_static, parallel_static;
  sim::MonteCarloResult serial_prete, parallel_prete;
  MasterSample serial_master, parallel_master;
  TelemetrySample serial_telemetry, parallel_telemetry;
  PricingSample serial_pricing, parallel_pricing;
  KernelSample serial_kernel, parallel_kernel;
  LuAnchorSample serial_lu_anchor, parallel_lu_anchor;
  BnbSample serial_bnb, parallel_bnb;
  CarrySample serial_carry, parallel_carry;
  CutBankSample serial_cut_bank, parallel_cut_bank;
  WarmStartSample serial_warm_start, parallel_warm_start;
  core::FaultCampaignReport serial_campaign, parallel_campaign;
  EpochPipelineSample serial_epoch, parallel_epoch;
  double t_serial_static = 0, t_parallel_static = 0;
  double t_serial_prete = 0, t_parallel_prete = 0;
  double t_serial_master = 0, t_parallel_master = 0;
  double t_serial_telemetry = 0, t_parallel_telemetry = 0;
  double t_serial_pricing = 0, t_parallel_pricing = 0;
  double t_serial_bnb = 0, t_parallel_bnb = 0;
  double t_serial_carry = 0, t_parallel_carry = 0;
  double t_serial_cut_bank = 0, t_parallel_cut_bank = 0;
  double t_serial_warm_start = 0, t_parallel_warm_start = 0;
  double t_serial_campaign = 0, t_parallel_campaign = 0;
  const int pricing_instances = bench::fast_mode() ? 3 : 6;
  const int pipeline_iterations = bench::fast_mode() ? 4 : 10;
  const int kernel_instances = bench::fast_mode() ? 3 : 6;
  const int kernel_repeats = bench::fast_mode() ? 3 : 8;
  const int lu_anchor_repeats = bench::fast_mode() ? 2 : 6;
  const int bnb_repeats = bench::fast_mode() ? 4 : 12;
  const int carry_epochs = bench::fast_mode() ? 3 : 5;
  const int cut_bank_epochs = bench::fast_mode() ? 2 : 3;
  const int warm_start_warmup = 3;
  const int warm_start_gated = bench::fast_mode() ? 2 : 3;
  const int campaign_steps = bench::fast_mode() ? 96 : 256;
  const int pipeline_epochs = bench::fast_mode() ? 8 : 16;
  const int pipeline_pairs = 3;  // serial / pipelined drives per gate sample

  // Continental workload for the cut-bank phase, generated once and shared
  // by both legs (generation itself is bit-identical at any pool size —
  // workload_continental_test covers that).
  const workload::ContinentalConfig continental_config;
  const workload::ContinentalWorkload continental =
      workload::generate_continental_workload(continental_config);
  const net::TunnelSet continental_tunnels = net::build_tunnels(
      continental.topology.network, continental.topology.flows);

  runtime::ThreadPool::set_global_threads(1);
  {
    bench::Phase phase("run_static serial");
    util::Rng rng(1);
    serial_static = mc.run_static(teavar, demands, rng);
    t_serial_static = phase.seconds();
  }
  {
    bench::Phase phase("run_prete serial");
    util::Rng rng(2);
    serial_prete = mc.run_prete(demands, rng);
    t_serial_prete = phase.seconds();
  }
  {
    bench::Phase phase("benders_master serial");
    serial_master = run_master_phase(ctx, tunnels, demands, master_repeats);
    t_serial_master = phase.seconds();
  }
  {
    bench::Phase phase("telemetry serial");
    serial_telemetry = run_telemetry_phase(plant, telemetry_horizon);
    t_serial_telemetry = phase.seconds();
  }
  {
    bench::Phase phase("simplex_pricing serial");
    serial_pricing = run_pricing_phase(ctx, tunnels, demands,
                                       pricing_instances, pipeline_iterations);
    t_serial_pricing = phase.seconds();
  }
  {
    bench::Phase phase("lp_kernel serial");
    serial_kernel = run_kernel_phase(ctx, tunnels, demands, kernel_instances,
                                     kernel_repeats);
  }
  {
    bench::Phase phase("lu_anchor serial");
    serial_lu_anchor = run_lu_anchor_phase(continental, continental_config,
                                           continental_tunnels,
                                           lu_anchor_repeats);
  }
  {
    bench::Phase phase("bnb_direct serial");
    serial_bnb = run_bnb_phase(bnb_repeats);
    t_serial_bnb = phase.seconds();
  }
  {
    bench::Phase phase("basis_carry serial");
    serial_carry = run_carry_phase(ctx, tunnels, demands, carry_epochs);
    t_serial_carry = phase.seconds();
  }
  {
    bench::Phase phase("cut_bank serial");
    serial_cut_bank = run_cut_bank_phase(continental, continental_config,
                                         continental_tunnels, cut_bank_epochs);
    t_serial_cut_bank = phase.seconds();
  }
  {
    bench::Phase phase("learned_warm_start serial");
    serial_warm_start = run_learned_warm_start_phase(
        continental, continental_config, continental_tunnels,
        warm_start_warmup, warm_start_gated);
    t_serial_warm_start = phase.seconds();
  }
  {
    bench::Phase phase("fault_campaign serial");
    // Base (unscaled) demands: the campaign probes robustness, not capacity
    // pressure, and near-saturation demands make every starved solve an
    // order of magnitude more expensive for no extra fault coverage.
    serial_campaign = run_campaign_phase(ctx, ctx.base_demands, campaign_steps);
    t_serial_campaign = phase.seconds();
  }
  {
    bench::Phase phase("epoch_pipeline serial-pool");
    serial_epoch = run_epoch_pipeline_phase(continental, continental_config,
                                            pipeline_epochs, 1);
  }

  runtime::ThreadPool::set_global_threads(parallel_threads);
  {
    bench::Phase phase("run_static parallel");
    util::Rng rng(1);
    parallel_static = mc.run_static(teavar, demands, rng);
    t_parallel_static = phase.seconds();
  }
  {
    bench::Phase phase("run_prete parallel");
    util::Rng rng(2);
    parallel_prete = mc.run_prete(demands, rng);
    t_parallel_prete = phase.seconds();
  }
  {
    bench::Phase phase("benders_master parallel");
    parallel_master = run_master_phase(ctx, tunnels, demands, master_repeats);
    t_parallel_master = phase.seconds();
  }
  {
    bench::Phase phase("telemetry parallel");
    parallel_telemetry = run_telemetry_phase(plant, telemetry_horizon);
    t_parallel_telemetry = phase.seconds();
  }
  {
    bench::Phase phase("simplex_pricing parallel");
    parallel_pricing = run_pricing_phase(
        ctx, tunnels, demands, pricing_instances, pipeline_iterations);
    t_parallel_pricing = phase.seconds();
  }
  {
    bench::Phase phase("lp_kernel parallel");
    parallel_kernel = run_kernel_phase(ctx, tunnels, demands, kernel_instances,
                                       kernel_repeats);
  }
  {
    bench::Phase phase("lu_anchor parallel");
    parallel_lu_anchor = run_lu_anchor_phase(continental, continental_config,
                                             continental_tunnels,
                                             lu_anchor_repeats);
  }
  {
    bench::Phase phase("bnb_direct parallel");
    parallel_bnb = run_bnb_phase(bnb_repeats);
    t_parallel_bnb = phase.seconds();
  }
  {
    bench::Phase phase("basis_carry parallel");
    parallel_carry = run_carry_phase(ctx, tunnels, demands, carry_epochs);
    t_parallel_carry = phase.seconds();
  }
  {
    bench::Phase phase("cut_bank parallel");
    parallel_cut_bank = run_cut_bank_phase(
        continental, continental_config, continental_tunnels, cut_bank_epochs);
    t_parallel_cut_bank = phase.seconds();
  }
  {
    bench::Phase phase("learned_warm_start parallel");
    parallel_warm_start = run_learned_warm_start_phase(
        continental, continental_config, continental_tunnels,
        warm_start_warmup, warm_start_gated);
    t_parallel_warm_start = phase.seconds();
  }
  {
    bench::Phase phase("fault_campaign parallel");
    parallel_campaign =
        run_campaign_phase(ctx, ctx.base_demands, campaign_steps);
    t_parallel_campaign = phase.seconds();
  }
  {
    bench::Phase phase("epoch_pipeline parallel");
    parallel_epoch = run_epoch_pipeline_phase(
        continental, continental_config, pipeline_epochs, pipeline_pairs);
  }

  table.add_row({"run_static", "1", util::Table::format(t_serial_static, 2),
                 util::Table::format(serial_static.mean_flow_availability, 6)});
  table.add_row({"run_static", std::to_string(parallel_threads),
                 util::Table::format(t_parallel_static, 2),
                 util::Table::format(parallel_static.mean_flow_availability, 6)});
  table.add_row({"run_prete", "1", util::Table::format(t_serial_prete, 2),
                 util::Table::format(serial_prete.mean_flow_availability, 6)});
  table.add_row({"run_prete", std::to_string(parallel_threads),
                 util::Table::format(t_parallel_prete, 2),
                 util::Table::format(parallel_prete.mean_flow_availability, 6)});
  table.add_row({"benders_master", "1", util::Table::format(t_serial_master, 2),
                 util::Table::format(serial_master.phi, 6)});
  table.add_row({"benders_master", std::to_string(parallel_threads),
                 util::Table::format(t_parallel_master, 2),
                 util::Table::format(parallel_master.phi, 6)});
  table.add_row({"telemetry", "1", util::Table::format(t_serial_telemetry, 2),
                 std::to_string(serial_telemetry.cuts) + " cuts"});
  table.add_row({"telemetry", std::to_string(parallel_threads),
                 util::Table::format(t_parallel_telemetry, 2),
                 std::to_string(parallel_telemetry.cuts) + " cuts"});
  table.add_row({"fault_campaign", "1",
                 util::Table::format(t_serial_campaign, 2),
                 std::to_string(serial_campaign.faults_injected) + " faults"});
  table.add_row({"fault_campaign", std::to_string(parallel_threads),
                 util::Table::format(t_parallel_campaign, 2),
                 std::to_string(parallel_campaign.faults_injected) + " faults"});
  const auto epochs_per_sec = [](int epochs, double seconds) {
    return static_cast<double>(epochs) / std::max(seconds, 1e-9);
  };
  table.add_row(
      {"epoch_pipeline", "1",
       util::Table::format(serial_epoch.pipelined_seconds, 2),
       util::Table::format(epochs_per_sec(serial_epoch.epochs,
                                          serial_epoch.pipelined_seconds),
                           2) +
           " ep/s"});
  table.add_row(
      {"epoch_pipeline", std::to_string(parallel_threads),
       util::Table::format(parallel_epoch.pipelined_seconds, 2),
       util::Table::format(epochs_per_sec(parallel_epoch.epochs,
                                          parallel_epoch.pipelined_seconds),
                           2) +
           " ep/s"});
  table.print(std::cout);
  std::cout << "fault_campaign: " << serial_campaign.summary() << "\n";
  std::cout << "epoch_pipeline (median of " << pipeline_pairs
            << " pairs): serial drive "
            << util::Table::format(
                   epochs_per_sec(parallel_epoch.epochs,
                                  parallel_epoch.serial_seconds),
                   2)
            << " ep/s vs pipelined "
            << util::Table::format(
                   epochs_per_sec(parallel_epoch.epochs,
                                  parallel_epoch.pipelined_seconds),
                   2)
            << " ep/s on " << parallel_threads
            << " threads, decisions bitwise equal: "
            << (parallel_epoch.decisions_bitwise_equal ? "yes" : "NO") << "\n";

  // LP kernel phases: pivot counts, not thread scaling, are the story here
  // (both legs also feed the bit-identity gate below).
  // The N-thread column holds each timed phase's parallel leg beside its
  // serial seconds.
  util::Table lp_table({"phase", "variant", "seconds",
                        std::to_string(parallel_threads) + "-thread seconds",
                        "pivots"});
  lp_table.add_row({"simplex_pricing", "cold LPs dantzig",
                    util::Table::format(t_serial_pricing, 2),
                    util::Table::format(t_parallel_pricing, 2),
                    std::to_string(serial_pricing.dantzig_pivots)});
  lp_table.add_row({"simplex_pricing", "cold LPs devex", "", "",
                    std::to_string(serial_pricing.devex_pivots)});
  lp_table.add_row({"simplex_pricing", "pipeline dantzig", "", "",
                    std::to_string(serial_pricing.pipeline_dantzig_pivots)});
  lp_table.add_row({"simplex_pricing", "pipeline devex", "", "",
                    std::to_string(serial_pricing.pipeline_devex_pivots)});
  lp_table.add_row({"basis_carry", "cold tail",
                    util::Table::format(t_serial_carry, 2),
                    util::Table::format(t_parallel_carry, 2),
                    std::to_string(serial_carry.cold_tail_pivots)});
  lp_table.add_row({"basis_carry", "carried tail", "", "",
                    std::to_string(serial_carry.carried_tail_pivots)});
  lp_table.add_row({"cut_bank", "cold tail",
                    util::Table::format(t_serial_cut_bank, 2),
                    util::Table::format(t_parallel_cut_bank, 2),
                    std::to_string(serial_cut_bank.cold_tail_pivots)});
  lp_table.add_row({"cut_bank", "replayed tail", "", "",
                    std::to_string(serial_cut_bank.warm_tail_pivots)});
  lp_table.add_row({"learned_warm_start", "cold tail",
                    util::Table::format(t_serial_warm_start, 2),
                    util::Table::format(t_parallel_warm_start, 2),
                    std::to_string(serial_warm_start.cold_tail_pivots)});
  lp_table.add_row({"learned_warm_start", "hinted tail", "", "",
                    std::to_string(serial_warm_start.hinted_tail_pivots)});
  lp_table.add_row({"lp_kernel", "dense + full pricing",
                    util::Table::format(serial_kernel.dense_seconds, 3), "",
                    std::to_string(serial_kernel.dense_pivots)});
  lp_table.add_row({"lp_kernel", "eta + auto pricing",
                    util::Table::format(serial_kernel.eta_seconds, 3), "",
                    std::to_string(serial_kernel.eta_pivots)});
  lp_table.add_row({"lu_anchor", "dense reference (m=" +
                        std::to_string(serial_lu_anchor.rows) + ")",
                    util::Table::format(serial_lu_anchor.dense_seconds, 3),
                    "", std::to_string(serial_lu_anchor.dense_pivots)});
  lp_table.add_row({"lu_anchor", "sparse LU",
                    util::Table::format(serial_lu_anchor.lu_seconds, 3), "",
                    std::to_string(serial_lu_anchor.lu_pivots)});
  lp_table.add_row({"bnb_direct", "serial",
                    util::Table::format(t_serial_bnb, 2), "",
                    std::to_string(serial_bnb.pivots)});
  lp_table.add_row({"bnb_direct",
                    std::to_string(parallel_threads) + " threads", "",
                    util::Table::format(t_parallel_bnb, 2),
                    std::to_string(parallel_bnb.pivots)});
  lp_table.print(std::cout);
  std::cout << "lp_kernel objectives bitwise equal: "
            << (serial_kernel.objectives_bitwise_equal ? "yes" : "NO")
            << ", eta reinversions: " << serial_kernel.eta_reinversions
            << " (dense: " << serial_kernel.dense_reinversions
            << "), eta peak length: " << serial_kernel.eta_peak << "\n"
            << "bnb_direct nodes: " << serial_bnb.nodes
            << ", phi: " << util::Table::format(serial_bnb.phi, 6) << "\n";
  std::cout << "lu_anchor rows: " << serial_lu_anchor.rows
            << ", LU reinversions: " << serial_lu_anchor.lu_reinversions
            << " (dense: " << serial_lu_anchor.dense_reinversions
            << "), base objectives bitwise equal: "
            << (serial_lu_anchor.base_objectives_bitwise_equal ? "yes" : "NO")
            << ", pressured relative delta: "
            << util::Table::format(serial_lu_anchor.pressured_objective_delta,
                                   12)
            << "\n";
  std::cout << "simplex_pricing cold objectives bitwise equal: "
            << (serial_pricing.objectives_bitwise_equal ? "yes" : "NO")
            << ", pipeline |phi_dantzig - phi_devex|: "
            << util::Table::format(serial_pricing.pipeline_phi_delta, 12)
            << "\n"
            << "basis_carry cache hits: " << serial_carry.cache_hits
            << ", max |phi_cold - phi_carried|: "
            << util::Table::format(serial_carry.max_phi_delta, 9) << "\n";
  std::cout << "cut_bank steady-state iterations: cold "
            << serial_cut_bank.cold_tail_iterations << " vs replayed "
            << serial_cut_bank.warm_tail_iterations << " (replayed "
            << serial_cut_bank.cuts_replayed << ", invalidated "
            << serial_cut_bank.cuts_invalidated << ", banked "
            << serial_cut_bank.cuts_banked << "), objectives bitwise equal: "
            << (serial_cut_bank.objectives_bitwise_equal ? "yes" : "NO")
            << "\n";
  std::cout << "learned_warm_start gated pivots: cold "
            << serial_warm_start.cold_tail_pivots << " vs hinted "
            << serial_warm_start.hinted_tail_pivots << " (accepted "
            << serial_warm_start.hints_accepted << "/"
            << serial_warm_start.epochs_gated << ", rejected "
            << serial_warm_start.hints_rejected
            << "), objectives bitwise equal: "
            << (serial_warm_start.objectives_bitwise_equal ? "yes" : "NO")
            << "\n";

  const bool identical =
      serial_static.mean_flow_availability ==
          parallel_static.mean_flow_availability &&
      serial_static.standard_error == parallel_static.standard_error &&
      serial_static.epochs_with_cut == parallel_static.epochs_with_cut &&
      serial_prete.mean_flow_availability ==
          parallel_prete.mean_flow_availability &&
      serial_prete.standard_error == parallel_prete.standard_error &&
      serial_prete.epochs_with_cut == parallel_prete.epochs_with_cut &&
      serial_master == parallel_master &&
      serial_telemetry == parallel_telemetry &&
      serial_pricing == parallel_pricing &&
      serial_kernel == parallel_kernel &&
      serial_lu_anchor == parallel_lu_anchor && serial_bnb == parallel_bnb &&
      serial_carry == parallel_carry &&
      serial_cut_bank == parallel_cut_bank &&
      serial_warm_start == parallel_warm_start &&
      serial_campaign.decision_digest == parallel_campaign.decision_digest &&
      serial_campaign.faults_injected == parallel_campaign.faults_injected &&
      serial_campaign.rung_count == parallel_campaign.rung_count &&
      serial_epoch == parallel_epoch;
  std::cout << "bit-identical across thread counts: "
            << (identical ? "yes" : "NO — DETERMINISM BUG") << "\n";
  const bool pricing_ok =
      serial_pricing.objectives_bitwise_equal &&
      serial_pricing.devex_pivots + serial_pricing.pipeline_devex_pivots <=
          serial_pricing.dantzig_pivots +
              serial_pricing.pipeline_dantzig_pivots &&
      serial_pricing.pipeline_phi_delta < 1e-9;
  const bool carry_ok =
      serial_carry.carried_tail_pivots < serial_carry.cold_tail_pivots &&
      serial_carry.max_phi_delta < 1e-6;
  if (!pricing_ok) {
    std::cout << "simplex_pricing gate FAILED (devex pivots or objective "
                 "mismatch)\n";
  }
  if (!carry_ok) {
    std::cout << "basis_carry gate FAILED (carried tail not cheaper or phi "
                 "drift)\n";
  }
  // The cut bank must actually shorten the steady-state decomposition —
  // fewer Benders iterations AND fewer total pivots — while replaying cuts
  // and agreeing with every cold objective to the bit.
  const bool cut_bank_ok =
      serial_cut_bank.all_converged &&
      serial_cut_bank.objectives_bitwise_equal &&
      serial_cut_bank.cuts_replayed > 0 &&
      serial_cut_bank.warm_tail_iterations <
          serial_cut_bank.cold_tail_iterations &&
      serial_cut_bank.warm_tail_pivots < serial_cut_bank.cold_tail_pivots;
  if (!cut_bank_ok) {
    std::cout << "cut_bank gate FAILED (no iteration/pivot reduction, nothing "
                 "replayed, or objective mismatch)\n";
  }
  // The headline oracle gate: on the drifting tail every predicted hint must
  // survive verification (accepted, never discarded as worse-than-cold), the
  // hinted solves must spend at most half the cold pivots in total, and
  // every converged objective must agree with the cold reference to the bit.
  const bool warm_start_ok =
      serial_warm_start.all_converged &&
      serial_warm_start.objectives_bitwise_equal &&
      serial_warm_start.epochs_gated > 0 &&
      serial_warm_start.hints_accepted == serial_warm_start.epochs_gated &&
      serial_warm_start.hints_rejected == 0 &&
      2 * serial_warm_start.hinted_tail_pivots <=
          serial_warm_start.cold_tail_pivots;
  if (!warm_start_ok) {
    std::cout << "learned_warm_start gate FAILED (hint rejected, under 2x "
                 "pivot reduction, or objective mismatch)\n";
  }
  const bool campaign_ok = serial_campaign.clean() &&
                           serial_campaign.every_rung_exercised() &&
                           serial_campaign.faults_injected > 0;
  if (!campaign_ok) {
    std::cout << "fault_campaign gate FAILED (exceptions, validator failures, "
                 "or a degradation rung never exercised)\n";
  }
  // The pipeline must replay the serial decision stream bit for bit at any
  // thread count. The throughput leg of the gate (the median pair's
  // pipelined drive >= 1.3x the serial drive's epochs/sec) only binds where
  // the overlap has hardware to run on — at least 4 pool threads on at
  // least 4 cores.
  const bool pipeline_gate_binds =
      parallel_threads >= 4 && std::thread::hardware_concurrency() >= 4;
  const bool epoch_pipeline_ok =
      serial_epoch.decisions_bitwise_equal &&
      parallel_epoch.decisions_bitwise_equal &&
      parallel_epoch.decided > 0 &&
      (!pipeline_gate_binds || parallel_epoch.speedup >= 1.3);
  if (!epoch_pipeline_ok) {
    std::cout << "epoch_pipeline gate FAILED (decision mismatch or median "
                 "pipelined drive under 1.3x the serial epochs/sec): serial "
              << util::Table::format(parallel_epoch.serial_seconds, 3)
              << " s vs pipelined "
              << util::Table::format(parallel_epoch.pipelined_seconds, 3)
              << " s, median speedup "
              << util::Table::format(parallel_epoch.speedup, 2) << "x\n";
  }
  // The eta kernel must not lose to the dense reference on its home
  // workload, and the two kernels must agree on every optimum to the bit.
  const bool kernel_ok = serial_kernel.objectives_bitwise_equal &&
                         serial_kernel.eta_seconds <=
                             serial_kernel.dense_seconds;
  if (!kernel_ok) {
    std::cout << "lp_kernel gate FAILED (eta slower than dense or objective "
                 "mismatch): dense "
              << util::Table::format(serial_kernel.dense_seconds, 3)
              << " s vs eta "
              << util::Table::format(serial_kernel.eta_seconds, 3) << " s\n";
  }
  // The LU-anchored kernel must carry its weight at the scale the sparse LU
  // was built for: a thousand-row master, reinversions actually performed,
  // the exact base optimum reproduced to the bit, the pressured optimum
  // within solver tolerance, and end-to-end wall-clock no worse than the
  // dense reference kernel.
  const bool lu_anchor_ok =
      serial_lu_anchor.rows >= 1000 && serial_lu_anchor.all_optimal &&
      serial_lu_anchor.lu_reinversions >= 1 &&
      serial_lu_anchor.base_objectives_bitwise_equal &&
      serial_lu_anchor.pressured_objective_delta < 1e-9 &&
      serial_lu_anchor.lu_seconds <= serial_lu_anchor.dense_seconds;
  if (!lu_anchor_ok) {
    std::cout << "lu_anchor gate FAILED (LU slower than the dense reference "
                 "or objective mismatch): dense "
              << util::Table::format(serial_lu_anchor.dense_seconds, 3)
              << " s vs LU "
              << util::Table::format(serial_lu_anchor.lu_seconds, 3) << " s\n";
  }

  {
    std::ofstream json("BENCH_lp_kernel.json");
    json << "{\n";
    bench::json_stamp(json);
    json << "  \"lp_kernel\": {\n"
         << "    \"dense\": {\"seconds\": " << serial_kernel.dense_seconds
         << ", \"pivots\": " << serial_kernel.dense_pivots
         << ", \"reinversions\": " << serial_kernel.dense_reinversions
         << ", \"eta_peak\": 0},\n"
         << "    \"eta\": {\"seconds\": " << serial_kernel.eta_seconds
         << ", \"pivots\": " << serial_kernel.eta_pivots
         << ", \"reinversions\": " << serial_kernel.eta_reinversions
         << ", \"eta_peak\": " << serial_kernel.eta_peak << "},\n"
         << "    \"objectives_bitwise_equal\": "
         << (serial_kernel.objectives_bitwise_equal ? "true" : "false")
         << "\n  },\n"
         << "  \"lu_anchor\": {\n"
         << "    \"rows\": " << serial_lu_anchor.rows
         << ", \"repeats\": " << lu_anchor_repeats << ",\n"
         << "    \"dense\": {\"seconds\": "
         << serial_lu_anchor.dense_seconds
         << ", \"pivots\": " << serial_lu_anchor.dense_pivots
         << ", \"reinversions\": " << serial_lu_anchor.dense_reinversions
         << "},\n"
         << "    \"lu\": {\"seconds\": " << serial_lu_anchor.lu_seconds
         << ", \"pivots\": " << serial_lu_anchor.lu_pivots
         << ", \"reinversions\": " << serial_lu_anchor.lu_reinversions
         << "},\n"
         << "    \"base_objectives_bitwise_equal\": "
         << (serial_lu_anchor.base_objectives_bitwise_equal ? "true" : "false")
         << ",\n"
         << "    \"pressured_objective_delta\": "
         << serial_lu_anchor.pressured_objective_delta << "\n  },\n"
         << "  \"bnb_direct\": {\n"
         << "    \"serial\": {\"seconds\": " << t_serial_bnb
         << ", \"pivots\": " << serial_bnb.pivots
         << ", \"nodes\": " << serial_bnb.nodes << "},\n"
         << "    \"parallel\": {\"seconds\": " << t_parallel_bnb
         << ", \"pivots\": " << parallel_bnb.pivots
         << ", \"nodes\": " << parallel_bnb.nodes << "}\n  },\n"
         << "  \"cut_bank\": {\n"
         << "    \"steady_epochs\": " << cut_bank_epochs
         << ", \"seconds\": " << t_serial_cut_bank << ",\n"
         << "    \"cold\": {\"iterations\": "
         << serial_cut_bank.cold_tail_iterations
         << ", \"pivots\": " << serial_cut_bank.cold_tail_pivots << "},\n"
         << "    \"replayed\": {\"iterations\": "
         << serial_cut_bank.warm_tail_iterations
         << ", \"pivots\": " << serial_cut_bank.warm_tail_pivots
         << ", \"cuts_replayed\": " << serial_cut_bank.cuts_replayed
         << ", \"cuts_invalidated\": " << serial_cut_bank.cuts_invalidated
         << "},\n"
         << "    \"objectives_bitwise_equal\": "
         << (serial_cut_bank.objectives_bitwise_equal ? "true" : "false")
         << "\n  },\n"
         << "  \"gates\": {\"kernel_ok\": " << (kernel_ok ? "true" : "false")
         << ", \"lu_anchor_ok\": " << (lu_anchor_ok ? "true" : "false")
         << ", \"cut_bank_ok\": " << (cut_bank_ok ? "true" : "false")
         << "}\n}\n";
  }
  {
    std::ofstream json("BENCH_learned_warm_start.json");
    json << "{\n";
    bench::json_stamp(json);
    json << "  \"warmup_epochs\": " << warm_start_warmup
         << ", \"gated_epochs\": " << serial_warm_start.epochs_gated
         << ", \"seconds\": " << t_serial_warm_start << ",\n"
         << "  \"cold\": {\"iterations\": "
         << serial_warm_start.cold_tail_iterations
         << ", \"pivots\": " << serial_warm_start.cold_tail_pivots << "},\n"
         << "  \"hinted\": {\"iterations\": "
         << serial_warm_start.hinted_tail_iterations
         << ", \"pivots\": " << serial_warm_start.hinted_tail_pivots
         << ", \"hints_accepted\": " << serial_warm_start.hints_accepted
         << ", \"hints_rejected\": " << serial_warm_start.hints_rejected
         << "},\n"
         << "  \"objectives_bitwise_equal\": "
         << (serial_warm_start.objectives_bitwise_equal ? "true" : "false")
         << ",\n"
         << "  \"gates\": {\"warm_start_ok\": "
         << (warm_start_ok ? "true" : "false") << "}\n}\n";
  }
  {
    std::ofstream json("BENCH_epoch_pipeline.json");
    json << "{\n";
    bench::json_stamp(json);
    json << "  \"epochs\": " << parallel_epoch.epochs
         << ", \"pairs\": " << pipeline_pairs
         << ", \"median_speedup\": " << parallel_epoch.speedup << ",\n"
         << "  \"serial\": {\"seconds\": " << parallel_epoch.serial_seconds
         << ", \"epochs_per_sec\": "
         << epochs_per_sec(parallel_epoch.epochs,
                           parallel_epoch.serial_seconds)
         << "},\n"
         << "  \"pipelined\": {\"seconds\": "
         << parallel_epoch.pipelined_seconds << ", \"epochs_per_sec\": "
         << epochs_per_sec(parallel_epoch.epochs,
                           parallel_epoch.pipelined_seconds)
         << "},\n"
         << "  \"single_thread_pipelined_seconds\": "
         << serial_epoch.pipelined_seconds << ",\n"
         << "  \"decisions_bitwise_equal\": "
         << (parallel_epoch.decisions_bitwise_equal ? "true" : "false")
         << ",\n"
         << "  \"gate_binds\": " << (pipeline_gate_binds ? "true" : "false")
         << ", \"epoch_pipeline_ok\": "
         << (epoch_pipeline_ok ? "true" : "false") << "\n}\n";
  }
  std::cout << "speedup run_static: "
            << util::Table::format(
                   t_serial_static / std::max(t_parallel_static, 1e-9), 2)
            << "x, run_prete: "
            << util::Table::format(
                   t_serial_prete / std::max(t_parallel_prete, 1e-9), 2)
            << "x, benders_master: "
            << util::Table::format(
                   t_serial_master / std::max(t_parallel_master, 1e-9), 2)
            << "x, telemetry: "
            << util::Table::format(
                   t_serial_telemetry / std::max(t_parallel_telemetry, 1e-9), 2)
            << "x, bnb_direct: "
            << util::Table::format(t_serial_bnb / std::max(t_parallel_bnb, 1e-9),
                                   2)
            << "x on " << parallel_threads << " threads\n";
  return identical && pricing_ok && carry_ok && campaign_ok && kernel_ok &&
                 lu_anchor_ok && cut_bank_ok && warm_start_ok &&
                 epoch_pipeline_ok
             ? 0
             : 1;
}
