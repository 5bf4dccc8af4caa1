// The determinism contract, end to end: every parallelized pipeline stage
// must produce bit-identical results at PRETE_THREADS=1 and PRETE_THREADS=N.
// These tests resize the global pool between runs and compare exactly
// (EXPECT_EQ on doubles, not EXPECT_NEAR).
#include <gtest/gtest.h>

#include <cmath>

#include "net/tunnels.h"
#include "optical/simulator.h"
#include "runtime/thread_pool.h"
#include "sim/monte_carlo.h"
#include "te/minmax.h"
#include "te/schemes.h"

namespace prete::sim {
namespace {

struct Fixture {
  net::Topology topo = net::make_b4();
  te::PlantStatistics stats;
  net::TrafficMatrix demands;

  explicit Fixture(double scale = 2.0) {
    util::Rng rng(11);
    const auto params = optical::build_plant_model(topo.network, rng);
    stats = te::derive_statistics(topo.network, params, {}, rng, 100);
    util::Rng traffic_rng(12);
    net::TrafficConfig tc;
    tc.diurnal_swing = 0.0;
    tc.noise = 0.0;
    demands = net::scale_traffic(
        net::generate_traffic(topo.network, topo.flows, traffic_rng, tc)[0],
        scale);
  }

  MonteCarloConfig config(int epochs) const {
    MonteCarloConfig c;
    c.epochs = epochs;
    c.beta = 0.99;
    c.planning_scenarios.max_simultaneous_failures = 1;
    c.planning_scenarios.max_scenarios = 40;
    return c;
  }
};

void expect_identical(const MonteCarloResult& a, const MonteCarloResult& b) {
  EXPECT_EQ(a.mean_flow_availability, b.mean_flow_availability);
  EXPECT_EQ(a.standard_error, b.standard_error);
  EXPECT_EQ(a.epochs_with_degradation, b.epochs_with_degradation);
  EXPECT_EQ(a.epochs_with_cut, b.epochs_with_cut);
}

TEST(RuntimeDeterminismTest, MonteCarloStaticBitIdenticalAcrossThreadCounts) {
  const Fixture fx;
  const MonteCarloStudy mc(fx.topo, fx.stats, fx.config(800));
  te::TeaVarScheme teavar(0.99);

  runtime::ThreadPool::set_global_threads(1);
  util::Rng rng1(5);
  const auto serial = mc.run_static(teavar, fx.demands, rng1);

  runtime::ThreadPool::set_global_threads(4);
  util::Rng rng4(5);
  const auto parallel = mc.run_static(teavar, fx.demands, rng4);

  runtime::ThreadPool::set_global_threads(0);
  expect_identical(serial, parallel);
  // The caller's generator must also have advanced identically.
  EXPECT_EQ(rng1.next_u64(), rng4.next_u64());
}

TEST(RuntimeDeterminismTest, MonteCarloPreTeBitIdenticalAcrossThreadCounts) {
  const Fixture fx;
  const MonteCarloStudy mc(fx.topo, fx.stats, fx.config(300));

  runtime::ThreadPool::set_global_threads(1);
  util::Rng rng1(7);
  const auto serial = mc.run_prete(fx.demands, rng1);

  runtime::ThreadPool::set_global_threads(4);
  util::Rng rng4(7);
  const auto parallel = mc.run_prete(fx.demands, rng4);

  runtime::ThreadPool::set_global_threads(0);
  expect_identical(serial, parallel);
}

TEST(RuntimeDeterminismTest, DeriveStatisticsBitIdenticalAcrossThreadCounts) {
  net::Topology topo = net::make_b4();
  util::Rng seed_rng(11);
  const auto params = optical::build_plant_model(topo.network, seed_rng);

  runtime::ThreadPool::set_global_threads(1);
  util::Rng rng1(21);
  const auto serial = te::derive_statistics(topo.network, params, {}, rng1, 200);

  runtime::ThreadPool::set_global_threads(4);
  util::Rng rng4(21);
  const auto parallel =
      te::derive_statistics(topo.network, params, {}, rng4, 200);

  runtime::ThreadPool::set_global_threads(0);
  ASSERT_EQ(serial.cut_prob.size(), parallel.cut_prob.size());
  for (std::size_t f = 0; f < serial.cut_prob.size(); ++f) {
    EXPECT_EQ(serial.cut_prob[f], parallel.cut_prob[f]);
    EXPECT_EQ(serial.cut_given_degradation[f],
              parallel.cut_given_degradation[f]);
  }
  EXPECT_EQ(serial.alpha, parallel.alpha);
}

TEST(RuntimeDeterminismTest, BendersMasterBitIdenticalAcrossThreadCounts) {
  // The parallel cut evaluation + per-flow drop ordering in the Benders
  // master, plus the simplex warm starts, must not perturb a single bit of
  // the result across pool sizes.
  const Fixture fx;
  const net::TunnelSet tunnels =
      net::build_tunnels(fx.topo.network, fx.topo.flows);
  te::TeProblem problem;
  problem.network = &fx.topo.network;
  problem.flows = &fx.topo.flows;
  problem.tunnels = &tunnels;
  problem.demands = fx.demands;
  te::ScenarioOptions so;
  so.max_simultaneous_failures = 2;
  so.max_scenarios = 80;  // keeps the test fast enough for the TSan leg
  const auto scenarios =
      te::generate_failure_scenarios(fx.stats.cut_prob, so);
  te::MinMaxOptions options;
  options.beta = std::min(0.99, scenarios.covered_probability);

  runtime::ThreadPool::set_global_threads(1);
  const auto serial = te::solve_min_max_benders(problem, scenarios, options);

  runtime::ThreadPool::set_global_threads(4);
  const auto parallel = te::solve_min_max_benders(problem, scenarios, options);

  runtime::ThreadPool::set_global_threads(0);
  EXPECT_EQ(serial.phi, parallel.phi);
  EXPECT_EQ(serial.upper_bound, parallel.upper_bound);
  EXPECT_EQ(serial.lower_bound, parallel.lower_bound);
  EXPECT_EQ(serial.iterations, parallel.iterations);
  EXPECT_EQ(serial.converged, parallel.converged);
  EXPECT_EQ(serial.bound_crossed, parallel.bound_crossed);
  ASSERT_EQ(serial.policy.allocation.size(), parallel.policy.allocation.size());
  for (std::size_t t = 0; t < serial.policy.allocation.size(); ++t) {
    EXPECT_EQ(serial.policy.allocation[t], parallel.policy.allocation[t]);
  }
}

TEST(RuntimeDeterminismTest, PlantSimulatorBitIdenticalAcrossThreadCounts) {
  // Per-fiber telemetry generation shards over the pool with split(fiber)
  // streams: the event log, the batched loss traces, and the caller's
  // generator must all be bit-identical across pool sizes.
  net::Topology topo = net::make_b4();
  util::Rng seed_rng(31);
  const auto params = optical::build_plant_model(topo.network, seed_rng);
  const optical::PlantSimulator plant(topo.network, params);
  constexpr optical::TimeSec kHorizon = 60 * 86400;

  runtime::ThreadPool::set_global_threads(1);
  util::Rng rng1(13);
  const auto log1 = plant.simulate(kHorizon, rng1);
  const auto traces1 = plant.loss_traces(log1, 0, 1800, rng1);

  runtime::ThreadPool::set_global_threads(4);
  util::Rng rng4(13);
  const auto log4 = plant.simulate(kHorizon, rng4);
  const auto traces4 = plant.loss_traces(log4, 0, 1800, rng4);

  runtime::ThreadPool::set_global_threads(0);
  ASSERT_EQ(log1.cuts.size(), log4.cuts.size());
  for (std::size_t i = 0; i < log1.cuts.size(); ++i) {
    EXPECT_EQ(log1.cuts[i].fiber, log4.cuts[i].fiber);
    EXPECT_EQ(log1.cuts[i].time_sec, log4.cuts[i].time_sec);
    EXPECT_EQ(log1.cuts[i].repair_hours, log4.cuts[i].repair_hours);
    EXPECT_EQ(log1.cuts[i].predictable, log4.cuts[i].predictable);
  }
  ASSERT_EQ(log1.degradations.size(), log4.degradations.size());
  for (std::size_t i = 0; i < log1.degradations.size(); ++i) {
    EXPECT_EQ(log1.degradations[i].fiber, log4.degradations[i].fiber);
    EXPECT_EQ(log1.degradations[i].onset_sec, log4.degradations[i].onset_sec);
    EXPECT_EQ(log1.degradations[i].true_cut_probability,
              log4.degradations[i].true_cut_probability);
  }
  ASSERT_EQ(traces1.size(), traces4.size());
  for (std::size_t f = 0; f < traces1.size(); ++f) {
    ASSERT_EQ(traces1[f].size(), traces4[f].size()) << "fiber " << f;
    for (std::size_t t = 0; t < traces1[f].size(); ++t) {
      const bool nan1 = std::isnan(traces1[f][t]);
      const bool nan4 = std::isnan(traces4[f][t]);
      EXPECT_EQ(nan1, nan4);
      if (!nan1 && !nan4) {
        EXPECT_EQ(traces1[f][t], traces4[f][t]);
      }
    }
  }
  // The caller's generator advanced by exactly one draw per call.
  EXPECT_EQ(rng1.next_u64(), rng4.next_u64());
}

// Solves the triangle min-max problem with branch-and-bound at one and at
// four threads under the given reinversion interval and expects every
// returned bit, including the work counters, to match.
void expect_direct_solver_thread_invariant(int refactor_interval) {
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
  options.simplex.refactor_interval = refactor_interval;

  runtime::ThreadPool::set_global_threads(1);
  const auto serial = te::solve_min_max_direct(problem, scenarios, options);

  runtime::ThreadPool::set_global_threads(4);
  const auto parallel = te::solve_min_max_direct(problem, scenarios, options);

  runtime::ThreadPool::set_global_threads(0);
  EXPECT_EQ(serial.phi, parallel.phi);
  EXPECT_EQ(serial.simplex_pivots, parallel.simplex_pivots);
  EXPECT_EQ(serial.bb_nodes, parallel.bb_nodes);
  EXPECT_GE(serial.bb_nodes, 1);
  ASSERT_EQ(serial.policy.allocation.size(), parallel.policy.allocation.size());
  for (std::size_t t = 0; t < serial.policy.allocation.size(); ++t) {
    EXPECT_EQ(serial.policy.allocation[t], parallel.policy.allocation[t]);
  }
}

TEST(RuntimeDeterminismTest, DirectSolverBitIdenticalAcrossThreadCounts) {
  // solve_min_max_direct runs branch-and-bound in parallel node waves; the
  // wave size is fixed (never derived from the pool), pops and incumbent
  // merges happen in deterministic order, and each node relaxation is a
  // self-contained solve — so every returned bit, including the work
  // counters, must survive a pool resize.
  expect_direct_solver_thread_invariant(lp::SimplexOptions{}.refactor_interval);
}

TEST(RuntimeDeterminismTest,
     DirectSolverWithLuAnchorBitIdenticalAcrossThreadCounts) {
  // Same property as above with frequent reinversion, so the node
  // relaxations lean on the sparse LU anchor: the Markowitz pivot order and
  // the triangular solves are pure functions of the basis, so the
  // LU-anchored solves must survive a pool resize bit-for-bit too.
  expect_direct_solver_thread_invariant(4);
}

TEST(RuntimeDeterminismTest, RepeatedParallelRunsAreStable) {
  // Same seed, same thread count, run twice: scheduling jitter between runs
  // must not leak into the result.
  const Fixture fx;
  const MonteCarloStudy mc(fx.topo, fx.stats, fx.config(600));
  te::TeaVarScheme teavar(0.99);
  runtime::ThreadPool::set_global_threads(4);
  util::Rng a(9);
  util::Rng b(9);
  const auto r1 = mc.run_static(teavar, fx.demands, a);
  const auto r2 = mc.run_static(teavar, fx.demands, b);
  runtime::ThreadPool::set_global_threads(0);
  expect_identical(r1, r2);
}

}  // namespace
}  // namespace prete::sim
