#include "te/minmax.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "net/paths.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "te/evaluator.h"
#include "workload/continental.h"

namespace prete::te {
namespace {

struct TriangleCase {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels{2};
  TeProblem problem;

  TriangleCase() {
    tunnels.add_tunnel(0, {0});      // flow s1->s2 direct
    tunnels.add_tunnel(0, {2, 5});   // s1->s3->s2
    tunnels.add_tunnel(1, {2});      // flow s1->s3 direct
    tunnels.add_tunnel(1, {0, 4});   // s1->s2->s3
    problem.network = &topo.network;
    problem.flows = &topo.flows;
    problem.tunnels = &tunnels;
    problem.demands = {10.0, 10.0};
  }
};

ScenarioSet triangle_scenarios(double p0, double p1, double p2) {
  return generate_failure_scenarios({p0, p1, p2});
}

TEST(MinMaxDirectTest, ZeroLossWhenNoFailuresConsidered) {
  TriangleCase fx;
  // All fibers perfectly reliable: only the no-failure scenario matters.
  const auto set = triangle_scenarios(0.0, 0.0, 0.0);
  MinMaxOptions options;
  options.beta = 0.99;
  const auto result = solve_min_max_direct(fx.problem, set, options);
  EXPECT_NEAR(result.phi, 0.0, 1e-6);
}

TEST(MinMaxDirectTest, Beta99IgnoresRareScenarios) {
  TriangleCase fx;
  // Failure probabilities as in Figure 2: 0.005, 0.009, 0.001.
  const auto set = triangle_scenarios(0.005, 0.009, 0.001);
  MinMaxOptions options;
  options.beta = 0.99;
  const auto result = solve_min_max_direct(fx.problem, set, options);
  // The no-failure scenario has probability ~0.986 < beta, so each flow must
  // also survive some failure scenarios -- but capacity 10 everywhere allows
  // rerouting, so Phi can still be 0... unless capacity prevents both flows
  // surviving the same cut. Accept Phi in [0, 0.5]; certify feasibility by
  // evaluating the returned policy.
  EXPECT_LE(result.phi, 0.5 + 1e-6);
  EXPECT_TRUE(result.converged);
}

TEST(MinMaxDirectTest, InfeasibleBetaThrows) {
  TriangleCase fx;
  ScenarioSet set;
  FailureScenario s;
  s.fiber_failed = {false, false, false};
  s.probability = 0.9;
  set.scenarios.push_back(s);
  set.covered_probability = 0.9;
  MinMaxOptions options;
  options.beta = 0.99;
  EXPECT_THROW(solve_min_max_direct(fx.problem, set, options),
               std::invalid_argument);
  EXPECT_THROW(solve_min_max_benders(fx.problem, set, options),
               std::invalid_argument);
}

TEST(MinMaxBendersTest, ShortFiberBitmapThrows) {
  // A scenario whose bitmap is shorter than the network's fiber count would
  // make the survival check read past its end; both solvers reject it.
  TriangleCase fx;
  auto set = triangle_scenarios(0.02, 0.03, 0.01);
  ASSERT_EQ(set.scenarios.back().fiber_failed.size(), 3u);
  set.scenarios.back().fiber_failed.resize(1);
  MinMaxOptions options;
  options.beta = 0.95;
  EXPECT_THROW(solve_min_max_benders(fx.problem, set, options),
               std::invalid_argument);
  EXPECT_THROW(solve_min_max_direct(fx.problem, set, options),
               std::invalid_argument);
}

TEST(MinMaxBendersTest, MatchesDirectOnTriangle) {
  TriangleCase fx;
  const auto set = triangle_scenarios(0.02, 0.03, 0.01);
  MinMaxOptions options;
  options.beta = 0.95;
  const auto direct = solve_min_max_direct(fx.problem, set, options);
  const auto benders = solve_min_max_benders(fx.problem, set, options);
  // Benders' upper bound is always achievable; it must not beat the exact
  // optimum and should land within a small gap of it.
  EXPECT_GE(benders.phi, direct.phi - 1e-6);
  EXPECT_NEAR(benders.phi, direct.phi, 0.02);
}

TEST(MinMaxBendersTest, MatchesDirectOnOverloadedTriangle) {
  TriangleCase fx;
  fx.problem.demands = {15.0, 15.0};  // above single-link capacity
  const auto set = triangle_scenarios(0.02, 0.02, 0.02);
  MinMaxOptions options;
  options.beta = 0.9;
  const auto direct = solve_min_max_direct(fx.problem, set, options);
  const auto benders = solve_min_max_benders(fx.problem, set, options);
  EXPECT_GE(benders.phi, direct.phi - 1e-6);
  EXPECT_NEAR(benders.phi, direct.phi, 0.03);
  EXPECT_GT(direct.phi, 0.0);  // demand exceeds what the network can protect
}

TEST(MinMaxBendersTest, BoundsAreOrdered) {
  TriangleCase fx;
  const auto set = triangle_scenarios(0.02, 0.03, 0.01);
  MinMaxOptions options;
  options.beta = 0.95;
  const auto result = solve_min_max_benders(fx.problem, set, options);
  EXPECT_LE(result.lower_bound, result.upper_bound + 1e-9);
  EXPECT_GE(result.iterations, 1);
}

TEST(MinMaxBendersTest, PolicyIsCapacityFeasible) {
  const net::Topology topo = net::make_b4();
  const net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
  TeProblem problem;
  problem.network = &topo.network;
  problem.flows = &topo.flows;
  problem.tunnels = &tunnels;
  util::Rng rng(3);
  net::TrafficConfig tc;
  tc.diurnal_swing = 0.0;
  tc.noise = 0.0;
  problem.demands =
      net::generate_traffic(topo.network, topo.flows, rng, tc)[0];

  std::vector<double> probs(static_cast<std::size_t>(topo.network.num_fibers()),
                            0.01);
  ScenarioOptions so;
  so.max_simultaneous_failures = 2;  // singles alone cover < 99% mass
  const auto set = generate_failure_scenarios(probs, so);
  MinMaxOptions options;
  options.beta = 0.99;
  const auto result = solve_min_max_benders(problem, set, options);

  std::vector<double> load(static_cast<std::size_t>(topo.network.num_links()), 0.0);
  for (const net::Tunnel& t : tunnels.tunnels()) {
    for (net::LinkId e : t.path) {
      load[static_cast<std::size_t>(e)] +=
          result.policy.allocation[static_cast<std::size_t>(t.id)];
    }
  }
  for (net::LinkId e = 0; e < topo.network.num_links(); ++e) {
    EXPECT_LE(load[static_cast<std::size_t>(e)],
              topo.network.link(e).capacity_gbps + 1e-6);
  }
  // And Phi should be essentially zero at this moderate demand.
  EXPECT_LT(result.phi, 0.05);
}

TEST(MinMaxBendersTest, PhiMatchesEvaluatedQuantileLoss) {
  // The reported Phi must be an upper bound on the realized beta-quantile
  // loss of the returned policy.
  TriangleCase fx;
  fx.problem.demands = {12.0, 12.0};
  const auto set = triangle_scenarios(0.03, 0.03, 0.03);
  MinMaxOptions options;
  options.beta = 0.9;
  const auto result = solve_min_max_benders(fx.problem, set, options);
  // For each flow, collect (probability, loss) across scenarios and check
  // there's a scenario subset of mass >= beta with loss <= phi + tol.
  for (const net::Flow& flow : *fx.problem.flows) {
    double ok_mass = 0.0;
    for (const auto& scenario : set.scenarios) {
      const auto losses = flow_losses(fx.problem, result.policy, scenario);
      if (losses[static_cast<std::size_t>(flow.id)] <= result.phi + 1e-6) {
        ok_mass += scenario.probability;
      }
    }
    EXPECT_GE(ok_mass, options.beta - 1e-9) << "flow " << flow.id;
  }
}

TEST(BendersBoundsTest, CrossedBoundIsNotConvergence) {
  // Regression: the old implementation clamped the master lower bound with
  // min(lb, upper_bound) before the gap test, so a bound crossing
  // (lb > ub, a symptom of bad cuts) collapsed to a zero gap and reported
  // converged = true. The raw-tracking version must flag it instead.
  BendersBounds bounds;
  bounds.observe_upper(0.30);
  EXPECT_FALSE(bounds.update(0.45, 1e-4));  // old clamp: gap 0 -> "converged"
  EXPECT_TRUE(bounds.crossed);
  EXPECT_DOUBLE_EQ(bounds.clamped_lower(), 0.30);  // reporting stays ordered
  // Once crossed, later consistent candidates cannot certify convergence
  // either — the cut set is suspect.
  EXPECT_FALSE(bounds.update(0.2999, 1e-4));
}

TEST(BendersBoundsTest, GenuineGapCloseStillConverges) {
  BendersBounds bounds;
  bounds.observe_upper(0.30);
  EXPECT_FALSE(bounds.update(0.10, 1e-4));
  EXPECT_TRUE(bounds.update(0.29995, 1e-3));
  EXPECT_FALSE(bounds.crossed);
  EXPECT_DOUBLE_EQ(bounds.clamped_lower(), 0.29995);
}

TEST(BendersBoundsTest, RoundoffCrossingIsTolerated) {
  BendersBounds bounds;
  bounds.observe_upper(0.25);
  // Within kCrossingTol of the upper bound: numerically equal, converged.
  EXPECT_TRUE(bounds.update(0.25 + 1e-10, 1e-4));
  EXPECT_FALSE(bounds.crossed);
}

TEST(MinMaxBendersTest, BoundNotCrossedOnHealthyInstances) {
  TriangleCase fx;
  const auto set = triangle_scenarios(0.02, 0.03, 0.01);
  MinMaxOptions options;
  options.beta = 0.95;
  const auto result = solve_min_max_benders(fx.problem, set, options);
  EXPECT_FALSE(result.bound_crossed);
  EXPECT_LE(result.lower_bound, result.upper_bound + 1e-9);
}

// Flow 0 restricted to the single direct tunnel over fiber 0, so the
// fiber-0 scenario is fatal for it (no surviving tunnel at any allocation).
struct FatalTunnelCase {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels{2};
  TeProblem problem;

  FatalTunnelCase() {
    tunnels.add_tunnel(0, {0});      // only tunnel: dies with fiber 0
    tunnels.add_tunnel(1, {2});      // s1->s3 direct
    tunnels.add_tunnel(1, {0, 4});   // s1->s2->s3
    problem.network = &topo.network;
    problem.flows = &topo.flows;
    problem.tunnels = &tunnels;
    problem.demands = {10.0, 10.0};
  }
};

TEST(MinMaxBendersTest, FatalPairIsPinnedWithinBudget) {
  FatalTunnelCase fx;
  const auto set = triangle_scenarios(0.004, 0.003, 0.002);
  MinMaxOptions options;
  options.beta = 0.99;  // budget ~0.01 comfortably covers the fatal mass
  const auto result = solve_min_max_benders(fx.problem, set, options);

  ASSERT_EQ(result.pinned_fatal_mass.size(), 2u);
  // Flow 0's fatal single-failure fiber-0 scenario (~0.004 mass) is
  // pre-dropped; its mass is charged against (and must fit inside) the
  // covered - beta budget.
  EXPECT_GT(result.pinned_fatal_mass[0], 0.003);
  EXPECT_LE(result.pinned_fatal_mass[0],
            set.covered_probability - options.beta + 1e-12);
  // Flow 1 keeps a surviving tunnel under every single failure; only the
  // tiny double-failure scenarios that kill both its tunnels get pinned.
  EXPECT_LT(result.pinned_fatal_mass[1], 1e-4);
  // With the fatal pairs out of the quantile, the rest is protectable.
  EXPECT_LT(result.phi, 0.05);
}

TEST(MinMaxBendersTest, FatalPairBeyondBudgetIsNotPinned) {
  FatalTunnelCase fx;
  const auto set = triangle_scenarios(0.004, 0.003, 0.002);
  MinMaxOptions options;
  // Budget covered - 0.9999 < the single-failure fatal scenario's
  // probability (~0.004): that pin cannot fit. Only sub-budget multi-failure
  // fatal scenarios may still be pinned, and with the dominant fatal pair
  // left in the quantile Phi saturates.
  options.beta = 0.9999;
  ASSERT_LT(set.covered_probability - options.beta, 0.003);
  const auto result = solve_min_max_benders(fx.problem, set, options);
  EXPECT_LT(result.pinned_fatal_mass[0], 1e-4);
  EXPECT_LE(result.pinned_fatal_mass[0],
            set.covered_probability - options.beta + 1e-12);
  EXPECT_GT(result.phi, 0.9);
}

TEST(MinMaxBendersTest, PinnedMassIsChargedAgainstDropBudget) {
  // If the master forgot to subtract the pinned mass from its drop budget,
  // flow 0 could drop more scenario mass than 1 - beta allows and the
  // returned policy would violate the quantile guarantee. Verify the
  // guarantee directly on the evaluated losses.
  FatalTunnelCase fx;
  fx.problem.demands = {12.0, 12.0};
  const auto set = triangle_scenarios(0.004, 0.03, 0.03);
  MinMaxOptions options;
  options.beta = 0.99;
  const auto result = solve_min_max_benders(fx.problem, set, options);
  for (const net::Flow& flow : *fx.problem.flows) {
    double ok_mass = 0.0;
    for (const auto& scenario : set.scenarios) {
      const auto losses = flow_losses(fx.problem, result.policy, scenario);
      if (losses[static_cast<std::size_t>(flow.id)] <= result.phi + 1e-6) {
        ok_mass += scenario.probability;
      }
    }
    EXPECT_GE(ok_mass, options.beta - 1e-9) << "flow " << flow.id;
  }
}

// Golden regression: a small continental instance solved for two
// consecutive epochs with a basis cache and a cut bank, a dynamic tunnel and
// one fatal pair. The pinned values fix the pivot path: any change to the
// row order, candidate order or arithmetic of the decomposition moves them.
struct GoldenCase {
  workload::ContinentalWorkload plant;
  net::TunnelSet tunnels;
  ScenarioSet scenarios;
  net::FlowId fatal_flow = 0;

  static workload::ContinentalConfig config() {
    workload::ContinentalConfig c;
    c.nodes = 24;
    c.min_fibers = 40;
    c.flows = 10;
    c.timezones = 2;
    c.mean_cut_prob_per_1000km = 2e-3;
    c.scenario_gen.max_scenarios = 400;
    c.reduction.max_scenarios = 30;
    return c;
  }

  GoldenCase()
      : plant(workload::generate_continental_workload(config())),
        tunnels(net::build_tunnels(plant.topology.network,
                                   plant.topology.flows)) {
    const net::Network& network = plant.topology.network;
    // A dynamic tunnel for flow 1: its shortest path not yet in the set.
    const net::Flow& dyn = plant.topology.flows[1];
    for (const net::Path& path :
         net::k_shortest_paths(network, dyn.src, dyn.dst, 8,
                               net::hop_count_weight())) {
      bool known = false;
      for (net::TunnelId t : tunnels.tunnels_for_flow(dyn.id)) {
        known = known || tunnels.tunnel(t).path == path;
      }
      if (!known) {
        tunnels.add_tunnel(dyn.id, path, /*dynamic=*/true);
        break;
      }
    }
    scenarios = reduce_scenarios(
        generate_correlated_scenarios(plant.failure_model,
                                      config().scenario_gen),
        config().reduction);
    // The fatal pair: one extra scenario cutting the first fiber of every
    // tunnel of `fatal_flow`.
    FailureScenario fatal;
    fatal.fiber_failed.assign(static_cast<std::size_t>(network.num_fibers()),
                              false);
    for (net::TunnelId t : tunnels.tunnels_for_flow(fatal_flow)) {
      const net::LinkId first = tunnels.tunnel(t).path.front();
      fatal.fiber_failed[static_cast<std::size_t>(network.link(first).fiber)] =
          true;
    }
    fatal.probability = 1e-3;
    scenarios.scenarios.push_back(fatal);
    scenarios.covered_probability += fatal.probability;
  }

  TeProblem problem(double scale) const {
    TeProblem p;
    p.network = &plant.topology.network;
    p.flows = &plant.topology.flows;
    p.tunnels = &tunnels;
    p.demands = net::scale_traffic(plant.matrices[0], scale);
    return p;
  }
};

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// FNV-1a over the allocation's bits.
std::uint64_t allocation_hash(const std::vector<double>& allocation) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double v : allocation) {
    const std::uint64_t bits = bits_of(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(MinMaxGoldenTest, TwoEpochsWithCacheAndBankArePinned) {
  GoldenCase fx;
  ASSERT_TRUE(std::any_of(fx.tunnels.tunnels().begin(),
                          fx.tunnels.tunnels().end(),
                          [](const net::Tunnel& t) { return t.dynamic; }));
  MinMaxOptions options;
  options.beta = fx.scenarios.covered_probability - 0.03;
  BasisCache cache;
  CutBank bank;
  // The same two epochs under the dense reference kernel, with memories of
  // their own: the pinned bits are checked against an independent solve, not
  // only against themselves.
  MinMaxOptions dense_options = options;
  dense_options.simplex.kernel = lp::BasisKernel::kDenseBinv;
  BasisCache dense_cache;
  CutBank dense_bank;
  struct Expected {
    std::uint64_t phi_bits;
    int iterations;
    int pivots;
    int banked;
    int invalidated;
    int replayed;
    std::uint64_t allocation_hash;
  };
  const Expected golden[2] = {
      {0x0000000000000000ull, 3, 327, 3, 0, 0, 0x688d41aa4f6b8455ull},
      {0x3fa530bb2bb93a07ull, 1, 87, 1, 1, 2, 0xafb7f294e4d2d7feull},
  };
  for (int epoch = 0; epoch < 2; ++epoch) {
    // The second epoch sees the same demands under drifted probabilities,
    // so the banked cuts replay and the cached bases line up.
    ScenarioSet set = fx.scenarios;
    if (epoch == 1) {
      set.covered_probability = 0.0;
      for (std::size_t q = 0; q < set.scenarios.size(); ++q) {
        set.scenarios[q].probability *= q % 2 == 0 ? 0.98 : 1.01;
        set.covered_probability += set.scenarios[q].probability;
      }
    }
    const TeProblem problem = fx.problem(4.0);
    const MinMaxResult r =
        solve_min_max_benders(problem, set, options, &cache, &bank);
    EXPECT_EQ(bits_of(r.phi), golden[epoch].phi_bits) << "epoch " << epoch;
    EXPECT_EQ(r.iterations, golden[epoch].iterations) << "epoch " << epoch;
    EXPECT_EQ(r.simplex_pivots, golden[epoch].pivots) << "epoch " << epoch;
    EXPECT_EQ(r.cuts_banked, golden[epoch].banked) << "epoch " << epoch;
    EXPECT_EQ(r.cuts_invalidated, golden[epoch].invalidated)
        << "epoch " << epoch;
    EXPECT_EQ(r.cuts_replayed, golden[epoch].replayed) << "epoch " << epoch;
    EXPECT_EQ(allocation_hash(r.policy.allocation),
              golden[epoch].allocation_hash)
        << "epoch " << epoch;
    EXPECT_TRUE(r.converged) << "epoch " << epoch;
    EXPECT_EQ(r.capped_subproblems, 0) << "epoch " << epoch;
    const MinMaxResult dense = solve_min_max_benders(
        problem, set, dense_options, &dense_cache, &dense_bank);
    EXPECT_TRUE(dense.converged) << "epoch " << epoch;
    EXPECT_EQ(dense.capped_subproblems, 0) << "epoch " << epoch;
    EXPECT_NEAR(dense.phi, r.phi, 1e-9 * std::abs(r.phi)) << "epoch " << epoch;
    // The fatal pair was pinned for its flow.
    EXPECT_GE(r.pinned_fatal_mass[static_cast<std::size_t>(fx.fatal_flow)],
              set.scenarios.back().probability)
        << "epoch " << epoch;
  }
}

class BendersVsDirectProperty : public ::testing::TestWithParam<int> {};

TEST_P(BendersVsDirectProperty, SmallRandomInstances) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam() * 97 + 11));
  TriangleCase fx;
  fx.problem.demands = {rng.uniform(5.0, 16.0), rng.uniform(5.0, 16.0)};
  const auto set = triangle_scenarios(rng.uniform(0.0, 0.05),
                                      rng.uniform(0.0, 0.05),
                                      rng.uniform(0.0, 0.05));
  MinMaxOptions options;
  options.beta = 0.9 + 0.08 * rng.next_double();
  const auto direct = solve_min_max_direct(fx.problem, set, options);
  const auto benders = solve_min_max_benders(fx.problem, set, options);
  EXPECT_GE(benders.phi, direct.phi - 1e-6) << "seed " << GetParam();
  EXPECT_LE(benders.phi, direct.phi + 0.05) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BendersVsDirectProperty,
                         ::testing::Range(1, 401));

// Every kOptimal answer meets its rows and bounds. The direct solver's
// branch-and-bound solves many small cold LPs whose phase 1 can end on an
// artificial residue; the same instances as BendersVsDirectProperty are
// explored depth-first (most fractional binary, both branches) and each
// node relaxation's optimum is checked against the model itself.
TEST(DirectRelaxationCertificate, EveryOptimalNodeMeetsRowsAndBounds) {
  int checked = 0;
  for (int seed = 1; seed <= 400; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed * 97 + 11));
    TriangleCase fx;
    fx.problem.demands = {rng.uniform(5.0, 16.0), rng.uniform(5.0, 16.0)};
    const auto set = triangle_scenarios(rng.uniform(0.0, 0.05),
                                        rng.uniform(0.0, 0.05),
                                        rng.uniform(0.0, 0.05));
    const double beta = 0.9 + 0.08 * rng.next_double();
    const DirectModel direct = build_min_max_direct_model(fx.problem, set, beta);
    const lp::SimplexSolver solver;
    std::vector<lp::Model> open{direct.model};
    for (int nodes = 0; !open.empty() && nodes < 64; ++nodes) {
      const lp::Model node = std::move(open.back());
      open.pop_back();
      const lp::Solution sol = solver.solve(node);
      if (sol.status != lp::SolveStatus::kOptimal) continue;
      ++checked;
      ASSERT_LT(node.max_violation(sol.x), 1e-6)
          << "seed " << seed << " node " << nodes;
      int branch = -1;
      double best = 1e-6;
      for (int j = 0; j < node.num_variables(); ++j) {
        if (!node.variable(j).is_integer) continue;
        const double v = sol.x[static_cast<std::size_t>(j)];
        const double frac = std::abs(v - std::round(v));
        if (frac > best) {
          best = frac;
          branch = j;
        }
      }
      if (branch < 0) continue;
      for (const double fixed : {0.0, 1.0}) {
        lp::Model child = node;
        child.set_bounds(branch, fixed, fixed);
        open.push_back(std::move(child));
      }
    }
  }
  EXPECT_GT(checked, 2000);
}

}  // namespace
}  // namespace prete::te
