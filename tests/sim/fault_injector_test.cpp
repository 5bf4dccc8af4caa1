#include "sim/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <vector>

#include "runtime/thread_pool.h"
#include "net/srlg.h"
#include "sim/monte_carlo.h"
#include "te/schemes.h"

namespace prete::sim {
namespace {

TEST(FaultInjectorTest, SameStepSameFault) {
  FaultPlan plan;
  plan.seed = 42;
  plan.rates.telemetry_corruption = 0.2;
  plan.rates.predictor_nan = 0.2;
  plan.rates.deadline_expiry = 0.2;
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  for (std::int64_t step = 0; step < 500; ++step) {
    EXPECT_EQ(a.fault_at(step), b.fault_at(step)) << "step " << step;
    EXPECT_EQ(a.fault_at(step), a.fault_at(step)) << "step " << step;
  }
}

TEST(FaultInjectorTest, QueryOrderDoesNotMatter) {
  FaultPlan plan;
  plan.seed = 7;
  plan.rates.solver_collapse = 0.3;
  const FaultInjector inj(plan);
  std::vector<FaultKind> forward, backward(200);
  for (std::int64_t step = 0; step < 200; ++step) {
    forward.push_back(inj.fault_at(step));
  }
  for (std::int64_t step = 199; step >= 0; --step) {
    backward[static_cast<std::size_t>(step)] = inj.fault_at(step);
  }
  EXPECT_EQ(forward, backward);
}

TEST(FaultInjectorTest, ForcedEntriesOverrideSampling) {
  FaultPlan plan;
  plan.seed = 3;
  plan.rates.telemetry_corruption = 1.0;  // every unforced step corrupts
  plan.forced.push_back({5, FaultKind::kSolverCollapse});
  plan.forced.push_back({6, FaultKind::kNone});  // forced-clean step
  const FaultInjector inj(plan);
  EXPECT_EQ(inj.fault_at(5), FaultKind::kSolverCollapse);
  EXPECT_EQ(inj.fault_at(6), FaultKind::kNone);
  EXPECT_EQ(inj.fault_at(7), FaultKind::kTelemetryCorruption);
}

TEST(FaultInjectorTest, ZeroRatesInjectNothing) {
  FaultPlan plan;
  plan.seed = 9;
  const FaultInjector inj(plan);
  for (std::int64_t step = 0; step < 100; ++step) {
    EXPECT_EQ(inj.fault_at(step), FaultKind::kNone);
  }
}

TEST(FaultInjectorTest, RatesApproximateLongRunFrequencies) {
  FaultPlan plan;
  plan.seed = 17;
  plan.rates.telemetry_corruption = 0.3;
  plan.rates.predictor_throw = 0.1;
  const FaultInjector inj(plan);
  std::map<FaultKind, int> counts;
  const int n = 5000;
  for (std::int64_t step = 0; step < n; ++step) ++counts[inj.fault_at(step)];
  EXPECT_NEAR(counts[FaultKind::kTelemetryCorruption] / double(n), 0.3, 0.03);
  EXPECT_NEAR(counts[FaultKind::kPredictorThrow] / double(n), 0.1, 0.02);
  EXPECT_NEAR(counts[FaultKind::kNone] / double(n), 0.6, 0.03);
  EXPECT_EQ(counts[FaultKind::kDeadlineExpiry], 0);
}

TEST(FaultInjectorTest, RateSumAboveOneThrows) {
  FaultPlan plan;
  plan.rates.telemetry_corruption = 0.7;
  plan.rates.solver_collapse = 0.5;
  EXPECT_THROW(FaultInjector{plan}, std::invalid_argument);
}

TEST(FaultInjectorTest, CorruptTraceIsDeterministicAndKeepsLength) {
  FaultPlan plan;
  plan.seed = 23;
  const FaultInjector inj(plan);
  // A sloped baseline so every corruption mode — including the stuck-at
  // flatline — visibly changes the trace.
  std::vector<double> clean(64);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    clean[i] = 5.0 + 0.01 * static_cast<double>(i);
  }
  for (std::int64_t step = 0; step < 32; ++step) {
    std::vector<double> a = clean;
    std::vector<double> b = clean;
    inj.corrupt_trace(step, a);
    inj.corrupt_trace(step, b);
    ASSERT_EQ(a.size(), clean.size());
    // Bit-identical replay (NaNs compare by bit pattern, so compare slots).
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::isnan(a[i])) {
        EXPECT_TRUE(std::isnan(b[i])) << "step " << step << " slot " << i;
      } else {
        EXPECT_EQ(a[i], b[i]) << "step " << step << " slot " << i;
      }
    }
    // Something actually changed.
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::isnan(a[i]) || a[i] != clean[i]) differs = true;
    }
    EXPECT_TRUE(differs) << "step " << step;
  }
}

// --- Monte Carlo integration ---

struct McFixture {
  net::Topology topo = net::make_b4();
  te::PlantStatistics stats;
  net::TrafficMatrix demands;

  McFixture() {
    util::Rng rng(11);
    const auto params = optical::build_plant_model(topo.network, rng);
    stats = te::derive_statistics(topo.network, params, {}, rng, 100);
    util::Rng traffic_rng(12);
    net::TrafficConfig tc;
    tc.diurnal_swing = 0.0;
    tc.noise = 0.0;
    demands = net::scale_traffic(
        net::generate_traffic(topo.network, topo.flows, traffic_rng, tc)[0],
        3.0);
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

TEST(FaultInjectorTest, MonteCarloRunSurvivesInjectedFaults) {
  McFixture fx;
  const MonteCarloStudy mc(fx.topo, fx.stats, fx.config(800));
  FaultPlan plan;
  plan.seed = 5;
  plan.rates.telemetry_corruption = 0.2;
  plan.rates.predictor_nan = 0.15;
  plan.rates.predictor_throw = 0.15;
  plan.rates.deadline_expiry = 0.15;
  plan.rates.solver_collapse = 0.15;
  const FaultInjector faults(plan);

  util::Rng rng(31);
  MonteCarloResult result;
  ASSERT_NO_THROW(result = mc.run_prete(fx.demands, rng, &faults));
  EXPECT_GT(result.faults_injected, 0);
  EXPECT_GE(result.mean_flow_availability, 0.0);
  EXPECT_LE(result.mean_flow_availability, 1.0);

  // A fault-free run through the same entry point reports zero injections.
  util::Rng clean_rng(31);
  const auto clean = mc.run_prete(fx.demands, clean_rng);
  EXPECT_EQ(clean.faults_injected, 0);
}

TEST(FaultInjectorTest, MonteCarloIgnoresControlPlaneFaults) {
  // Control-plane kinds target the epoch pipeline, which a study does not
  // run: a plan made only of them must inject nothing and leave the study
  // bit-identical to a clean one.
  McFixture fx;
  const MonteCarloStudy mc(fx.topo, fx.stats, fx.config(400));
  FaultPlan plan;
  plan.seed = 9;
  plan.rates.stage_stall = 0.25;
  plan.rates.window_drop = 0.25;
  plan.rates.window_duplicate = 0.25;
  plan.rates.solver_throw = 0.25;
  const FaultInjector faults(plan);

  util::Rng rng(41);
  const auto faulted = mc.run_prete(fx.demands, rng, &faults);
  util::Rng clean_rng(41);
  const auto clean = mc.run_prete(fx.demands, clean_rng);

  EXPECT_EQ(faulted.faults_injected, 0);
  EXPECT_EQ(faulted.mean_flow_availability, clean.mean_flow_availability);
  EXPECT_EQ(faulted.standard_error, clean.standard_error);
  EXPECT_EQ(faulted.epochs_with_degradation, clean.epochs_with_degradation);
  EXPECT_EQ(faulted.epochs_with_cut, clean.epochs_with_cut);
}

TEST(FaultInjectorTest, FaultedRunIsBitIdenticalAcrossThreadCounts) {
  McFixture fx;
  const MonteCarloStudy mc(fx.topo, fx.stats, fx.config(400));
  FaultPlan plan;
  plan.seed = 13;
  plan.rates.telemetry_corruption = 0.25;
  plan.rates.deadline_expiry = 0.25;
  plan.rates.solver_collapse = 0.25;
  const FaultInjector faults(plan);

  runtime::ThreadPool::set_global_threads(1);
  util::Rng rng1(77);
  const auto serial = mc.run_prete(fx.demands, rng1, &faults);
  runtime::ThreadPool::set_global_threads(4);
  util::Rng rng4(77);
  const auto parallel = mc.run_prete(fx.demands, rng4, &faults);
  runtime::ThreadPool::set_global_threads(0);

  EXPECT_EQ(serial.faults_injected, parallel.faults_injected);
  EXPECT_EQ(serial.mean_flow_availability, parallel.mean_flow_availability);
  EXPECT_EQ(serial.epochs_with_degradation, parallel.epochs_with_degradation);
  EXPECT_EQ(serial.epochs_with_cut, parallel.epochs_with_cut);
}


GroupCutPlan example_group_plan(double rate) {
  GroupCutPlan plan;
  plan.srlg = net::srlg_from_groups(5, {{0, 1}, {2, 3, 4}});
  plan.rate = rate;
  return plan;
}

TEST(GroupCutTest, DisabledWithoutRateOrForcedEntries) {
  FaultPlan plan;
  const FaultInjector inj(plan, example_group_plan(0.0));
  EXPECT_FALSE(inj.group_cuts().enabled());
  for (std::int64_t step = 0; step < 50; ++step) {
    EXPECT_EQ(inj.group_cut_at(step), -1);
  }
}

TEST(GroupCutTest, ForcedEntriesWinOverSampling) {
  FaultPlan plan;
  GroupCutPlan cuts = example_group_plan(0.0);
  cuts.forced.push_back({3, 1});
  cuts.forced.push_back({7, 0});
  const FaultInjector inj(plan, cuts);
  EXPECT_EQ(inj.group_cut_at(3), 1);
  EXPECT_EQ(inj.group_cut_at(7), 0);
  EXPECT_EQ(inj.group_cut_at(4), -1);
  const auto fibers = inj.group_cut_fibers(3);
  EXPECT_EQ(fibers, (std::vector<bool>{false, false, true, true, true}));
  const auto none = inj.group_cut_fibers(4);
  EXPECT_EQ(none, std::vector<bool>(5, false));
}

TEST(GroupCutTest, SampledCutsAreDeterministicAndOrderIndependent) {
  FaultPlan plan;
  plan.seed = 17;
  const FaultInjector a(plan, example_group_plan(0.5));
  const FaultInjector b(plan, example_group_plan(0.5));
  std::vector<int> forward, backward(300);
  for (std::int64_t step = 0; step < 300; ++step) {
    forward.push_back(a.group_cut_at(step));
  }
  for (std::int64_t step = 299; step >= 0; --step) {
    backward[static_cast<std::size_t>(step)] = b.group_cut_at(step);
  }
  EXPECT_EQ(forward, backward);
  int cut_steps = 0;
  for (int g : forward) {
    EXPECT_GE(g, -1);
    EXPECT_LT(g, 2);  // only the two non-singleton groups are cuttable
    cut_steps += g >= 0 ? 1 : 0;
  }
  EXPECT_GT(cut_steps, 100);  // rate 0.5 over 300 steps
  EXPECT_LT(cut_steps, 200);
}

TEST(GroupCutTest, SingletonGroupsAreNeverSampled) {
  FaultPlan plan;
  plan.seed = 5;
  GroupCutPlan cuts;
  cuts.srlg = net::srlg_from_groups(4, {{1, 3}});  // fibers 0, 2 singleton
  cuts.rate = 1.0;
  const FaultInjector inj(plan, cuts);
  for (std::int64_t step = 0; step < 100; ++step) {
    EXPECT_EQ(inj.group_cut_at(step), 0);  // the only non-singleton group
  }
}

TEST(GroupCutTest, GroupCutsDoNotPerturbComponentFaults) {
  FaultPlan plan;
  plan.seed = 23;
  plan.rates.telemetry_corruption = 0.3;
  plan.rates.solver_collapse = 0.2;
  const FaultInjector bare(plan);
  const FaultInjector with_cuts(plan, example_group_plan(0.9));
  for (std::int64_t step = 0; step < 200; ++step) {
    EXPECT_EQ(bare.fault_at(step), with_cuts.fault_at(step)) << step;
  }
}

TEST(GroupCutTest, RejectsMalformedPlans) {
  FaultPlan plan;
  GroupCutPlan bad_rate = example_group_plan(1.5);
  EXPECT_THROW(FaultInjector(plan, bad_rate), std::invalid_argument);
  GroupCutPlan bad_forced = example_group_plan(0.1);
  bad_forced.forced.push_back({0, 99});
  EXPECT_THROW(FaultInjector(plan, bad_forced), std::invalid_argument);
}

TEST(FaultInjectorTest, ControlPlaneKindNamesAreStable) {
  EXPECT_STREQ(fault_kind_name(FaultKind::kStageStall), "stage-stall");
  EXPECT_STREQ(fault_kind_name(FaultKind::kWindowDrop), "window-drop");
  EXPECT_STREQ(fault_kind_name(FaultKind::kWindowDuplicate),
               "window-duplicate");
  EXPECT_STREQ(fault_kind_name(FaultKind::kSolverThrow), "solver-throw");
}

TEST(FaultInjectorTest, ControlPlaneRatesAreSampled) {
  FaultPlan plan;
  plan.seed = 91;
  plan.rates.stage_stall = 0.2;
  plan.rates.window_drop = 0.2;
  plan.rates.window_duplicate = 0.2;
  plan.rates.solver_throw = 0.2;
  const FaultInjector inj(plan);
  std::map<FaultKind, int> counts;
  for (std::int64_t step = 0; step < 1000; ++step) ++counts[inj.fault_at(step)];
  EXPECT_GT(counts[FaultKind::kStageStall], 100);
  EXPECT_GT(counts[FaultKind::kWindowDrop], 100);
  EXPECT_GT(counts[FaultKind::kWindowDuplicate], 100);
  EXPECT_GT(counts[FaultKind::kSolverThrow], 100);
  EXPECT_GT(counts[FaultKind::kNone], 100);
}

TEST(FaultInjectorTest, ZeroControlPlaneRatesLeaveLegacyDrawsUntouched) {
  // The four appended rates consume probability mass strictly after the
  // original five, so at their zero defaults every step's draw resolves to
  // the same kind the pre-pipeline injector produced.
  FaultPlan plan;
  plan.seed = 7;
  plan.rates.telemetry_corruption = 0.25;
  plan.rates.predictor_nan = 0.15;
  plan.rates.deadline_expiry = 0.1;
  FaultPlan extended = plan;
  extended.rates.stage_stall = 0.0;
  extended.rates.solver_throw = 0.0;
  const FaultInjector a(plan);
  const FaultInjector b(extended);
  for (std::int64_t step = 0; step < 500; ++step) {
    EXPECT_EQ(a.fault_at(step), b.fault_at(step)) << step;
  }
}

TEST(FaultInjectorTest, StallDurationIsDeterministicAndBounded) {
  FaultPlan plan;
  plan.seed = 17;
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  bool varies = false;
  double prev = -1.0;
  for (std::int64_t step = 0; step < 100; ++step) {
    const double ms = a.stall_ms_at(step, 40.0);
    EXPECT_EQ(ms, b.stall_ms_at(step, 40.0));  // bit-identical replay
    EXPECT_GE(ms, 20.0);  // half to full of the configured ceiling
    EXPECT_LE(ms, 40.0);
    if (prev >= 0.0 && ms != prev) varies = true;
    prev = ms;
  }
  EXPECT_TRUE(varies);
  EXPECT_EQ(a.stall_ms_at(3, 0.0), 0.0);    // disabled ceiling
  EXPECT_EQ(a.stall_ms_at(3, -5.0), 0.0);   // nonsense ceiling
}

}  // namespace
}  // namespace prete::sim
