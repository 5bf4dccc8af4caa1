#include "core/epoch_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/policy_guard.h"
#include "runtime/thread_pool.h"

namespace prete::core {
namespace {

class FixedPredictor : public ml::FailurePredictor {
 public:
  explicit FixedPredictor(double p) : p_(p) {}
  double predict(const optical::DegradationFeatures&) const override {
    return p_;
  }

 private:
  double p_;
};

// A healthy 120-sample window with a +6 dB mid-window degradation pulse.
// Per-sample dither keeps the plateau below kStuckRunLength so the window
// sanitizes as trusted.
std::vector<double> degraded_window(double jitter_seed = 0.0) {
  std::vector<double> trace(120);
  for (int t = 0; t < 120; ++t) {
    const double base = (t >= 50 && t < 80) ? 11.0 : 5.0;
    trace[static_cast<std::size_t>(t)] = base + jitter_seed + 0.002 * (t % 5);
  }
  return trace;
}

struct PipelineFixture {
  net::Topology topo = net::make_triangle();
  std::vector<double> static_probs{0.005, 0.009, 0.001};
  net::TrafficMatrix demands{5.0, 5.0};
  std::shared_ptr<FixedPredictor> predictor =
      std::make_shared<FixedPredictor>(0.45);
  ControllerConfig config;

  PipelineFixture() { config.te.beta = 0.9; }

  Controller make_controller() const {
    return Controller(topo, static_probs, predictor, config);
  }

  // The epoch sequence the determinism tests drive: degraded windows on a
  // rotating fiber, a healthy window, an untrusted-but-degraded window, and
  // a malformed one. Distinct t0 per epoch keeps dedup out of the way.
  std::vector<EpochInput> epoch_sequence(int n) const {
    std::vector<EpochInput> inputs;
    for (int e = 0; e < n; ++e) {
      EpochInput input;
      input.fiber = static_cast<net::FiberId>(e % topo.network.num_fibers());
      input.trace_db = degraded_window(0.01 * (e % 5));
      input.trace_start_sec = static_cast<optical::TimeSec>(e) * 300;
      input.healthy_loss_db = 5.0;
      input.demands = demands;
      if (e % 7 == 3) {
        // Healthy window: no degradation signal.
        input.trace_db.assign(120, 5.0);
      } else if (e % 7 == 5) {
        // Untrusted (mostly missing) but degraded: decides on static prob.
        for (std::size_t i = 0; i < input.trace_db.size(); ++i) {
          if (i % 3 != 0) {
            input.trace_db[i] = std::numeric_limits<double>::quiet_NaN();
          }
        }
      } else if (e % 11 == 9) {
        input.healthy_loss_db = -1.0;  // malformed metadata
      }
      inputs.push_back(std::move(input));
    }
    return inputs;
  }
};

// Reference: the serial controller loop the pipeline must reproduce.
std::vector<std::optional<ControlDecision>> drive_serial(
    PipelineFixture& fx, const std::vector<EpochInput>& inputs) {
  Controller controller = fx.make_controller();
  std::vector<std::optional<ControlDecision>> decisions;
  for (const EpochInput& input : inputs) {
    decisions.push_back(controller.on_telemetry(
        input.fiber, input.trace_db, input.trace_start_sec,
        input.healthy_loss_db, input.demands));
  }
  return decisions;
}

std::vector<EpochResult> drive_pipelined(PipelineFixture& fx,
                                         const std::vector<EpochInput>& inputs,
                                         EpochPipelineConfig pipe_config = {}) {
  Controller controller = fx.make_controller();
  EpochPipeline pipeline(controller, pipe_config);
  for (const EpochInput& input : inputs) pipeline.submit(input);
  return pipeline.drain();
}

void expect_same_decisions(
    const std::vector<std::optional<ControlDecision>>& serial,
    const std::vector<EpochResult>& pipelined) {
  ASSERT_EQ(serial.size(), pipelined.size());
  for (std::size_t e = 0; e < serial.size(); ++e) {
    ASSERT_EQ(pipelined[e].epoch, e);
    ASSERT_EQ(serial[e].has_value(), pipelined[e].decision.has_value())
        << "epoch " << e << " status "
        << epoch_status_name(pipelined[e].status);
    if (!serial[e].has_value()) continue;
    const ControlDecision& a = *serial[e];
    const ControlDecision& b = *pipelined[e].decision;
    EXPECT_EQ(a.fallback_level, b.fallback_level) << "epoch " << e;
    EXPECT_EQ(a.deadline_exceeded, b.deadline_exceeded) << "epoch " << e;
    ASSERT_EQ(a.policy.allocation.size(), b.policy.allocation.size());
    for (std::size_t i = 0; i < a.policy.allocation.size(); ++i) {
      // Bit-identical, not approximately equal: the pipeline must replay
      // the exact serial solve.
      EXPECT_EQ(a.policy.allocation[i], b.policy.allocation[i])
          << "epoch " << e << " alloc " << i;
    }
  }
}

TEST(EpochPipelineTest, PipelinedDecisionsBitIdenticalToSerial) {
  PipelineFixture fx;
  const auto inputs = fx.epoch_sequence(24);
  const auto serial = drive_serial(fx, inputs);
  EpochPipelineConfig pipe_config;
  pipe_config.max_in_flight = 4;
  const auto pipelined = drive_pipelined(fx, inputs, pipe_config);
  expect_same_decisions(serial, pipelined);
}

TEST(EpochPipelineTest, DecisionsBitIdenticalAcrossThreadCounts) {
  PipelineFixture fx;
  const auto inputs = fx.epoch_sequence(16);
  EpochPipelineConfig pipe_config;
  pipe_config.max_in_flight = 4;

  runtime::ThreadPool::set_global_threads(1);
  const auto one = drive_pipelined(fx, inputs, pipe_config);
  runtime::ThreadPool::set_global_threads(4);
  const auto four = drive_pipelined(fx, inputs, pipe_config);
  runtime::ThreadPool::set_global_threads(0);

  ASSERT_EQ(one.size(), four.size());
  for (std::size_t e = 0; e < one.size(); ++e) {
    ASSERT_EQ(one[e].status, four[e].status) << "epoch " << e;
    ASSERT_EQ(one[e].decision.has_value(), four[e].decision.has_value());
    if (!one[e].decision.has_value()) continue;
    EXPECT_EQ(one[e].decision->fallback_level, four[e].decision->fallback_level);
    ASSERT_EQ(one[e].decision->policy.allocation.size(),
              four[e].decision->policy.allocation.size());
    for (std::size_t i = 0; i < one[e].decision->policy.allocation.size(); ++i) {
      EXPECT_EQ(one[e].decision->policy.allocation[i],
                four[e].decision->policy.allocation[i]);
    }
  }
}

TEST(EpochPipelineTest, AdmissionStaysBounded) {
  PipelineFixture fx;
  const auto inputs = fx.epoch_sequence(20);
  EpochPipelineConfig pipe_config;
  pipe_config.max_in_flight = 2;
  Controller controller = fx.make_controller();
  EpochPipeline pipeline(controller, pipe_config);
  for (const EpochInput& input : inputs) pipeline.submit(input);
  const auto results = pipeline.drain();
  EXPECT_EQ(results.size(), inputs.size());
  EXPECT_LE(pipeline.stats().max_in_flight_seen, 2u);
  EXPECT_EQ(pipeline.stats().submitted, inputs.size());
}

TEST(EpochPipelineTest, MalformedWindowIsIsolated) {
  PipelineFixture fx;
  auto inputs = fx.epoch_sequence(6);
  inputs[2].healthy_loss_db = std::numeric_limits<double>::quiet_NaN();
  const auto results = drive_pipelined(fx, inputs);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[2].status, EpochStatus::kMalformed);
  EXPECT_FALSE(results[2].decision.has_value());
  // Neighbors are unaffected.
  EXPECT_EQ(results[1].status, EpochStatus::kDecided);
  EXPECT_EQ(results[3].status, EpochStatus::kNoSignal);  // e=3 is healthy
  EXPECT_EQ(results[4].status, EpochStatus::kDecided);
}

TEST(EpochPipelineTest, DuplicateWindowIsDeduplicated) {
  PipelineFixture fx;
  auto inputs = fx.epoch_sequence(3);
  auto dup = inputs[1];  // same (fiber, t0) identity re-delivered
  inputs.insert(inputs.begin() + 2, dup);
  const auto results = drive_pipelined(fx, inputs);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[1].status, EpochStatus::kDecided);
  EXPECT_EQ(results[2].status, EpochStatus::kDuplicate);
  EXPECT_FALSE(results[2].decision.has_value());
  EXPECT_EQ(results[3].status, EpochStatus::kDecided);
}

TEST(EpochPipelineTest, TransientFailureRetriesThenQuarantines) {
  PipelineFixture fx;
  // Mostly-missing window: untrusted with a transient hint.
  EpochInput input;
  input.fiber = 0;
  input.trace_db = degraded_window();
  for (std::size_t i = 0; i < input.trace_db.size(); ++i) {
    if (i % 3 != 0) {
      input.trace_db[i] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  input.trace_start_sec = 0;
  input.healthy_loss_db = 5.0;
  input.demands = fx.demands;

  Controller controller = fx.make_controller();
  EpochPipelineConfig pipe_config;
  pipe_config.max_ingest_attempts = 2;
  EpochPipeline pipeline(controller, pipe_config);
  std::atomic<int> fetches{0};
  const std::vector<double> same = input.trace_db;
  pipeline.set_fetch_window([&](std::size_t, int) {
    ++fetches;
    return same;  // redelivery is just as bad -> quarantine
  });
  pipeline.submit(input);
  const auto results = pipeline.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, EpochStatus::kQuarantined);
  EXPECT_EQ(results[0].ingest_attempts, 2);
  EXPECT_EQ(results[0].retry_hint, optical::RetryHint::kTransient);
  EXPECT_EQ(fetches.load(), 1);
  EXPECT_EQ(pipeline.stats().ingest_retries, 1u);
  EXPECT_EQ(pipeline.stats().quarantined, 1u);
}

TEST(EpochPipelineTest, TransientFailureRecoversOnRefetch) {
  PipelineFixture fx;
  EpochInput input;
  input.fiber = 0;
  input.trace_db.assign(120, std::numeric_limits<double>::quiet_NaN());
  input.trace_start_sec = 0;
  input.healthy_loss_db = 5.0;
  input.demands = fx.demands;

  Controller controller = fx.make_controller();
  EpochPipeline pipeline(controller, EpochPipelineConfig{});
  pipeline.set_fetch_window(
      [](std::size_t, int) { return degraded_window(); });
  pipeline.submit(input);
  const auto results = pipeline.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, EpochStatus::kDecided);
  EXPECT_EQ(results[0].ingest_attempts, 2);
  ASSERT_TRUE(results[0].decision.has_value());
  EXPECT_EQ(results[0].decision->fallback_level, FallbackLevel::kFull);
}

TEST(EpochPipelineTest, StructuralFailureQuarantinesWithoutRefetch) {
  PipelineFixture fx;
  EpochInput input;
  input.fiber = 0;
  input.trace_db.assign(120, 11.0);  // stuck-at: structurally poisoned
  input.trace_start_sec = 0;
  input.healthy_loss_db = 5.0;
  input.demands = fx.demands;

  Controller controller = fx.make_controller();
  EpochPipeline pipeline(controller, EpochPipelineConfig{});
  std::atomic<int> fetches{0};
  pipeline.set_fetch_window([&](std::size_t, int) {
    ++fetches;
    return degraded_window();
  });
  pipeline.submit(input);
  const auto results = pipeline.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, EpochStatus::kQuarantined);
  EXPECT_EQ(results[0].ingest_attempts, 1);  // structural: never refetched
  EXPECT_EQ(results[0].retry_hint, optical::RetryHint::kStructural);
  EXPECT_EQ(fetches.load(), 0);
}

TEST(EpochPipelineTest, WithoutFetcherUntrustedWindowKeepsSerialSemantics) {
  PipelineFixture fx;
  auto inputs = fx.epoch_sequence(8);  // includes an untrusted epoch (e=5)
  const auto serial = drive_serial(fx, inputs);
  const auto pipelined = drive_pipelined(fx, inputs);
  expect_same_decisions(serial, pipelined);
  ASSERT_TRUE(pipelined[5].decision.has_value());
  EXPECT_FALSE(pipelined[5].quality.trusted());
}

TEST(EpochPipelineTest, StallTripsWatchdogAndRetryRecovers) {
  PipelineFixture fx;
  EpochInput input;
  input.fiber = 0;
  input.trace_db = degraded_window();
  input.trace_start_sec = 0;
  input.healthy_loss_db = 5.0;
  input.demands = fx.demands;
  input.stall_prepare_ms = 50.0;

  Controller controller = fx.make_controller();
  EpochPipelineConfig pipe_config;
  pipe_config.stage_watchdog_ms = 10.0;
  EpochPipeline pipeline(controller, pipe_config);
  pipeline.set_fetch_window(
      [](std::size_t, int) { return degraded_window(); });
  pipeline.submit(input);
  const auto results = pipeline.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, EpochStatus::kDecided);
  EXPECT_EQ(results[0].ingest_attempts, 2);
  EXPECT_GE(pipeline.stats().watchdog_trips, 1u);
}

TEST(EpochPipelineTest, ThrowingPrepareStageDegradesOnlyThatEpoch) {
  PipelineFixture fx;
  // A scenario source that always throws poisons both the prepare stage and
  // the in-commit solve: the prepare falls back to a static-probability
  // scenario, and the ladder contains the repeat throw at solve time. Every
  // epoch must still produce a validated decision.
  fx.config.te.scenario_source = [](const std::vector<double>&)
      -> te::ScenarioSet { throw std::runtime_error("injected stage fault"); };
  const auto inputs = fx.epoch_sequence(6);
  const auto results = drive_pipelined(fx, inputs);
  ASSERT_EQ(results.size(), 6u);
  for (const EpochResult& r : results) {
    EXPECT_NE(r.status, EpochStatus::kStageFault);
    if (r.decision.has_value()) {
      EXPECT_EQ(r.decision->fallback_level, FallbackLevel::kStaticFloor);
    }
  }
}

TEST(EpochPipelineTest, LadderRungsUnderOverlapMatchSerialRungs) {
  PipelineFixture fx;
  const auto inputs = fx.epoch_sequence(8);

  // Fault schedule: epoch 0 unlimited (kFull, seeds last-good), epoch 1 a
  // solver throw (kLastGood — the incumbent dies with the solve), epoch 2
  // starved mid-refinement (kIncumbent: the pivot budget expires after the
  // first usable incumbent lands), rest unlimited. The whole solve of
  // epoch 2 fits in 15 pivots, so a budget of 8 starves it partway.
  auto arm_epoch = [](Controller& c, std::size_t epoch) {
    c.set_solver_budget(epoch == 2 ? 8 : 0);
    if (epoch == 1) c.arm_solver_exception(1);
  };

  // Serial reference.
  std::vector<std::optional<ControlDecision>> serial;
  {
    Controller controller = fx.make_controller();
    for (std::size_t e = 0; e < inputs.size(); ++e) {
      arm_epoch(controller, e);
      serial.push_back(controller.on_telemetry(
          inputs[e].fiber, inputs[e].trace_db, inputs[e].trace_start_sec,
          inputs[e].healthy_loss_db, inputs[e].demands));
    }
  }

  // Pipelined with full overlap: later epochs ingest while earlier solves
  // run; budgets arm on the commit thread via the before_solve hook.
  Controller controller = fx.make_controller();
  EpochPipelineConfig pipe_config;
  pipe_config.max_in_flight = 4;
  EpochPipeline pipeline(controller, pipe_config);
  pipeline.set_before_solve(
      [&](std::size_t epoch) { arm_epoch(controller, epoch); });
  for (const EpochInput& input : inputs) pipeline.submit(input);
  const auto pipelined = pipeline.drain();

  expect_same_decisions(serial, pipelined);
  ASSERT_TRUE(pipelined[1].decision.has_value());
  EXPECT_EQ(pipelined[1].decision->fallback_level, FallbackLevel::kLastGood);
  ASSERT_TRUE(pipelined[2].decision.has_value());
  EXPECT_EQ(pipelined[2].decision->fallback_level, FallbackLevel::kIncumbent);
  EXPECT_TRUE(pipelined[2].decision->deadline_exceeded);
}

TEST(EpochPipelineTest, SupersedeCancellationHarvestsValidatedPolicies) {
  PipelineFixture fx;
  runtime::ThreadPool::set_global_threads(4);
  {
    const auto inputs = fx.epoch_sequence(8);
    Controller controller = fx.make_controller();
    EpochPipelineConfig pipe_config;
    pipe_config.max_in_flight = 4;
    pipe_config.cancel_superseded = true;
    EpochPipeline pipeline(controller, pipe_config);
    // Hold each commit in before_solve long enough for the next epochs'
    // fast prepares to land and issue their cancellations.
    pipeline.set_before_solve([&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    });
    for (const EpochInput& input : inputs) pipeline.submit(input);
    const auto results = pipeline.drain();

    ASSERT_EQ(results.size(), inputs.size());
    // Timing-dependent how many solves were cancelled, but with 100 ms
    // commit holds and sub-ms prepares at least one cancellation lands.
    EXPECT_GE(pipeline.stats().cancel_requests, 1u);
    te::TeProblem problem;
    problem.network = &fx.topo.network;
    problem.flows = &fx.topo.flows;
    problem.tunnels = &controller.tunnels();
    problem.demands = fx.demands;
    for (const EpochResult& r : results) {
      EXPECT_NE(r.status, EpochStatus::kStageFault);
      if (!r.decision.has_value()) continue;
      // Every harvested decision — superseded or not — validates.
      EXPECT_TRUE(validate_policy(problem, r.decision->policy).valid ||
                  r.decision->policy.allocation.empty());
      if (r.superseded) {
        EXPECT_TRUE(r.decision->superseded);
        // A cancelled solve never lands on the healthy full rung.
        EXPECT_NE(r.decision->fallback_level, FallbackLevel::kFull);
      }
    }
  }
  runtime::ThreadPool::set_global_threads(0);
}

TEST(EpochPipelineTest, StatusNamesAreStable) {
  EXPECT_STREQ(epoch_status_name(EpochStatus::kDecided), "decided");
  EXPECT_STREQ(epoch_status_name(EpochStatus::kNoSignal), "no-signal");
  EXPECT_STREQ(epoch_status_name(EpochStatus::kMalformed), "malformed");
  EXPECT_STREQ(epoch_status_name(EpochStatus::kDuplicate), "duplicate");
  EXPECT_STREQ(epoch_status_name(EpochStatus::kQuarantined), "quarantined");
  EXPECT_STREQ(epoch_status_name(EpochStatus::kStageFault), "stage-fault");
}

}  // namespace
}  // namespace prete::core
