// mc_b4: the paper's availability harness (Fig 13, Table 4) —
// sim::MonteCarloStudy::run_prete on B4 at x2 load, 4000 epochs per study,
// repeated within a run, each study on its own Monte Carlo stream split from
// the workload seed (how much a study solves varies by ~10% from stream to
// stream; a median over a dozen streams holds still). Each study
// solves ~20 small independent LPs (one fresh te::PreTeScheme per
// degradation signature), uneven tasks the runtime fans out when it has more
// than one worker, so it shows whether a change tuned for the 1000-row
// continental master costs the small regime. Between studies the benchmark re-solves the signatures through
// te::PreTeScheme::compute_for_degradation itself: the time from a
// degradation signal to its validated policy on B4.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "core/policy_guard.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "net/tunnels.h"
#include "optical/fiber_model.h"
#include "perfbench.h"
#include "runtime/thread_pool.h"
#include "sim/monte_carlo.h"
#include "te/prete.h"
#include "te/schemes.h"

namespace perfbench {
namespace {

using namespace prete;

constexpr int kEpochsPerStudy = 4000;
constexpr double kDemandScale = 2.0;
// Rounds of two studies a run makes at least: the median study is taken
// over eight or more Monte Carlo streams. Over six, one study's ~10%
// variation from stream to stream moved it by 10% between seeds.
constexpr int kMinRounds = 4;

sim::MonteCarloConfig study_config(int epochs) {
  sim::MonteCarloConfig c;
  c.epochs = epochs;
  c.beta = 0.99;
  c.planning_scenarios.max_simultaneous_failures = 1;
  c.planning_scenarios.max_scenarios = 40;
  return c;
}

struct Inputs {
  net::Topology topo = net::make_b4();
  te::PlantStatistics stats;
  net::TrafficMatrix demands;
  net::TunnelSet tunnels{0};
  sim::MonteCarloConfig config;
  std::unique_ptr<sim::MonteCarloStudy> study;
  std::uint64_t stream_seed = 0;

  Inputs(std::uint64_t seed, int epochs) : config(study_config(epochs)) {
    // The plant and its demands are the fixed B4 evaluation context; the
    // workload seed picks the Monte Carlo stream.
    util::Rng rng(11);
    const auto params = optical::build_plant_model(topo.network, rng);
    stats = te::derive_statistics(topo.network, params, optical::CutLogitModel{},
                                  rng, 200);
    util::Rng traffic_rng(12);
    net::TrafficConfig tc;
    tc.diurnal_swing = 0.0;
    tc.noise = 0.0;
    demands = net::scale_traffic(
        net::generate_traffic(topo.network, topo.flows, traffic_rng, tc)[0],
        kDemandScale);
    tunnels = net::build_tunnels(topo.network, topo.flows);
    study = std::make_unique<sim::MonteCarloStudy>(topo, stats, config);
    stream_seed = util::Rng(seed).next_u64();
  }

  // The Monte Carlo stream of study `k`.
  util::Rng stream(int k) const {
    return util::Rng(stream_seed).split(static_cast<std::uint64_t>(k));
  }

  // The scheme configuration run_prete uses for its per-signature solves.
  te::PreTeConfig scheme_config() const {
    te::PreTeConfig c;
    c.beta = config.beta;
    c.alpha = stats.alpha;
    c.tunnel_update = config.tunnel_update;
    c.scenario_options = config.planning_scenarios;
    return c;
  }
};

struct Probe {
  double ms = 0.0;
  int pivots = 0;
  int iterations = 0;
  bool ok = false;
  bool full = false;
};

// Re-solves one degradation signature (-1 = no degradation) the way
// run_prete does, with a fresh scheme, and validates the policy.
Probe solve_signature(const Inputs& in, int fiber, Result& result) {
  Probe probe;
  const auto t0 = Clock::now();
  te::PreTeScheme scheme(in.stats.cut_prob, in.scheme_config());
  net::TunnelSet tunnels = in.tunnels;
  te::DegradationScenario scenario =
      te::DegradationScenario::none(in.stats.num_fibers());
  if (fiber >= 0) {
    const auto f = static_cast<std::size_t>(fiber);
    scenario.degraded[f] = true;
    scenario.predicted_prob[f] = in.stats.cut_given_degradation[f];
  }
  const te::PreTeScheme::Outcome outcome = scheme.compute_for_degradation(
      in.topo.network, in.topo.flows, tunnels, in.demands, scenario);
  te::TeProblem problem;
  problem.network = &in.topo.network;
  problem.flows = &in.topo.flows;
  problem.tunnels = &tunnels;
  problem.demands = in.demands;
  const core::PolicyCheck verdict = core::validate_policy(problem, outcome.policy);
  probe.ms = ms_between(t0, Clock::now());
  const double phi = outcome.solver_result.phi;
  probe.ok = result.check(verdict.valid, "signature " + std::to_string(fiber) +
                                             ": " + verdict.summary()) &
             result.check(std::isfinite(phi) && phi >= 0.0 && phi <= 1.0,
                          "signature " + std::to_string(fiber) + ": phi " +
                              std::to_string(phi) + " outside [0, 1]");
  probe.full = probe.ok && !outcome.solver_result.deadline_exceeded;
  probe.pivots = outcome.solver_result.simplex_pivots;
  probe.iterations = outcome.solver_result.iterations;
  return probe;
}

struct Loop {
  std::vector<double> study_ms;
  std::vector<double> eval_ms;
  std::vector<Probe> probes;
  // Study wall and CPU times and re-solve times at the reference speed.
  std::vector<double> study_ref_ms;
  std::vector<double> study_cpu_ref_ms;
  std::vector<double> probe_ref_ms;
  ReferenceSpeed speed;
  std::vector<double> availability;  // per study
  long full = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

// Studies, each on its own stream and followed by the re-solve of half the
// signatures (the two halves alternate) and, with `eval`, by the
// evaluation-only run_static (ECMP) on the same sampled epochs. The
// reference kernel runs before and after every study and re-solve. Runs
// whole rounds of two studies, so every signature is re-solved equally
// often: at least `min_rounds`, then another only when, at the mean round
// time so far, it ends within `seconds`.
Loop run_loop(const Inputs& in, Tracer& tracer, Result& result, double seconds,
              int min_rounds, int max_studies, bool eval) {
  Loop loop;
  struct Timed {
    Clock::time_point start, end;
    double ms;
  };
  std::vector<Timed> studies, study_cpu, probes;
  const int signatures = in.stats.num_fibers() + 1;  // + no degradation
  const int half = (signatures + 1) / 2;
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  loop.speed.sample();
  for (int i = 0; i < max_studies; ++i) {
    if (i >= 2 * min_rounds && i % 2 == 0) {
      const double elapsed = seconds_between(start, Clock::now());
      const double per_round = elapsed / static_cast<double>(i / 2);
      if (elapsed + per_round > seconds) break;
    }
    ++result.attempted;
    util::Rng rng = in.stream(i);
    const double c0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    const sim::MonteCarloResult r = in.study->run_prete(in.demands, rng);
    const auto t1 = Clock::now();
    const double c1 = process_cpu_seconds();
    loop.speed.sample();
    tracer.record("sim.study", t0, t1, i);
    loop.study_ms.push_back(ms_between(t0, t1));
    studies.push_back({t0, t1, loop.study_ms.back()});
    study_cpu.push_back({t0, t1, (c1 - c0) * 1000.0});
    const double a = r.mean_flow_availability;
    loop.availability.push_back(a);
    const bool ok = result.check(std::isfinite(a) && a >= 0.0 && a <= 1.0,
                                 "availability " + std::to_string(a) +
                                     " outside [0, 1]");
    if (ok) {
      ++loop.full;
    } else {
      ++result.failed;
    }
    if (eval) {
      te::EcmpScheme ecmp;
      util::Rng eval_rng = in.stream(i);
      const auto e0 = Clock::now();
      in.study->run_static(ecmp, in.demands, eval_rng);
      const auto e1 = Clock::now();
      tracer.record("sim.eval", e0, e1, i);
      loop.eval_ms.push_back(ms_between(e0, e1));
    }
    const int first = (i % 2) * half;
    for (int s = first; s < std::min(signatures, first + half); ++s) {
      ++result.attempted;
      const auto id = static_cast<std::int64_t>(loop.probes.size());
      const auto p0 = Clock::now();
      const Probe probe = solve_signature(in, s - 1, result);
      const auto p1 = Clock::now();
      loop.speed.sample();
      tracer.record("te.policy_solve", p0, p1, id);
      probes.push_back({p0, p1, probe.ms});
      if (!probe.ok) ++result.failed;
      if (probe.full) ++loop.full;
      loop.probes.push_back(probe);
    }
  }
  loop.wall_s = seconds_between(start, Clock::now());
  loop.cpu_s = process_cpu_seconds() - cpu0;
  const auto at_ref = [&](const std::vector<Timed>& timed,
                          std::vector<double>& out) {
    for (const Timed& t : timed) {
      out.push_back(loop.speed.scale(t.start, t.end, t.ms));
    }
  };
  at_ref(studies, loop.study_ref_ms);
  at_ref(study_cpu, loop.study_cpu_ref_ms);
  at_ref(probes, loop.probe_ref_ms);
  return loop;
}

// Runs study 0's stream again, untimed; its availability must equal the
// loop's to the bit. Returns whether it did.
bool check_repeat(const Inputs& in, const Loop& loop, Result& result) {
  ++result.attempted;
  util::Rng rng = in.stream(0);
  const double a = in.study->run_prete(in.demands, rng).mean_flow_availability;
  const bool ok =
      result.check(same_bits(a, loop.availability.front()),
                   "repeated study on one stream changed availability");
  if (!ok) ++result.failed;
  return ok;
}

}  // namespace

Result run_mc_b4(const Options& options) {
  Result result;
  const int epochs = options.tiny ? 200 : kEpochsPerStudy;
  const int max_studies = options.tiny ? 2 : 1 << 20;
  const int min_rounds = options.tiny ? 1 : kMinRounds;
  // Set-up: B4, its plant statistics and demands, the tunnel table and the
  // study object.
  std::unique_ptr<Inputs> in;
  const double setup_s = median_setup_s(
      options.tiny ? 1 : 25, [&] { in.reset(); },
      [&] { in = std::make_unique<Inputs>(options.seed, epochs); });
  std::cout << "b4: " << in->topo.network.num_fibers() << " fibers, "
            << in->topo.flows.size() << " flows, " << epochs
            << " epochs per study, x" << kDemandScale << " demand\n";

  Tracer untraced(false);
  if (!options.trace) {
    const Loop loop =
        run_loop(*in, untraced, result, options.seconds, min_rounds,
                 max_studies, false);
    const bool repeat_ok = check_repeat(*in, loop, result);
    std::cout << "studies=" << loop.study_ms.size()
              << " signature_solves=" << loop.probes.size()
              << " wall_study_ms_p50=" << quantile(loop.study_ms, 0.5)
              << " kernel_ms_p50=" << quantile(loop.speed.kernel_ms(), 0.5)
              << " availability=" << mean(loop.availability) << "\n";
    result.add("setup_s", setup_s, "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.add("epochs_per_cpu_s",
               epochs * 1000.0 / quantile(loop.study_cpu_ref_ms, 0.5),
               "1/ref_s");
    result.add("latency_p50", quantile(loop.study_ref_ms, 0.5), "ref_ms");
    result.add("reaction_p50", quantile(loop.probe_ref_ms, 0.5), "ref_ms");
    result.add("reaction_p75", quantile(loop.probe_ref_ms, 0.75), "ref_ms");
    result.add("full_rung_share",
               static_cast<double>(loop.full + (repeat_ok ? 1 : 0)) /
                   static_cast<double>(result.attempted),
               "share");
    result.add("availability", mean(loop.availability), "share");
    return result;
  }

  // Traced run: the traced loop, then study 0's stream again untraced on
  // the configured pool and on the parallel pool. Their times give
  // runtime.speedup and, against the traced study 0, trace.overhead; their
  // availability must equal the loop's to the bit.
  Tracer tracer(true);
  const Loop loop = run_loop(*in, tracer, result, options.seconds, min_rounds,
                             max_studies, true);
  const auto timed_study = [&](double* availability) {
    util::Rng rng = in->stream(0);
    const auto t0 = Clock::now();
    *availability = in->study->run_prete(in->demands, rng).mean_flow_availability;
    return seconds_between(t0, Clock::now());
  };
  double pooled = 0.0, parallel = 0.0;
  const double pool_s = timed_study(&pooled);
  runtime::ThreadPool::set_global_threads(options.parallel_threads);
  const double parallel_s = timed_study(&parallel);
  runtime::ThreadPool::set_global_threads(options.threads);
  result.attempted += 2;
  if (!result.check(same_bits(pooled, loop.availability.front()),
                    "availability differs between traced and untraced")) {
    ++result.failed;
  }
  if (!result.check(same_bits(parallel, loop.availability.front()),
                    "availability differs between one and more threads")) {
    ++result.failed;
  }

  std::vector<double> pivots, iterations, probe_ms;
  for (const Probe& p : loop.probes) {
    pivots.push_back(p.pivots);
    iterations.push_back(p.iterations);
    probe_ms.push_back(p.ms);
  }
  const double study_s = quantile(loop.study_ms, 0.5) / 1000.0;
  result.add("te.benders_iterations_mean", mean(iterations), "count");
  result.add("lp.pivots_mean", mean(pivots), "count");
  result.add("te.policy_solve_ms_p50",
             quantile(tracer.durations_us("te.policy_solve"), 0.5) / 1000.0,
             "ms");
  result.add("sim.study_s", study_s, "s");
  result.add("sim.eval_s", quantile(loop.eval_ms, 0.5) / 1000.0, "s");
  result.add("wall.latency_ms_p50", quantile(loop.study_ms, 0.5), "ms");
  result.add("wall.reaction_ms_p75", quantile(probe_ms, 0.75), "ms");
  result.add("bench.kernel_ms_p50", quantile(loop.speed.kernel_ms(), 0.5),
             "ms");
  result.add("runtime.cpu_util", loop.cpu_s / loop.wall_s, "ratio");
  result.add("runtime.speedup", pool_s / parallel_s, "ratio");
  result.add("trace.overhead", loop.study_ms.front() / 1000.0 / pool_s - 1.0,
             "ratio");
  std::cout << "studies=" << loop.study_ms.size() << " pool_s=" << pool_s
            << " parallel_s=" << parallel_s << " spans=" << tracer.size() << "\n";
  if (!options.trace_out.empty() && !tracer.write_jsonl(options.trace_out)) {
    result.check(false, "could not write spans to " + options.trace_out);
  }
  return result;
}

}  // namespace perfbench
