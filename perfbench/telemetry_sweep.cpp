// telemetry_sweep: open-loop telemetry through core::EpochPipeline on the
// continental WAN. optical::PlantSimulator produces one 300-s loss window
// per fiber per TE period; each TE period is compressed to one second of
// wall time, so the ~1100 windows of a period are due evenly spaced over
// that second, and each window is timed from when it was due. Most windows
// are clean and exercise the pipeline's per-task cost and sanitize/detect;
// the one degraded window per period triggers prediction (ml::MlpPredictor
// trained at set-up on the simulator's own history), scenario
// regeneration, tunnel updates and a solve, with clean windows queueing
// behind the ordered commit.
#include <sys/prctl.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/epoch_pipeline.h"
#include "ml/dataset.h"
#include "ml/mlp.h"
#include "optical/detector.h"
#include "optical/sanitize.h"
#include "optical/simulator.h"
#include "perfbench.h"
#include "runtime/thread_pool.h"
#include "workload/continental.h"

namespace perfbench {
namespace {

using namespace prete;

// Training history for the predictor and its training epochs: enough for a
// usable model while keeping set-up near a second.
constexpr int kHistoryDays = 7;
constexpr int kMlpEpochs = 20;
// A quiet time before every TE period, in which no window is due and the
// load generator runs the reference kernel.
constexpr double kKernelGapS = 0.02;

struct Window {
  net::FiberId fiber = 0;
  optical::TimeSec start_sec = 0;
  std::size_t hour = 0;  // index into the hourly matrices
  std::vector<double> trace_db;
};

// The telemetry front half as the controller runs it: sanitize, then scan
// for a degradation.
bool has_signal(const net::Network& net, net::FiberId fiber,
                const std::vector<double>& trace, optical::TimeSec start_sec,
                double healthy_loss_db) {
  optical::TelemetryQuality quality;
  const std::vector<double> clean = optical::sanitize_trace(trace, &quality);
  if (quality.all_missing) return false;
  const optical::DegradationDetector detector(healthy_loss_db);
  return !detector.scan(clean, start_sec, net.fiber(fiber)).degradations.empty();
}

struct Inputs {
  workload::ContinentalConfig config;
  workload::ContinentalWorkload plant;
  std::vector<optical::FiberModelParams> fiber_params;
  std::unique_ptr<optical::PlantSimulator> simulator;
  std::shared_ptr<ml::MlpPredictor> mlp;
  std::vector<Window> windows;
  std::size_t windows_per_period = 0;

  // The plant, its history, the predictor and the sweep are the canonical
  // ones (generator seed of the continental config); the workload seed
  // orders the windows within each TE period, which moves where in its
  // period the degraded window arrives and which clean windows queue behind
  // its solve. Inputs that change the solves themselves swung the reaction
  // times by far more than any bound between seeds at 40 decisions a run:
  // letting the seed pick which fibers degrade by 25-50%, letting it seed
  // the predictor's training (every predicted cut probability, and with it
  // the scenario sets) by 15-27%, with single decisions 4x apart.
  Inputs(std::uint64_t seed, int periods)
      : plant(workload::generate_continental_workload(config)) {
    const net::Network& net = plant.topology.network;
    const util::Rng root(config.seed);
    util::Rng params_rng = root.split(1);
    fiber_params = optical::build_plant_model(net, params_rng);
    simulator = std::make_unique<optical::PlantSimulator>(net, fiber_params);

    util::Rng history_rng = root.split(2);
    const optical::EventLog history =
        simulator->simulate(kHistoryDays * 86400LL, history_rng);
    const ml::Dataset dataset = ml::build_dataset(history);
    ml::FeatureEncoder encoder;
    encoder.fit(dataset);
    ml::MlpConfig mlp_config;
    mlp_config.epochs = kMlpEpochs;
    mlp_config.seed = root.split(3).next_u64();
    mlp = std::make_shared<ml::MlpPredictor>(encoder, mlp_config);
    mlp->train(dataset);

    // The sweep's TE periods are drawn in time order from a stretch of plant
    // time: a period is kept when exactly one of its windows carries a
    // degradation signal, so every run offers one reactive decision per
    // second. Solves then hold up the ordered commit for about a quarter of
    // the windows: the median window is a clean one, and the p90 window one
    // queued behind a solve, whose wait grows with the square of the solve
    // time (it swung by 35% across identical runs, so it is no bounded
    // metric). A Poisson count of degraded windows moved that share from
    // run to run and tipped the median into the queue.
    util::Rng sweep_rng = root.split(4);
    util::Rng order_rng(seed);
    const std::size_t hours = plant.matrices.size();
    const auto period = static_cast<optical::TimeSec>(optical::kTePeriodSec);
    const optical::TimeSec span = std::max<optical::TimeSec>(
        86400, static_cast<optical::TimeSec>(periods) * period * 8);
    const optical::EventLog log = simulator->simulate(span + period, sweep_rng);
    std::vector<int> onsets(static_cast<std::size_t>(span / period), 0);
    for (const optical::DegradationRecord& d : log.degradations) {
      const auto k = static_cast<std::size_t>(d.onset_sec / period);
      if (k < onsets.size()) ++onsets[k];
    }
    windows_per_period = static_cast<std::size_t>(net.num_fibers());
    windows.reserve(windows_per_period * static_cast<std::size_t>(periods));
    int kept = 0;
    for (std::size_t k = 0; k < onsets.size() && kept < periods; ++k) {
      if (onsets[k] != 1) continue;
      const optical::TimeSec t0 = static_cast<optical::TimeSec>(k) * period;
      std::vector<std::vector<double>> traces =
          simulator->loss_traces(log, t0, t0 + period, sweep_rng);
      int signals = 0;
      for (std::size_t f = 0; f < traces.size(); ++f) {
        signals += has_signal(net, static_cast<net::FiberId>(f), traces[f], t0,
                              fiber_params[f].healthy_loss_db)
                       ? 1
                       : 0;
      }
      if (signals != 1) continue;
      ++kept;
      std::vector<std::size_t> order(traces.size());
      for (std::size_t f = 0; f < order.size(); ++f) order[f] = f;
      for (std::size_t f = order.size(); f > 1; --f) {
        std::swap(order[f - 1], order[order_rng.next_below(f)]);
      }
      for (const std::size_t f : order) {
        Window w;
        w.fiber = static_cast<net::FiberId>(f);
        w.start_sec = t0;
        w.hour = static_cast<std::size_t>(t0 / 3600) % hours;
        w.trace_db = std::move(traces[f]);
        windows.push_back(std::move(w));
      }
    }
    if (kept < periods) {
      throw std::runtime_error("too few single-degradation TE periods");
    }
  }

  double healthy_loss(net::FiberId f) const {
    return fiber_params[static_cast<std::size_t>(f)].healthy_loss_db;
  }
  const net::TrafficMatrix& demands(const Window& w) const {
    return plant.matrices[w.hour];
  }
  std::unique_ptr<ControllerRig> rig(Tracer& tracer) const {
    return std::make_unique<ControllerRig>(plant, config, mlp, tracer);
  }
};

struct Pass {
  std::vector<core::EpochResult> results;
  std::vector<Clock::time_point> due, called, admitted, commit_start,
      commit_end;
  std::vector<char> checks_ok;
  core::EpochPipelineStats stats;
  double wall_s = 0.0;  // first due time to last commit
  double cpu_s = 0.0;
  // Paced passes: the reference kernel's times, sampled by the load
  // generator before every period and after the last, and the process CPU
  // time of the pass without the kernel's, at the reference speed.
  ReferenceSpeed speed;
  double cpu_ref_ms = 0.0;
};

// Feeds windows [0, count) through a fresh pipeline. Paced: period p starts
// at start + kKernelGapS + p * (1 s + kKernelGapS) and its windows are due
// evenly spaced over that second; the reference kernel runs at the start of
// each gap and after the last submission. Unpaced: all windows are due at
// start (a burst, used for the traced run's prefix comparisons).
Pass run_pass(const Inputs& in, ControllerRig& rig, Tracer& tracer,
              Result& result, std::size_t count, bool paced) {
  Pass pass;
  pass.due.resize(count);
  pass.called.resize(count);
  pass.admitted.resize(count);
  pass.commit_start.resize(count);
  pass.commit_end.resize(count);
  pass.checks_ok.assign(count, 1);

  core::EpochPipeline pipeline(rig.controller);
  // The hooks run on the commit thread in epoch order; each touches only
  // its own epoch's slots, which the main thread reads after drain().
  pipeline.set_before_solve(
      [&](std::size_t epoch) { pass.commit_start[epoch] = Clock::now(); });
  pipeline.set_after_commit([&](std::size_t epoch,
                                const core::EpochResult& r) {
    // The window's result is committed now; the outside checks below are
    // the benchmark's own work and stay out of its latency.
    pass.commit_end[epoch] = Clock::now();
    if (r.decision) {
      tracer.record("core.decide", pass.commit_start[epoch],
                    pass.commit_end[epoch], static_cast<std::int64_t>(epoch));
      const Window& w = in.windows[epoch];
      pass.checks_ok[epoch] =
          check_decision(result, in.plant.topology, rig.controller.tunnels(),
                         in.demands(w), *r.decision);
    }
  });

  const std::size_t per_period = in.windows_per_period;
  const double slot_s = 1.0 / static_cast<double>(per_period);
  // Process CPU time without the kernel's, per period (the last period
  // runs to the end of the drain), and the times the kernel ran. `cpu_mark`
  // is the process CPU time at the last kernel's start plus the kernel's
  // own.
  std::vector<double> period_cpu_s;
  std::vector<Clock::time_point> kernel_at;
  double cpu_mark = 0.0;
  const auto run_kernel = [&] {
    const double c0 = process_cpu_seconds();
    if (!kernel_at.empty()) period_cpu_s.push_back(c0 - cpu_mark);
    kernel_at.push_back(Clock::now());
    const double k0 = thread_cpu_seconds();
    pass.speed.sample();
    cpu_mark = c0 + (thread_cpu_seconds() - k0);
  };
  // The generator wakes from each sleep within a microsecond or so instead
  // of the default 50-us timer slack, so its own lateness stays out of the
  // windows' latency.
  const int timer_slack_ns = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  if (paced) prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const Window& w = in.windows[i];
    if (paced && i % per_period == 0) run_kernel();
    core::EpochInput input;
    input.fiber = w.fiber;
    input.trace_db = w.trace_db;
    input.trace_start_sec = w.start_sec;
    input.healthy_loss_db = in.healthy_loss(w.fiber);
    input.demands = in.demands(w);
    const double due_s =
        static_cast<double>(i / per_period + 1) * kKernelGapS +
        static_cast<double>(i) * slot_s;
    pass.due[i] = paced ? start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(due_s))
                        : start;
    if (paced) std::this_thread::sleep_until(pass.due[i]);
    pass.called[i] = Clock::now();
    pipeline.submit(std::move(input));
    pass.admitted[i] = Clock::now();
  }
  if (paced && count > 0) run_kernel();
  if (paced && timer_slack_ns > 0) {
    prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(timer_slack_ns), 0, 0,
          0);
  }
  pass.results = pipeline.drain();
  pass.stats = pipeline.stats();
  pass.cpu_s = process_cpu_seconds() - cpu0;
  if (paced && count > 0) {
    period_cpu_s.back() += process_cpu_seconds() - cpu_mark;
    for (std::size_t p = 0; p < period_cpu_s.size(); ++p) {
      pass.cpu_ref_ms += pass.speed.scale(kernel_at[p], kernel_at[p + 1],
                                          period_cpu_s[p] * 1000.0);
    }
  }
  const Clock::time_point last =
      count > 0 ? *std::max_element(pass.commit_end.begin(),
                                    pass.commit_end.end())
                : start;
  pass.wall_s = seconds_between(start, last);
  return pass;
}

// Per-window outcomes of a paced pass, with its attempted/failed counts
// added to `result`.
struct Tally {
  std::vector<double> window_ms;    // every window, due -> committed
  // Decided windows: before_solve -> committed (the decide stage), and due
  // -> committed; the same at the reference speed.
  std::vector<double> decide_ms;
  std::vector<double> reaction_ms;
  std::vector<double> decide_ref_ms;
  std::vector<double> reaction_ref_ms;
  long full = 0;
  double unphi_sum = 0.0;
  SolverTally solver;
};

Tally tally(const Pass& pass, Result& result) {
  Tally t;
  for (std::size_t e = 0; e < pass.results.size(); ++e) {
    const core::EpochResult& r = pass.results[e];
    ++result.attempted;
    const bool status_ok = r.status == core::EpochStatus::kDecided ||
                           r.status == core::EpochStatus::kNoSignal;
    result.check(status_ok, "window " + std::to_string(e) + " ended " +
                                core::epoch_status_name(r.status));
    const bool ok = status_ok && pass.checks_ok[e] != 0;
    if (!ok) ++result.failed;
    const double ms = ms_between(pass.due[e], pass.commit_end[e]);
    t.window_ms.push_back(ms);
    if (r.decision) {
      const auto solve_start = pass.commit_start[e];
      t.decide_ms.push_back(ms_between(solve_start, pass.commit_end[e]));
      t.decide_ref_ms.push_back(pass.speed.scale(
          solve_start, pass.commit_end[e], t.decide_ms.back()));
      t.reaction_ms.push_back(ms);
      t.reaction_ref_ms.push_back(
          pass.speed.scale(pass.due[e], pass.commit_end[e], ms));
      t.unphi_sum += 1.0 - r.decision->phi;
      t.solver.add(*r.decision);
    }
    const bool full_rung =
        !r.decision || r.decision->fallback_level == core::FallbackLevel::kFull;
    if (ok && full_rung) ++t.full;
  }
  return t;
}

bool same_decision(const core::ControlDecision& a,
                   const core::ControlDecision& b) {
  if (a.fallback_level != b.fallback_level || !same_bits(a.phi, b.phi) ||
      a.policy.allocation.size() != b.policy.allocation.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.policy.allocation.size(); ++i) {
    if (!same_bits(a.policy.allocation[i], b.policy.allocation[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result run_telemetry_sweep(const Options& options) {
  Result result;
  const int periods =
      options.tiny ? 2 : std::max(1, static_cast<int>(options.seconds));
  Tracer untraced(false);
  // Set-up: the continental workload, the fiber plant, the predictor trained
  // on seven days of its history, every telemetry window of the sweep, and a
  // controller ready to decide.
  std::unique_ptr<Inputs> in;
  std::unique_ptr<ControllerRig> rig;
  const double setup_s = median_setup_s(
      options.tiny ? 1 : 3,
      [&] {
        rig.reset();
        in.reset();
      },
      [&] {
        in = std::make_unique<Inputs>(options.seed, periods);
        rig = in->rig(untraced);
      });
  const std::size_t count = in->windows.size();
  std::cout << "continental: " << in->plant.topology.network.num_fibers()
            << " fibers, " << periods << " TE periods of 1 s, " << count
            << " windows\n";

  if (!options.trace) {
    const Pass pass = run_pass(*in, *rig, untraced, result, count, true);
    const Tally t = tally(pass, result);
    const auto decided = static_cast<double>(t.reaction_ms.size());
    std::cout << "windows=" << count << " decided=" << t.reaction_ms.size()
              << " wall_reaction_ms_p50=" << quantile(t.reaction_ms, 0.5)
              << " kernel_ms_p50=" << quantile(pass.speed.kernel_ms(), 0.5)
              << "\n";
    result.add("setup_s", setup_s, "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.add("epochs_per_cpu_s",
               static_cast<double>(count) * 1000.0 / pass.cpu_ref_ms,
               "1/ref_s");
    result.add("latency_p50", quantile(t.decide_ref_ms, 0.5), "ref_ms");
    result.add("reaction_p50", quantile(t.reaction_ref_ms, 0.5), "ref_ms");
    result.add("reaction_p75", quantile(t.reaction_ref_ms, 0.75), "ref_ms");
    result.add("full_rung_share",
               static_cast<double>(t.full) / static_cast<double>(count),
               "share");
    result.add("availability", decided > 0 ? t.unphi_sum / decided : 0.0,
               "share");
    return result;
  }

  // Traced run. The first periods run as an unpaced burst untraced on the
  // configured pool, untraced on the parallel pool (runtime.speedup) and
  // traced (trace.overhead); then the whole sweep runs paced and traced.
  rig.reset();
  const std::size_t prefix =
      std::min(count, in->windows_per_period * (options.tiny ? 1 : 3));
  Result burst_result;
  const double burst_pool_s =
      run_pass(*in, *in->rig(untraced), untraced, burst_result, prefix, false)
          .wall_s;
  runtime::ThreadPool::set_global_threads(options.parallel_threads);
  const double burst_parallel_s =
      run_pass(*in, *in->rig(untraced), untraced, burst_result, prefix, false)
          .wall_s;
  runtime::ThreadPool::set_global_threads(options.threads);
  Tracer burst_tracer(true);
  const double burst_traced_s =
      run_pass(*in, *in->rig(burst_tracer), burst_tracer, burst_result, prefix,
               false)
          .wall_s;
  result.check(burst_result.correct, "checks in the burst passes");

  Tracer tracer(true);
  const std::unique_ptr<ControllerRig> traced = in->rig(tracer);
  const Pass pass = run_pass(*in, *traced, tracer, result, count, true);
  const Tally t = tally(pass, result);
  for (std::size_t e = 0; e < count; ++e) {
    tracer.record("window", pass.due[e], pass.commit_end[e],
                  static_cast<std::int64_t>(e));
  }

  // The pipelined decisions must equal a serial on_telemetry replay bit for
  // bit.
  {
    const std::unique_ptr<ControllerRig> serial = in->rig(untraced);
    long mismatches = 0;
    for (std::size_t e = 0; e < count; ++e) {
      const Window& w = in->windows[e];
      const std::optional<core::ControlDecision> d =
          serial->controller.on_telemetry(w.fiber, w.trace_db, w.start_sec,
                                          in->healthy_loss(w.fiber),
                                          in->demands(w));
      const auto& piped = pass.results[e].decision;
      if (d.has_value() != piped.has_value() ||
          (d && !same_decision(*d, *piped))) {
        ++mismatches;
      }
    }
    result.check(mismatches == 0,
                 std::to_string(mismatches) +
                     " pipelined decisions differ from the serial replay");
    result.failed += mismatches;
  }

  // The optical front half on its own: sanitize and scan every window.
  std::vector<double> scan_us;
  long signals = 0;
  for (std::size_t e = 0; e < count; ++e) {
    const Window& w = in->windows[e];
    const auto t0 = Clock::now();
    const bool signal = has_signal(in->plant.topology.network, w.fiber,
                                   w.trace_db, w.start_sec,
                                   in->healthy_loss(w.fiber));
    const auto t1 = Clock::now();
    tracer.record("optical.scan", t0, t1, static_cast<std::int64_t>(e));
    scan_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    if (signal) ++signals;
  }
  tracer.link_parents();

  std::vector<double> lag_ms, commit_wait_ms;
  double admission_ms = 0.0;
  for (std::size_t e = 0; e < count; ++e) {
    lag_ms.push_back(ms_between(pass.due[e], pass.called[e]));
    commit_wait_ms.push_back(ms_between(pass.admitted[e], pass.commit_start[e]));
    admission_ms += ms_between(pass.called[e], pass.admitted[e]);
  }

  result.add("optical.windows", static_cast<double>(count), "count");
  result.add("optical.signal_share",
             static_cast<double>(signals) / static_cast<double>(count),
             "share");
  result.add("optical.scan_us_p50", quantile(scan_us, 0.5), "us");
  result.add("optical.scan_us_p90", quantile(scan_us, 0.9), "us");
  report_controller_layers(result, tracer, *traced, t.solver);
  result.add("core.commit_wait_ms_p90", quantile(commit_wait_ms, 0.9), "ms");
  result.add("core.admission_wait_ms_total", admission_ms, "ms");
  result.add("core.max_in_flight",
             static_cast<double>(pass.stats.max_in_flight_seen), "count");
  result.add("core.quarantined", static_cast<double>(pass.stats.quarantined),
             "count");
  result.add("core.stage_faults", static_cast<double>(pass.stats.stage_faults),
             "count");
  result.add("loadgen.lag_ms_p90", quantile(lag_ms, 0.9), "ms");
  result.add("loadgen.lag_ms_max", quantile(lag_ms, 1.0), "ms");
  result.add("wall.latency_ms_p50", quantile(t.decide_ms, 0.5), "ms");
  result.add("core.window_latency_ms_p50", quantile(t.window_ms, 0.5), "ms");
  result.add("wall.reaction_ms_p75", quantile(t.reaction_ms, 0.75), "ms");
  result.add("bench.kernel_ms_p50", quantile(pass.speed.kernel_ms(), 0.5),
             "ms");
  result.add("runtime.cpu_util", pass.cpu_s / pass.wall_s, "ratio");
  result.add("runtime.speedup", burst_pool_s / burst_parallel_s, "ratio");
  result.add("trace.overhead", burst_traced_s / burst_pool_s - 1.0, "ratio");
  std::cout << "windows=" << count << " decided=" << t.reaction_ms.size()
            << " spans=" << tracer.size() << " burst_pool_s=" << burst_pool_s
            << " burst_parallel_s=" << burst_parallel_s
            << " burst_traced_s=" << burst_traced_s << "\n";
  if (!options.trace_out.empty() && !tracer.write_jsonl(options.trace_out)) {
    result.check(false, "could not write spans to " + options.trace_out);
  }
  return result;
}

}  // namespace perfbench
