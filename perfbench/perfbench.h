#pragma once

// Shared pieces of the repository benchmark: run options, the result record
// each workload fills, small statistics helpers, the in-memory span
// recorder, and the timing decorators the benchmark wraps around the
// failure predictor and scenario source it hands to the controller.

#include <atomic>
#include <chrono>
#include <cstring>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/controller.h"
#include "ml/predictor.h"
#include "te/scenario.h"
#include "workload/continental.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test size: a few operations per workload, same code paths.
  bool tiny = false;
  // Runtime pool size the workload runs on, fixed by main(), and the pool
  // size runtime.speedup compares one thread against.
  unsigned threads = 1;
  unsigned parallel_threads = 1;
  // Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. `attempted` counts the operations the
// workload issued (decisions, windows, studies plus policy probes) and
// `failed` the ones that threw, faulted or failed a correctness check.
struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Returns `ok`; a false check marks the run incorrect and prints why.
  // Callers count each operation with a failed check once in `failed`.
  bool check(bool ok, const std::string& what);
};

// The outside checks on one installed TE decision: core::validate_policy
// re-run against the problem it was installed on (the controller's tunnel
// table at commit), and phi finite and in [0, 1].
bool check_decision(Result& result, const prete::net::Topology& topology,
                    const prete::net::TunnelSet& tunnels,
                    const prete::net::TrafficMatrix& demands,
                    const prete::core::ControlDecision& decision);

// Solver counters summed over installed decisions, reported as the te.*,
// lp.* and core.* per-layer metrics both controller workloads share.
struct SolverTally {
  long decisions = 0;
  long iterations = 0;
  long pivots = 0;
  long deadline_exceeded = 0;
  long cuts_replayed = 0;
  long cuts_invalidated = 0;
  long cuts_banked = 0;
  long new_tunnels = 0;

  void add(const prete::core::ControlDecision& decision);
  // `decide_self_us` is the summed self time of the decide spans.
  void report(Result& result, double decide_self_us,
              const prete::te::PreTeScheme::CacheStats& cache) const;
};

// Quantile (q in [0, 1]) of an unsorted sample; 0 for an empty sample, the
// extremes at q = 0 and 1. Samples of up to kHarrellDavisMax values get the
// Harrell-Davis estimate, a weighted mean of all order statistics: on the
// few dozen decisions or handful of studies of a run, a single order
// statistic jumps across the gaps between neighbouring values. Larger
// samples get the linear-interpolated sample quantile, which it approaches.
inline constexpr std::size_t kHarrellDavisMax = 2000;
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
std::vector<double> us_to_ms(std::vector<double> us);

inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Process-wide resource readings (getrusage).
double peak_rss_mb();
double process_cpu_seconds();
double thread_cpu_seconds();  // of the calling thread

// ---------------------------------------------------------------------------
// Reference speed
//
// The machines this benchmark runs on are shared: the speed of one core
// changes by up to 2x within seconds as neighbours load the same cores and
// caches, and a fixed loop slows the same in wall time as in CPU time. The
// timed end-to-end metrics are therefore reported at a reference speed
// (units ref_ms and 1/ref_s). The benchmark runs a fixed kernel of its own,
// which calls no program code, between the operations it times, and scales
// each operation's time by kReferenceKernelMs over the median kernel time
// sampled around it. A change to the program moves the operation's time and
// leaves the kernel's alone. Over ten runs of one workload on one machine,
// the raw wall times spread by 14-27% (interquartile range over median) and
// the times at the reference speed by 3-17%. Traced runs also report the
// raw wall times and the kernel's own time.

// The kernel time, in ms, that defines the reference speed.
inline constexpr double kReferenceKernelMs = 2.0;

// Records the reference kernel's times through a pass and scales timed
// intervals to the reference speed. One thread of the benchmark uses it.
class ReferenceSpeed {
 public:
  // Runs the kernel three times now and records the median time.
  void sample();
  // `time` (wall or CPU, in any unit) spent over [start, end], at the
  // reference speed: scaled by kReferenceKernelMs over the median of the
  // kernel times sampled from kWindow before `start` to kWindow after
  // `end`, and of the last sample before `start` and the first after `end`
  // in any case.
  double scale(Clock::time_point start, Clock::time_point end,
               double time) const;
  std::vector<double> kernel_ms() const;

  static constexpr std::chrono::seconds kWindow{1};

 private:
  std::vector<std::pair<Clock::time_point, double>> samples_;
};

// Set-up is repeated so its median is steady: `reps` times, `reset` drops
// the previous products untimed and `build` makes them again, timed, with
// the reference kernel sampled between repeats. The last products stay.
// Returns the median build time in seconds at the reference speed.
template <class Reset, class Build>
double median_setup_s(int reps, Reset reset, Build build) {
  ReferenceSpeed speed;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> builds;
  for (int r = 0; r < reps; ++r) {
    reset();
    speed.sample();
    const auto start = Clock::now();
    build();
    builds.emplace_back(start, Clock::now());
  }
  speed.sample();
  std::vector<double> times;
  for (const auto& [start, end] : builds) {
    times.push_back(speed.scale(start, end, seconds_between(start, end)));
  }
  return quantile(times, 0.5);
}

// ---------------------------------------------------------------------------
// Spans

// One recorded interval. `id` names the operation it belongs to (telemetry
// window or TE decision); spans of one operation share it. `parent` indexes
// the enclosing span, or -1.
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  std::int64_t id = -1;

  double duration_us() const { return end_us - start_us; }
};

// In-memory span recorder. Disabled tracers record nothing, so the untraced
// runs pay one branch per call site. record() is thread-safe; the analysis
// calls run after the workload has stopped.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  // Records a finished span. Returns its index, or -1 when disabled.
  int record(const char* name, Clock::time_point start, Clock::time_point end,
             std::int64_t id, int parent = -1);

  // Links every span recorded without a parent to the shortest other span
  // of the same id whose interval contains it.
  void link_parents();
  // Durations and self times (duration minus the union of its children's
  // intervals) in microseconds of every span named `name`.
  std::vector<double> durations_us(const char* name) const;
  std::vector<double> self_us(const char* name) const;
  std::size_t size() const;
  // Writes one JSON object per span. Returns false when the file could not
  // be written.
  bool write_jsonl(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// The operation id the benchmark is driving on this thread: the epoch
// pipeline's current epoch inside its stages, else the id set by OpScope.
std::int64_t current_op_id();

class OpScope {
 public:
  explicit OpScope(std::int64_t id);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  std::int64_t saved_;
};

// ---------------------------------------------------------------------------
// Timing decorators

// Wraps the failure predictor handed to the controller: counts every
// prediction and, when tracing, records an "ml.predict" span.
class TimedPredictor final : public prete::ml::FailurePredictor {
 public:
  TimedPredictor(std::shared_ptr<const prete::ml::FailurePredictor> inner,
                 Tracer& tracer);
  double predict(
      const prete::optical::DegradationFeatures& features) const override;
  long calls() const { return calls_.load(); }

 private:
  std::shared_ptr<const prete::ml::FailurePredictor> inner_;
  Tracer& tracer_;
  mutable std::atomic<long> calls_{0};
};

// Wraps the scenario source handed to the controller: counts calls and kept
// scenarios and, when tracing, records a "te.scenario" span per call. The
// returned source refers to this object, which must outlive every
// controller using it.
class ScenarioProbe {
 public:
  ScenarioProbe(prete::te::ScenarioSource inner, Tracer& tracer);
  ScenarioProbe(const ScenarioProbe&) = delete;
  ScenarioProbe& operator=(const ScenarioProbe&) = delete;

  prete::te::ScenarioSource source();
  long calls() const { return calls_.load(); }
  long kept() const { return kept_.load(); }

 private:
  prete::te::ScenarioSource inner_;
  Tracer& tracer_;
  std::atomic<long> calls_{0};
  std::atomic<long> kept_{0};
};

// ---------------------------------------------------------------------------
// Continental controllers

// A controller on the continental workload at its defaults except for the
// scenario source (the workload's correlated source, behind a ScenarioProbe)
// and the workload's pivot budget; `inner` is wrapped in a TimedPredictor.
struct ControllerRig {
  ScenarioProbe probe;
  std::shared_ptr<TimedPredictor> predictor;
  prete::core::Controller controller;

  ControllerRig(const prete::workload::ContinentalWorkload& plant,
                const prete::workload::ContinentalConfig& config,
                std::shared_ptr<const prete::ml::FailurePredictor> inner,
                Tracer& tracer);
};

// The per-layer metrics a traced controller pass shares between workloads:
// ml.*, te.scenario_*, the SolverTally metrics, core.decide_* (from the
// "core.decide" spans, self time net of their children) and
// core.tunnels_final.
void report_controller_layers(Result& result, const Tracer& tracer,
                              const ControllerRig& rig,
                              const SolverTally& tally);

// ---------------------------------------------------------------------------
// Workloads

Result run_te_periodic(const Options& options);
Result run_telemetry_sweep(const Options& options);
Result run_mc_b4(const Options& options);

}  // namespace perfbench
