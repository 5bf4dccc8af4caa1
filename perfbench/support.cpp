#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/epoch_pipeline.h"
#include "core/policy_guard.h"
#include "perfbench.h"

namespace perfbench {

bool Result::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    std::cout << "check failed: " << what << "\n";
  }
  return ok;
}

bool check_decision(Result& result, const prete::net::Topology& topology,
                    const prete::net::TunnelSet& tunnels,
                    const prete::net::TrafficMatrix& demands,
                    const prete::core::ControlDecision& decision) {
  prete::te::TeProblem problem;
  problem.network = &topology.network;
  problem.flows = &topology.flows;
  problem.tunnels = &tunnels;
  problem.demands = demands;
  const prete::core::PolicyCheck verdict =
      prete::core::validate_policy(problem, decision.policy);
  const bool valid =
      result.check(verdict.valid, "installed policy: " + verdict.summary());
  const bool phi_ok =
      result.check(std::isfinite(decision.phi) && decision.phi >= 0.0 &&
                       decision.phi <= 1.0,
                   "phi " + std::to_string(decision.phi) + " outside [0, 1]");
  return valid && phi_ok;
}

void SolverTally::add(const prete::core::ControlDecision& decision) {
  ++decisions;
  iterations += decision.benders_iterations;
  pivots += decision.solver_pivots;
  deadline_exceeded += decision.deadline_exceeded ? 1 : 0;
  cuts_replayed += decision.cuts_replayed;
  cuts_invalidated += decision.cuts_invalidated;
  cuts_banked += decision.cuts_banked;
  new_tunnels += decision.new_tunnels;
}

void SolverTally::report(
    Result& result, double decide_self_us,
    const prete::te::PreTeScheme::CacheStats& cache) const {
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto n = static_cast<double>(decisions);
  result.add("te.benders_iterations_mean", per(iterations, n), "count");
  result.add("lp.pivots_mean", per(pivots, n), "count");
  result.add("lp.us_per_pivot", per(decide_self_us, pivots), "us");
  result.add("core.deadline_exceeded_share", per(deadline_exceeded, n),
             "share");
  result.add("te.cuts_replayed", cuts_replayed, "count");
  result.add("te.cuts_invalidated", cuts_invalidated, "count");
  result.add("te.cuts_banked", cuts_banked, "count");
  result.add("te.cut_replay_ratio",
             per(cuts_replayed, cuts_replayed + cuts_invalidated), "share");
  result.add("te.basis_hit_ratio", per(cache.hits, cache.hits + cache.cold_starts),
             "share");
  result.add("te.shape_evictions", cache.evictions, "count");
  result.add("core.new_tunnels", new_tunnels, "count");
}

namespace {

// Continued fraction of the regularized incomplete beta function
// (modified Lentz's method).
double beta_cf(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-14;
  const auto clamp = [](double v) { return std::abs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 100000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / clamp(1.0 + aa * d);
    c = clamp(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / clamp(1.0 + aa * d);
    c = clamp(1.0 + aa / c);
    const double step = d * c;
    h *= step;
    if (std::abs(step - 1.0) < kEps) break;
  }
  return h;
}

// Regularized incomplete beta function I_x(a, b).
double beta_inc(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_cf(a, b, x) / a;
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (q <= 0.0) return values.front();
  if (q >= 1.0) return values.back();
  if (n > kHarrellDavisMax) {
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
  }
  // Harrell-Davis: the order statistics weighted by the Beta((n+1)q,
  // (n+1)(1-q)) mass over ((i-1)/n, i/n].
  const double a = static_cast<double>(n + 1) * q;
  const double b = static_cast<double>(n + 1) * (1.0 - q);
  double sum = 0.0;
  double below = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    const double upto =
        beta_inc(a, b, static_cast<double>(i) / static_cast<double>(n));
    sum += (upto - below) * values[i - 1];
    below = upto;
  }
  return sum;
}

std::vector<double> us_to_ms(std::vector<double> us) {
  for (double& v : us) v /= 1000.0;
  return us;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::record(const char* name, Clock::time_point start,
                   Clock::time_point end, std::int64_t id, int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_us =
      std::chrono::duration<double, std::micro>(start - origin_).count();
  span.end_us = std::chrono::duration<double, std::micro>(end - origin_).count();
  span.parent = parent;
  span.id = id;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::link_parents() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::int64_t, std::vector<int>> by_id;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_id[spans_[i].id].push_back(static_cast<int>(i));
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Span& span = spans_[i];
    if (span.parent >= 0) continue;
    int best = -1;
    for (int j : by_id[span.id]) {
      if (j == static_cast<int>(i)) continue;
      const Span& other = spans_[static_cast<std::size_t>(j)];
      if (other.start_us > span.start_us || other.end_us < span.end_us) continue;
      // Two spans with one interval: the later-recorded one encloses.
      if (other.start_us == span.start_us && other.end_us == span.end_us &&
          j < static_cast<int>(i)) {
        continue;
      }
      if (best < 0 ||
          other.duration_us() <
              spans_[static_cast<std::size_t>(best)].duration_us()) {
        best = j;
      }
    }
    span.parent = best;
  }
}

std::vector<double> Tracer::durations_us(const char* name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::string_view(span.name) == name) out.push_back(span.duration_us());
  }
  return out;
}

std::vector<double> Tracer::self_us(const char* name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_us, span.end_us);
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (std::string_view(span.name) != name) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    for (auto [s, e] : kids) {
      s = std::max(s, span.start_us);
      e = std::min(e, span.end_us);
      if (e <= s) continue;
      if (s > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = s;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    out.push_back(span.duration_us() - covered);
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
        << ",\"start_us\":" << span.start_us << ",\"end_us\":" << span.end_us
        << ",\"parent\":" << span.parent << "}\n";
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------

namespace {
thread_local std::int64_t tl_op_id = -1;
}  // namespace

std::int64_t current_op_id() {
  const std::int64_t epoch = prete::core::EpochPipeline::current_epoch();
  return epoch >= 0 ? epoch : tl_op_id;
}

OpScope::OpScope(std::int64_t id) : saved_(tl_op_id) { tl_op_id = id; }
OpScope::~OpScope() { tl_op_id = saved_; }

TimedPredictor::TimedPredictor(
    std::shared_ptr<const prete::ml::FailurePredictor> inner, Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

double TimedPredictor::predict(
    const prete::optical::DegradationFeatures& features) const {
  calls_.fetch_add(1);
  if (!tracer_.enabled()) return inner_->predict(features);
  const auto start = Clock::now();
  const double p = inner_->predict(features);
  tracer_.record("ml.predict", start, Clock::now(), current_op_id());
  return p;
}

ScenarioProbe::ScenarioProbe(prete::te::ScenarioSource inner, Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

prete::te::ScenarioSource ScenarioProbe::source() {
  return [this](const std::vector<double>& probs) {
    const auto start = Clock::now();
    prete::te::ScenarioSet set = inner_(probs);
    if (tracer_.enabled()) {
      tracer_.record("te.scenario", start, Clock::now(), current_op_id());
    }
    calls_.fetch_add(1);
    kept_.fetch_add(static_cast<long>(set.scenarios.size()));
    return set;
  };
}

// ---------------------------------------------------------------------------

namespace {

prete::core::ControllerConfig controller_config(
    const prete::workload::ContinentalConfig& config, ScenarioProbe& probe) {
  prete::core::ControllerConfig cc;
  cc.te.scenario_source = probe.source();
  cc.solver_pivot_budget = config.solver_pivot_budget;
  return cc;
}

}  // namespace

ControllerRig::ControllerRig(
    const prete::workload::ContinentalWorkload& plant,
    const prete::workload::ContinentalConfig& config,
    std::shared_ptr<const prete::ml::FailurePredictor> inner, Tracer& tracer)
    : probe(prete::workload::make_scenario_source(
                plant.failure_model, config.scenario_gen, config.reduction),
            tracer),
      predictor(std::make_shared<TimedPredictor>(std::move(inner), tracer)),
      controller(plant.topology, plant.cut_probs, predictor,
                 controller_config(config, probe)) {}

void report_controller_layers(Result& result, const Tracer& tracer,
                              const ControllerRig& rig,
                              const SolverTally& tally) {
  const std::vector<double> scenario_ms =
      us_to_ms(tracer.durations_us("te.scenario"));
  const std::vector<double> decide_ms =
      us_to_ms(tracer.durations_us("core.decide"));
  const std::vector<double> self_ms = us_to_ms(tracer.self_us("core.decide"));
  double self_us_total = 0.0;
  for (double ms : self_ms) self_us_total += ms * 1000.0;
  const long calls = rig.probe.calls();

  result.add("ml.predictions", rig.predictor->calls(), "count");
  result.add("ml.predict_us_p50",
             quantile(tracer.durations_us("ml.predict"), 0.5), "us");
  result.add("te.scenario_calls", calls, "count");
  result.add("te.scenario_ms_p50", quantile(scenario_ms, 0.5), "ms");
  result.add("te.scenario_ms_p90", quantile(scenario_ms, 0.9), "ms");
  result.add("te.scenarios_kept_mean",
             calls > 0 ? static_cast<double>(rig.probe.kept()) /
                             static_cast<double>(calls)
                       : 0.0,
             "count");
  tally.report(result, self_us_total, rig.controller.scheme().cache_stats());
  result.add("core.decide_ms_p50", quantile(decide_ms, 0.5), "ms");
  result.add("core.decide_ms_p90", quantile(decide_ms, 0.9), "ms");
  result.add("core.decide_self_ms_p50", quantile(self_ms, 0.5), "ms");
  result.add("core.tunnels_final", rig.controller.tunnels().num_tunnels(),
             "count");
}

}  // namespace perfbench

namespace perfbench {
namespace {

// The reference kernel's data: a dense 256x256 matrix for repeated
// mat-vec products (power iteration) and a 2 MiB table read and written at
// fixed pseudo-random places. Made once, deterministically.
struct KernelData {
  static constexpr std::size_t kDim = 256;
  static constexpr std::size_t kTable = std::size_t{1} << 18;
  static constexpr std::size_t kIndex = std::size_t{1} << 15;
  std::vector<double> dense, x, y, table;
  std::vector<std::uint32_t> index;

  KernelData()
      : dense(kDim * kDim), x(kDim, 1.0), y(kDim, 0.0), table(kTable, 1.0),
        index(kIndex) {
    std::uint64_t s = 0x9E3779B97F4A7C15ull;
    auto next = [&] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return s;
    };
    for (double& v : dense) v = static_cast<double>(next() % 1000) / 1000.0;
    for (std::uint32_t& i : index) {
      i = static_cast<std::uint32_t>(next() % kTable);
    }
  }

  // One pass; returns its wall time in ms.
  double run() {
    const auto start = Clock::now();
    for (int rep = 0; rep < 32; ++rep) {
      double norm = 0.0;
      for (std::size_t r = 0; r < kDim; ++r) {
        const double* row = &dense[r * kDim];
        double acc = 0.0;
        for (std::size_t c = 0; c < kDim; ++c) acc += row[c] * x[c];
        y[r] = acc;
        norm += acc * acc;
      }
      const double inv = 1.0 / std::sqrt(norm);
      for (std::size_t r = 0; r < kDim; ++r) x[r] = y[r] * inv;
    }
    double sink = 0.0;
    for (std::size_t rep = 0; rep < 12; ++rep) {
      for (const std::uint32_t i : index) {
        sink += table[i];
        table[(i + rep) & (kTable - 1)] += 1e-9;
      }
    }
    const double ms = ms_between(start, Clock::now());
    keep = sink + x[0];
    return ms;
  }

  volatile double keep = 0.0;
};

}  // namespace

void ReferenceSpeed::sample() {
  static KernelData data;
  const auto now = Clock::now();
  double ms[3];
  for (double& m : ms) m = data.run();
  std::sort(std::begin(ms), std::end(ms));
  samples_.emplace_back(now, ms[1]);
}

double ReferenceSpeed::scale(Clock::time_point start, Clock::time_point end,
                             double time) const {
  const auto by_time = [](const std::pair<Clock::time_point, double>& s,
                          Clock::time_point t) { return s.first < t; };
  auto first = std::lower_bound(samples_.begin(), samples_.end(),
                                start - kWindow, by_time);
  auto last = std::lower_bound(samples_.begin(), samples_.end(),
                               end + kWindow, by_time);
  // The nearest sample on either side, also when it lies outside the window.
  const auto before = std::lower_bound(samples_.begin(), samples_.end(),
                                       start, by_time);
  if (before != samples_.begin()) first = std::min(first, before - 1);
  const auto after = std::lower_bound(samples_.begin(), samples_.end(),
                                      end, by_time);
  if (after != samples_.end()) last = std::max(last, after + 1);
  std::vector<double> kernel;
  for (auto it = first; it != last; ++it) kernel.push_back(it->second);
  if (kernel.empty()) {
    throw std::logic_error("reference speed: no kernel sample");
  }
  return time * kReferenceKernelMs / quantile(kernel, 0.5);
}

std::vector<double> ReferenceSpeed::kernel_ms() const {
  std::vector<double> out;
  for (const auto& s : samples_) out.push_back(s.second);
  return out;
}

}  // namespace perfbench
