#include "te/minmax.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <tuple>
#include <stdexcept>

#include "lp/branch_and_bound.h"
#include "lp/simplex.h"
#include "runtime/parallel.h"
#include "te/lp_common.h"

namespace prete::te {

namespace {

// Which tunnels survive which scenario: row q holds one flag per tunnel.
// Built once per solve from TunnelSet::alive (the single survival rule), so
// every per-(flow, scenario) question afterwards is a lookup instead of a
// walk of each tunnel's links against the scenario's fiber bitmap.
struct SurvivalTable {
  std::size_t num_tunnels = 0;
  std::vector<char> alive;  // alive[q * num_tunnels + t]

  const char* row(std::size_t q) const {
    return alive.data() + q * num_tunnels;
  }
};

// Scenario sources are pluggable, so a fiber bitmap of the wrong length is
// outside input: it is rejected here, before TunnelSet::alive indexes it.
SurvivalTable build_survival_table(const TeProblem& problem,
                                   const ScenarioSet& scenarios) {
  const net::Network& network = *problem.network;
  const auto& Q = scenarios.scenarios;
  for (const FailureScenario& scenario : Q) {
    if (scenario.fiber_failed.size() !=
        static_cast<std::size_t>(network.num_fibers())) {
      throw std::invalid_argument(
          "scenario fiber_failed size differs from the network's fiber count");
    }
  }
  SurvivalTable table;
  table.num_tunnels = static_cast<std::size_t>(problem.tunnels->num_tunnels());
  table.alive.resize(Q.size() * table.num_tunnels);
  // Scenarios write disjoint rows.
  runtime::parallel_for(
      Q.size(),
      [&](std::size_t q) {
        char* row = table.alive.data() + q * table.num_tunnels;
        for (std::size_t t = 0; t < table.num_tunnels; ++t) {
          row[t] = problem.tunnels->alive(
              network, static_cast<net::TunnelId>(t), Q[q].fiber_failed);
        }
      },
      /*grain=*/4);
  return table;
}

// Fraction of flow f's demand carried by tunnels alive in `alive` (one
// scenario's survival row) under the given allocations.
double alive_fraction(const TeProblem& problem, const lp::Solution& sol,
                      const std::vector<int>& alloc, net::FlowId f,
                      const char* alive) {
  const double d = std::max(problem.demand(f), 1e-9);
  double frac = 0.0;
  for (net::TunnelId t : problem.tunnels->tunnels_for_flow(f)) {
    if (alive[t]) {
      frac += sol.x[static_cast<std::size_t>(alloc[static_cast<std::size_t>(t)])] / d;
    }
  }
  return frac;
}

// Builds the Phi-row for (f, q): Phi + sum_{t alive} a_t / d_f >= rhs, with
// `alive` the survival row of scenario q.
lp::Row phi_row(const TeProblem& problem, const std::vector<int>& alloc,
                int phi_var, net::FlowId f, const char* alive, double rhs) {
  std::vector<lp::Coefficient> coefs;
  const double d = std::max(problem.demand(f), 1e-9);
  for (net::TunnelId t : problem.tunnels->tunnels_for_flow(f)) {
    if (alive[t]) {
      coefs.push_back({alloc[static_cast<std::size_t>(t)], 1.0 / d});
    }
  }
  coefs.push_back({phi_var, 1.0});
  return {std::move(coefs), lp::RowType::kGreaterEqual, rhs, ""};
}

void check_mass(const ScenarioSet& scenarios, double beta) {
  // Negated form so a NaN covered_probability (corrupt upstream
  // probabilities) fails the check instead of slipping past `<`.
  if (!(scenarios.covered_probability + 1e-12 >= beta)) {
    throw std::invalid_argument(
        "scenario set covers less probability mass than beta");
  }
}

}  // namespace

std::uint64_t problem_shape_signature(const TeProblem& problem) {
  // FNV-1a over everything that fixes the LP column order and the
  // capacity-row coefficient pattern.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(problem.network->num_links()));
  mix(static_cast<std::uint64_t>(problem.tunnels->num_tunnels()));
  for (const net::Tunnel& t : problem.tunnels->tunnels()) {
    mix(static_cast<std::uint64_t>(t.flow));
    mix(static_cast<std::uint64_t>(t.path.size()));
    for (net::LinkId link : t.path) mix(static_cast<std::uint64_t>(link));
  }
  return h;
}

std::uint64_t cut_environment_signature(const TeProblem& problem) {
  // FNV-1a over the subproblem data that can change v(delta) without
  // changing the shape signature: each link's capacity and the fiber it
  // rides on (the latter decides which tunnels a failure pattern kills).
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const net::Network& net = *problem.network;
  mix(static_cast<std::uint64_t>(net.num_fibers()));
  for (net::LinkId e = 0; e < net.num_links(); ++e) {
    const net::Link& link = net.link(e);
    mix(static_cast<std::uint64_t>(link.fiber));
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(link.capacity_gbps));
    std::memcpy(&bits, &link.capacity_gbps, sizeof(bits));
    mix(bits);
  }
  return h;
}

DirectModel build_min_max_direct_model(const TeProblem& problem,
                                       const ScenarioSet& scenarios,
                                       double beta) {
  const SurvivalTable survival = build_survival_table(problem, scenarios);
  const auto& flows = *problem.flows;
  const auto& Q = scenarios.scenarios;

  DirectModel direct;
  lp::Model& model = direct.model;
  direct.alloc = add_allocation_variables(model, problem);
  const std::vector<int>& alloc = direct.alloc;
  const int phi = model.add_variable(0.0, 1.0, 1.0, "Phi");
  direct.phi = phi;
  // delta_{f,q} binaries and l_{f,q} losses.
  std::map<std::pair<int, std::size_t>, int> delta;
  std::map<std::pair<int, std::size_t>, int> loss;
  for (const net::Flow& flow : flows) {
    for (std::size_t q = 0; q < Q.size(); ++q) {
      delta[{flow.id, q}] = model.add_binary(0.0);
      loss[{flow.id, q}] = model.add_variable(0.0, 1.0, 0.0);
    }
  }
  add_capacity_rows(model, problem, alloc);
  for (const net::Flow& flow : flows) {
    const double d = std::max(problem.demand(flow.id), 1e-9);
    // (5): sum_q p_q delta_{f,q} >= beta.
    std::vector<lp::Coefficient> avail_row;
    for (std::size_t q = 0; q < Q.size(); ++q) {
      avail_row.push_back({delta[{flow.id, q}], Q[q].probability});
      // (4): sum_{t alive} a + d * l >= d.
      std::vector<lp::Coefficient> demand_row;
      const char* alive = survival.row(q);
      for (net::TunnelId t : problem.tunnels->tunnels_for_flow(flow.id)) {
        if (alive[t]) {
          demand_row.push_back({alloc[static_cast<std::size_t>(t)], 1.0});
        }
      }
      demand_row.push_back({loss[{flow.id, q}], d});
      model.add_row(std::move(demand_row), lp::RowType::kGreaterEqual, d);
      // (6): Phi - l + (1 - delta) >= 0  <=>  Phi - l - delta >= -1.
      model.add_row({{phi, 1.0},
                     {loss[{flow.id, q}], -1.0},
                     {delta[{flow.id, q}], -1.0}},
                    lp::RowType::kGreaterEqual, -1.0);
    }
    model.add_row(std::move(avail_row), lp::RowType::kGreaterEqual, beta);
  }
  return direct;
}

MinMaxResult solve_min_max_direct(const TeProblem& problem,
                                  const ScenarioSet& scenarios,
                                  const MinMaxOptions& options) {
  check_mass(scenarios, options.beta);
  const DirectModel direct =
      build_min_max_direct_model(problem, scenarios, options.beta);
  const lp::Model& model = direct.model;
  const std::vector<int>& alloc = direct.alloc;
  const int phi = direct.phi;

  lp::BranchAndBoundOptions bb;
  bb.max_nodes = 50000;
  bb.simplex = options.simplex;
  bb.simplex.deadline = options.deadline;
  const lp::Solution sol = lp::BranchAndBound(bb).solve(model);
  MinMaxResult result;
  result.iterations = 1;
  result.simplex_pivots = sol.iterations;
  result.bb_nodes = sol.nodes_explored;
  result.deadline_exceeded =
      options.deadline != nullptr && options.deadline->expired();
  if (sol.status != lp::SolveStatus::kOptimal) {
    result.phi = 1.0;
    return result;
  }
  result.policy = extract_policy(problem, alloc, sol);
  result.phi = sol.x[static_cast<std::size_t>(phi)];
  result.upper_bound = result.phi;
  result.lower_bound = result.phi;
  result.converged = true;
  return result;
}

namespace {

// One Benders optimality cut: Phi >= constant + sum_{f,q} weight * delta.
struct BendersCut {
  double constant = 0.0;
  // Sparse weights keyed by (flow, scenario index); all weights <= 0 would
  // make the cut useless, so only nonzero entries are stored.
  std::map<std::pair<int, std::size_t>, double> weights;
  // Bank provenance: index of the CutBank entry this cut was replayed from
  // (-1 for a cut derived by this solve), and whether the cut influenced the
  // solve — attained a per-(f,q) master drop weight that was spent, or the
  // lower-bound max — which is what keeps its bank entry alive.
  int bank_index = -1;
  bool active = false;
  // A warm-hint steering pseudo-cut: not an inequality at all, only a drop-
  // ordering prior. Excluded from the lower bound AND from cut-bank
  // writeback (a bank cut is at least a valid inequality; this is neither).
  bool steering = false;

  double value(const std::vector<std::vector<char>>& delta) const {
    double v = constant;
    for (const auto& [key, w] : weights) {
      v += w * static_cast<double>(
                   delta[static_cast<std::size_t>(key.first)][key.second]);
    }
    return v;
  }
};

// Deterministic total order on distinct bank entries for size-bound
// eviction tie-breaks: lexicographic over (terms, constant). Identical
// (terms, constant) pairs never coexist in a bank (insertion dedups them),
// so the order is strict among stored cuts.
bool cut_lex_less(const CutBank::Cut& a, const CutBank::Cut& b) {
  const std::size_t n = std::min(a.terms.size(), b.terms.size());
  for (std::size_t i = 0; i < n; ++i) {
    const CutBank::Term& ta = a.terms[i];
    const CutBank::Term& tb = b.terms[i];
    if (ta.flow != tb.flow) return ta.flow < tb.flow;
    if (ta.pattern != tb.pattern) return ta.pattern < tb.pattern;
    if (ta.weight != tb.weight) return ta.weight < tb.weight;
  }
  if (a.terms.size() != b.terms.size()) {
    return a.terms.size() < b.terms.size();
  }
  return a.constant < b.constant;
}

// Ceiling for steering-cut weights: genuine Phi-row duals sum to at most
// the Phi objective coefficient (1), so clamping predicted weights to
// [0, kSteerWeightCap] keeps the steering cut inside the range the fresh
// cuts occupy. A sentinel weight above that range would pin the master to
// the predicted drop set no matter what the genuine cuts say — and since
// each fresh cut is tight at the very point it was generated, a pinned
// master would certify ANY predicted point as converged. Realistic weights
// close that hole: a wrong envelope loses the master pass to the real
// duals and costs iterations, not correctness.
constexpr double kSteerWeightCap = 1.0;

// Verification of a hint's predicted allocation: representable in the SP
// (finite, non-negative, one entry per tunnel) and feasible for the hard
// capacity rows. The tolerance mirrors the simplex primal tolerance — a
// hint is only ever an incumbent-policy fallback, so a marginally loose
// load would still validate downstream, but rejecting keeps the contract
// simple: accepted means feasible.
bool hint_allocation_feasible(const TeProblem& problem,
                              const std::vector<double>& allocation) {
  const net::TunnelSet& tunnels = *problem.tunnels;
  if (allocation.size() !=
      static_cast<std::size_t>(tunnels.num_tunnels())) {
    return false;
  }
  for (const double v : allocation) {
    if (!std::isfinite(v) || !(v >= 0.0)) return false;
  }
  const net::Network& net = *problem.network;
  std::vector<double> load(static_cast<std::size_t>(net.num_links()), 0.0);
  for (const net::Tunnel& t : tunnels.tunnels()) {
    for (net::LinkId e : t.path) {
      load[static_cast<std::size_t>(e)] +=
          allocation[static_cast<std::size_t>(t.id)];
    }
  }
  for (net::LinkId e = 0; e < net.num_links(); ++e) {
    const double cap = net.link(e).capacity_gbps;
    if (load[static_cast<std::size_t>(e)] > cap + 1e-6 * std::max(1.0, cap)) {
      return false;
    }
  }
  return true;
}

// Lowers the greedy master's selection on the envelope of this solve's own
// cuts, E(delta) = max over fresh cuts of cut.value(delta). The greedy drop
// order ranks scenarios by their largest weight in any one cut, so it can
// land on a selection whose envelope is far above the best one — and equal
// weights that differ only in their last bits decide which. Only pairs some
// fresh cut weighs can move E; every other entry of delta keeps the greedy's
// choice and its probability stays charged to the flow's budget.
//  - When every flow's per-flow choices (the maximal drop subsets of its
//    weighed pairs that fit the budget) are few enough, all combinations are
//    enumerated and the lowest envelope wins: the master is then exact.
//  - Otherwise a 1-swap descent moves one flow at a time: drop a kept
//    weighed pair, possibly keeping a dropped one in exchange, while the
//    budget holds; the steepest strict decrease is taken until none is left.
// A candidate replaces the greedy selection only when it lowers E by more
// than rounding noise, so instances the greedy already solves keep its
// selection bit for bit. Serial and in ascending (flow, scenario) order:
// the result is independent of the pool size.
void descend_master(const std::vector<BendersCut>& cuts,
                    const std::vector<FailureScenario>& Q,
                    const std::vector<std::vector<char>>& fatal,
                    const std::vector<double>& budget,
                    std::vector<std::vector<char>>& delta) {
  constexpr double kImprovement = 1e-12;
  constexpr std::size_t kMaxExactSupport = 12;
  constexpr std::size_t kMaxExactWork = std::size_t{1} << 22;
  constexpr int kMaxSwapRounds = 256;

  std::vector<const BendersCut*> fresh;
  for (const BendersCut& c : cuts) {
    if (c.bank_index < 0 && !c.steering) fresh.push_back(&c);
  }
  if (fresh.empty()) return;
  const std::size_t F = delta.size();
  // Weighed pairs per flow, ascending by scenario, and their column in the
  // dense per-cut weight table.
  std::vector<std::vector<std::size_t>> support(F);
  for (const BendersCut* c : fresh) {
    for (const auto& [key, w] : c->weights) {
      const auto f = static_cast<std::size_t>(key.first);
      if (w > 0.0 && !fatal[f][key.second]) support[f].push_back(key.second);
    }
  }
  std::vector<std::size_t> column_start(F + 1, 0);
  for (std::size_t f = 0; f < F; ++f) {
    auto& s = support[f];
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    column_start[f + 1] = column_start[f] + s.size();
  }
  const std::size_t P = column_start[F];
  if (P == 0) return;
  const auto column = [&](std::size_t f, std::size_t q) {
    const auto& s = support[f];
    return column_start[f] + static_cast<std::size_t>(
                                 std::lower_bound(s.begin(), s.end(), q) -
                                 s.begin());
  };
  const std::size_t C = fresh.size();
  std::vector<double> table(C * P, 0.0);  // table[c * P + p]
  for (std::size_t c = 0; c < C; ++c) {
    for (const auto& [key, w] : fresh[c]->weights) {
      const auto f = static_cast<std::size_t>(key.first);
      if (w > 0.0 && !fatal[f][key.second]) {
        table[c * P + column(f, key.second)] += w;
      }
    }
  }
  // Budget left per flow once the drops outside its weighed pairs are paid.
  std::vector<double> room(F, 0.0);
  for (std::size_t f = 0; f < F; ++f) {
    double fixed = 0.0;
    std::size_t next = 0;
    for (std::size_t q = 0; q < Q.size(); ++q) {
      const bool weighed = next < support[f].size() && support[f][next] == q;
      if (weighed) {
        ++next;
      } else if (!delta[f][q] && !fatal[f][q]) {
        fixed += Q[q].probability;
      }
    }
    room[f] = budget[f] - fixed;
  }
  // Per-cut values at the current selection.
  std::vector<char> kept(P, 0);
  for (std::size_t f = 0; f < F; ++f) {
    for (std::size_t i = 0; i < support[f].size(); ++i) {
      kept[column_start[f] + i] = delta[f][support[f][i]];
    }
  }
  const auto values_of = [&](const std::vector<char>& keep) {
    std::vector<double> v(C);
    for (std::size_t c = 0; c < C; ++c) {
      double x = fresh[c]->constant;
      for (std::size_t p = 0; p < P; ++p) {
        if (keep[p]) x += table[c * P + p];
      }
      v[c] = x;
    }
    return v;
  };
  const auto envelope = [](const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end());
  };
  std::vector<double> value = values_of(kept);
  const double greedy_envelope = envelope(value);

  // Exact search: per-flow maximal drop subsets, enumerated as bitmasks
  // over the flow's weighed pairs (bit i = drop support[f][i]).
  std::vector<std::vector<std::uint32_t>> choices(F);
  bool exact = true;
  std::size_t combinations = 1;
  for (std::size_t f = 0; f < F && exact; ++f) {
    const std::size_t k = support[f].size();
    if (k > kMaxExactSupport) {
      exact = false;
      break;
    }
    for (std::uint32_t mask = 0; mask < (1u << k); ++mask) {
      double mass = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        if (mask >> i & 1u) mass += Q[support[f][i]].probability;
      }
      if (mass > room[f] + 1e-12) continue;
      bool maximal = true;
      for (std::size_t i = 0; i < k && maximal; ++i) {
        maximal = (mask >> i & 1u) ||
                  mass + Q[support[f][i]].probability > room[f] + 1e-12;
      }
      if (maximal) choices[f].push_back(mask);
    }
    if (choices[f].empty()) choices[f].push_back(0);
    combinations *= choices[f].size();
    exact = combinations * P * C <= kMaxExactWork;
  }
  if (exact) {
    std::vector<std::size_t> pick(F, 0);
    std::vector<char> trial(P, 1);
    std::vector<char> best;
    double best_envelope = greedy_envelope - kImprovement;
    for (std::size_t n = 0; n < combinations; ++n) {
      for (std::size_t f = 0; f < F; ++f) {
        const std::uint32_t mask = choices[f][pick[f]];
        for (std::size_t i = 0; i < support[f].size(); ++i) {
          trial[column_start[f] + i] = (mask >> i & 1u) ? 0 : 1;
        }
      }
      const double e = envelope(values_of(trial));
      if (e < best_envelope) {
        best_envelope = e;
        best = trial;
      }
      for (std::size_t f = 0; f < F; ++f) {  // odometer
        if (++pick[f] < choices[f].size()) break;
        pick[f] = 0;
      }
    }
    if (!best.empty()) kept = std::move(best);
  } else {
    std::vector<double> dropped_mass(F, 0.0);
    for (std::size_t f = 0; f < F; ++f) {
      for (std::size_t i = 0; i < support[f].size(); ++i) {
        if (!kept[column_start[f] + i]) {
          dropped_mass[f] += Q[support[f][i]].probability;
        }
      }
    }
    double current = greedy_envelope;
    std::vector<double> trial(C);
    for (int round = 0; round < kMaxSwapRounds; ++round) {
      // Move: drop column `in` and keep column `out` (out == P: none).
      std::size_t best_f = F;
      std::size_t best_in = P;
      std::size_t best_out = P;
      double best_envelope = current - kImprovement;
      for (std::size_t f = 0; f < F; ++f) {
        const std::size_t begin = column_start[f];
        const std::size_t end = column_start[f + 1];
        for (std::size_t in = begin; in < end; ++in) {
          if (!kept[in]) continue;
          const double p_in = Q[support[f][in - begin]].probability;
          for (std::size_t out = begin; out <= end; ++out) {
            const bool none = out == end;
            if (!none && kept[out]) continue;
            const double p_out =
                none ? 0.0 : Q[support[f][out - begin]].probability;
            if (dropped_mass[f] - p_out + p_in > room[f] + 1e-12) continue;
            for (std::size_t c = 0; c < C; ++c) {
              trial[c] = value[c] - table[c * P + in] +
                         (none ? 0.0 : table[c * P + out]);
            }
            const double e = envelope(trial);
            if (e < best_envelope) {
              best_envelope = e;
              best_f = f;
              best_in = in;
              best_out = none ? P : out;
            }
          }
        }
      }
      if (best_f == F) break;
      const std::size_t f = best_f;
      kept[best_in] = 0;
      dropped_mass[f] += Q[support[f][best_in - column_start[f]]].probability;
      if (best_out != P) {
        kept[best_out] = 1;
        dropped_mass[f] -= Q[support[f][best_out - column_start[f]]].probability;
      }
      value = values_of(kept);
      current = envelope(value);
    }
  }
  for (std::size_t f = 0; f < F; ++f) {
    for (std::size_t i = 0; i < support[f].size(); ++i) {
      delta[f][support[f][i]] = kept[column_start[f] + i];
    }
  }
}

bool same_cut_terms(const std::vector<CutBank::Term>& a,
                    const std::vector<CutBank::Term>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].flow != b[i].flow || a[i].pattern != b[i].pattern ||
        a[i].weight != b[i].weight) {
      return false;
    }
  }
  return true;
}

}  // namespace

namespace {

// Second stage: with the delta selection and its quantile guarantee Phi*
// fixed, re-optimize the allocation with a CVaR objective over ALL (flow,
// scenario) pairs while enforcing loss <= Phi* on every guaranteed pair.
// The pure min-max objective is indifferent between policies with the same
// worst quantile loss; this stage breaks that tie the way an operator
// would — protect everything that is cheap to protect.
TePolicy refine_policy(const TeProblem& problem, const ScenarioSet& scenarios,
                       const SurvivalTable& survival,
                       const std::vector<std::vector<char>>& delta,
                       double phi_star, double beta,
                       const lp::SimplexOptions& simplex_options,
                       BasisCache* cache, int* pivots) {
  const auto& flows = *problem.flows;
  const auto& Q = scenarios.scenarios;
  lp::Model model(lp::Sense::kMinimize);
  const std::vector<int> alloc = add_allocation_variables(model, problem);
  const int var_t = model.add_variable(0.0, 1.0, 1.0, "VaR");
  add_capacity_rows(model, problem, alloc);
  // Prefix shared by every refinement LP of this problem shape: allocation
  // variables + VaR, then the capacity rows. Lazy CVaR rows append shortfall
  // variables and rows on top, so the cross-epoch snapshot truncates back to
  // this prefix.
  const int fixed_rows = model.num_rows();
  const int fixed_structurals = static_cast<int>(alloc.size()) + 1;
  const double tail = std::max(1.0 - beta, 1e-6);
  const double flow_weight = 1.0 / static_cast<double>(flows.size());
  const double phi_bound = std::min(phi_star + 1e-7, 1.0);
  const bool enforce_guarantee = phi_bound < 1.0;

  // Per-(flow, scenario) flags, indexed f * |Q| + q: which lazy rows the
  // model already holds.
  const auto pair_index = [&](net::FlowId f, std::size_t q) {
    return static_cast<std::size_t>(f) * Q.size() + q;
  };
  std::vector<char> have_cvar_row(flows.size() * Q.size(), 0);
  std::vector<char> have_guarantee_row(flows.size() * Q.size(), 0);
  std::vector<BasisCache::RefineRow> recipe;
  auto add_cvar_row = [&](net::FlowId f, std::size_t q) {
    const int s = model.add_variable(
        0.0, 1.0, Q[q].probability * flow_weight / tail, "");
    lp::Row row = phi_row(problem, alloc, s, f, survival.row(q), 1.0);
    row.coefficients.push_back({var_t, 1.0});
    model.add_row(std::move(row));
    have_cvar_row[pair_index(f, q)] = 1;
    recipe.push_back({false, f, q});
  };
  auto add_guarantee_row = [&](net::FlowId f, std::size_t q) {
    // frac >= 1 - Phi*: the quantile guarantee, independent of t.
    std::vector<lp::Coefficient> coefs;
    const double d = std::max(problem.demand(f), 1e-9);
    const char* alive = survival.row(q);
    for (net::TunnelId t : problem.tunnels->tunnels_for_flow(f)) {
      if (alive[t]) {
        coefs.push_back({alloc[static_cast<std::size_t>(t)], 1.0 / d});
      }
    }
    model.add_row(std::move(coefs), lp::RowType::kGreaterEqual,
                  1.0 - phi_bound);
    have_guarantee_row[pair_index(f, q)] = 1;
    recipe.push_back({true, f, q});
  };

  // Replay the cached epoch's lazy rows in order so the cached full basis
  // lines up row-for-row (and, for CVaR rows, shortfall-variable-for-
  // variable). CVaR rows are valid members of the full CVaR model for any
  // pair, so replaying them never changes the optimum; a guarantee row is
  // only valid while its pair is guaranteed under the CURRENT delta and
  // phi_bound, so the replay stops at the first entry that is not.
  lp::SimplexBasis warm;
  if (cache != nullptr) {
    std::size_t aligned_rows = 0;
    int aligned_cvar = 0;
    if (cache->refine.valid()) {
      for (const BasisCache::RefineRow& rr : cache->refine_rows) {
        if (rr.q >= Q.size() || rr.flow < 0 ||
            static_cast<std::size_t>(rr.flow) >= delta.size()) {
          break;
        }
        if (rr.guarantee) {
          if (!enforce_guarantee ||
              !delta[static_cast<std::size_t>(rr.flow)][rr.q] ||
              have_guarantee_row[pair_index(rr.flow, rr.q)]) {
            break;
          }
          add_guarantee_row(rr.flow, rr.q);
        } else {
          if (have_cvar_row[pair_index(rr.flow, rr.q)]) break;
          add_cvar_row(rr.flow, rr.q);
          ++aligned_cvar;
        }
        ++aligned_rows;
      }
    }
    if (aligned_rows > 0) {
      warm = aligned_rows == cache->refine_rows.size()
                 ? cache->refine
                 : cache->refine.truncated(
                       fixed_rows + static_cast<int>(aligned_rows),
                       fixed_structurals + aligned_cvar);
      ++cache->hits;
    } else {
      ++cache->cold_starts;
    }
  }
  // Every flow gets its q=0 CVaR row unless the replay already added it.
  for (const net::Flow& flow : flows) {
    if (!have_cvar_row[pair_index(flow.id, 0)]) add_cvar_row(flow.id, 0);
  }

  const lp::SimplexSolver solver(simplex_options);
  lp::Solution solution;
  // Last optimal round's solution: a deadline expiry or failed re-solve
  // falls back to it instead of discarding the whole refinement.
  lp::Solution best;
  // Rows and shortfall variables only ever append, so each re-solve also
  // warm-starts from the previous round's basis.
  lp::SimplexBasis snapshot_basis;
  std::vector<BasisCache::RefineRow> snapshot_recipe;
  constexpr int kMaxRounds = 100;
  constexpr int kMaxRowsPerRound = 60;
  constexpr int kMaxTotalRows = 900;
  for (int round = 0; round < kMaxRounds; ++round) {
    if (simplex_options.deadline != nullptr &&
        simplex_options.deadline->expired()) {
      break;  // keep the last optimal round's refinement
    }
    solution = solver.solve(model, warm.valid() ? &warm : nullptr, &warm);
    if (pivots != nullptr) *pivots += solution.iterations;
    if (solution.status != lp::SolveStatus::kOptimal) break;
    best = solution;
    // Snapshot while basis and recipe agree: rows added below this point
    // would not be covered by `warm` until the next solve.
    snapshot_basis = warm;
    snapshot_recipe = recipe;
    if (model.num_rows() >= kMaxTotalRows) break;  // bounded-basis stop
    const double t_val = solution.x[static_cast<std::size_t>(var_t)];
    // (violation, (flow, scenario), needs_guarantee). The per-scenario
    // pricing sweep only reads the solution and the row-bookkeeping flags,
    // so scenarios price in parallel; flattening in scenario order keeps
    // the candidate list identical to the serial sweep.
    using Candidate = std::tuple<double, std::pair<int, std::size_t>, bool>;
    const auto per_scenario = runtime::parallel_map(
        Q.size(),
        [&](std::size_t q) {
          std::vector<Candidate> found;
          const char* alive = survival.row(q);
          for (const net::Flow& flow : flows) {
            const double frac =
                alive_fraction(problem, solution, alloc, flow.id, alive);
            const bool guaranteed =
                enforce_guarantee &&
                delta[static_cast<std::size_t>(flow.id)][q] != 0;
            if (guaranteed && !have_guarantee_row[pair_index(flow.id, q)] &&
                1.0 - frac > phi_bound + 1e-7) {
              found.push_back({1.0 - frac - phi_bound, {flow.id, q}, true});
            }
            if (!have_cvar_row[pair_index(flow.id, q)] &&
                1.0 - frac - t_val > 1e-6 && Q[q].probability > 1e-12) {
              found.push_back(
                  {(1.0 - frac - t_val) * Q[q].probability, {flow.id, q},
                   false});
            }
          }
          return found;
        },
        /*grain=*/4);
    std::vector<Candidate> violated;
    for (const auto& found : per_scenario) {
      violated.insert(violated.end(), found.begin(), found.end());
    }
    if (violated.empty()) break;
    std::sort(violated.begin(), violated.end(), [](const auto& a, const auto& b) {
      return std::get<0>(a) > std::get<0>(b);
    });
    const auto keep = std::min<std::size_t>(violated.size(), kMaxRowsPerRound);
    for (std::size_t i = 0; i < keep; ++i) {
      const auto& [viol, key, needs_guarantee] = violated[i];
      (void)viol;
      if (needs_guarantee) {
        add_guarantee_row(key.first, key.second);
      } else {
        add_cvar_row(key.first, key.second);
      }
    }
  }
  if (best.status != lp::SolveStatus::kOptimal) return {};
  if (cache != nullptr && snapshot_basis.valid()) {
    cache->refine = std::move(snapshot_basis);
    cache->refine_rows = std::move(snapshot_recipe);
  }
  // `best` may be from an earlier round than the current model, but the
  // allocation variables are the model prefix, so the extraction is valid.
  return extract_policy(problem, alloc, best);
}

}  // namespace

MinMaxResult solve_min_max_benders(const TeProblem& problem,
                                   const ScenarioSet& scenarios,
                                   const MinMaxOptions& options,
                                   BasisCache* cache, CutBank* cut_bank) {
  check_mass(scenarios, options.beta);
  const SurvivalTable survival = build_survival_table(problem, scenarios);
  const auto& flows = *problem.flows;
  const auto& Q = scenarios.scenarios;

  // A cache from a different problem shape violates the SimplexBasis prefix
  // contract — reset it and rebuild from this solve. Stale-but-matching
  // caches are safe: warm installation revalidates feasibility and falls
  // back cold, so a bad hint costs pivots, never a different optimum.
  const std::uint64_t signature = problem_shape_signature(problem);
  if (cache != nullptr && cache->signature != signature) {
    *cache = BasisCache{};
    cache->signature = signature;
  }
  // A cut bank, unlike a basis cache, is NOT self-revalidating: a stored
  // cut from a different shape, capacity vector, or link->fiber mapping
  // bounds a different value function and would silently corrupt the master.
  // Any mismatch starts the bank fresh (policy knobs survive the reset).
  if (cut_bank != nullptr) {
    const std::uint64_t environment = cut_environment_signature(problem);
    if (cut_bank->signature != signature ||
        cut_bank->environment != environment) {
      CutBank fresh;
      fresh.max_cuts = cut_bank->max_cuts;
      fresh.inactivity_ttl = cut_bank->inactivity_ttl;
      fresh.signature = signature;
      fresh.environment = environment;
      *cut_bank = std::move(fresh);
    }
  }

  // Fatal pairs: scenarios where a flow keeps no tunnel at all. No
  // allocation can protect them (their Phi-row reads Phi >= 1), and at the
  // degenerate SP optimum the duals cannot be relied on to point the master
  // at them — so they are dropped up-front, within each flow's probability
  // budget, and pinned to zero.
  std::vector<std::vector<char>> fatal(flows.size(),
                                       std::vector<char>(Q.size(), 0));
  std::vector<double> pinned_mass(flows.size(), 0.0);
  const double base_budget = scenarios.covered_probability - options.beta;
  for (const net::Flow& flow : flows) {
    std::vector<std::pair<double, std::size_t>> fatal_q;  // (prob, q)
    for (std::size_t q = 0; q < Q.size(); ++q) {
      const char* alive = survival.row(q);
      bool any_alive = false;
      for (net::TunnelId t : problem.tunnels->tunnels_for_flow(flow.id)) {
        if (alive[t]) {
          any_alive = true;
          break;
        }
      }
      if (!any_alive) fatal_q.push_back({Q[q].probability, q});
    }
    // Drop the most probable fatal scenarios first — they hurt Phi the most
    // if kept, and if all fit in the budget the order is irrelevant.
    std::sort(fatal_q.begin(), fatal_q.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    double used = 0.0;
    for (const auto& [p, q] : fatal_q) {
      if (used + p <= base_budget + 1e-12) {
        fatal[static_cast<std::size_t>(flow.id)][q] = 1;
        used += p;
      }
    }
    pinned_mass[static_cast<std::size_t>(flow.id)] = used;
  }

  // delta[f][q]: whether flow f must survive scenario q. Initialized to all
  // ones except the pinned fatal pairs (Algorithm 2 line 2 initializes to
  // ones, which "directly satisfies constraint (5)"; the fatal pins keep
  // (5) satisfied because they fit inside the budget).
  std::vector<std::vector<char>> delta(
      flows.size(), std::vector<char>(Q.size(), 1));
  for (std::size_t f = 0; f < flows.size(); ++f) {
    for (std::size_t q = 0; q < Q.size(); ++q) {
      if (fatal[f][q]) delta[f][q] = 0;
    }
  }

  MinMaxResult result;
  result.upper_bound = 1.0;
  result.lower_bound = 0.0;
  result.pinned_fatal_mass = pinned_mass;
  BendersBounds bounds;
  std::vector<BendersCut> cuts;

  // ---- Cut-bank replay: seed the master with last epoch's cuts. ----
  // Stored weights are keyed by pattern signature; re-key them to this
  // epoch's scenario indices and validate before trusting anything. The
  // validity rule: a cut replays only when every clamped demand equals the
  // snapshot it was derived under. Probability changes are always safe —
  // v(delta) does not depend on them, which is why re-keying by pattern
  // signature suffices — but ANY demand change drops the cut. A shrunk
  // demand breaks the inequality outright (v is monotone nondecreasing in
  // each demand), and although a grown demand keeps the cut a valid lower
  // bound, its weights stay priced for the old instance: they outrank the
  // fresh cuts' weights in the greedy master's drop ordering indefinitely,
  // steering every subsequent delta away from the current optimum (observed
  // as a warm solve stuck at a wrong master selection while the cold solve
  // converges). Dropping on any demand change keeps the replayed family
  // homogeneous with the cuts this run derives.
  // Terms for vanished patterns are dropped with the constant untouched
  // (equivalent to fixing their delta to 0 — the cut weakens, stays valid).
  std::vector<std::uint64_t> pattern_sig;
  std::map<std::uint64_t, std::size_t> sig_to_q;
  if (cut_bank != nullptr || options.warm_hint != nullptr ||
      options.collect_trace) {
    pattern_sig.resize(Q.size());
    for (std::size_t q = 0; q < Q.size(); ++q) {
      pattern_sig[q] = scenario_signature(Q[q]);
      sig_to_q.emplace(pattern_sig[q], q);  // first occurrence wins on a dup
    }
  }
  if (cut_bank != nullptr) {
    for (std::size_t i = 0; i < cut_bank->cuts.size(); ++i) {
      const CutBank::Cut& stored = cut_bank->cuts[i];
      bool valid = stored.demands.size() == problem.demands.size();
      if (valid) {
        for (std::size_t f = 0; f < stored.demands.size(); ++f) {
          // Compare the clamped demands the Phi-rows actually use.
          if (std::max(problem.demands[f], 1e-9) !=
              std::max(stored.demands[f], 1e-9)) {
            valid = false;
            break;
          }
        }
      }
      BendersCut cut;
      cut.constant = stored.constant;
      cut.bank_index = static_cast<int>(i);
      if (valid) {
        for (const CutBank::Term& term : stored.terms) {
          const auto it = sig_to_q.find(term.pattern);
          if (it == sig_to_q.end()) continue;  // vanished pattern: delta = 0
          if (term.flow < 0 ||
              static_cast<std::size_t>(term.flow) >= delta.size()) {
            valid = false;
            break;
          }
          cut.weights[{term.flow, it->second}] += term.weight;
        }
      }
      if (!valid || cut.weights.empty()) {
        ++result.cuts_invalidated;
        ++cut_bank->invalidated;
        continue;
      }
      cuts.push_back(std::move(cut));
      ++result.cuts_replayed;
      ++cut_bank->replayed;
    }
  }

  // ---- Warm-hint verification: trust nothing, charge rejections. ----
  // An accepted hint contributes three things, none of which can move the
  // converged objective: a steering pseudo-cut (drop-ordering prior for the
  // master, excluded from the lower bound and the bank), a pre-seeded row
  // set for the first subproblem (valid Phi-rows never change an LP
  // optimum), and a verified-feasible incumbent policy (a fallback shipped
  // only if a deadline expires before any subproblem completes — the bound
  // pair is untouched). Any failed check rejects the hint whole: the solve
  // is then bitwise identical to one called without a hint.
  const WarmHint* hint = options.warm_hint;
  bool hint_verified = false;
  bool steering_live = false;
  if (hint != nullptr) {
    bool ok = hint->shape_signature == signature &&
              hint_allocation_feasible(problem, hint->allocation);
    if (ok) {
      for (const WarmHint::Pair& p : hint->drops) {
        if (p.flow < 0 || static_cast<std::size_t>(p.flow) >= delta.size() ||
            !(p.weight >= 0.0) || !std::isfinite(p.weight)) {
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      for (const WarmHint::Pair& p : hint->active_rows) {
        if (p.flow < 0 || static_cast<std::size_t>(p.flow) >= delta.size()) {
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      hint_verified = true;
      result.hint_accepted = 1;
      result.policy.allocation = hint->allocation;
      BendersCut steer;
      steer.steering = true;
      for (const WarmHint::Pair& p : hint->drops) {
        const auto it = sig_to_q.find(p.pattern);
        if (it == sig_to_q.end()) continue;  // vanished pattern: no opinion
        if (fatal[static_cast<std::size_t>(p.flow)][it->second]) continue;
        const double w = std::min(p.weight, kSteerWeightCap);
        if (w <= 0.0) continue;  // the master never drops weight-0 pairs
        steer.weights[{p.flow, it->second}] = w;
      }
      if (!steer.weights.empty()) {
        cuts.push_back(std::move(steer));
        steering_live = true;
      }
    } else {
      result.hint_rejected = 1;
    }
  }

  std::vector<std::vector<char>> best_delta = delta;
  std::vector<double> flow_budget(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    flow_budget[f] = base_budget - pinned_mass[f];
  }

  // Master pass: per-flow scenario selection over the current cut list.
  // Each flow's pass is independent — it aggregates its own cut weights
  // (max over cuts, a monotone proxy that keeps every cut's reduction
  // opportunities visible; the cut maps are ordered by (flow, scenario),
  // so a flow's entries are one contiguous range), sorts its own drop
  // order, and spends its own budget. Flows shard over the pool and write
  // disjoint delta rows — including their slot of the activity marks — so
  // the pass is bit-identical at any pool size. With a bank, the cut whose
  // weight wins a spent drop is marked active: it steered the selection,
  // which is the signal that keeps its bank entry alive.
  std::vector<std::vector<int>> master_marks(
      cut_bank != nullptr ? flows.size() : 0);
  // Traced solves snapshot each master pass's per-flow weight envelope (the
  // max-over-cuts aggregate); the last snapshot is what justified the final
  // drop selection and is what trace_drops reports per dropped pair. Rows
  // are written disjointly by flow, so the snapshot is pool-size-invariant.
  std::vector<std::vector<double>> trace_weights(
      options.collect_trace ? flows.size() : 0);
  auto run_master = [&]() {
    const bool track = cut_bank != nullptr;
    runtime::parallel_for(
        flows.size(),
        [&](std::size_t fi) {
          const net::Flow& flow = flows[fi];
          const auto f = static_cast<std::size_t>(flow.id);
          std::vector<double> weight(Q.size(), 0.0);
          std::vector<int> arg(track ? Q.size() : 0, -1);
          for (std::size_t ci = 0; ci < cuts.size(); ++ci) {
            const BendersCut& c = cuts[ci];
            for (auto it = c.weights.lower_bound({flow.id, 0});
                 it != c.weights.end() && it->first.first == flow.id; ++it) {
              double& cell = weight[it->first.second];
              if (it->second > cell) {
                cell = it->second;
                if (track) arg[it->first.second] = static_cast<int>(ci);
              }
            }
          }
          if (!trace_weights.empty()) trace_weights[f] = weight;
          auto& df = delta[f];
          const auto& pins = fatal[f];
          const double budget = flow_budget[f];
          for (std::size_t q = 0; q < Q.size(); ++q) df[q] = pins[q] ? 0 : 1;
          // Drop scenarios in decreasing weight while the mass budget
          // allows; ties broken toward lower-probability scenarios (cheaper
          // to drop).
          std::vector<std::size_t> order(Q.size());
          for (std::size_t q = 0; q < Q.size(); ++q) order[q] = q;
          std::sort(order.begin(), order.end(),
                    [&](std::size_t a, std::size_t b) {
                      if (weight[a] != weight[b]) return weight[a] > weight[b];
                      return Q[a].probability < Q[b].probability;
                    });
          double dropped = 0.0;
          if (track) master_marks[fi].clear();
          for (std::size_t q : order) {
            if (pins[q]) continue;
            if (weight[q] <= 0.0) break;
            if (dropped + Q[q].probability <= budget + 1e-12) {
              df[q] = 0;
              dropped += Q[q].probability;
              if (track && arg[q] >= 0) master_marks[fi].push_back(arg[q]);
            }
          }
        });
    if (track) {
      for (const std::vector<int>& marks : master_marks) {
        for (int ci : marks) cuts[static_cast<std::size_t>(ci)].active = true;
      }
    }
  };
  // Replayed cuts — and the warm hint's steering pseudo-cut — drive a
  // master pass BEFORE the first subproblem, so iteration 1 already solves
  // at the warm drop selection instead of the expensive all-ones point. In
  // a steady-state epoch the fresh cut then closes the gap immediately and
  // the warm solve converges in one iteration. Without a bank or hint the
  // pre-pass is skipped and the solve is bitwise the legacy cold algorithm.
  if (!cuts.empty()) run_master();

  // Successive subproblems share the variable layout and the capacity-row
  // prefix. The final basis of one solve warm-starts the next by replaying
  // its Phi-row keys: re-adding the same rows in the same order makes the
  // full basis — which holds the previous optimum — line up row-for-row.
  // The cache seeds the first iteration from the previous epoch's solve the
  // same way.
  lp::SimplexBasis carry;
  std::vector<std::pair<int, std::size_t>> carry_keys;
  if (cache != nullptr) {
    if (cache->benders.valid()) {
      carry = cache->benders;
      carry_keys = cache->benders_rows;
      ++cache->hits;
    } else {
      ++cache->cold_starts;
    }
  }
  // The deadline rides inside the simplex options so every LP solve of the
  // decomposition (subproblem rounds, refinement) charges pivots against the
  // same budget; the Benders loop below also checks it per iteration.
  lp::SimplexOptions simplex_options = options.simplex;
  if (options.deadline != nullptr) simplex_options.deadline = options.deadline;
  util::Deadline* const deadline = simplex_options.deadline;
  const lp::SimplexSolver solver(simplex_options);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (deadline != nullptr && deadline->expired()) {
      result.deadline_exceeded = true;
      break;  // return the incumbent with the gap reached so far
    }
    result.iterations = iter + 1;

    // ---- Subproblem: LP with lazy Phi-rows for delta == 1 pairs. ----
    // The loop is managed here (not via solve_with_lazy_rows) because the
    // dual of every added row must be mapped back to its (flow, scenario)
    // key to assemble the Benders cut.
    lp::Model sp(lp::Sense::kMinimize);
    const std::vector<int> alloc = add_allocation_variables(sp, problem);
    const int phi = sp.add_variable(0.0, 1.0, 1.0, "Phi");
    add_capacity_rows(sp, problem, alloc);
    std::vector<std::pair<int, std::size_t>> row_keys;  // after capacity rows
    // seen[f * |Q| + q]: whether the (f, q) Phi-row is already in the model.
    std::vector<char> seen(flows.size() * Q.size(), 0);
    const auto add_key = [&](const std::pair<int, std::size_t>& key) {
      sp.add_row(phi_row(problem, alloc, phi, key.first,
                         survival.row(key.second), 1.0));
      row_keys.push_back(key);
      seen[static_cast<std::size_t>(key.first) * Q.size() + key.second] = 1;
    };
    const auto is_seen = [&](int f, std::size_t q) {
      return seen[static_cast<std::size_t>(f) * Q.size() + q] != 0;
    };
    const int fixed_rows = sp.num_rows();
    // Replay the carried rows in order, stopping at the first key the
    // current delta no longer selects — everything before the stop lines up
    // with the carried basis row-for-row. Phi-rows are valid for any
    // selected pair, so replaying them never changes the subproblem optimum.
    std::size_t aligned = 0;
    if (carry.valid()) {
      for (const auto& key : carry_keys) {
        if (key.second >= Q.size() || key.first < 0 ||
            static_cast<std::size_t>(key.first) >= delta.size() ||
            !delta[static_cast<std::size_t>(key.first)][key.second] ||
            is_seen(key.first, key.second)) {
          break;
        }
        add_key(key);
        ++aligned;
      }
    }
    if (row_keys.empty()) {
      // Hint seed: the oracle's predicted final Phi-rows, restricted to
      // pairs the current delta actually selects. Any selected pair's
      // Phi-row is a valid member of the full subproblem, so seeding can
      // only save row-generation rounds, never change the SP optimum.
      if (hint_verified && iter == 0) {
        for (const WarmHint::Pair& p : hint->active_rows) {
          const auto it = sig_to_q.find(p.pattern);
          if (it == sig_to_q.end()) continue;
          const std::pair<int, std::size_t> key{p.flow, it->second};
          if (!delta[static_cast<std::size_t>(p.flow)][it->second] ||
              is_seen(key.first, key.second)) {
            continue;
          }
          add_key(key);
        }
      }
      if (row_keys.empty()) {
        // Cold seed: the highest-probability scenario's rows.
        for (const net::Flow& flow : flows) {
          if (delta[static_cast<std::size_t>(flow.id)][0]) {
            add_key({flow.id, 0});
          }
        }
      }
    }

    lp::Solution sp_solution;
    lp::SimplexBasis warm;  // invalid on an unseeded first round
    if (aligned > 0) {
      warm = aligned == carry_keys.size()
                 ? carry
                 : carry.truncated(fixed_rows + static_cast<int>(aligned));
    }
    bool sp_ok = false;
    constexpr int kMaxRounds = 80;
    constexpr int kMaxRowsPerRound = 60;
    constexpr int kMaxTotalRows = 900;
    for (int round = 0; round < kMaxRounds; ++round) {
      sp_solution = solver.solve(sp, warm.valid() ? &warm : nullptr, &warm);
      result.simplex_pivots += sp_solution.iterations;
      if (sp_solution.status != lp::SolveStatus::kOptimal) break;
      // Snapshot while basis and keys agree: rows added below this point
      // would not be covered by `warm` until the next solve.
      carry = warm;
      carry_keys = row_keys;
      constexpr double kTol = 1e-7;
      const double phi_val = sp_solution.x[static_cast<std::size_t>(phi)];
      if (sp.num_rows() >= kMaxTotalRows) {
        // Bounded-basis stop: accept the current subproblem, and count the
        // selected pairs its allocation leaves above phi.
        sp_ok = true;
        ++result.capped_subproblems;
        for (std::size_t q = 0; q < Q.size(); ++q) {
          for (const net::Flow& flow : flows) {
            if (delta[static_cast<std::size_t>(flow.id)][q] &&
                1.0 - phi_val - alive_fraction(problem, sp_solution, alloc,
                                               flow.id, survival.row(q)) >
                    kTol) {
              ++result.capped_violated_pairs;
            }
          }
        }
        break;
      }
      // Collect the globally worst violated (f, q) rows. Scenarios price in
      // parallel (reads only); concatenation in scenario order keeps the
      // list identical to the serial sweep.
      using SpCandidate = std::pair<double, std::pair<int, std::size_t>>;
      const auto per_scenario = runtime::parallel_map(
          Q.size(),
          [&](std::size_t q) {
            std::vector<SpCandidate> found;
            const char* alive = survival.row(q);
            for (const net::Flow& flow : flows) {
              if (!delta[static_cast<std::size_t>(flow.id)][q]) continue;
              if (is_seen(flow.id, q)) continue;
              const double shortfall =
                  1.0 - phi_val -
                  alive_fraction(problem, sp_solution, alloc, flow.id, alive);
              if (shortfall > kTol) found.push_back({shortfall, {flow.id, q}});
            }
            return found;
          },
          /*grain=*/4);
      std::vector<SpCandidate> violated;
      for (const auto& found : per_scenario) {
        violated.insert(violated.end(), found.begin(), found.end());
      }
      if (violated.empty()) {
        sp_ok = true;
        break;
      }
      std::sort(violated.begin(), violated.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      const auto keep = std::min<std::size_t>(violated.size(), kMaxRowsPerRound);
      for (std::size_t i = 0; i < keep; ++i) add_key(violated[i].second);
    }
    if (!sp_ok) {
      // A pivot/deadline-limited subproblem still carries a primal-feasible
      // point (the capacity rows are hard rows of every SP model), so its
      // allocation is installable. Keep it as a best-effort policy when no
      // completed subproblem produced one — but never trust its objective:
      // mid-row-generation it underestimates the true SP value, so the
      // bounds stay untouched and no cut is built from it.
      if (sp_solution.status == lp::SolveStatus::kIterationLimit &&
          !sp_solution.x.empty() && result.policy.allocation.empty()) {
        result.policy = extract_policy(problem, alloc, sp_solution);
      }
      if (deadline != nullptr && deadline->expired()) {
        result.deadline_exceeded = true;
      }
      break;  // keep the best incumbent found so far
    }
    const lp::Solution& sp_result_solution = sp_solution;
    const double sp_value = sp_result_solution.objective;

    // Update incumbent (the SP allocation is feasible for the original
    // problem because delta always satisfies constraint (5)).
    bounds.observe_upper(sp_value);
    if (sp_value < result.upper_bound) {
      result.upper_bound = sp_value;
      result.policy = extract_policy(problem, alloc, sp_result_solution);
      result.phi = sp_value;
      best_delta = delta;
    }

    // ---- Optimality cut from the duals (Eqn. 11). ----
    BendersCut cut;
    cut.constant = sp_value;
    for (std::size_t r = 0; r < row_keys.size(); ++r) {
      const double w =
          sp_result_solution.duals[static_cast<std::size_t>(fixed_rows) + r];
      if (w > 1e-10) {
        cut.weights[row_keys[r]] += w;
        cut.constant -= w;  // subtract w * delta_hat (delta_hat == 1)
      }
    }
    cuts.push_back(cut);

    // ---- Master: per-flow scenario selection. ----
    run_master();
    descend_master(cuts, Q, fatal, flow_budget, delta);

    // Lower bound estimate: the master value at the new delta. The cut list
    // grows linearly with iterations and each evaluation is independent;
    // max is associative, so the chunked reduction is bit-identical at any
    // pool size. A candidate above the incumbent marks the bounds as
    // crossed instead of being clamped into a spurious zero gap.
    //
    // Replayed cuts are EXCLUDED here even though they are valid: the
    // greedy master's delta does not minimize the cut envelope, so the
    // envelope value only tracks the incumbent when the cuts are the
    // homogeneous family this run derived. A cut banked under different
    // demands keeps its support priced for another instance; letting it
    // into the bound made warm solves latch bound_crossed (and never
    // report convergence) on epochs where the cold solve converges. Bank
    // cuts steer the master's drop selection — the actual warm start —
    // while only this run's own cuts bound it, which restores the cold
    // solve's crossing semantics exactly.
    // The warm hint's steering pseudo-cut is excluded for a stronger reason
    // than bank cuts: it is not an inequality at all, just a drop-ordering
    // prior carrying predicted (dual-range-clamped) weights.
    const double lb = runtime::parallel_reduce(
        cuts.size(), 0.0,
        [&](std::size_t i) {
          return cuts[i].bank_index >= 0 || cuts[i].steering
                     ? 0.0
                     : cuts[i].value(delta);
        },
        [](double a, double b) { return std::max(a, b); },
        /*grain=*/8);
    if (cut_bank != nullptr) {
      // Fresh cuts attaining the lower bound are doing the bounding work;
      // that also keeps their future bank entries alive. Serial pass, so
      // the marks are independent of the pool size. (Replayed cuts earn
      // their keep through master_marks instead.)
      for (BendersCut& c : cuts) {
        if (!c.active && c.bank_index < 0 && !c.steering &&
            c.value(delta) == lb) {
          c.active = true;
        }
      }
    }
    const bool gap_closed = bounds.update(lb, options.epsilon);
    result.lower_bound = bounds.clamped_lower();
    result.bound_crossed = bounds.crossed;
    if (gap_closed) {
      result.converged = true;
      break;
    }
    // Worse-than-cold discard: a steered first iteration that failed to
    // close the gap means the prediction missed — drop the steering cut so
    // every later master pass runs on genuine cuts only (the fresh cut
    // derived at the steered point is a valid inequality and stays). The
    // discard is counted as a rejection alongside the acceptance, so
    // callers can tell "applied and paid off" from "applied and abandoned".
    if (steering_live && iter == 0) {
      cuts.erase(std::remove_if(cuts.begin(), cuts.end(),
                                [](const BendersCut& c) { return c.steering; }),
                 cuts.end());
      steering_live = false;
      result.hint_rejected = 1;
    }
  }
  // Second stage: keep the Phi guarantee when it is SLA-meaningful, and in
  // any case serve whatever else is free to serve (CVaR refinement).
  const double guarantee = result.upper_bound <= options.guarantee_threshold
                               ? result.upper_bound
                               : 1.0;  // vacuous -> pure CVaR refinement
  if (cache != nullptr && carry.valid()) {
    cache->benders = carry;
    cache->benders_rows = carry_keys;
  }
  // ---- Cut-bank writeback: refresh, insert, evict. ----
  // Runs alongside the basis writeback (before refinement) so a deadline
  // expiry during refinement cannot lose this solve's cuts. Cuts from
  // COMPLETED subproblems are exact inequalities even when the overall solve
  // expired (only completed SPs reach the cut derivation), so banking from a
  // deadline-starved incumbent solve is sound.
  if (cut_bank != nullptr) {
    const std::uint64_t now = cut_bank->epoch;
    // Replayed cuts that influenced this solve stay fresh. Bank indices are
    // stable here: nothing has been inserted or evicted since replay.
    for (const BendersCut& c : cuts) {
      if (c.bank_index >= 0 && c.active) {
        cut_bank->cuts[static_cast<std::size_t>(c.bank_index)].last_active =
            now;
      }
    }
    // Bank this solve's fresh cuts under signature keys with a demand
    // snapshot (the validity witness for future replays). The steering
    // pseudo-cut is not an inequality and must never be banked.
    for (const BendersCut& c : cuts) {
      if (c.bank_index >= 0 || c.steering) continue;
      CutBank::Cut stored;
      stored.constant = c.constant;
      stored.terms.reserve(c.weights.size());
      for (const auto& [key, w] : c.weights) {
        stored.terms.push_back({key.first, pattern_sig[key.second], w});
      }
      std::sort(stored.terms.begin(), stored.terms.end(),
                [](const CutBank::Term& a, const CutBank::Term& b) {
                  return std::tie(a.flow, a.pattern, a.weight) <
                         std::tie(b.flow, b.pattern, b.weight);
                });
      stored.demands = problem.demands;
      stored.last_active = now;
      // A re-derived identical cut refreshes its existing entry instead of
      // duplicating it. The demand snapshot is replaced with this solve's —
      // replay requires demand equality, so the freshest derivation is the
      // witness that keeps the entry replayable next epoch.
      bool duplicate = false;
      for (CutBank::Cut& existing : cut_bank->cuts) {
        if (existing.constant == stored.constant &&
            same_cut_terms(existing.terms, stored.terms)) {
          existing.last_active = now;
          existing.demands = stored.demands;
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      cut_bank->cuts.push_back(std::move(stored));
      ++cut_bank->inserted;
      ++result.cuts_banked;
    }
    // Activity eviction: a cut idle for inactivity_ttl epochs goes first.
    {
      std::vector<CutBank::Cut> kept;
      kept.reserve(cut_bank->cuts.size());
      for (CutBank::Cut& c : cut_bank->cuts) {
        if (now - c.last_active >= cut_bank->inactivity_ttl) {
          ++cut_bank->evicted;
        } else {
          kept.push_back(std::move(c));
        }
      }
      cut_bank->cuts = std::move(kept);
    }
    // Size bound: evict oldest activity first; ties (same last_active epoch)
    // break lexicographically on (terms, constant), largest first — fully
    // deterministic, no dependence on insertion history beyond the entries
    // themselves. Survivors keep their insertion order.
    if (cut_bank->cuts.size() > cut_bank->max_cuts) {
      std::vector<std::size_t> idx(cut_bank->cuts.size());
      std::iota(idx.begin(), idx.end(), std::size_t{0});
      std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        const CutBank::Cut& ca = cut_bank->cuts[a];
        const CutBank::Cut& cb = cut_bank->cuts[b];
        if (ca.last_active != cb.last_active) {
          return ca.last_active < cb.last_active;
        }
        return cut_lex_less(cb, ca);
      });
      const std::size_t excess = cut_bank->cuts.size() - cut_bank->max_cuts;
      std::vector<char> victim(cut_bank->cuts.size(), 0);
      for (std::size_t i = 0; i < excess; ++i) victim[idx[i]] = 1;
      std::vector<CutBank::Cut> kept;
      kept.reserve(cut_bank->max_cuts);
      for (std::size_t i = 0; i < cut_bank->cuts.size(); ++i) {
        if (!victim[i]) kept.push_back(std::move(cut_bank->cuts[i]));
      }
      cut_bank->cuts = std::move(kept);
      cut_bank->evicted += static_cast<int>(excess);
    }
    ++cut_bank->epoch;
  }
  // Refinement is tie-breaking, not correctness: on an expired deadline the
  // incumbent ships as-is rather than starting another LP sequence.
  if (deadline == nullptr || !deadline->expired()) {
    TePolicy refined =
        refine_policy(problem, scenarios, survival, best_delta, guarantee,
                      options.beta, simplex_options, cache,
                      &result.simplex_pivots);
    if (!refined.allocation.empty()) {
      result.policy = std::move(refined);
    }
  }
  if (deadline != nullptr && deadline->expired()) {
    result.deadline_exceeded = true;
  }
  // Hint savings are credited only to hints that were applied and survived
  // (never discarded), against the oracle's expected-cold estimate; both
  // sides count total decomposition pivots, refinement included.
  if (result.hint_accepted != 0 && result.hint_rejected == 0 &&
      hint->expected_cold_pivots > 0) {
    result.hint_pivots_saved =
        std::max(0, hint->expected_cold_pivots - result.simplex_pivots);
  }
  // ---- Solve trace for oracle harvesting (pure reporting). ----
  // Only converged solves make training examples: an incumbent cut short by
  // a deadline has a drop set and row family that describe where the solve
  // stopped, not where it was headed.
  if (options.collect_trace && result.converged) {
    for (std::size_t f = 0; f < flows.size(); ++f) {
      for (std::size_t q = 0; q < Q.size(); ++q) {
        if (!best_delta[f][q] && !fatal[f][q]) {
          const double w =
              trace_weights[f].size() == Q.size() ? trace_weights[f][q] : 0.0;
          result.trace_drops.push_back(
              {static_cast<int>(f), pattern_sig[q], w});
        }
      }
    }
    result.trace_active_rows.reserve(carry_keys.size());
    for (const auto& key : carry_keys) {
      result.trace_active_rows.push_back({key.first, pattern_sig[key.second]});
    }
  }
  return result;
}

}  // namespace prete::te
