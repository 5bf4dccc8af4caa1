#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "lp/lu.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "util/arena.h"
#include "util/rng.h"

// Sparse Markowitz-LU anchor properties: unit-level residual checks of the
// factorization and its triangular solves, then solver-level equivalence of
// the LU-anchored eta kernel against the dense reference kernel across
// random models, warm starts, the Bland anti-cycling regime, and drift
// reinversion. Both represent the same inverse, so the solves must land on
// the same vertex.

namespace prete::lp {
namespace {

// Random sparse column-diagonally-dominant matrix: guaranteed nonsingular
// (diagonal in (2, 4), at most three off-diagonals each in (-0.5, 0.5)).
std::vector<std::vector<Coefficient>> random_sparse_basis(int m,
                                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<Coefficient>> cols(static_cast<std::size_t>(m));
  for (int c = 0; c < m; ++c) {
    auto& col = cols[static_cast<std::size_t>(c)];
    col.push_back({c, rng.uniform(2.0, 4.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0)});
    const int extras = static_cast<int>(rng.next_below(4));
    for (int e = 0; e < extras; ++e) {
      const int r = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(m)));
      bool dup = false;
      for (const auto& entry : col) dup = dup || entry.var == r;
      if (!dup) col.push_back({r, rng.uniform(-0.5, 0.5)});
    }
  }
  return cols;
}

std::vector<const std::vector<Coefficient>*> column_pointers(
    const std::vector<std::vector<Coefficient>>& cols) {
  std::vector<const std::vector<Coefficient>*> ptrs;
  ptrs.reserve(cols.size());
  for (const auto& col : cols) ptrs.push_back(&col);
  return ptrs;
}

// Residual of B x = rhs for the column-sparse B.
double ftran_residual(const std::vector<std::vector<Coefficient>>& cols,
                      const std::vector<double>& x,
                      const std::vector<double>& rhs) {
  std::vector<double> bx(rhs.size(), 0.0);
  for (std::size_t c = 0; c < cols.size(); ++c) {
    const double xc = x[c];
    if (xc == 0.0) continue;
    for (const auto& entry : cols[c]) {
      bx[static_cast<std::size_t>(entry.var)] += entry.value * xc;
    }
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    worst = std::max(worst, std::abs(bx[i] - rhs[i]));
  }
  return worst;
}

// Residual of B^T y = v.
double btran_residual(const std::vector<std::vector<Coefficient>>& cols,
                      const std::vector<double>& y,
                      const std::vector<double>& v) {
  double worst = 0.0;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    double acc = 0.0;
    for (const auto& entry : cols[c]) {
      acc += entry.value * y[static_cast<std::size_t>(entry.var)];
    }
    worst = std::max(worst, std::abs(acc - v[c]));
  }
  return worst;
}

class LuFactorizationProperty : public ::testing::TestWithParam<int> {};

TEST_P(LuFactorizationProperty, SolvesMatchTheMatrix) {
  util::Rng rng(static_cast<std::uint64_t>(7000 + GetParam()));
  const int m = 5 + static_cast<int>(rng.next_below(60));
  const auto cols = random_sparse_basis(m, static_cast<std::uint64_t>(GetParam()));
  LuFactorization lu;
  util::Arena arena;
  ASSERT_TRUE(lu.factorize(column_pointers(cols), arena));
  EXPECT_EQ(lu.dim(), m);
  EXPECT_GE(lu.stats().nnz_input, m);
  EXPECT_GE(lu.stats().nnz_factors, m);

  // Sparse FTRAN against a random sparse rhs.
  std::vector<Coefficient> a;
  std::vector<double> rhs(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) {
    if (!rng.bernoulli(0.3)) continue;
    const double value = rng.uniform(-2.0, 2.0);
    a.push_back({i, value});
    rhs[static_cast<std::size_t>(i)] = value;
  }
  std::vector<double> x;
  lu.ftran(a, x);
  EXPECT_LT(ftran_residual(cols, x, rhs), 1e-9);

  // Dense FTRAN agrees bitwise with the sparse one on the same rhs.
  std::vector<double> x_dense;
  lu.ftran_dense(rhs, x_dense);
  ASSERT_EQ(x.size(), x_dense.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], x_dense[i]);

  // BTRAN against a random dense vector.
  std::vector<double> v(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) v[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0);
  std::vector<double> y;
  lu.btran(v, y);
  EXPECT_LT(btran_residual(cols, y, v), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuFactorizationProperty, ::testing::Range(1, 20));

TEST(LuFactorizationTest, RefactorizeReusesArenaWithoutGrowth) {
  const auto cols = random_sparse_basis(64, 99);
  const auto ptrs = column_pointers(cols);
  LuFactorization lu;
  util::Arena arena;
  ASSERT_TRUE(lu.factorize(ptrs, arena));
  const std::size_t reserved = arena.bytes_reserved();
  // Steady-state reinversion of the same basis must not reserve more heap.
  for (int pass = 0; pass < 8; ++pass) {
    ASSERT_TRUE(lu.factorize(ptrs, arena));
    EXPECT_EQ(arena.bytes_reserved(), reserved) << "pass " << pass;
  }
}

TEST(LuFactorizationTest, BadlyScaledBasisIsNotSingular) {
  // Every entry scaled by 1e-13: an absolute 1e-12 pivot cutoff would call
  // this singular; the relative test must factorize it and solve correctly.
  auto cols = random_sparse_basis(20, 123);
  for (auto& col : cols) {
    for (auto& entry : col) entry.value *= 1e-13;
  }
  LuFactorization lu;
  util::Arena arena;
  ASSERT_TRUE(lu.factorize(column_pointers(cols), arena));
  std::vector<double> rhs(20, 0.0);
  rhs[3] = 1.0;
  std::vector<double> x;
  lu.ftran_dense(rhs, x);
  EXPECT_LT(ftran_residual(cols, x, rhs), 1e-6);  // entries are ~1e13
}

TEST(LuFactorizationTest, DetectsSingularBasis) {
  // Duplicate columns: exactly singular.
  auto cols = random_sparse_basis(12, 5);
  cols[7] = cols[2];
  LuFactorization lu;
  util::Arena arena;
  EXPECT_FALSE(lu.factorize(column_pointers(cols), arena));

  // A structurally empty column.
  auto cols2 = random_sparse_basis(8, 6);
  cols2[4].clear();
  EXPECT_FALSE(lu.factorize(column_pointers(cols2), arena));
}

TEST(LuFactorizationTest, ReportsDeficiencyThatUnitColumnsRepair) {
  util::Arena arena;
  LuFactorization lu;
  LuFactorization::Deficiency deficiency;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    // Two duplicated columns and one empty column: rank m - 3. Some seeds
    // also leave a zero row behind.
    auto cols = random_sparse_basis(14, 40 + seed);
    cols[9] = cols[3];
    cols[11] = cols[5];
    cols[6].clear();
    EXPECT_FALSE(lu.factorize(column_pointers(cols), arena, &deficiency));
    ASSERT_EQ(deficiency.columns.size(), 3u) << "seed " << seed;
    ASSERT_EQ(deficiency.rows.size(), 3u) << "seed " << seed;
    // The empty column is always set aside, and of each duplicated pair
    // exactly one.
    std::vector<char> aside(cols.size(), 0);
    for (const int c : deficiency.columns) aside[static_cast<std::size_t>(c)] = 1;
    EXPECT_TRUE(aside[6]) << "seed " << seed;
    EXPECT_EQ(aside[3] + aside[9], 1) << "seed " << seed;
    EXPECT_EQ(aside[5] + aside[11], 1) << "seed " << seed;
    // Swapping each set-aside column for the unit column of an unpivoted
    // row makes the basis nonsingular.
    for (std::size_t q = 0; q < deficiency.columns.size(); ++q) {
      cols[static_cast<std::size_t>(deficiency.columns[q])] = {
          {deficiency.rows[q], 1.0}};
    }
    ASSERT_TRUE(lu.factorize(column_pointers(cols), arena, &deficiency))
        << "seed " << seed;
    EXPECT_TRUE(deficiency.columns.empty());
    EXPECT_TRUE(deficiency.rows.empty());
    std::vector<double> rhs(cols.size());
    for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = 1.0 + 0.5 * i;
    std::vector<double> x;
    lu.ftran_dense(rhs, x);
    EXPECT_LT(ftran_residual(cols, x, rhs), 1e-9) << "seed " << seed;
  }
}

TEST(LuFactorizationTest, ResetDiagonalIsTrivialFactorization) {
  LuFactorization lu;
  std::vector<double> signs = {1.0, -1.0, 1.0, -1.0, -1.0};
  lu.reset_diagonal(5, signs);
  std::vector<double> v = {2.0, 3.0, -1.0, 0.5, 4.0};
  std::vector<double> x;
  lu.ftran_dense(v, x);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(x[i], v[i] * signs[i]);
  std::vector<double> y;
  lu.btran(v, y);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(y[i], v[i] * signs[i]);
}

// ---------------------------------------------------------------------------
// Solver-level equivalence of the LU-anchored eta kernel and the dense
// reference kernel.

Model random_feasible_lp(std::uint64_t seed) {
  util::Rng rng(seed);
  const int n = 4 + static_cast<int>(rng.next_below(8));
  const int rows = 3 + static_cast<int>(rng.next_below(8));

  Model m(Sense::kMaximize);
  for (int j = 0; j < n; ++j) {
    m.add_variable(0.0, rng.uniform(0.5, 5.0), rng.uniform(-1.0, 2.0));
  }
  std::vector<double> interior(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    interior[static_cast<std::size_t>(j)] = rng.uniform(0.0, m.variable(j).upper);
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Coefficient> coefs;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.6)) {
        const double a = rng.uniform(-1.0, 3.0);
        coefs.push_back({j, a});
        lhs += a * interior[static_cast<std::size_t>(j)];
      }
    }
    if (coefs.empty()) coefs.push_back({0, 1.0});
    const RowType type =
        rng.bernoulli(0.2) ? RowType::kGreaterEqual : RowType::kLessEqual;
    if (type == RowType::kGreaterEqual) {
      m.add_row(std::move(coefs), type, lhs - rng.uniform(0.0, 2.0));
    } else {
      m.add_row(std::move(coefs), type, lhs + rng.uniform(0.0, 2.0));
    }
  }
  return m;
}

// A short refactor interval makes even the small random models reinvert
// mid-solve, so the LU anchor actually carries pivoting state (cold starts
// alone never refactorize — they begin from the diagonal reset).
SimplexOptions anchor_options(BasisKernel kernel) {
  SimplexOptions options;
  options.kernel = kernel;
  options.pricing_window = -1;  // full pricing: kernel is the only variable
  options.refactor_interval = 4;
  return options;
}

void expect_equivalent(const Model& m, const Solution& reference,
                       const Solution& candidate, const char* label) {
  ASSERT_EQ(reference.status, candidate.status) << label;
  if (reference.status != SolveStatus::kOptimal) return;
  EXPECT_NEAR(reference.objective, candidate.objective,
              1e-9 * (1.0 + std::abs(reference.objective)))
      << label;
  ASSERT_EQ(reference.x.size(), candidate.x.size()) << label;
  for (std::size_t j = 0; j < reference.x.size(); ++j) {
    EXPECT_NEAR(reference.x[j], candidate.x[j], 1e-9)
        << label << " x[" << j << "]";
  }
  EXPECT_LT(m.max_violation(candidate.x), 1e-6) << label;
}

class LuAnchorEquivalenceProperty : public ::testing::TestWithParam<int> {};

// The reinversion counters below allow for bound flips, which charge an
// iteration without a basis change: the interval of 4 counts basis changes
// since the last reinversion, so 7 iterations leave room for a few flips.
TEST_P(LuAnchorEquivalenceProperty, LuMatchesExplicitAndDenseCold) {
  const Model m = random_feasible_lp(static_cast<std::uint64_t>(GetParam()));
  const Solution dense =
      SimplexSolver(anchor_options(BasisKernel::kDenseBinv)).solve(m);
  const Solution lu =
      SimplexSolver(anchor_options(BasisKernel::kEtaFile)).solve(m);
  expect_equivalent(m, dense, lu, "lu vs dense");
  // The counter proves the LU anchor really carried the solve.
  if (lu.status == SolveStatus::kOptimal && lu.iterations >= 7) {
    EXPECT_GE(lu.reinversions, 1);
  }
}

TEST_P(LuAnchorEquivalenceProperty, LuMatchesExplicitUnderFrequentReinversion) {
  const Model m =
      random_feasible_lp(static_cast<std::uint64_t>(1300 + GetParam()));
  const Solution a =
      SimplexSolver(anchor_options(BasisKernel::kDenseBinv)).solve(m);
  const Solution b =
      SimplexSolver(anchor_options(BasisKernel::kEtaFile)).solve(m);
  expect_equivalent(m, a, b, "lu vs dense, interval 4");
  if (b.status == SolveStatus::kOptimal && b.iterations >= 14) {
    EXPECT_GE(b.reinversions, 2);
  }
}

TEST_P(LuAnchorEquivalenceProperty, LuWarmStartMatchesCold) {
  const Model m =
      random_feasible_lp(static_cast<std::uint64_t>(2700 + GetParam()));
  SimplexBasis basis;
  const Solution cold = SimplexSolver(anchor_options(BasisKernel::kEtaFile))
                            .solve(m, nullptr, &basis);
  if (cold.status != SolveStatus::kOptimal) return;
  // Installing the optimal basis refactorizes through the LU anchor and must
  // terminate without a pivot at the same point.
  const Solution warm = SimplexSolver(anchor_options(BasisKernel::kEtaFile))
                            .solve(m, &basis, nullptr);
  expect_equivalent(m, cold, warm, "lu warm");
  EXPECT_EQ(warm.iterations, 0) << "optimal hint should not pivot";
  EXPECT_GE(warm.reinversions, 1);

  // Cross-kernel warm start: a basis exported under the dense reference
  // kernel seeds an LU-anchored solve — the snapshot is kernel agnostic.
  SimplexBasis dense_basis;
  const Solution dense_cold =
      SimplexSolver(anchor_options(BasisKernel::kDenseBinv))
          .solve(m, nullptr, &dense_basis);
  ASSERT_EQ(dense_cold.status, SolveStatus::kOptimal);
  const Solution cross = SimplexSolver(anchor_options(BasisKernel::kEtaFile))
                             .solve(m, &dense_basis, nullptr);
  expect_equivalent(m, dense_cold, cross, "cross-kernel warm");
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuAnchorEquivalenceProperty,
                         ::testing::Range(1, 25));

TEST(LuAnchorBlandTest, AntiCyclingRegimeMatchesExplicitAnchor) {
  // Forcing Bland's rule from the first degenerate pivot exercises the
  // pivot_row path (BTRAN through the LU anchor) on every ratio-test tie.
  for (int seed = 1; seed <= 8; ++seed) {
    const Model m = random_feasible_lp(static_cast<std::uint64_t>(5100 + seed));
    SimplexOptions dense_opts = anchor_options(BasisKernel::kDenseBinv);
    SimplexOptions lu_opts = anchor_options(BasisKernel::kEtaFile);
    dense_opts.degenerate_pivot_limit = 1;
    lu_opts.degenerate_pivot_limit = 1;
    const Solution a = SimplexSolver(dense_opts).solve(m);
    const Solution b = SimplexSolver(lu_opts).solve(m);
    expect_equivalent(m, a, b, "bland regime");
  }
}

TEST(LuAnchorDriftTest, IllConditionedChainForcesEarlyReinversion) {
  // The kernel drift chain, solved with the LU anchor: the cascading (3e4)^k
  // inverse entries must still trip the eta drift trigger, and the forced
  // reinversions now rebuild a sparse LU.
  constexpr int kChain = 12;
  constexpr double kFactor = 3e4;
  Model m(Sense::kMinimize);
  std::vector<int> x;
  for (int i = 0; i < kChain; ++i) {
    x.push_back(m.add_variable(0.0, kInfinity, 1.0));
  }
  for (int i = 0; i + 1 < kChain; ++i) {
    m.add_row({{x[static_cast<std::size_t>(i)], 1.0},
               {x[static_cast<std::size_t>(i + 1)], -kFactor}},
              RowType::kEqual, 1.0);
  }
  m.add_row({{x[static_cast<std::size_t>(kChain - 1)], 1.0}},
            RowType::kLessEqual, 2.0);

  SimplexOptions lu_opts = anchor_options(BasisKernel::kEtaFile);
  lu_opts.refactor_interval = 1 << 20;  // periodic trigger out of reach
  const Solution lu = SimplexSolver(lu_opts).solve(m);
  ASSERT_EQ(lu.status, SolveStatus::kOptimal);
  EXPECT_GE(lu.reinversions, 1) << "drift trigger never fired";

  SimplexOptions dense_opts = anchor_options(BasisKernel::kDenseBinv);
  dense_opts.refactor_interval = 1 << 20;
  const Solution dense = SimplexSolver(dense_opts).solve(m);
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  EXPECT_NEAR(lu.objective / dense.objective, 1.0, 1e-9);
}

}  // namespace
}  // namespace prete::lp
