#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lp/basis.h"
#include "util/rng.h"

// BasisState refactorization regressions: the singularity test must be
// relative to each column's input magnitude (an absolute cutoff misreads
// badly scaled — but perfectly conditioned — bases as singular), and truly
// singular bases must still be rejected under every anchor. The
// hypersparse pivot_row must match btran(e_r) entry for entry.

namespace prete::lp {
namespace {

std::vector<std::vector<Coefficient>> scaled_basis(int m, double scale,
                                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<Coefficient>> cols(static_cast<std::size_t>(m));
  for (int c = 0; c < m; ++c) {
    auto& col = cols[static_cast<std::size_t>(c)];
    col.push_back(
        {c, scale * rng.uniform(2.0, 4.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0)});
    if (c + 1 < m) col.push_back({c + 1, scale * rng.uniform(-0.5, 0.5)});
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

double ftran_residual(const std::vector<std::vector<Coefficient>>& cols,
                      const std::vector<double>& x,
                      const std::vector<double>& rhs) {
  std::vector<double> bx(rhs.size(), 0.0);
  for (std::size_t c = 0; c < cols.size(); ++c) {
    for (const auto& entry : cols[c]) {
      bx[static_cast<std::size_t>(entry.var)] += entry.value * x[c];
    }
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    worst = std::max(worst, std::abs(bx[i] - rhs[i]));
  }
  return worst;
}

class ScaledBasisRegression : public ::testing::TestWithParam<BasisKernel> {};

TEST_P(ScaledBasisRegression, TinyButWellConditionedBasisRefactorizes) {
  // Every entry ~1e-13: below the historical absolute 1e-12 pivot cutoff,
  // which called this basis singular. The relative test must accept it and
  // the inverse must actually work.
  constexpr int kDim = 10;
  const auto cols = scaled_basis(kDim, 1e-13, 42);
  BasisState basis;
  basis.configure(GetParam(), 128);
  ASSERT_TRUE(basis.refactorize(column_pointers(cols)))
      << "well-conditioned basis misclassified as singular";

  std::vector<Coefficient> rhs_sparse = {{3, 1.0}};
  std::vector<double> rhs(kDim, 0.0);
  rhs[3] = 1.0;
  std::vector<double> x(kDim, 0.0);
  basis.ftran(rhs_sparse, x);
  // Inverse entries are ~1e13; residual in the input scale stays tiny.
  EXPECT_LT(ftran_residual(cols, x, rhs), 1e-6);
}

TEST_P(ScaledBasisRegression, HugeBasisRefactorizes) {
  const auto cols = scaled_basis(8, 1e14, 7);
  BasisState basis;
  basis.configure(GetParam(), 128);
  EXPECT_TRUE(basis.refactorize(column_pointers(cols)));
}

TEST_P(ScaledBasisRegression, TrulySingularBasisStillRejected) {
  auto cols = scaled_basis(8, 1.0, 11);
  cols[5] = cols[1];  // duplicate column: exactly singular
  BasisState basis;
  basis.configure(GetParam(), 128);
  EXPECT_FALSE(basis.refactorize(column_pointers(cols)));
}

INSTANTIATE_TEST_SUITE_P(Kernels, ScaledBasisRegression,
                         ::testing::Values(BasisKernel::kDenseBinv,
                                           BasisKernel::kEtaFile));

TEST(BasisStateLuAnchorTest, ScaledAndSingularBasesUnderLuAnchor) {
  // A singular basis fails the LU without counting as a reinversion, and
  // the same state factorizes the next good basis cleanly.
  BasisState basis;
  basis.configure(BasisKernel::kEtaFile, 128);

  const auto tiny = scaled_basis(10, 1e-13, 42);
  ASSERT_TRUE(basis.refactorize(column_pointers(tiny)));
  EXPECT_EQ(basis.stats().reinversions, 1);

  auto singular = scaled_basis(8, 1.0, 11);
  singular[5] = singular[1];
  EXPECT_FALSE(basis.refactorize(column_pointers(singular)));
  EXPECT_EQ(basis.stats().reinversions, 1);

  ASSERT_TRUE(basis.refactorize(column_pointers(tiny)));
  EXPECT_EQ(basis.stats().reinversions, 2);
  std::vector<double> x(10, 0.0);
  basis.ftran({{3, 1.0}}, x);
  std::vector<double> rhs(10, 0.0);
  rhs[3] = 1.0;
  EXPECT_LT(ftran_residual(tiny, x, rhs), 1e-6);
}

// The LU anchor and the dense reference kernel represent the same B^-1:
// ftran, btran, pivot_row, and apply_inverse must agree to rounding.
void expect_lu_matches_dense(const std::vector<std::vector<Coefficient>>& cols,
                             std::uint64_t seed) {
  const int dim = static_cast<int>(cols.size());
  const auto ptrs = column_pointers(cols);
  BasisState dense;
  dense.configure(BasisKernel::kDenseBinv, 128);
  ASSERT_TRUE(dense.refactorize(ptrs));
  BasisState lu;
  lu.configure(BasisKernel::kEtaFile, 128);
  ASSERT_TRUE(lu.refactorize(ptrs));
  const auto expect_close = [&](const std::vector<double>& a,
                                const std::vector<double>& b,
                                const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i], b[i], 1e-9) << what << "[" << i << "] m=" << dim;
    }
  };

  util::Rng rng(seed);
  std::vector<Coefficient> a;
  for (int i = 0; i < dim; ++i) {
    if (rng.bernoulli(0.4)) a.push_back({i, rng.uniform(-2.0, 2.0)});
  }
  std::vector<double> wa(static_cast<std::size_t>(dim), 0.0);
  std::vector<double> wb(static_cast<std::size_t>(dim), 0.0);
  dense.ftran(a, wa);
  lu.ftran(a, wb);
  expect_close(wa, wb, "ftran");

  std::vector<double> v(static_cast<std::size_t>(dim));
  for (double& vi : v) vi = rng.uniform(-1.0, 1.0);
  std::vector<double> ya;
  std::vector<double> yb;
  dense.btran(v, ya);
  lu.btran(v, yb);
  expect_close(ya, yb, "btran");

  for (int r = 0; r < dim; ++r) {
    dense.pivot_row(r, ya);
    lu.pivot_row(r, yb);
    expect_close(ya, yb, "pivot_row");
  }

  dense.apply_inverse(v, ya);
  lu.apply_inverse(v, yb);
  expect_close(ya, yb, "apply_inverse");
}

TEST(BasisStateLuAnchorTest, AnchorsAgreeOnSolves) {
  expect_lu_matches_dense(scaled_basis(24, 1.0, 17), 23);
}

TEST(BasisStateLuAnchorTest, SmallBasesAgreeWithDenseKernel) {
  // The LU anchors every basis size, down to a single row.
  for (int m = 1; m <= 16; ++m) {
    const auto seed = static_cast<std::uint64_t>(m);
    expect_lu_matches_dense(scaled_basis(m, 1.0, 300 + seed), 700 + seed);
  }
}

// --- pivot_row(r) == btran(e_r) ----------------------------------------
//
// pivot_row's sparse reverse eta pass sums the same nonzero terms in the
// same order as the dense pass inside btran, so every entry must compare
// equal with == (a skipped exact-zero term may flip only the sign of a
// zero, and -0.0 == 0.0).

// Appends one eta pivoting on row r: w holds `entries` (row, value) pairs
// off the pivot and `pivot` on it.
void append_eta(BasisState& basis, int m, int r, double pivot,
                const std::vector<std::pair<int, double>>& entries) {
  std::vector<double> w(static_cast<std::size_t>(m), 0.0);
  w[static_cast<std::size_t>(r)] = pivot;
  for (const auto& [row, value] : entries) {
    w[static_cast<std::size_t>(row)] = value;
  }
  basis.update(r, w);  // a refactorization request is ignored on purpose
}

// A random eta pivoting on a random row; the entry density is drawn per eta
// from empty (always walked densely) to nearly full.
void append_random_eta(BasisState& basis, int m, util::Rng& rng) {
  static constexpr double kDensities[] = {0.0, 0.05, 0.2, 0.5, 0.9};
  const double density = kDensities[rng.next_below(5)];
  const int r = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(m)));
  std::vector<std::pair<int, double>> entries;
  for (int i = 0; i < m; ++i) {
    if (i != r && rng.bernoulli(density)) {
      entries.emplace_back(i, rng.uniform(-2.0, 2.0));
    }
  }
  const double pivot =
      rng.uniform(0.5, 2.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
  append_eta(basis, m, r, pivot, entries);
}

// Compares pivot_row(r) against btran(e_r) for every row r.
void expect_pivot_rows_match_btran(const BasisState& basis, int m,
                                   const std::string& where) {
  std::vector<double> rho;
  std::vector<double> y;
  std::vector<double> unit(static_cast<std::size_t>(m), 0.0);
  for (int r = 0; r < m; ++r) {
    basis.pivot_row(r, rho);
    unit[static_cast<std::size_t>(r)] = 1.0;
    basis.btran(unit, y);
    unit[static_cast<std::size_t>(r)] = 0.0;
    ASSERT_EQ(rho.size(), y.size()) << where << " r=" << r;
    for (int i = 0; i < m; ++i) {
      ASSERT_TRUE(rho[static_cast<std::size_t>(i)] ==
                  y[static_cast<std::size_t>(i)])
          << where << " r=" << r << " i=" << i << ": "
          << rho[static_cast<std::size_t>(i)]
          << " != " << y[static_cast<std::size_t>(i)];
    }
  }
}

TEST(BasisStateLuAnchorTest, OneAndTwoRowBasesSolveExactly) {
  // B = [-4]: B^-1 = [-0.25]; every operation is exact in binary.
  BasisState one;
  one.configure(BasisKernel::kEtaFile, 128);
  const std::vector<std::vector<Coefficient>> b1 = {{{0, -4.0}}};
  ASSERT_TRUE(one.refactorize(column_pointers(b1)));
  std::vector<double> w(1, 0.0);
  one.ftran({{0, 2.0}}, w);
  EXPECT_EQ(w[0], -0.5);
  std::vector<double> y;
  one.btran({1.0}, y);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_EQ(y[0], -0.25);
  expect_pivot_rows_match_btran(one, 1, "1x1 anchor");

  // B = [[2, 1], [1, 3]] (column-major input), B^-1 = [[3, -1], [-1, 2]] / 5.
  BasisState two;
  two.configure(BasisKernel::kEtaFile, 128);
  const std::vector<std::vector<Coefficient>> b2 = {{{0, 2.0}, {1, 1.0}},
                                                    {{0, 1.0}, {1, 3.0}}};
  ASSERT_TRUE(two.refactorize(column_pointers(b2)));
  const double inv[2][2] = {{0.6, -0.2}, {-0.2, 0.4}};
  for (int c = 0; c < 2; ++c) {
    w.assign(2, 0.0);
    two.ftran({{c, 1.0}}, w);  // column c of B^-1
    std::vector<double> unit(2, 0.0);
    unit[static_cast<std::size_t>(c)] = 1.0;
    two.btran(unit, y);  // row c of B^-1
    for (int r = 0; r < 2; ++r) {
      EXPECT_NEAR(w[static_cast<std::size_t>(r)], inv[r][c], 1e-15)
          << "ftran r=" << r << " c=" << c;
      EXPECT_NEAR(y[static_cast<std::size_t>(r)], inv[c][r], 1e-15)
          << "btran r=" << r << " c=" << c;
    }
  }
  expect_pivot_rows_match_btran(two, 2, "2x2 anchor");
  // One eta on top: pivot_row must still replay btran(e_r) exactly.
  append_eta(two, 2, 1, 1.5, {{0, -0.5}});
  expect_pivot_rows_match_btran(two, 2, "2x2 anchor + eta");
  append_eta(one, 1, 0, 2.0, {});
  expect_pivot_rows_match_btran(one, 1, "1x1 anchor + eta");
}

// Parameterized by the kernel's underlying value; only the eta kernel keeps
// an eta file, so the suite instantiates it alone (under its historical
// LuAnchor name).
class PivotRowVsBtran : public ::testing::TestWithParam<int> {
 protected:
  void configure(BasisState& basis, int refactor_interval) const {
    basis.configure(static_cast<BasisKernel>(GetParam()), refactor_interval);
  }
};

TEST_P(PivotRowVsBtran, RandomEtaFilesOfEveryLength) {
  constexpr int kInterval = 16;
  util::Rng rng(101);
  for (int trial = 0; trial < 12; ++trial) {
    const int m = 6 + static_cast<int>(rng.next_below(40));
    const auto cols = scaled_basis(m, 1.0, 1000 + static_cast<std::uint64_t>(trial));
    BasisState basis;
    configure(basis, kInterval);
    for (int etas = 1; etas <= kInterval; ++etas) {
      ASSERT_TRUE(basis.refactorize(column_pointers(cols)));
      for (int k = 0; k < etas; ++k) append_random_eta(basis, m, rng);
      ASSERT_EQ(basis.eta_length(), etas);
      expect_pivot_rows_match_btran(
          basis, m,
          "trial " + std::to_string(trial) + " etas " + std::to_string(etas));
    }
  }
}

TEST_P(PivotRowVsBtran, SparseRegimeOverWideEtas) {
  // Rows [0, 32) are never pivoted on and never reached from a unit vector
  // of another row, so every eta carries >= 32 entries while at most the 16
  // pivot rows can turn nonzero: the pass from any pivot row stays sparse
  // end to end. Each eta also links one other pivot row, so real terms
  // flow through the lookup.
  constexpr int kM = 48;
  constexpr int kFiller = 32;
  const auto cols = scaled_basis(kM, 1.0, 5);
  BasisState basis;
  configure(basis, 32);
  ASSERT_TRUE(basis.refactorize(column_pointers(cols)));
  util::Rng rng(55);
  for (int k = 0; k < 32; ++k) {
    const int r = kFiller + (k % (kM - kFiller));
    std::vector<std::pair<int, double>> entries;
    for (int i = 0; i < kFiller; ++i) {
      entries.emplace_back(i, rng.uniform(-1.0, 1.0));
    }
    entries.emplace_back(kFiller + ((k + 3) % (kM - kFiller)),
                         rng.uniform(-1.0, 1.0));
    append_eta(basis, kM, r, rng.uniform(0.5, 2.0), entries);
  }
  expect_pivot_rows_match_btran(basis, kM, "sparse regime");
}

TEST_P(PivotRowVsBtran, DenseStepsOverNarrowEtas) {
  // Etas with zero or one off-pivot entry have fewer than twice as many
  // entries as the nonzero list has rows, so each is walked densely. With
  // wide etas on either side, one pass switches sparse -> dense -> sparse.
  constexpr int kM = 20;
  const auto cols = scaled_basis(kM, 1.0, 8);
  util::Rng rng(66);
  const auto append_wide = [&](BasisState& basis) {
    for (int k = 0; k < 4; ++k) {
      std::vector<std::pair<int, double>> entries;
      for (int i = 0; i < kM; ++i) {
        if (i != k) entries.emplace_back(i, rng.uniform(-1.0, 1.0));
      }
      append_eta(basis, kM, k, rng.uniform(0.5, 2.0), entries);
    }
  };
  for (const bool wide : {false, true}) {
    BasisState basis;
    configure(basis, 32);
    ASSERT_TRUE(basis.refactorize(column_pointers(cols)));
    if (wide) append_wide(basis);
    for (int k = 0; k < 12; ++k) {
      std::vector<std::pair<int, double>> entries;
      if (k % 2 == 1) entries.emplace_back((k + 5) % kM, rng.uniform(-1.0, 1.0));
      append_eta(basis, kM, (3 * k) % kM, rng.uniform(0.5, 2.0), entries);
    }
    if (wide) append_wide(basis);
    expect_pivot_rows_match_btran(basis, kM,
                                  wide ? "narrow between wide" : "narrow only");
  }
}

TEST_P(PivotRowVsBtran, SameRowPivotedTwiceAndExactCancellation) {
  // Rows 2, 4 and 7 are pivoted on (2 and 7 repeatedly); every eta is
  // padded with entries on six filler rows that stay zero from e_2, so the
  // pass from e_2 never leaves the sparse regime. Applied newest first:
  //   pivot 2 (1/4):             row 2 = 1 / 4            = 0.25
  //   pivot 7 (1/0.5, -1 @ 2):   row 7 = (0 + 0.25) * 2   = 0.5
  //   pivot 2 (1/1, 0.5 @ 7):    row 2 = 0.25 - 0.5 * 0.5 = 0 exactly
  //   pivot 4 (1/1, -1 @ 7):     row 4 = 0 + 0.5          = 0.5
  //   pivot 7, then pivot 2 again, reading the cancelled row 2 as zero and
  //   turning it nonzero again;
  //   pivot 4 (oldest) reads the revived row 2 once — a cancelled row left
  //   in the list would be re-added and counted twice here.
  constexpr int kM = 12;
  const auto cols = scaled_basis(kM, 1.0, 9);
  BasisState basis;
  configure(basis, 16);
  ASSERT_TRUE(basis.refactorize(column_pointers(cols)));
  util::Rng rng(91);
  const auto padded = [&](std::vector<std::pair<int, double>> entries) {
    for (const int i : {5, 6, 8, 9, 10, 11}) {
      entries.emplace_back(i, rng.uniform(-1.0, 1.0));
    }
    return entries;
  };
  append_eta(basis, kM, 4, 2.0, padded({{2, 1.25}, {7, 0.75}}));
  append_eta(basis, kM, 2, 3.0, padded({{7, 0.25}}));
  append_eta(basis, kM, 7, -1.5, padded({{2, -0.5}, {4, 2.0}}));
  append_eta(basis, kM, 4, 1.0, padded({{2, 3.0}, {7, -1.0}}));
  append_eta(basis, kM, 2, 1.0, padded({{7, 0.5}}));
  append_eta(basis, kM, 7, 0.5, padded({{2, -1.0}}));
  append_eta(basis, kM, 2, 4.0, padded({}));
  expect_pivot_rows_match_btran(basis, kM, "repeat + cancellation");
}

TEST_P(PivotRowVsBtran, NewDimensionDiscardsStaleLookup) {
  // Etas at one m, then a refactorize / reset to a different m and fresh
  // etas: a lookup still indexed by the old m would misplace every entry.
  util::Rng rng(77);
  BasisState basis;
  configure(basis, 16);
  for (const int m : {30, 18, 41}) {
    const auto cols = scaled_basis(m, 1.0, static_cast<std::uint64_t>(m));
    ASSERT_TRUE(basis.refactorize(column_pointers(cols)));
    for (int k = 0; k < 10; ++k) append_random_eta(basis, m, rng);
    expect_pivot_rows_match_btran(basis, m, "m=" + std::to_string(m));
  }
  for (const int m : {25, 9}) {
    std::vector<double> signs(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) signs[static_cast<std::size_t>(i)] = i % 3 == 0 ? -1.0 : 1.0;
    basis.reset_diagonal(m, signs);
    for (int k = 0; k < 10; ++k) append_random_eta(basis, m, rng);
    expect_pivot_rows_match_btran(basis, m, "reset m=" + std::to_string(m));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Anchors, PivotRowVsBtran,
    ::testing::Values(static_cast<int>(BasisKernel::kEtaFile)),
    [](const ::testing::TestParamInfo<int>&) { return std::string("LuAnchor"); });

}  // namespace
}  // namespace prete::lp
