#pragma once

#include <vector>

#include "lp/model.h"
#include "util/arena.h"

namespace prete::lp {

// Markowitz-ordered sparse LU factorization of a basis matrix, the eta
// kernel's anchor at every basis size (see lp::BasisState). An explicit
// inverse costs O(m^2) memory and O(m^3) per reinversion no matter how
// sparse the basis is; the TE bases, from a few dozen rows to the
// thousand-row continental masters, carry a handful of nonzeros per column,
// so Gaussian elimination with a fill-minimizing pivot order keeps the
// factors — and with them the reinversion and the triangular solves — near
// the nonzero count instead of near m^2.
//
// Pivot selection is the classic Markowitz compromise: at each elimination
// step the candidate columns are the few active columns with the smallest
// column counts, and within them the entry minimizing the Markowitz cost
// (row_count - 1) * (col_count - 1) wins, subject to the threshold
// partial-pivoting stability test |a_ij| >= tau * max|a_:j| on the active
// column. Ties break by larger pivot magnitude, then lower row index, so the
// factorization is a pure function of the input — bit-identical at any
// thread count.
//
// The elimination workspace (active rows with fill-in, column adjacency,
// sparse accumulator) lives in a caller-provided util::Arena, reset per
// factorization: after the high-water mark settles, reinversions stop
// touching the heap entirely. The finished factors are flat CSC-style
// arrays owned by this object and reused across factorizations.
class LuFactorization {
 public:
  struct Stats {
    int nnz_input = 0;    // nonzeros of the factorized basis
    int nnz_factors = 0;  // L + U off-diagonal entries + m pivots
  };

  // The rank deficiency of a singular basis: `columns[q]` is a basis column
  // the elimination set aside as dependent on the pivoted ones (an empty
  // column included), `rows[q]` a row it left unpivoted, equally many of
  // each. Replacing each such column by the unit column of one of those rows
  // gives a nonsingular basis.
  struct Deficiency {
    std::vector<int> columns;
    std::vector<int> rows;
  };

  // Factorizes the m x m basis matrix whose column c is *basis_columns[c]
  // (sparse (row, value) entries, zeros skipped). Returns false when the
  // basis is numerically singular — an active column's magnitude collapses
  // relative to its input scale (the relative test; see BasisState). On
  // failure the factorization is unusable until the next successful call.
  // With `deficiency` given, a singular basis is eliminated to the end,
  // setting every collapsed column aside, and `deficiency` reports what was
  // set aside (empty on success).
  bool factorize(
      const std::vector<const std::vector<Coefficient>*>& basis_columns,
      util::Arena& arena, Deficiency* deficiency = nullptr);

  // Trivial factorization of diag(signs) (the all-artificial cold basis).
  void reset_diagonal(int m, const std::vector<double>& signs);

  int dim() const { return m_; }

  // w = B^-1 a for a sparse column a; w is overwritten (resized to m).
  void ftran(const std::vector<Coefficient>& a, std::vector<double>& w) const;

  // x = B^-1 v for a dense column v; x is overwritten (resized to m).
  void ftran_dense(const std::vector<double>& v, std::vector<double>& x) const;

  // y = B^-T v (equivalently y^T = v^T B^-1); y is overwritten.
  void btran(const std::vector<double>& v, std::vector<double>& y) const;

  const Stats& stats() const { return stats_; }

 private:
  // Threshold partial pivoting: a pivot candidate must carry at least this
  // fraction of its active column's largest magnitude. 0.1 is the standard
  // sparse-LU compromise between stability and fill freedom.
  static constexpr double kPivotTol = 0.1;
  // Relative singularity tolerance against the column's input scale.
  static constexpr double kSingularTol = 1e-12;
  // Candidate columns examined per step, in increasing column-count order.
  static constexpr int kSearchColumns = 4;

  int m_ = 0;
  // Step k eliminates row pr_[k] and column pc_[k] with pivot 1/piv_inv_[k].
  std::vector<int> pr_;
  std::vector<int> pc_;
  std::vector<double> piv_inv_;
  // L: per-step multiplier columns, flat (row index, multiplier).
  std::vector<int> l_start_;
  std::vector<int> l_idx_;
  std::vector<double> l_val_;
  // U: per-step off-pivot row entries, flat (column index, value).
  std::vector<int> u_start_;
  std::vector<int> u_idx_;
  std::vector<double> u_val_;

  // Dense scratch for the triangular solves (row space / column space).
  mutable std::vector<double> work_;

  // Factorization-time workspaces, reused across calls (the heavy,
  // fill-dependent row storage itself lives in the caller's arena).
  std::vector<int> row_count_;
  std::vector<int> col_count_;
  std::vector<unsigned char> row_active_;
  std::vector<unsigned char> col_active_;
  std::vector<double> col_scale_;
  std::vector<double> spa_val_;
  std::vector<int> spa_mark_;
  std::vector<int> spa_cols_;

  Stats stats_;
};

}  // namespace prete::lp
