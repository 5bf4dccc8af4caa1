#include "lp/lu.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace prete::lp {

namespace {

// One nonzero of an active row during elimination.
struct RowEntry {
  int col;
  double val;
};

// An active row: an arena-allocated flat array, replaced wholesale when the
// row is updated (the abandoned block is reclaimed at the next arena reset).
struct RowRef {
  RowEntry* data = nullptr;
  int len = 0;
};

}  // namespace

void LuFactorization::reset_diagonal(int m, const std::vector<double>& signs) {
  m_ = m;
  pr_.resize(static_cast<std::size_t>(m));
  pc_.resize(static_cast<std::size_t>(m));
  piv_inv_.resize(static_cast<std::size_t>(m));
  for (int k = 0; k < m; ++k) {
    pr_[static_cast<std::size_t>(k)] = k;
    pc_[static_cast<std::size_t>(k)] = k;
    // signs entries are +-1, their own inverse.
    piv_inv_[static_cast<std::size_t>(k)] = signs[static_cast<std::size_t>(k)];
  }
  l_start_.assign(static_cast<std::size_t>(m) + 1, 0);
  l_idx_.clear();
  l_val_.clear();
  u_start_.assign(static_cast<std::size_t>(m) + 1, 0);
  u_idx_.clear();
  u_val_.clear();
  stats_.nnz_input = m;
  stats_.nnz_factors = m;
}

bool LuFactorization::factorize(
    const std::vector<const std::vector<Coefficient>*>& basis_columns,
    util::Arena& arena, Deficiency* deficiency) {
  const int m = static_cast<int>(basis_columns.size());
  m_ = m;
  arena.reset();
  if (deficiency != nullptr) {
    deficiency->columns.clear();
    deficiency->rows.clear();
  }

  pr_.clear();
  pc_.clear();
  piv_inv_.clear();
  pr_.reserve(static_cast<std::size_t>(m));
  pc_.reserve(static_cast<std::size_t>(m));
  piv_inv_.reserve(static_cast<std::size_t>(m));
  l_start_.assign(1, 0);
  l_idx_.clear();
  l_val_.clear();
  u_start_.assign(1, 0);
  u_idx_.clear();
  u_val_.clear();

  // Build the row-major active matrix and the column adjacency from the
  // sparse columns. Column lists only ever grow (fill-in appends); entries
  // of eliminated rows are skipped via row_active_ rather than removed.
  row_count_.assign(static_cast<std::size_t>(m), 0);
  col_count_.assign(static_cast<std::size_t>(m), 0);
  row_active_.assign(static_cast<std::size_t>(m), 1);
  col_active_.assign(static_cast<std::size_t>(m), 1);
  col_scale_.assign(static_cast<std::size_t>(m), 0.0);

  int nnz = 0;
  for (int c = 0; c < m; ++c) {
    for (const Coefficient& entry : *basis_columns[static_cast<std::size_t>(c)]) {
      if (entry.value == 0.0) continue;
      ++row_count_[static_cast<std::size_t>(entry.var)];
      ++nnz;
      const double mag = std::abs(entry.value);
      if (mag > col_scale_[static_cast<std::size_t>(c)]) {
        col_scale_[static_cast<std::size_t>(c)] = mag;
      }
    }
  }
  stats_.nnz_input = nnz;

  // A zero row is never pivoted and a zero column never chosen: both make
  // the basis singular, and a reported deficiency lists them.
  RowRef* rows = arena.allocate_array<RowRef>(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    if (row_count_[static_cast<std::size_t>(i)] == 0 && deficiency == nullptr) {
      return false;
    }
    rows[i].data = arena.allocate_array<RowEntry>(
        static_cast<std::size_t>(row_count_[static_cast<std::size_t>(i)]));
    rows[i].len = 0;
  }
  std::vector<util::ArenaVector<int>> col_rows;
  col_rows.reserve(static_cast<std::size_t>(m));
  int set_aside = 0;  // dependent columns dropped from the elimination
  for (int c = 0; c < m; ++c) {
    if (col_scale_[static_cast<std::size_t>(c)] == 0.0) {
      if (deficiency == nullptr) return false;
      col_active_[static_cast<std::size_t>(c)] = 0;
      deficiency->columns.push_back(c);
      ++set_aside;
    }
    col_rows.emplace_back(arena);
  }
  for (int c = 0; c < m; ++c) {
    for (const Coefficient& entry : *basis_columns[static_cast<std::size_t>(c)]) {
      if (entry.value == 0.0) continue;
      RowRef& row = rows[entry.var];
      row.data[row.len++] = {c, entry.value};
      col_rows[static_cast<std::size_t>(c)].push_back(entry.var);
      ++col_count_[static_cast<std::size_t>(c)];
    }
  }

  spa_val_.assign(static_cast<std::size_t>(m), 0.0);
  spa_mark_.assign(static_cast<std::size_t>(m), 0);
  int stamp = 0;

  // Looks up the value of (row i, column c); the row is guaranteed to hold c.
  const auto row_value = [&](int i, int c) -> double {
    const RowRef& row = rows[i];
    for (int p = 0; p < row.len; ++p) {
      if (row.data[p].col == c) return row.data[p].val;
    }
    return 0.0;  // unreachable for consistent adjacency
  };

  int candidates[kSearchColumns];

  while (static_cast<int>(pr_.size()) + set_aside < m) {
    // Candidate columns: the kSearchColumns active columns with the smallest
    // (col_count, index), by insertion sort over one linear scan.
    int num_candidates = 0;
    for (int c = 0; c < m; ++c) {
      if (!col_active_[static_cast<std::size_t>(c)]) continue;
      int pos = num_candidates;
      while (pos > 0 &&
             col_count_[static_cast<std::size_t>(candidates[pos - 1])] >
                 col_count_[static_cast<std::size_t>(c)]) {
        --pos;
      }
      if (pos >= kSearchColumns) continue;
      const int last = std::min(num_candidates, kSearchColumns - 1);
      for (int q = last; q > pos; --q) candidates[q] = candidates[q - 1];
      candidates[pos] = c;
      if (num_candidates < kSearchColumns) ++num_candidates;
    }
    if (num_candidates == 0) return false;

    // Markowitz pick with threshold partial pivoting.
    long long best_cost = std::numeric_limits<long long>::max();
    double best_mag = 0.0;
    int best_row = -1;
    int best_col = -1;
    double best_val = 0.0;
    int collapsed = -1;
    for (int cand = 0; cand < num_candidates; ++cand) {
      const int c = candidates[cand];
      // Early exit: candidates are count-sorted, and (cc - 1) alone already
      // bounds the achievable cost from below (row counts are >= 1).
      const long long cc =
          static_cast<long long>(col_count_[static_cast<std::size_t>(c)]);
      if (best_row >= 0 && (cc - 1) * 0 >= best_cost) break;
      double colmax = 0.0;
      const util::ArenaVector<int>& adj = col_rows[static_cast<std::size_t>(c)];
      for (std::size_t p = 0; p < adj.size(); ++p) {
        const int i = adj[p];
        if (!row_active_[static_cast<std::size_t>(i)]) continue;
        const double mag = std::abs(row_value(i, c));
        if (mag > colmax) colmax = mag;
      }
      // Relative singularity: the active column's magnitude collapsed
      // against its input scale — elimination cancelled it away.
      if (colmax <= kSingularTol * col_scale_[static_cast<std::size_t>(c)]) {
        collapsed = c;
        break;
      }
      const double admit = kPivotTol * colmax;
      for (std::size_t p = 0; p < adj.size(); ++p) {
        const int i = adj[p];
        if (!row_active_[static_cast<std::size_t>(i)]) continue;
        const double val = row_value(i, c);
        const double mag = std::abs(val);
        if (mag < admit) continue;  // stability threshold
        const long long cost =
            static_cast<long long>(row_count_[static_cast<std::size_t>(i)] - 1) *
            (cc - 1);
        if (cost < best_cost ||
            (cost == best_cost &&
             (mag > best_mag || (mag == best_mag && i < best_row)))) {
          best_cost = cost;
          best_mag = mag;
          best_row = i;
          best_col = c;
          best_val = val;
        }
      }
    }
    if (collapsed >= 0) {
      if (deficiency == nullptr) return false;
      // Set the dependent column aside and pick again.
      col_active_[static_cast<std::size_t>(collapsed)] = 0;
      deficiency->columns.push_back(collapsed);
      ++set_aside;
      continue;
    }
    if (best_row < 0) return false;

    const int prow = best_row;
    const int pcol = best_col;
    const double pivot = best_val;
    pr_.push_back(prow);
    pc_.push_back(pcol);
    piv_inv_.push_back(1.0 / pivot);

    // Emit the U row (the pivot row's off-pivot entries) before updates.
    const RowRef pivot_row = rows[prow];
    const int u_begin = static_cast<int>(u_idx_.size());
    for (int p = 0; p < pivot_row.len; ++p) {
      if (pivot_row.data[p].col == pcol) continue;
      u_idx_.push_back(pivot_row.data[p].col);
      u_val_.push_back(pivot_row.data[p].val);
    }
    const int u_end = static_cast<int>(u_idx_.size());
    u_start_.push_back(u_end);

    // Retire the pivot row and column from the active submatrix.
    row_active_[static_cast<std::size_t>(prow)] = 0;
    for (int p = 0; p < pivot_row.len; ++p) {
      --col_count_[static_cast<std::size_t>(pivot_row.data[p].col)];
    }
    col_active_[static_cast<std::size_t>(pcol)] = 0;

    // Eliminate: every remaining row with a nonzero in the pivot column is
    // updated through the sparse accumulator and rewritten as a fresh arena
    // block (fill-in appends in pivot-row order — deterministic).
    const util::ArenaVector<int>& pivot_adj =
        col_rows[static_cast<std::size_t>(pcol)];
    for (std::size_t p = 0; p < pivot_adj.size(); ++p) {
      const int i = pivot_adj[p];
      if (!row_active_[static_cast<std::size_t>(i)]) continue;
      const RowRef old_row = rows[i];
      const double mult = row_value(i, pcol) / pivot;
      l_idx_.push_back(i);
      l_val_.push_back(mult);

      ++stamp;
      spa_cols_.clear();
      for (int q = 0; q < old_row.len; ++q) {
        const int c = old_row.data[q].col;
        if (c == pcol) continue;
        spa_mark_[static_cast<std::size_t>(c)] = stamp;
        spa_val_[static_cast<std::size_t>(c)] = old_row.data[q].val;
        spa_cols_.push_back(c);
      }
      for (int q = u_begin; q < u_end; ++q) {
        const int c = u_idx_[static_cast<std::size_t>(q)];
        const double delta = mult * u_val_[static_cast<std::size_t>(q)];
        if (spa_mark_[static_cast<std::size_t>(c)] == stamp) {
          spa_val_[static_cast<std::size_t>(c)] -= delta;
        } else {
          // Fill-in: numerically-exact zeros are kept, so the pattern (and
          // with it the counts and the pivot sequence) never depends on
          // cancellation.
          spa_mark_[static_cast<std::size_t>(c)] = stamp;
          spa_val_[static_cast<std::size_t>(c)] = -delta;
          spa_cols_.push_back(c);
          col_rows[static_cast<std::size_t>(c)].push_back(i);
          ++col_count_[static_cast<std::size_t>(c)];
        }
      }
      const int new_len = static_cast<int>(spa_cols_.size());
      RowEntry* fresh =
          arena.allocate_array<RowEntry>(static_cast<std::size_t>(new_len));
      for (int q = 0; q < new_len; ++q) {
        const int c = spa_cols_[static_cast<std::size_t>(q)];
        fresh[q] = {c, spa_val_[static_cast<std::size_t>(c)]};
      }
      rows[i] = {fresh, new_len};
      row_count_[static_cast<std::size_t>(i)] = new_len;
    }
    l_start_.push_back(static_cast<int>(l_idx_.size()));
  }

  if (set_aside > 0) {
    for (int i = 0; i < m; ++i) {
      if (row_active_[static_cast<std::size_t>(i)]) deficiency->rows.push_back(i);
    }
    return false;
  }
  stats_.nnz_factors =
      static_cast<int>(l_idx_.size() + u_idx_.size()) + m;
  return true;
}

void LuFactorization::ftran(const std::vector<Coefficient>& a,
                            std::vector<double>& w) const {
  work_.assign(static_cast<std::size_t>(m_), 0.0);
  for (const Coefficient& entry : a) {
    work_[static_cast<std::size_t>(entry.var)] = entry.value;
  }
  // Forward pass (L): replay the elimination's row operations on the rhs.
  // Zero pivot-row values skip their scatter, so a sparse rhs stays sparse
  // through the triangular solve.
  const std::size_t steps = pr_.size();
  for (std::size_t k = 0; k < steps; ++k) {
    const double t = work_[static_cast<std::size_t>(pr_[k])];
    if (t == 0.0) continue;
    const int begin = l_start_[k];
    const int end = l_start_[k + 1];
    for (int p = begin; p < end; ++p) {
      work_[static_cast<std::size_t>(l_idx_[static_cast<std::size_t>(p)])] -=
          l_val_[static_cast<std::size_t>(p)] * t;
    }
  }
  // Back substitution (U), in reverse pivot order: every off-pivot column of
  // U row k is a later pivot column, already solved.
  w.assign(static_cast<std::size_t>(m_), 0.0);
  for (std::size_t k = steps; k-- > 0;) {
    double sum = work_[static_cast<std::size_t>(pr_[k])];
    const int begin = u_start_[k];
    const int end = u_start_[k + 1];
    for (int p = begin; p < end; ++p) {
      const double xc = w[static_cast<std::size_t>(u_idx_[static_cast<std::size_t>(p)])];
      if (xc != 0.0) sum -= u_val_[static_cast<std::size_t>(p)] * xc;
    }
    w[static_cast<std::size_t>(pc_[k])] = sum * piv_inv_[k];
  }
}

void LuFactorization::ftran_dense(const std::vector<double>& v,
                                  std::vector<double>& x) const {
  work_ = v;
  const std::size_t steps = pr_.size();
  for (std::size_t k = 0; k < steps; ++k) {
    const double t = work_[static_cast<std::size_t>(pr_[k])];
    if (t == 0.0) continue;
    const int begin = l_start_[k];
    const int end = l_start_[k + 1];
    for (int p = begin; p < end; ++p) {
      work_[static_cast<std::size_t>(l_idx_[static_cast<std::size_t>(p)])] -=
          l_val_[static_cast<std::size_t>(p)] * t;
    }
  }
  x.assign(static_cast<std::size_t>(m_), 0.0);
  for (std::size_t k = steps; k-- > 0;) {
    double sum = work_[static_cast<std::size_t>(pr_[k])];
    const int begin = u_start_[k];
    const int end = u_start_[k + 1];
    for (int p = begin; p < end; ++p) {
      const double xc = x[static_cast<std::size_t>(u_idx_[static_cast<std::size_t>(p)])];
      if (xc != 0.0) sum -= u_val_[static_cast<std::size_t>(p)] * xc;
    }
    x[static_cast<std::size_t>(pc_[k])] = sum * piv_inv_[k];
  }
}

void LuFactorization::btran(const std::vector<double>& v,
                            std::vector<double>& y) const {
  // B^-T = L^-T U^-T. First U^-T, consuming v (indexed by basis column) in
  // pivot order and producing intermediate values in row space; then L^-T in
  // reverse order, replaying the elimination's row operations transposed.
  work_ = v;
  y.assign(static_cast<std::size_t>(m_), 0.0);
  const std::size_t steps = pr_.size();
  for (std::size_t k = 0; k < steps; ++k) {
    const double z = work_[static_cast<std::size_t>(pc_[k])] * piv_inv_[k];
    y[static_cast<std::size_t>(pr_[k])] = z;
    if (z == 0.0) continue;
    const int begin = u_start_[k];
    const int end = u_start_[k + 1];
    for (int p = begin; p < end; ++p) {
      work_[static_cast<std::size_t>(u_idx_[static_cast<std::size_t>(p)])] -=
          u_val_[static_cast<std::size_t>(p)] * z;
    }
  }
  for (std::size_t k = steps; k-- > 0;) {
    double s = y[static_cast<std::size_t>(pr_[k])];
    const int begin = l_start_[k];
    const int end = l_start_[k + 1];
    for (int p = begin; p < end; ++p) {
      s -= l_val_[static_cast<std::size_t>(p)] *
           y[static_cast<std::size_t>(l_idx_[static_cast<std::size_t>(p)])];
    }
    y[static_cast<std::size_t>(pr_[k])] = s;
  }
}

}  // namespace prete::lp
