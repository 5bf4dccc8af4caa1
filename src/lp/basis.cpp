#include "lp/basis.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace prete::lp {

void BasisState::configure(BasisKernel kernel, int refactor_interval) {
  kernel_ = kernel;
  refactor_interval_ = refactor_interval;
}

void BasisState::clear_etas() {
  eta_row_.clear();
  eta_pivot_inv_.clear();
  eta_idx_.clear();
  eta_val_.clear();
  eta_pos_.clear();
  eta_start_.assign(1, 0);
}

void BasisState::reset_diagonal(int m, const std::vector<double>& signs) {
  m_ = m;
  if (kernel_ == BasisKernel::kEtaFile) {
    // Trivial LU of diag(signs) — no O(m^2) buffer ever materializes.
    lu_.reset_diagonal(m, signs);
  } else {
    rows_.assign(static_cast<std::size_t>(m) * m, 0.0);
    for (int i = 0; i < m; ++i) {
      rows_[static_cast<std::size_t>(i) * m + i] =
          signs[static_cast<std::size_t>(i)];
    }
  }
  clear_etas();
  pivots_since_refactor_ = 0;
}

bool BasisState::refactorize(
    const std::vector<const std::vector<Coefficient>*>& basis_columns,
    LuFactorization::Deficiency* deficiency) {
  m_ = static_cast<int>(basis_columns.size());
  if (kernel_ == BasisKernel::kEtaFile) {
    if (!lu_.factorize(basis_columns, lu_arena_, deficiency)) return false;
  } else if (!invert_dense(basis_columns)) {
    if (deficiency != nullptr) lu_.factorize(basis_columns, lu_arena_, deficiency);
    return false;
  }
  clear_etas();
  pivots_since_refactor_ = 0;
  ++stats_.reinversions;
  return true;
}

bool BasisState::invert_dense(
    const std::vector<const std::vector<Coefficient>*>& basis_columns) {
  // Gauss-Jordan over the widened (B | I) pair, bit-compatible with the
  // pre-eta kernel. The O(m^2) workspaces are members reused across
  // reinversions (and swapped — not moved — into rows_ at the end), so
  // steady-state reinversion never touches the heap.
  const int m = m_;
  std::vector<double>& dense = dense_scratch_;
  dense.assign(static_cast<std::size_t>(m) * m, 0.0);
  col_scale_.assign(static_cast<std::size_t>(m), 0.0);
  for (int c = 0; c < m; ++c) {
    for (const auto& entry : *basis_columns[static_cast<std::size_t>(c)]) {
      dense[static_cast<std::size_t>(entry.var) * m + c] = entry.value;
      const double mag = std::abs(entry.value);
      if (mag > col_scale_[static_cast<std::size_t>(c)]) {
        col_scale_[static_cast<std::size_t>(c)] = mag;
      }
    }
  }
  std::vector<double>& inv = inv_scratch_;
  inv.assign(static_cast<std::size_t>(m) * m, 0.0);
  for (int i = 0; i < m; ++i) inv[static_cast<std::size_t>(i) * m + i] = 1.0;

  for (int col = 0; col < m; ++col) {
    int pivot = col;
    double best = std::abs(dense[static_cast<std::size_t>(col) * m + col]);
    for (int r = col + 1; r < m; ++r) {
      const double v = std::abs(dense[static_cast<std::size_t>(r) * m + col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    // Relative singularity: the eliminated column's best pivot collapsed
    // against the column's input magnitude. An absolute cutoff here
    // misclassifies badly scaled (but perfectly conditioned) bases — a
    // basis scaled by 1e-13 is not singular.
    if (best <= 1e-12 * col_scale_[static_cast<std::size_t>(col)]) {
      return false;  // numerically singular basis
    }
    if (pivot != col) {
      for (int c = 0; c < m; ++c) {
        std::swap(dense[static_cast<std::size_t>(pivot) * m + c],
                  dense[static_cast<std::size_t>(col) * m + c]);
        std::swap(inv[static_cast<std::size_t>(pivot) * m + c],
                  inv[static_cast<std::size_t>(col) * m + c]);
      }
    }
    const double piv = dense[static_cast<std::size_t>(col) * m + col];
    const double inv_piv = 1.0 / piv;
    for (int c = 0; c < m; ++c) {
      dense[static_cast<std::size_t>(col) * m + c] *= inv_piv;
      inv[static_cast<std::size_t>(col) * m + c] *= inv_piv;
    }
    for (int r = 0; r < m; ++r) {
      if (r == col) continue;
      const double factor = dense[static_cast<std::size_t>(r) * m + col];
      if (factor == 0.0) continue;
      for (int c = 0; c < m; ++c) {
        dense[static_cast<std::size_t>(r) * m + c] -=
            factor * dense[static_cast<std::size_t>(col) * m + c];
        inv[static_cast<std::size_t>(r) * m + c] -=
            factor * inv[static_cast<std::size_t>(col) * m + c];
      }
    }
  }
  rows_.swap(inv);
  return true;
}

void BasisState::ftran(const std::vector<Coefficient>& a,
                       std::vector<double>& w) const {
  if (kernel_ == BasisKernel::kDenseBinv) {
    // Historical operation order: accumulate one sparse entry at a time down
    // the rows of the (strided) dense inverse.
    std::fill(w.begin(), w.end(), 0.0);
    for (const auto& entry : a) {
      const double v = entry.value;
      if (v == 0.0) continue;
      const int c = entry.var;
      for (int r = 0; r < m_; ++r) {
        w[static_cast<std::size_t>(r)] +=
            v * rows_[static_cast<std::size_t>(r) * m_ + c];
      }
    }
    return;
  }
  // Sparse LU triangular solves, then the eta file in forward order.
  lu_.ftran(a, w);
  apply_etas(w);
}

void BasisState::apply_etas(std::vector<double>& w) const {
  const std::size_t etas = eta_row_.size();
  for (std::size_t k = 0; k < etas; ++k) {
    const int r = eta_row_[k];
    const double t = w[static_cast<std::size_t>(r)] * eta_pivot_inv_[k];
    if (t != 0.0) {
      const int begin = eta_start_[k];
      const int end = eta_start_[k + 1];
      for (int p = begin; p < end; ++p) {
        w[static_cast<std::size_t>(eta_idx_[static_cast<std::size_t>(p)])] -=
            eta_val_[static_cast<std::size_t>(p)] * t;
      }
    }
    w[static_cast<std::size_t>(r)] = t;
  }
}

void BasisState::btran(const std::vector<double>& v,
                       std::vector<double>& y) const {
  const std::vector<double>* src = &v;
  if (kernel_ == BasisKernel::kEtaFile && !eta_row_.empty()) {
    scratch_ = v;
    for (std::size_t k = eta_row_.size(); k-- > 0;) {
      const int r = eta_row_[k];
      double s = scratch_[static_cast<std::size_t>(r)];
      const int begin = eta_start_[k];
      const int end = eta_start_[k + 1];
      for (int p = begin; p < end; ++p) {
        s -= scratch_[static_cast<std::size_t>(
                 eta_idx_[static_cast<std::size_t>(p)])] *
             eta_val_[static_cast<std::size_t>(p)];
      }
      scratch_[static_cast<std::size_t>(r)] = s * eta_pivot_inv_[k];
    }
    src = &scratch_;
  }
  btran_anchor(*src, y);
}

void BasisState::btran_anchor(const std::vector<double>& u,
                              std::vector<double>& y) const {
  if (kernel_ == BasisKernel::kEtaFile) {
    lu_.btran(u, y);
    return;
  }
  y.assign(static_cast<std::size_t>(m_), 0.0);
  for (int r = 0; r < m_; ++r) {
    const double vr = u[static_cast<std::size_t>(r)];
    if (vr == 0.0) continue;
    const double* row = rows_.data() + static_cast<std::size_t>(r) * m_;
    for (int c = 0; c < m_; ++c) {
      y[static_cast<std::size_t>(c)] += vr * row[c];
    }
  }
}

void BasisState::pivot_row(int r, std::vector<double>& rho) const {
  if (kernel_ == BasisKernel::kDenseBinv) {
    rho.assign(rows_.begin() + static_cast<std::ptrdiff_t>(r) * m_,
               rows_.begin() + static_cast<std::ptrdiff_t>(r + 1) * m_);
    return;
  }
  // Hypersparse reverse eta pass from e_r. nz_rows_ lists, ascending, the
  // rows of scratch_ that are nonzero; each eta subtracts only their terms,
  // found through its row lookup, in the ascending order btran's dense pass
  // sums them in — so every nonzero result matches btran(e_r) bit for bit
  // (a skipped term is an exact zero and can only flip the sign of a zero).
  scratch_.assign(static_cast<std::size_t>(m_), 0.0);
  scratch_[static_cast<std::size_t>(r)] = 1.0;
  nz_rows_.assign(1, r);
  for (std::size_t k = eta_row_.size(); k-- > 0;) {
    const int begin = eta_start_[k];
    const int end = eta_start_[k + 1];
    const int row = eta_row_[k];
    double& target = scratch_[static_cast<std::size_t>(row)];
    double s = target;
    bool hit = false;
    if (2 * nz_rows_.size() > static_cast<std::size_t>(end - begin)) {
      // Dense step: with the list longer than half this eta's entries,
      // walking the entries is cheaper than probing the lookup per row.
      for (int p = begin; p < end; ++p) {
        s -= scratch_[static_cast<std::size_t>(
                 eta_idx_[static_cast<std::size_t>(p)])] *
             eta_val_[static_cast<std::size_t>(p)];
      }
      hit = end > begin;
    } else {
      const int* pos = eta_pos_.data() + k * static_cast<std::size_t>(m_);
      for (const int i : nz_rows_) {
        const int p = pos[i];
        if (p < 0) continue;
        s -= scratch_[static_cast<std::size_t>(i)] *
             eta_val_[static_cast<std::size_t>(p)];
        hit = true;
      }
    }
    if (!hit && s == 0.0) continue;  // the eta leaves e_r's image untouched
    const bool was_nonzero = target != 0.0;
    target = s * eta_pivot_inv_[k];
    if (was_nonzero == (target != 0.0)) continue;
    const auto at = std::lower_bound(nz_rows_.begin(), nz_rows_.end(), row);
    if (was_nonzero) {
      nz_rows_.erase(at);  // exact cancellation: drop the row from the list
    } else {
      nz_rows_.insert(at, row);
    }
  }
  btran_anchor(scratch_, rho);
}

void BasisState::apply_inverse(const std::vector<double>& v,
                               std::vector<double>& x) const {
  if (kernel_ == BasisKernel::kEtaFile) {
    lu_.ftran_dense(v, x);
    apply_etas(x);
    return;
  }
  x.assign(static_cast<std::size_t>(m_), 0.0);
  for (int r = 0; r < m_; ++r) {
    const double* row = rows_.data() + static_cast<std::size_t>(r) * m_;
    double acc = 0.0;
    for (int c = 0; c < m_; ++c) {
      acc += row[c] * v[static_cast<std::size_t>(c)];
    }
    x[static_cast<std::size_t>(r)] = acc;
  }
}

bool BasisState::update(int r, const std::vector<double>& w) {
  ++pivots_since_refactor_;
  if (kernel_ == BasisKernel::kDenseBinv) {
    const double piv = w[static_cast<std::size_t>(r)];
    const double inv_piv = 1.0 / piv;
    double* pivot_row_data = rows_.data() + static_cast<std::size_t>(r) * m_;
    for (int c = 0; c < m_; ++c) pivot_row_data[c] *= inv_piv;
    for (int row = 0; row < m_; ++row) {
      if (row == r) continue;
      const double factor = w[static_cast<std::size_t>(row)];
      if (factor == 0.0) continue;
      double* dst = rows_.data() + static_cast<std::size_t>(row) * m_;
      for (int c = 0; c < m_; ++c) {
        dst[c] -= factor * pivot_row_data[c];
      }
    }
    return pivots_since_refactor_ >= refactor_interval_;
  }

  // Eta append: record w as a pivot column of the product form.
  // The row lookup (position of each row's entry, -1 where absent) is
  // appended alongside, one int per row, for pivot_row's sparse pass.
  const double piv = w[static_cast<std::size_t>(r)];
  eta_row_.push_back(r);
  eta_pivot_inv_.push_back(1.0 / piv);
  const std::size_t lookup = eta_pos_.size();
  eta_pos_.resize(lookup + static_cast<std::size_t>(m_), -1);
  double max_abs = 0.0;
  for (int i = 0; i < m_; ++i) {
    if (i == r) continue;
    const double v = w[static_cast<std::size_t>(i)];
    if (v == 0.0) continue;
    eta_pos_[lookup + static_cast<std::size_t>(i)] =
        static_cast<int>(eta_idx_.size());
    eta_idx_.push_back(i);
    eta_val_.push_back(v);
    const double mag = std::abs(v);
    if (mag > max_abs) max_abs = mag;
  }
  eta_start_.push_back(static_cast<int>(eta_idx_.size()));
  stats_.eta_peak = std::max(stats_.eta_peak, static_cast<int>(eta_row_.size()));
  const bool drift = max_abs > kDriftThreshold * std::abs(piv);
  if (drift) ++stats_.drift_reinversions;
  return drift || pivots_since_refactor_ >= refactor_interval_;
}

}  // namespace prete::lp
