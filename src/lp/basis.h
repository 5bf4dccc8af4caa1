#pragma once

#include <cstdint>
#include <vector>

#include "lp/lu.h"
#include "lp/model.h"
#include "util/arena.h"

namespace prete::lp {

// Representation of the basis inverse maintained by the revised-simplex
// kernel.
//
// kDenseBinv is the original kernel: an explicit dense m x m inverse updated
// by Gauss-Jordan elimination at every pivot — O(m^2) per pivot on top of
// the O(m^2) BTRAN/FTRAN passes, which dominates everything on TWAN-scale
// masters.
//
// kEtaFile is the product-form-of-inverse kernel: the inverse is only
// factorized at reinversion points (the "anchor"), and the pivots since
// then live as an eta file — one sparse pivot column per pivot, applied in
// sequence during FTRAN and in reverse during BTRAN. A pivot costs
// O(nnz(w)) instead of O(m^2). The anchor is a Markowitz-ordered sparse LU
// factorization (lp::LuFactorization) at every basis size: its memory and
// reinversion cost track the basis nonzero count instead of m^2 / m^3. The
// eta file is collapsed back into a fresh anchor every `refactor_interval`
// pivots, or early when an appended eta's magnitude spread signals
// numerical drift of the product form.
//
// Each eta also carries a row lookup: one int per basis row giving the
// position of that row's entry in the eta (-1 where the row is absent),
// written eta-major into one contiguous buffer that is reused across
// reinversions. It lets the devex pivot row e_r^T B^-1 run hypersparse:
// e_r stays sparse through most of the reverse eta pass, so pivot_row
// probes each eta only at the rows that are nonzero so far instead of
// walking every entry of the eta file (see pivot_row).
enum class BasisKernel : std::uint8_t { kDenseBinv, kEtaFile };

// The basis-inverse state shared by both kernels. One instance serves one
// solve; nothing here is thread-safe (concurrent solves each own their
// engine, and with it their BasisState).
//
// The dense-kernel code paths keep the pre-eta kernel's floating-point
// operation order per pivot and per reinversion, so kDenseBinv is the
// bit-stable reference that the kernel-equivalence tests and the bench
// gates compare the LU-anchored eta kernel against.
class BasisState {
 public:
  struct Stats {
    int reinversions = 0;  // anchor refactorizations performed
    int eta_peak = 0;      // longest eta file reached between reinversions
    int drift_reinversions = 0;  // reinversions forced by the drift trigger
  };

  // `refactor_interval` <= 0 refactorizes after every pivot.
  void configure(BasisKernel kernel, int refactor_interval);

  BasisKernel kernel() const { return kernel_; }

  // Resets to the inverse of a +-1 diagonal basis (the all-artificial cold
  // start) and clears the eta file.
  void reset_diagonal(int m, const std::vector<double>& signs);

  // Rebuilds the anchor from the current basis columns — the sparse LU for
  // the eta kernel, the historical widened (B | I) Gauss-Jordan inverse for
  // the dense kernel — and clears the eta file. `basis_columns[r]` is the
  // sparse column basic in row r. Returns false on a numerically singular
  // basis (state then undefined until the next successful refactorize or
  // reset). The periodic interval counts pivots since the last successful
  // refactorize or reset, across simplex phases. With `deficiency` given, a
  // singular basis's dependent columns and unpivoted rows are reported there
  // (see LuFactorization::factorize); both kernels report through the LU.
  bool refactorize(
      const std::vector<const std::vector<Coefficient>*>& basis_columns,
      LuFactorization::Deficiency* deficiency = nullptr);

  // w = B^-1 a for a sparse column a. w is overwritten (size m).
  void ftran(const std::vector<Coefficient>& a, std::vector<double>& w) const;

  // y = v^T B^-1 for a dense row vector v: the eta transposes in reverse
  // order, then the anchor (LU triangular solves, or the dense inverse's
  // rows, skipping zero entries of v).
  void btran(const std::vector<double>& v, std::vector<double>& y) const;

  // rho = e_r^T B^-1, row r of the current inverse — the devex pivot row.
  // Under the eta kernel the reverse eta pass is hypersparse: it keeps the
  // ascending list of nonzero rows and, per eta, subtracts only their terms
  // (found through the eta's row lookup) in the dense pass's order, so each
  // nonzero entry is bit-identical to btran(e_r) and an entry can differ
  // only in the sign of a zero. An eta that touches none of those rows
  // while its pivot row's entry is zero is skipped; an eta with fewer than
  // twice as many entries as the list has rows is walked densely instead.
  void pivot_row(int r, std::vector<double>& rho) const;

  // x = B^-1 v for a dense column vector v (basic-value recomputation).
  void apply_inverse(const std::vector<double>& v, std::vector<double>& x) const;

  // Accounts the pivot whose FTRANed entering column is w, landing in basis
  // row r. The dense kernel performs the O(m^2) elimination; the eta kernel
  // appends a pivot column in O(nnz(w)). Returns true when the caller must
  // refactorize before the next iteration: the periodic interval was
  // reached, or (eta kernel) the appended column's magnitude spread
  // |w_i| / |w_r| crossed the drift threshold — the forward-error growth of
  // the product form is proportional to that ratio, so a large spread means
  // the represented inverse is drifting from the true one.
  bool update(int r, const std::vector<double>& w);

  const Stats& stats() const { return stats_; }

  // Current eta-file length (pivot columns held since the last anchor).
  int eta_length() const { return static_cast<int>(eta_row_.size()); }

 private:
  // Magnitude spread beyond which an appended eta forces early reinversion.
  static constexpr double kDriftThreshold = 1e7;

  void clear_etas();
  // The dense kernel's reinversion into rows_; false on a singular basis.
  bool invert_dense(
      const std::vector<const std::vector<Coefficient>*>& basis_columns);
  // w = E_k ... E_1 w: the eta file in forward order (FTRAN's second half).
  void apply_etas(std::vector<double>& w) const;
  // y = u^T A^-1 for the anchor A (the LU or the dense inverse's rows).
  void btran_anchor(const std::vector<double>& u, std::vector<double>& y) const;

  int m_ = 0;
  BasisKernel kernel_ = BasisKernel::kEtaFile;
  int refactor_interval_ = 128;
  int pivots_since_refactor_ = 0;

  // Sparse LU anchor (eta kernel) and the arena backing its elimination
  // workspace across reinversions.
  LuFactorization lu_;
  util::Arena lu_arena_;

  // Dense kernel only: the explicit inverse, row-major.
  std::vector<double> rows_;

  // Flat eta file: eta k pivots on row eta_row_[k] with 1/pivot
  // eta_pivot_inv_[k]; its off-pivot nonzeros live in
  // eta_idx_/eta_val_[eta_start_[k] .. eta_start_[k + 1]).
  std::vector<int> eta_row_;
  std::vector<double> eta_pivot_inv_;
  std::vector<int> eta_start_;
  std::vector<int> eta_idx_;
  std::vector<double> eta_val_;
  // Row lookup, eta-major: eta_pos_[k * m_ + i] is the index p into
  // eta_idx_/eta_val_ of row i's entry in eta k, or -1. Holds one m_-row
  // per eta in the file; its capacity survives reinversions.
  std::vector<int> eta_pos_;

  // Scratch for BTRAN-style passes that transform a copy of the input.
  mutable std::vector<double> scratch_;
  // Ascending nonzero rows of scratch_ during pivot_row's sparse pass.
  mutable std::vector<int> nz_rows_;

  // Member scratch buffers for the dense kernel's refactorization, reused
  // across reinversions (swapped with rows_, never moved from — a move
  // would steal the buffer back out and reintroduce the per-reinversion
  // O(m^2) allocation this exists to remove).
  std::vector<double> dense_scratch_;
  std::vector<double> inv_scratch_;
  // Per-column max input magnitude of the basis being refactorized — the
  // reference scale for the relative singularity test.
  std::vector<double> col_scale_;

  Stats stats_;
};

}  // namespace prete::lp
