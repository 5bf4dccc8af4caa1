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
// kEtaFile is the product-form-of-inverse kernel: the dense inverse is only
// materialized at reinversion points (the "anchor"), and the pivots since
// then live as an eta file — one sparse pivot column per pivot, applied in
// sequence during FTRAN and in reverse during BTRAN. A pivot costs
// O(nnz(w)) instead of O(m^2), and the anchor is rebuilt by a single-pass
// in-place Gauss-Jordan (half the arithmetic of the historical widened
// (B | I) sweep — reinversion dominates TWAN-scale masters, so this is
// where the kernel banks most of its win). The eta file is collapsed back
// into a fresh anchor every `refactor_interval` pivots, or early when an
// appended eta's magnitude spread signals numerical drift of the product
// form.
//
// The eta kernel's anchor itself has two representations, auto-selected by
// basis dimension at every refactorize/reset: below `lu_threshold` rows the
// explicit dense inverse above; at or above it a Markowitz-ordered sparse LU
// factorization (lp::LuFactorization) whose memory and reinversion cost
// track the basis nonzero count instead of m^2 — the regime of the
// thousand-row continental masters. Both anchors feed the same eta file.
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
// The dense-kernel code paths reproduce the pre-eta kernel's floating-point
// operation order exactly, so kDenseBinv solves are bit-compatible with the
// historical solver and serve as the reference in kernel-equivalence tests
// and the bench gate.
class BasisState {
 public:
  struct Stats {
    int reinversions = 0;  // anchor refactorizations performed
    int eta_peak = 0;      // longest eta file reached between reinversions
    int drift_reinversions = 0;  // reinversions forced by the drift trigger
    int lu_reinversions = 0;     // reinversions that built a sparse LU anchor
  };

  // `refactor_interval` <= 0 refactorizes after every pivot. `lu_threshold`
  // is the basis dimension at or above which the eta kernel's anchor
  // switches from the explicit dense inverse to the sparse LU (tests force a
  // side with 1 / a huge value; the default is calibrated by the lu_anchor
  // bench phase).
  void configure(BasisKernel kernel, int refactor_interval,
                 int lu_threshold = 512);

  BasisKernel kernel() const { return kernel_; }

  // True when the current anchor is the sparse LU factorization.
  bool anchor_is_lu() const { return anchor_is_lu_; }

  // Resets to the inverse of a +-1 diagonal basis (the all-artificial cold
  // start): rows_ = diag(signs). Clears the eta file.
  void reset_diagonal(int m, const std::vector<double>& signs);

  // Rebuilds the dense anchor inverse from the current basis columns —
  // the historical widened (B | I) Gauss-Jordan for the dense kernel, the
  // single-pass in-place variant for the eta kernel (same pivot sequence,
  // half the arithmetic) — and clears the eta file. `basis_columns[r]` is
  // the sparse column basic in row r. Returns false on a numerically
  // singular basis (state then undefined until the next successful
  // refactorize or reset).
  bool refactorize(const std::vector<const std::vector<Coefficient>*>& basis_columns);

  // Restarts the periodic-reinversion pivot counter (the engine calls this
  // at the start of each simplex phase, mirroring the historical kernel's
  // per-phase refactor cadence).
  void reset_refactor_counter() { pivots_since_refactor_ = 0; }

  // w = B^-1 a for a sparse column a. w is overwritten (size m).
  void ftran(const std::vector<Coefficient>& a, std::vector<double>& w) const;

  // y = v^T B^-1 for a dense row vector v. Zero entries of v skip their
  // anchor row; the eta transposes are applied in reverse order first.
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
  // y = u^T A^-1 for the anchor A (the LU or the dense inverse's rows).
  void btran_anchor(const std::vector<double>& u, std::vector<double>& y) const;

  int m_ = 0;
  BasisKernel kernel_ = BasisKernel::kEtaFile;
  int refactor_interval_ = 128;
  int lu_threshold_ = 512;
  int pivots_since_refactor_ = 0;
  bool anchor_is_lu_ = false;

  // Sparse LU anchor (eta kernel, m >= lu_threshold_) and the arena backing
  // its elimination workspace across reinversions.
  LuFactorization lu_;
  util::Arena lu_arena_;

  // Dense anchor inverse, row-major (BTRAN reads rows contiguously).
  std::vector<double> rows_;
  // Column-major mirror of the anchor, eta kernel only (FTRAN reads columns
  // contiguously; the dense kernel keeps its historical strided access).
  std::vector<double> cols_;
  // Row swap chosen at each in-place Gauss-Jordan step (eta reinversion
  // only), undone as column swaps once the sweep finishes.
  std::vector<int> pivot_rows_;

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

  // Member scratch buffers for the dense refactorization paths, reused
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
