#pragma once
/// \file eigenvectors.hpp
/// \brief Leading eigenvectors of the distributed Gram matrix (paper Alg. 5)
/// and the eps^2 ||X||^2 / N tail criterion for rank selection (eq. 3).
///
/// The Gram block columns are all-gathered over the mode's processor column
/// so every rank holds the full (small) Jn x Jn matrix, then the symmetric
/// eigensolver runs redundantly on every rank — identical, deterministic
/// results with no further communication, exactly the paper's strategy of
/// preferring redundant computation over a parallel eigensolver.

#include <span>
#include <vector>

#include "dist/gram.hpp"

namespace ptucker::dist {

/// How the factor rank is chosen from the Gram spectrum.
struct RankSelection {
  /// Keep exactly \p r columns (clamped to the mode extent).
  [[nodiscard]] static RankSelection fixed_rank(std::size_t r) {
    RankSelection s;
    s.is_fixed = true;
    s.fixed = r;
    return s;
  }

  /// Smallest rank whose truncated eigenvalue tail is <= \p tail
  /// (the per-mode threshold eps^2 ||X||^2 / N of Alg. 1).
  [[nodiscard]] static RankSelection threshold(double tail) {
    RankSelection s;
    s.is_fixed = false;
    s.tail = tail;
    return s;
  }

  bool is_fixed = false;
  std::size_t fixed = 0;
  double tail = 0.0;

  /// Resolve against a descending spectrum.
  [[nodiscard]] std::size_t resolve(std::span<const double> spectrum) const;
};

/// Smallest rank r >= 1 with sum_{i >= r} max(0, lambda_i) <= threshold;
/// the full length if even dropping the last eigenvalue exceeds it.
[[nodiscard]] std::size_t select_rank_by_tail(
    std::span<const double> eigenvalues_desc, double tail_threshold);

/// Factor matrix result: U (In x rank, orthonormal, sign-canonicalized) and
/// the full descending Gram spectrum (length In) it was selected from.
struct FactorResult {
  tensor::Matrix u;
  std::vector<double> eigenvalues;
  std::size_t rank = 0;
};

/// Collective over the mode's processor column: assemble the full Gram
/// matrix from the block columns and compute its leading eigenvectors.
/// Every rank returns bitwise-identical results.
[[nodiscard]] FactorResult eigenvectors(const GramColumns& s,
                                        const mps::CartGrid& grid, int mode,
                                        const RankSelection& select);

namespace detail {
/// Flip each column's sign so its largest-magnitude entry is positive (the
/// canonicalization shared by the Gram, TSQR, and sequential routes).
void canonicalize_columns(tensor::Matrix& u);
}  // namespace detail

}  // namespace ptucker::dist
