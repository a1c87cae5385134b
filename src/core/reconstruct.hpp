#pragma once
/// \file reconstruct.hpp
/// \brief Reconstruction from a Tucker model (paper Sec. II-C):
/// X̃ = G x1 U(1) ... xN U(N), and partial reconstruction of arbitrary
/// sub-tensors using row subsets of the factors — the paper's key analysis
/// feature ("extract only the reconstruction of a single species, a few
/// time steps, a coarser grid, a subset of the grid").

#include <span>

#include "core/tucker_tensor.hpp"
#include "dist/ttm.hpp"

namespace ptucker::core {

/// Full reconstruction (collective): returns an In1 x ... x InN distributed
/// tensor on the same grid as the core.
[[nodiscard]] DistTensor reconstruct(const TuckerTensor& model,
                                     dist::TtmAlgo algo = dist::TtmAlgo::Auto);

/// Partial reconstruction: only the given global indices of each mode are
/// produced (empty selection = all indices of that mode). The result is a
/// |sel_1| x ... x |sel_N| distributed tensor. Cost scales with the output
/// size, never with prod(In).
[[nodiscard]] DistTensor reconstruct_subtensor(
    const TuckerTensor& model,
    const std::vector<std::vector<std::size_t>>& index_sets,
    dist::TtmAlgo algo = dist::TtmAlgo::Auto);

/// Convenience overload for contiguous ranges.
[[nodiscard]] DistTensor reconstruct_range(
    const TuckerTensor& model, const std::vector<util::Range>& ranges,
    dist::TtmAlgo algo = dist::TtmAlgo::Auto);

/// Sequential partial reconstruction of a box: contract \p core with the
/// [lo, hi) row blocks of each factor, smallest-growth mode first — the
/// serve layer's per-query evaluation. Communication-free (no grid, no
/// runtime) and bit-identical to reconstruct_range of the same box on a
/// 1-rank grid: the contraction order is shared, and on one rank the
/// distributed TTM collapses to the same local kernel call.
[[nodiscard]] tensor::Tensor reconstruct_range_local(
    const tensor::Tensor& core, std::span<const tensor::Matrix> factors,
    const std::vector<util::Range>& ranges);

}  // namespace ptucker::core
