#pragma once
/// \file dist_tensor.hpp
/// \brief Block-distributed dense tensor (paper Sec. IV-B).
///
/// A DistTensor splits each mode n of a global I1 x ... x IN tensor into Pn
/// contiguous blocks over the processor grid; the rank at coordinates
/// (c1, ..., cN) owns the Cartesian product of block cn of every mode, as a
/// dense local Tensor in the same first-index-fastest layout. Blocks are the
/// uniform floor splits of util::uniform_block, so "Pn evenly divides In" is
/// never required and some blocks may be empty.
///
/// All methods marked collective must be called by every rank of the grid.

#include <functional>
#include <memory>

#include "dist/grid.hpp"
#include "mps/collectives.hpp"
#include "tensor/tensor.hpp"

namespace ptucker::dist {

/// Copy \p src into \p dst at the sub-block described by \p ranges (the
/// inverse of Tensor::subtensor; used by gather and the scatter root).
void place_subtensor(tensor::Tensor& dst,
                     const std::vector<util::Range>& ranges,
                     const tensor::Tensor& src);

class DistTensor {
 public:
  /// Invalid placeholder (no grid); assign a real DistTensor before use.
  DistTensor() = default;

  /// Collective: allocate the zero tensor of the given global dims on the
  /// grid. Throws InvalidArgument when dims.size() != grid order.
  DistTensor(std::shared_ptr<mps::CartGrid> grid, tensor::Dims global_dims);

  /// Collective: distribute a global tensor living on \p root (ignored and
  /// may be empty on other ranks) onto the grid through the binomial-tree
  /// mps::scatter_varied. Prefer pario::read_dist_tensor when the data is
  /// on disk — it needs no root copy at all.
  [[nodiscard]] static DistTensor scatter(
      const std::shared_ptr<mps::CartGrid>& grid, const tensor::Tensor& global,
      int root);

  /// Collective: assemble the global tensor on \p root through the
  /// binomial-tree mps::gather_varied; other ranks get an empty Tensor.
  /// Prefer pario::write_dist_tensor when the target is a file.
  [[nodiscard]] tensor::Tensor gather(int root) const;

  /// Deep copy (same grid, copied local block).
  [[nodiscard]] DistTensor clone() const { return *this; }

  [[nodiscard]] int order() const {
    return static_cast<int>(global_dims_.size());
  }
  [[nodiscard]] const tensor::Dims& global_dims() const { return global_dims_; }
  [[nodiscard]] std::size_t global_dim(int n) const {
    return global_dims_[static_cast<std::size_t>(n)];
  }

  [[nodiscard]] const mps::CartGrid& grid() const { return *grid_; }
  [[nodiscard]] const std::shared_ptr<mps::CartGrid>& grid_ptr() const {
    return grid_;
  }
  [[nodiscard]] const mps::Comm& comm() const { return grid_->comm(); }

  [[nodiscard]] tensor::Tensor& local() { return local_; }
  [[nodiscard]] const tensor::Tensor& local() const { return local_; }

  /// Global index range this rank owns in mode n.
  [[nodiscard]] util::Range mode_range(int n) const {
    return mode_range_of(n, grid_->coord(n));
  }

  /// Global index range the rank at grid coordinate \p coord owns in mode n.
  [[nodiscard]] util::Range mode_range_of(int n, int coord) const {
    return util::uniform_block(global_dims_[static_cast<std::size_t>(n)],
                               static_cast<std::size_t>(grid_->extent(n)),
                               static_cast<std::size_t>(coord));
  }

  /// Fill every rank's block by evaluating \p fn at global multi-indices.
  /// Communication-free and grid-independent for a fixed \p fn.
  void fill_global(
      const std::function<double(std::span<const std::size_t>)>& fn);

  /// Sum of squared entries over the global tensor (collective).
  [[nodiscard]] double norm_squared() const;
  [[nodiscard]] double norm() const;

 private:
  std::shared_ptr<mps::CartGrid> grid_;
  tensor::Dims global_dims_;
  tensor::Tensor local_;

  /// Per-mode ranges of the block owned by grid rank \p rank.
  [[nodiscard]] std::vector<util::Range> block_ranges_of(int rank) const;
};

}  // namespace ptucker::dist
