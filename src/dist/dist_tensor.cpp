#include "dist/dist_tensor.hpp"

#include <cmath>
#include <cstring>

#include "mps/collectives.hpp"
#include "util/bytes.hpp"

namespace ptucker::dist {

void place_subtensor(tensor::Tensor& dst,
                     const std::vector<util::Range>& ranges,
                     const tensor::Tensor& src) {
  PT_REQUIRE(static_cast<int>(ranges.size()) == dst.order(),
             "place_subtensor: need one range per mode");
  PT_REQUIRE(src.order() == dst.order(),
             "place_subtensor: src/dst order mismatch");
  for (std::size_t n = 0; n < ranges.size(); ++n) {
    PT_REQUIRE(ranges[n].lo <= ranges[n].hi &&
                   ranges[n].hi <= dst.dim(static_cast<int>(n)),
               "place_subtensor: range out of bounds in mode " << n);
    PT_REQUIRE(src.dim(static_cast<int>(n)) == ranges[n].size(),
               "place_subtensor: src extent mismatch in mode " << n);
  }
  if (src.size() == 0) return;

  // Copy contiguous mode-0 runs: the src run [0, len) at a fixed tail index
  // lands at dst offset ranges[0].lo plus the shifted tail offsets.
  const std::size_t len = src.dim(0);
  const std::size_t order = ranges.size();
  std::vector<std::size_t> idx(order, 0);  // src multi-index, mode 0 fixed 0
  const std::size_t runs = src.size() / len;
  std::vector<std::size_t> dst_idx(order);
  for (std::size_t run = 0; run < runs; ++run) {
    for (std::size_t n = 0; n < order; ++n) {
      dst_idx[n] = ranges[n].lo + idx[n];
    }
    const std::size_t src_off = src.linear_index(idx);
    const std::size_t dst_off = dst.linear_index(dst_idx);
    std::memcpy(dst.data() + dst_off, src.data() + src_off,
                len * sizeof(double));
    for (std::size_t n = 1; n < order; ++n) {
      if (++idx[n] < src.dim(static_cast<int>(n))) break;
      idx[n] = 0;
    }
  }
}

DistTensor::DistTensor(std::shared_ptr<mps::CartGrid> grid,
                       tensor::Dims global_dims)
    : grid_(std::move(grid)), global_dims_(std::move(global_dims)) {
  PT_REQUIRE(grid_ != nullptr, "DistTensor: null grid");
  PT_REQUIRE(static_cast<int>(global_dims_.size()) == grid_->order(),
             "DistTensor: tensor order " << global_dims_.size()
                                         << " != grid order "
                                         << grid_->order());
  tensor::Dims local_dims(global_dims_.size());
  for (int n = 0; n < order(); ++n) {
    local_dims[static_cast<std::size_t>(n)] = mode_range(n).size();
  }
  local_ = tensor::Tensor(std::move(local_dims));
}

std::vector<util::Range> DistTensor::block_ranges_of(int rank) const {
  const std::vector<int> coords = grid_->coords_of(rank);
  std::vector<util::Range> ranges(global_dims_.size());
  for (int n = 0; n < order(); ++n) {
    ranges[static_cast<std::size_t>(n)] =
        mode_range_of(n, coords[static_cast<std::size_t>(n)]);
  }
  return ranges;
}

DistTensor DistTensor::scatter(const std::shared_ptr<mps::CartGrid>& grid,
                               const tensor::Tensor& global, int root) {
  PT_REQUIRE(grid != nullptr, "scatter: null grid");
  const mps::Comm& comm = grid->comm();

  // Only the root knows the dims; broadcast them first.
  std::vector<std::uint64_t> dims64(static_cast<std::size_t>(grid->order()),
                                    0);
  if (comm.rank() == root) {
    PT_REQUIRE(global.order() == grid->order(),
               "scatter: tensor order " << global.order() << " != grid order "
                                        << grid->order());
    for (int n = 0; n < global.order(); ++n) {
      dims64[static_cast<std::size_t>(n)] = global.dim(n);
    }
  }
  mps::broadcast(comm, std::span<std::uint64_t>(dims64), root);
  tensor::Dims dims(dims64.begin(), dims64.end());

  DistTensor result(grid, dims);
  std::vector<std::vector<double>> blocks;
  if (comm.rank() == root) {
    blocks.resize(static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      const tensor::Tensor sub = global.subtensor(result.block_ranges_of(r));
      blocks[static_cast<std::size_t>(r)].assign(sub.data(),
                                                 sub.data() + sub.size());
    }
  }
  const std::vector<double> mine = mps::scatter_varied(comm, blocks, root);
  PT_CHECK(mine.size() == result.local_.size(),
           "scatter: block size mismatch");
  std::memcpy(result.local_.data(), mine.data(),
              mine.size() * sizeof(double));
  return result;
}

tensor::Tensor DistTensor::gather(int root) const {
  PT_REQUIRE(grid_ != nullptr, "gather: invalid DistTensor");
  const mps::Comm& comm = grid_->comm();
  const auto blocks =
      mps::gather_varied(comm, std::span<const double>(local_.span()), root);
  if (comm.rank() != root) return {};

  tensor::Tensor global(global_dims_);
  for (int r = 0; r < comm.size(); ++r) {
    const std::vector<util::Range> ranges = block_ranges_of(r);
    tensor::Dims block_dims(ranges.size());
    for (std::size_t n = 0; n < ranges.size(); ++n) {
      block_dims[n] = ranges[n].size();
    }
    tensor::Tensor block(block_dims);
    const std::vector<double>& payload = blocks[static_cast<std::size_t>(r)];
    PT_CHECK(payload.size() == block.size(), "gather: block size mismatch");
    util::copy_bytes(block.data(), payload.data(),
                     payload.size() * sizeof(double));
    place_subtensor(global, ranges, block);
  }
  return global;
}

void DistTensor::fill_global(
    const std::function<double(std::span<const std::size_t>)>& fn) {
  PT_REQUIRE(grid_ != nullptr, "fill_global: invalid DistTensor");
  const std::size_t order_u = global_dims_.size();
  std::vector<std::size_t> lo(order_u);
  for (std::size_t n = 0; n < order_u; ++n) {
    lo[n] = mode_range(static_cast<int>(n)).lo;
  }
  std::vector<std::size_t> gidx = lo;  // global index of the current element
  std::vector<std::size_t> lidx(order_u, 0);
  for (std::size_t i = 0; i < local_.size(); ++i) {
    local_[i] = fn(gidx);
    for (std::size_t n = 0; n < order_u; ++n) {
      if (++lidx[n] < local_.dim(static_cast<int>(n))) {
        gidx[n] = lo[n] + lidx[n];
        break;
      }
      lidx[n] = 0;
      gidx[n] = lo[n];
    }
  }
}

double DistTensor::norm_squared() const {
  PT_REQUIRE(grid_ != nullptr, "norm_squared: invalid DistTensor");
  return mps::allreduce_scalar(grid_->comm(), local_.norm_squared());
}

double DistTensor::norm() const { return std::sqrt(norm_squared()); }

}  // namespace ptucker::dist
