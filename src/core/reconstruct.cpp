#include "core/reconstruct.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "tensor/local_kernels.hpp"

namespace ptucker::core {

namespace {

/// Multiply small modes first: applying the factor with the smallest
/// output/input growth early keeps intermediates small. Shared by the
/// distributed reconstruction and the sequential serve-layer evaluation so
/// the two paths contract in the same order (bit-identical floats on a
/// 1-rank grid).
std::vector<int> growth_sorted_modes(std::span<const Matrix> factors) {
  std::vector<int> mode_order(factors.size());
  std::iota(mode_order.begin(), mode_order.end(), 0);
  std::stable_sort(mode_order.begin(), mode_order.end(), [&](int a, int b) {
    const auto& fa = factors[static_cast<std::size_t>(a)];
    const auto& fb = factors[static_cast<std::size_t>(b)];
    const double ga = static_cast<double>(fa.rows()) /
                      static_cast<double>(std::max<std::size_t>(1, fa.cols()));
    const double gb = static_cast<double>(fb.rows()) /
                      static_cast<double>(std::max<std::size_t>(1, fb.cols()));
    return ga < gb;
  });
  return mode_order;
}

DistTensor reconstruct_with_factors(const TuckerTensor& model,
                                    const std::vector<Matrix>& factors,
                                    dist::TtmAlgo algo) {
  const int order = model.order();
  const std::vector<int> mode_order =
      growth_sorted_modes(std::span<const Matrix>(factors));
  std::vector<const Matrix*> ptrs(static_cast<std::size_t>(order));
  for (int n = 0; n < order; ++n) {
    ptrs[static_cast<std::size_t>(n)] = &factors[static_cast<std::size_t>(n)];
  }
  return dist::ttm_chain(model.core, ptrs, mode_order, algo);
}

}  // namespace

DistTensor reconstruct(const TuckerTensor& model, dist::TtmAlgo algo) {
  return reconstruct_with_factors(model, model.factors, algo);
}

DistTensor reconstruct_subtensor(
    const TuckerTensor& model,
    const std::vector<std::vector<std::size_t>>& index_sets,
    dist::TtmAlgo algo) {
  PT_REQUIRE(index_sets.size() == static_cast<std::size_t>(model.order()),
             "reconstruct_subtensor: one index set per mode required");
  std::vector<Matrix> sub_factors(index_sets.size());
  for (std::size_t n = 0; n < index_sets.size(); ++n) {
    const Matrix& u = model.factors[n];
    if (index_sets[n].empty()) {
      sub_factors[n] = u;
    } else {
      sub_factors[n] = u.row_subset(std::span<const std::size_t>(
          index_sets[n].data(), index_sets[n].size()));
    }
  }
  return reconstruct_with_factors(model, sub_factors, algo);
}

DistTensor reconstruct_range(const TuckerTensor& model,
                             const std::vector<util::Range>& ranges,
                             dist::TtmAlgo algo) {
  PT_REQUIRE(ranges.size() == static_cast<std::size_t>(model.order()),
             "reconstruct_range: one range per mode required");
  std::vector<std::vector<std::size_t>> index_sets(ranges.size());
  for (std::size_t n = 0; n < ranges.size(); ++n) {
    index_sets[n].resize(ranges[n].size());
    std::iota(index_sets[n].begin(), index_sets[n].end(), ranges[n].lo);
  }
  return reconstruct_subtensor(model, index_sets, algo);
}

tensor::Tensor reconstruct_range_local(const tensor::Tensor& core,
                                       std::span<const Matrix> factors,
                                       const std::vector<util::Range>& ranges) {
  PT_REQUIRE(factors.size() == static_cast<std::size_t>(core.order()),
             "reconstruct_range_local: " << factors.size()
                                         << " factors for an order-"
                                         << core.order() << " core");
  PT_REQUIRE(ranges.size() == factors.size(),
             "reconstruct_range_local: one range per mode required");
  std::vector<Matrix> sub(factors.size());
  for (std::size_t n = 0; n < factors.size(); ++n) {
    PT_REQUIRE(factors[n].cols() == core.dim(static_cast<int>(n)),
               "reconstruct_range_local: factor/core rank mismatch in mode "
                   << n);
    PT_REQUIRE(ranges[n].lo < ranges[n].hi &&
                   ranges[n].hi <= factors[n].rows(),
               "reconstruct_range_local: range [" << ranges[n].lo << ", "
                                                  << ranges[n].hi
                                                  << ") out of bounds in mode "
                                                  << n << " (extent "
                                                  << factors[n].rows() << ")");
    // row_block copies the same rows row_subset(iota) would, so this stays
    // element-for-element the matrix reconstruct_range builds.
    sub[n] = ranges[n].lo == 0 && ranges[n].hi == factors[n].rows()
                 ? factors[n]
                 : factors[n].row_block(ranges[n]);
  }
  // Same contraction order as reconstruct_with_factors; on a 1-rank grid
  // dist::ttm is exactly local_ttm_into, so this function is bit-identical
  // to reconstruct_range evaluated on one rank.
  const std::vector<int> mode_order =
      growth_sorted_modes(std::span<const Matrix>(sub));
  tensor::Tensor result;
  bool first = true;
  for (int n : mode_order) {
    result = tensor::local_ttm(first ? core : result,
                               sub[static_cast<std::size_t>(n)], n);
    first = false;
  }
  if (first) return core;
  return result;
}

}  // namespace ptucker::core
