#include "core/hooi.hpp"

#include <cmath>

namespace ptucker::core {

HooiResult hooi(const DistTensor& x, const SthosvdOptions& init_options,
                const HooiOptions& options) {
  HooiResult result;
  result.init = st_hosvd(x, init_options);
  result.norm_x = result.init.norm_x;
  const double norm_x_sq = result.init.norm_x_sq;
  const int order = x.order();

  // HOOI takes ownership of the initialization's model; init retains the
  // spectra, error bound, and mode order for inspection, but not the tensor.
  result.tucker = std::move(result.init.tucker);
  std::vector<Matrix>& factors = result.tucker.factors;

  // Ranks are fixed by the initialization.
  std::vector<std::size_t> ranks(static_cast<std::size_t>(order));
  for (int n = 0; n < order; ++n) {
    ranks[static_cast<std::size_t>(n)] =
        factors[static_cast<std::size_t>(n)].cols();
  }

  auto rel_error_sq = [&](double core_norm_sq) {
    return std::max(0.0, norm_x_sq - core_norm_sq) /
           (norm_x_sq > 0.0 ? norm_x_sq : 1.0);
  };

  double err_sq = rel_error_sq(result.tucker.core.norm_squared());
  result.error_history.push_back(std::sqrt(err_sq));

  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    DistTensor y;
    for (int n = 0; n < order; ++n) {
      // Y = X x_{m != n} U(m)^T  (paper Alg. 2 line 5). Transposed factors
      // are formed per use; the multi-TTM order is the natural one (the
      // paper notes it does not tune over these orders either).
      std::vector<Matrix> transposed(static_cast<std::size_t>(order));
      std::vector<const Matrix*> ptrs(static_cast<std::size_t>(order),
                                      nullptr);
      std::vector<int> ttm_order;
      for (int m = 0; m < order; ++m) {
        if (m == n) continue;
        transposed[static_cast<std::size_t>(m)] =
            factors[static_cast<std::size_t>(m)].transposed();
        ptrs[static_cast<std::size_t>(m)] =
            &transposed[static_cast<std::size_t>(m)];
        ttm_order.push_back(m);
      }
      y = dist::ttm_chain(x, ptrs, ttm_order);

      const dist::RankSelection select =
          dist::RankSelection::fixed_rank(ranks[static_cast<std::size_t>(n)]);
      factors[static_cast<std::size_t>(n)] =
          factor_mode(y, n, init_options.factor_method, select,
                      init_options.epsilon)
              .factor.u;
    }
    // Core: the last working tensor already has every product but mode N
    // (Alg. 2 line 9 exploits this).
    const Matrix ut_last =
        factors[static_cast<std::size_t>(order - 1)].transposed();
    result.tucker.core = dist::ttm(y, ut_last, order - 1);

    const double new_err_sq = rel_error_sq(result.tucker.core.norm_squared());
    result.error_history.push_back(std::sqrt(new_err_sq));
    result.sweeps = sweep + 1;

    const double improvement = err_sq - new_err_sq;
    err_sq = new_err_sq;
    if (options.target_error > 0.0 &&
        new_err_sq <= options.target_error * options.target_error) {
      break;
    }
    if (improvement < options.improvement_tol) break;
  }
  return result;
}

}  // namespace ptucker::core
