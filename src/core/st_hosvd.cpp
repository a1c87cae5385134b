#include "core/st_hosvd.hpp"

#include <cmath>

#include "costmodel/tucker_model.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace ptucker::core {

std::string_view factor_route_name(FactorRoute route) {
  switch (route) {
    case FactorRoute::Gram:
      return "gram";
    case FactorRoute::Tsqr:
      return "tsqr";
    case FactorRoute::Randomized:
      return "randomized";
  }
  return "?";
}

namespace {

/// The route for one mode of the working tensor: the explicit methods map
/// one-to-one; Auto asks the cost model. \p fixed_rank is this mode's fixed
/// target rank, or 0 for eps-driven selection.
FactorRoute resolve_factor_route(FactorMethod method, const DistTensor& y,
                                 int mode, double epsilon,
                                 std::size_t fixed_rank) {
  switch (method) {
    case FactorMethod::GramEig:
      return FactorRoute::Gram;
    case FactorMethod::TsqrSvd:
      return FactorRoute::Tsqr;
    case FactorMethod::Randomized:
      return FactorRoute::Randomized;
    case FactorMethod::Auto: {
      // The sketch only enters the running when the posteriori eq. 3 check
      // has headroom: fixed-rank selection never falls back, and a loose
      // eps leaves slack for the sketch residual. A tight eps would
      // routinely reject the sketch and pay for both routes.
      const bool sketch_eligible =
          fixed_rank > 0 || epsilon >= dist::kSketchAutoMinEpsilon;
      if (sketch_eligible &&
          costmodel::prefer_sketch(
              y.global_dims(), mode,
              dist::sketch_width(y.global_dim(mode), fixed_rank),
              dist::kSketchPowerIterations, y.grid().shape())) {
        return FactorRoute::Randomized;
      }
      return costmodel::prefer_tsqr(y.global_dims(), mode, y.grid().shape())
                 ? FactorRoute::Tsqr
                 : FactorRoute::Gram;
    }
  }
  return FactorRoute::Gram;
}

}  // namespace

FactorStep factor_mode(const DistTensor& y, int mode, FactorMethod method,
                       const dist::RankSelection& select, double epsilon) {
  FactorStep out;
  out.route = resolve_factor_route(method, y, mode, epsilon,
                                   select.is_fixed ? select.fixed : 0);
  if (out.route == FactorRoute::Randomized) {
    dist::SketchFactorResult sk = dist::factor_via_sketch(y, mode, select);
    if (sk.certified) {
      out.factor = std::move(sk.factor);
      out.residual_energy = sk.residual_energy;
      return out;
    }
    // The sketch residual alone exceeds the eq. 3 per-mode budget: fall
    // back to the exact Gram route, counted once per grid.
    out.route = FactorRoute::Gram;
    if (y.comm().rank() == 0) {
      static obs::Counter fallbacks =
          obs::registry().counter("dist.sketch_fallbacks");
      fallbacks.inc();
    }
  }
  if (out.route == FactorRoute::Tsqr) {
    out.factor = dist::factor_via_tsqr(y, mode, select);
  } else {
    const dist::GramColumns s = dist::gram(y, mode);
    out.factor = dist::eigenvectors(s, y.grid(), mode, select);
  }
  return out;
}

SthosvdResult st_hosvd(const DistTensor& x, const SthosvdOptions& options) {
  const int order = x.order();
  PT_REQUIRE(options.fixed_ranks.empty() ||
                 static_cast<int>(options.fixed_ranks.size()) == order,
             "st_hosvd: fixed_ranks must have one entry per mode");
  PT_REQUIRE(options.epsilon >= 0.0, "st_hosvd: epsilon must be >= 0");

  SthosvdResult result;
  result.norm_x_sq = x.norm_squared();
  result.norm_x = std::sqrt(result.norm_x_sq);
  result.mode_eigenvalues.resize(static_cast<std::size_t>(order));
  result.mode_routes.assign(static_cast<std::size_t>(order),
                            FactorRoute::Gram);
  result.mode_order_used = resolve_mode_order(
      options.order_strategy, x.global_dims(), options.fixed_ranks,
      options.custom_order);

  // Tail threshold per mode: eps^2 ||X||^2 / N (Alg. 1 line 5).
  const double tail_threshold =
      options.epsilon * options.epsilon * result.norm_x_sq /
      static_cast<double>(order);

  result.tucker.factors.resize(static_cast<std::size_t>(order));
  DistTensor y = x.clone();
  double tail_total = 0.0;

  for (int n : result.mode_order_used) {
    // Parent of the kernels' own Gram/Evecs/TTM (or Sketch/TSQR) spans, so
    // a trace of one run shows the Fig. 8 decomposition as a timeline.
    obs::Span span_mode("st_hosvd.mode", n);
    const dist::RankSelection select =
        options.fixed_ranks.empty()
            ? dist::RankSelection::threshold(tail_threshold)
            : dist::RankSelection::fixed_rank(
                  options.fixed_ranks[static_cast<std::size_t>(n)]);
    FactorStep step =
        factor_mode(y, n, options.factor_method, select, options.epsilon);
    dist::FactorResult& factor = step.factor;
    result.mode_routes[static_cast<std::size_t>(n)] = step.route;
    // The energy outside a sketch subspace is part of what the truncation
    // discards — charge it to the eq. 3 tail.
    tail_total += step.residual_energy;

    // Account the truncated tail toward the eq. (3) error bound.
    for (std::size_t i = factor.rank; i < factor.eigenvalues.size(); ++i) {
      tail_total += std::max(0.0, factor.eigenvalues[i]);
    }
    result.mode_eigenvalues[static_cast<std::size_t>(n)] =
        factor.eigenvalues;

    // Truncate: Y <- Y x_n U^T.
    y = dist::ttm(y, factor.u.transposed(), n);
    result.tucker.factors[static_cast<std::size_t>(n)] = std::move(factor.u);
  }

  result.tucker.core = std::move(y);
  result.error_bound =
      result.norm_x > 0.0 ? std::sqrt(tail_total) / result.norm_x : 0.0;
  return result;
}

}  // namespace ptucker::core
