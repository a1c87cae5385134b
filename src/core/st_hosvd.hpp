#pragma once
/// \file st_hosvd.hpp
/// \brief Sequentially-truncated HOSVD (paper Alg. 1) — the workhorse of the
/// compression pipeline and the initializer for HOOI.
///
/// For each mode (in a configurable order): compute the leading left
/// singular vectors of the working tensor's unfolding as the factor —
/// either via the Gram matrix + symmetric eigensolver, via the Gram-free
/// row-distributed TSQR (Sec. IX, any grid), or letting the cost model pick
/// per mode (FactorMethod::Auto) — pick the rank from the
/// eps^2 ||X||^2 / N tail criterion (or use a fixed rank), and truncate the
/// working tensor with a TTM by the transposed factor. After all modes, the
/// working tensor is the core. Satisfies ‖X − X̃‖ <= eps ‖X‖ (paper eq. 3).

#include <string>
#include <string_view>

#include "core/mode_order.hpp"
#include "core/tucker_tensor.hpp"
#include "dist/eigenvectors.hpp"
#include "dist/gram.hpp"
#include "dist/sketch.hpp"
#include "dist/tsqr.hpp"
#include "dist/ttm.hpp"

namespace ptucker::core {

/// How each factor matrix is computed.
enum class FactorMethod {
  GramEig,     ///< Gram matrix + symmetric eigensolver (paper default)
  TsqrSvd,     ///< Gram-free TSQR + small SVD (Sec. IX); row-distributed, so
               ///< it runs on any grid (any Pn)
  Randomized,  ///< randomized sketch: Y(n)*Omega + TSQR of the projected
               ///< tensor — O(Jn w Jhat/P) instead of O(Jn^2 Jhat/P), with
               ///< an eps-aware fallback to the Gram route when the sketch
               ///< cannot certify the eq. 3 budget
  Auto,        ///< per-mode choice from costmodel/tucker_model: huge
               ///< unfoldings with loose eps go through the sketch,
               ///< tall-skinny ones through TSQR, fat ones through Gram
};

/// The route actually used for a mode (after Auto resolution and any
/// eps-tail fallback).
enum class FactorRoute { Gram, Tsqr, Randomized };

[[nodiscard]] std::string_view factor_route_name(FactorRoute route);

/// A mode whose requested route could not run (or could not certify the
/// eq. 3 budget) and was replaced by an exact one — recorded instead of
/// silently downgrading, so benches and tests can assert which route ran.
struct RouteDowngrade {
  int mode = -1;
  FactorRoute requested = FactorRoute::Gram;
  FactorRoute used = FactorRoute::Gram;
  std::string reason;
};

/// Observability record for each mode the randomized route attempted.
struct SketchTrace {
  int mode = -1;
  std::uint64_t seed = 0;
  std::size_t width = 0;
  int power_iterations = 0;
  /// True when the eps-tail check rejected the sketch and the mode fell
  /// back to the Gram route (also recorded in downgrades).
  bool fell_back = false;
};

/// Resolve the route for one mode of the working tensor: the explicit
/// methods map one-to-one; Auto asks the cost model, considering the sketch
/// only when selection is fixed-rank or eps is loose enough to leave the
/// posteriori check headroom (dist::kSketchAutoMinEpsilon). \p fixed_rank is
/// this mode's fixed target rank, or 0 for eps-driven selection.
[[nodiscard]] FactorRoute resolve_factor_route(FactorMethod method,
                                               const DistTensor& y, int mode,
                                               const dist::SketchOptions& sketch,
                                               double epsilon,
                                               std::size_t fixed_rank);

struct SthosvdOptions {
  /// Relative error target eps; used when fixed_ranks is empty.
  double epsilon = 1e-3;
  /// Fixed target ranks (one per mode); overrides epsilon when non-empty.
  std::vector<std::size_t> fixed_ranks;

  ModeOrderStrategy order_strategy = ModeOrderStrategy::Natural;
  std::vector<int> custom_order;  ///< used when order_strategy == Custom

  FactorMethod factor_method = FactorMethod::GramEig;
  /// Knobs for FactorMethod::Randomized (seed, oversampling, power
  /// iterations) and the Auto gate for it.
  dist::SketchOptions sketch;
};

struct SthosvdResult {
  TuckerTensor tucker;
  /// Eigen-spectrum of the Gram matrix seen when each mode was processed,
  /// indexed by mode (not by processing position). For the first processed
  /// mode this is the spectrum of X(n) X(n)^T itself (Fig. 6 data). For a
  /// mode factored by the randomized route this is the sketch spectrum
  /// lambda_i(Q^T Y(n)) — length = sketch width, not Jn.
  std::vector<std::vector<double>> mode_eigenvalues;
  std::vector<int> mode_order_used;
  /// Route that actually produced each mode's factor, indexed by mode.
  std::vector<FactorRoute> mode_routes;
  /// Modes whose requested route was replaced (currently: the randomized
  /// route's eps-tail fallback to Gram). Empty means every mode ran the
  /// route the resolver picked.
  std::vector<RouteDowngrade> downgrades;
  /// One record per mode the randomized route attempted (seed, width, q,
  /// whether it fell back) — the observability trail for reproducing a run.
  std::vector<SketchTrace> sketches;
  double norm_x = 0.0;       ///< ‖X‖
  double norm_x_sq = 0.0;    ///< ‖X‖²
  /// Upper bound on ‖X − X̃‖ / ‖X‖ from the truncated eigenvalue tails
  /// (paper eq. 3).
  double error_bound = 0.0;
};

[[nodiscard]] SthosvdResult st_hosvd(const DistTensor& x,
                                     const SthosvdOptions& options = {});

}  // namespace ptucker::core
