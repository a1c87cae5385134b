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

/// One mode's factor step, as both drivers consume it.
struct FactorStep {
  dist::FactorResult factor;
  /// The route that actually ran: Auto resolved, and Gram when the sketch
  /// could not certify the eq. 3 budget and fell back.
  FactorRoute route = FactorRoute::Gram;
  /// Energy outside the sketch subspace (randomized route only, else 0):
  /// part of what the truncation discards, so the driver charges it to the
  /// eq. 3 tail on top of the truncated eigenvalues.
  double residual_energy = 0.0;
};

/// Collective: the factor of mode \p mode of the working tensor \p y (paper
/// Alg. 1 lines 4-6, Alg. 2 line 6). Resolves \p method for this mode —
/// Auto asks the cost model, considering the sketch only under fixed-rank
/// selection or an \p epsilon of at least dist::kSketchAutoMinEpsilon — and
/// runs the Gram, TSQR or sketch route. An uncertified sketch falls back to
/// the Gram route and bumps the `dist.sketch_fallbacks` counter once (on
/// grid rank 0). Every rank returns bitwise-identical results.
[[nodiscard]] FactorStep factor_mode(const DistTensor& y, int mode,
                                     FactorMethod method,
                                     const dist::RankSelection& select,
                                     double epsilon);

struct SthosvdOptions {
  /// Relative error target eps; used when fixed_ranks is empty.
  double epsilon = 1e-3;
  /// Fixed target ranks (one per mode); overrides epsilon when non-empty.
  std::vector<std::size_t> fixed_ranks;

  ModeOrderStrategy order_strategy = ModeOrderStrategy::Natural;
  std::vector<int> custom_order;  ///< used when order_strategy == Custom

  /// Factor route for every mode; HOOI sweeps reuse it.
  FactorMethod factor_method = FactorMethod::GramEig;
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
  /// Route that actually produced each mode's factor, indexed by mode:
  /// Auto resolved, and Gram where the sketch fell back.
  std::vector<FactorRoute> mode_routes;
  double norm_x = 0.0;       ///< ‖X‖
  double norm_x_sq = 0.0;    ///< ‖X‖²
  /// Upper bound on ‖X − X̃‖ / ‖X‖ from the truncated eigenvalue tails
  /// (paper eq. 3).
  double error_bound = 0.0;
};

[[nodiscard]] SthosvdResult st_hosvd(const DistTensor& x,
                                     const SthosvdOptions& options = {});

}  // namespace ptucker::core
