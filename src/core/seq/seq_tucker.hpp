#pragma once
/// \file seq_tucker.hpp
/// \brief Sequential reference Tucker implementation.
///
/// A single-rank, communication-free ST-HOSVD / HOOI / reconstruction stack
/// built directly on the local kernels. It serves three purposes:
///  1. cross-validation oracle for the distributed algorithms (the property
///     tests demand bit-for-bit-comparable errors across all grids),
///  2. the single-node baseline for the scaling benches, and
///  3. the Sec. IX ablation host for the Gram-free SVD and randomized
///     sketch factor computations.

#include "core/mode_order.hpp"
#include "core/st_hosvd.hpp"
#include "lapack/lapack.hpp"
#include "tensor/local_kernels.hpp"

namespace ptucker::core::seq {

using tensor::Dims;
using tensor::Matrix;
using tensor::Tensor;

struct SeqTucker {
  Tensor core;
  std::vector<Matrix> factors;

  [[nodiscard]] Dims core_dims() const { return core.dims(); }
  [[nodiscard]] double compression_ratio() const;
};

struct SeqOptions {
  double epsilon = 1e-3;
  std::vector<std::size_t> fixed_ranks;
  ModeOrderStrategy order_strategy = ModeOrderStrategy::Natural;
  std::vector<int> custom_order;
  /// The factor route, with the distributed routes' names:
  ///  - Gram: Gram matrix + symmetric eigensolver (paper default);
  ///  - Tsqr: QR of the materialized unfolding's transpose + small SVD
  ///    (Sec. IX), the sequential stand-in for the TSQR tree;
  ///  - Randomized: sketch Y(n)*Omega -> thin QR -> project -> small SVD,
  ///    mirroring the distributed route entry for entry: the same seed,
  ///    width and power iterations (dist/sketch.hpp), so both sketch
  ///    against the same counter-based Omega per mode.
  FactorRoute route = FactorRoute::Gram;
};

struct SeqResult {
  SeqTucker tucker;
  std::vector<std::vector<double>> mode_eigenvalues;  ///< by mode
  std::vector<int> mode_order_used;
  /// Route that actually produced each mode's factor, indexed by mode. It
  /// differs from SeqOptions::route only where the Gram route replaced it:
  /// Tsqr on a non-wide unfolding, or a sketch that failed the eq. 3
  /// posteriori check.
  std::vector<FactorRoute> mode_routes;
  double norm_x = 0.0;
  double error_bound = 0.0;
};

[[nodiscard]] SeqResult seq_st_hosvd(const Tensor& x,
                                     const SeqOptions& options = {});

struct SeqHooiResult {
  SeqTucker tucker;
  std::vector<double> error_history;
  int sweeps = 0;
};

[[nodiscard]] SeqHooiResult seq_hooi(const Tensor& x,
                                     const SeqOptions& init_options = {},
                                     int max_sweeps = 10,
                                     double improvement_tol = 1e-6);

[[nodiscard]] Tensor seq_reconstruct(const SeqTucker& model);

/// ‖X − X̃‖ / ‖X‖ for two plain tensors.
[[nodiscard]] double seq_normalized_error(const Tensor& x,
                                          const Tensor& x_tilde);

}  // namespace ptucker::core::seq
