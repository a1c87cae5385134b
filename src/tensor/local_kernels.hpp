#pragma once
/// \file local_kernels.hpp
/// \brief Sequential (per-rank) TTM and Gram kernels that respect the local
/// unfolded-tensor layout of paper Sec. IV-C / Fig. 3b.
///
/// A stored tensor viewed in mode n is a (left, mid, right) column-major
/// 3-tensor (see unfold_shape). Its mode-n unfolding consists of `right`
/// block columns, each the transpose of a contiguous column-major
/// (left x mid) slice. The kernels hand the whole slice batch to the
/// batched BLAS entry points (blas::gemm_batch_strided /
/// syrk_lower_batch_strided) as a *single* kernel invocation — shared
/// panels packed once, threading decided on aggregate flops — collapsing to
/// one plain call when left == 1 (first mode(s)) or right == 1 (last mode).
/// The paper's original "multiple subroutine calls to respect the local
/// layout" per-slice loop produces bit-identical results; the ablation
/// benches time it through their own bench-local loop.

#include "tensor/matrix.hpp"
#include "tensor/tensor.hpp"

namespace ptucker::tensor {

/// Z = Y x_n M (TTM): Z(n) = M * Y(n) with M of size K x Jn.
/// Note the multiplying matrix convention matches the algorithms:
/// decomposition passes U^T (Rn x In), reconstruction passes U (In x Rn).
[[nodiscard]] Tensor local_ttm(const Tensor& y, const Matrix& m, int mode);

/// As local_ttm but writing into a preallocated output tensor whose dims
/// must equal y's with dims[mode] == m.rows(). Used by the parallel TTM to
/// reuse scratch buffers across the Pn blocked iterations.
void local_ttm_into(const Tensor& y, const Matrix& m, int mode, Tensor& z);

/// S = Y(n) * Y(n)^T, size Jn x Jn, both triangles stored (paper default).
[[nodiscard]] Matrix local_gram(const Tensor& y, int mode);

/// Symmetry-exploiting variant (~half the flops; Sec. IX future work).
[[nodiscard]] Matrix local_gram_sym(const Tensor& y, int mode);

/// C = Y(n) * W(n)^T for two tensors of identical dims except possibly mode
/// n; result is y.dim(n) x w.dim(n). This is the off-diagonal block kernel
/// of the parallel Gram (Alg. 4 line 11).
[[nodiscard]] Matrix local_cross_gram(const Tensor& y, const Tensor& w,
                                      int mode);

/// Naive reference implementations (element loops, no BLAS): oracles for
/// the property tests.
[[nodiscard]] Tensor naive_ttm(const Tensor& y, const Matrix& m, int mode);
[[nodiscard]] Matrix naive_gram(const Tensor& y, int mode);

}  // namespace ptucker::tensor
