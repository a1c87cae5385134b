#include "tensor/local_kernels.hpp"

#include <algorithm>

#include "blas/blas.hpp"

namespace ptucker::tensor {

namespace {

/// Output dims of a mode-n TTM.
Dims ttm_dims(const Tensor& y, const Matrix& m, int mode) {
  PT_REQUIRE(mode >= 0 && mode < y.order(), "ttm: mode out of range");
  PT_REQUIRE(m.cols() == y.dim(mode),
             "ttm: matrix has " << m.cols() << " columns but mode " << mode
                                << " has extent " << y.dim(mode));
  Dims dims = y.dims();
  dims[static_cast<std::size_t>(mode)] = m.rows();
  return dims;
}

}  // namespace

void local_ttm_into(const Tensor& y, const Matrix& m, int mode, Tensor& z) {
  const Dims expected = ttm_dims(y, m, mode);
  PT_REQUIRE(z.dims() == expected, "local_ttm_into: output dims mismatch");
  const UnfoldShape in = unfold_shape(y.dims(), mode);
  const std::size_t k = m.rows();
  if (z.size() == 0) return;
  if (y.size() == 0) {
    // Empty contraction (some extent of y is zero): Z is identically zero.
    // Overwrite — callers reuse z as scratch across calls.
    std::fill(z.span().begin(), z.span().end(), 0.0);
    return;
  }

  const std::size_t in_slice = in.left * in.mid;
  const std::size_t out_slice = in.left * k;

  if (in.left == 1) {
    // Y viewed as (mid x right) column-major: single gemm
    // Z(k x right) = M(k x mid) * Y.
    blas::gemm(blas::Trans::No, blas::Trans::No, k, in.right, in.mid, 1.0,
               m.data(), k, y.data(), in.mid, 0.0, z.data(), k);
    return;
  }
  // One batched kernel invocation over all right-slices: M^T is packed once
  // per KC slab and shared across the batch; the threading decision sees
  // the aggregate flops of the whole TTM.
  blas::gemm_batch_strided(blas::Trans::No, blas::Trans::Yes, in.left, k,
                           in.mid, 1.0, y.data(), in.left, in_slice, m.data(),
                           k, 0, 0.0, z.data(), in.left, out_slice, in.right);
}

Tensor local_ttm(const Tensor& y, const Matrix& m, int mode) {
  Tensor z(ttm_dims(y, m, mode));
  local_ttm_into(y, m, mode, z);
  return z;
}

Matrix local_gram(const Tensor& y, int mode) {
  const UnfoldShape s = unfold_shape(y.dims(), mode);
  Matrix gram(s.mid, s.mid);
  if (y.size() == 0) return gram;
  if (s.left == 1) {
    // Unfolding is the (mid x right) matrix itself: S = Y * Y^T.
    blas::syrk_full(blas::Trans::No, s.mid, s.right, 1.0, y.data(), s.mid,
                    0.0, gram.data(), s.mid);
    return gram;
  }
  const std::size_t slice = s.left * s.mid;
  // Single fused invocation: S = sum_r B_r^T B_r with the slice sum riding
  // inside the KC loop (stride_c == 0).
  blas::gemm_batch_strided(blas::Trans::Yes, blas::Trans::No, s.mid, s.mid,
                           s.left, 1.0, y.data(), s.left, slice, y.data(),
                           s.left, slice, 0.0, gram.data(), s.mid, 0,
                           s.right);
  return gram;
}

Matrix local_gram_sym(const Tensor& y, int mode) {
  const UnfoldShape s = unfold_shape(y.dims(), mode);
  Matrix gram(s.mid, s.mid);
  if (y.size() == 0) return gram;
  if (s.left == 1) {
    blas::syrk_lower(blas::Trans::No, s.mid, s.right, 1.0, y.data(), s.mid,
                     0.0, gram.data(), s.mid);
  } else {
    blas::syrk_lower_batch_strided(blas::Trans::Yes, s.mid, s.left, 1.0,
                                   y.data(), s.left, s.left * s.mid, 0.0,
                                   gram.data(), s.mid, s.right);
  }
  blas::symmetrize_from_lower(s.mid, gram.data(), s.mid);
  return gram;
}

Matrix local_cross_gram(const Tensor& y, const Tensor& w, int mode) {
  PT_REQUIRE(y.order() == w.order(), "cross_gram: order mismatch");
  for (int n = 0; n < y.order(); ++n) {
    PT_REQUIRE(n == mode || y.dim(n) == w.dim(n),
               "cross_gram: dims must match outside mode " << mode);
  }
  const UnfoldShape sy = unfold_shape(y.dims(), mode);
  const UnfoldShape sw = unfold_shape(w.dims(), mode);
  Matrix c(sy.mid, sw.mid);
  if (y.size() == 0 || w.size() == 0) return c;
  if (sy.left == 1) {
    // C = Y * W^T with Y (midY x right), W (midW x right).
    blas::gemm(blas::Trans::No, blas::Trans::Yes, sy.mid, sw.mid, sy.right,
               1.0, y.data(), sy.mid, w.data(), sw.mid, 0.0, c.data(), sy.mid);
    return c;
  }
  const std::size_t slice_y = sy.left * sy.mid;
  const std::size_t slice_w = sw.left * sw.mid;
  blas::gemm_batch_strided(blas::Trans::Yes, blas::Trans::No, sy.mid, sw.mid,
                           sy.left, 1.0, y.data(), sy.left, slice_y, w.data(),
                           sw.left, slice_w, 0.0, c.data(), sy.mid, 0,
                           sy.right);
  return c;
}

Tensor naive_ttm(const Tensor& y, const Matrix& m, int mode) {
  Tensor z(ttm_dims(y, m, mode));
  const std::size_t jn = y.dim(mode);
  const std::size_t k = m.rows();
  std::vector<std::size_t> idx(static_cast<std::size_t>(y.order()), 0);
  for (std::size_t lin = 0; lin < y.size(); ++lin) {
    const auto yi = y.multi_index(lin);
    idx = yi;
    const double val = y[lin];
    const std::size_t j = yi[static_cast<std::size_t>(mode)];
    for (std::size_t kk = 0; kk < k; ++kk) {
      idx[static_cast<std::size_t>(mode)] = kk;
      z.at(idx) += m(kk, j) * val;
    }
  }
  (void)jn;
  return z;
}

Matrix naive_gram(const Tensor& y, int mode) {
  const std::size_t jn = y.dim(mode);
  Matrix s(jn, jn);
  // Accumulate outer products of unfolding columns: walk all elements and
  // combine entries sharing all non-mode indices.
  const UnfoldShape us = unfold_shape(y.dims(), mode);
  for (std::size_t r = 0; r < us.right; ++r) {
    for (std::size_t l = 0; l < us.left; ++l) {
      for (std::size_t i = 0; i < jn; ++i) {
        const double yi = y[l + i * us.left + r * us.left * us.mid];
        for (std::size_t j = 0; j < jn; ++j) {
          const double yj = y[l + j * us.left + r * us.left * us.mid];
          s(i, j) += yi * yj;
        }
      }
    }
  }
  return s;
}

}  // namespace ptucker::tensor
