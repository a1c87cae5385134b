#include <cmath>

#include "blas/blas.hpp"
#include "util/bytes.hpp"

namespace ptucker::blas {

void gemv(Trans trans, std::size_t m, std::size_t n, double alpha,
          const double* a, std::size_t lda, const double* x, double beta,
          double* y) {
  const std::size_t ylen = (trans == Trans::No) ? m : n;
  if (beta == 0.0) {
    std::memset(y, 0, ylen * sizeof(double));
  } else if (beta != 1.0) {
    for (std::size_t i = 0; i < ylen; ++i) y[i] *= beta;
  }
  add_flops(2ull * m * n);
  if (trans == Trans::No) {
    // y += alpha * A x: accumulate columns (stride-1 over rows).
    for (std::size_t j = 0; j < n; ++j) {
      const double s = alpha * x[j];
      const double* col = a + j * lda;
      for (std::size_t i = 0; i < m; ++i) y[i] += s * col[i];
    }
  } else {
    // y += alpha * A^T x: dot of each column with x.
    for (std::size_t j = 0; j < n; ++j) {
      const double* col = a + j * lda;
      double s = 0.0;
      for (std::size_t i = 0; i < m; ++i) s += col[i] * x[i];
      y[j] += alpha * s;
    }
  }
}

void axpy(std::size_t n, double alpha, const double* x, double* y) {
  add_flops(2ull * n);
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double dot(std::size_t n, const double* x, const double* y) {
  add_flops(2ull * n);
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

double nrm2(std::size_t n, const double* x) {
  // Scaled accumulation for overflow safety (netlib dnrm2 style).
  add_flops(2ull * n);
  double scale = 0.0;
  double ssq = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = std::fabs(x[i]);
    if (xi == 0.0) continue;
    if (scale < xi) {
      const double r = scale / xi;
      ssq = 1.0 + ssq * r * r;
      scale = xi;
    } else {
      const double r = xi / scale;
      ssq += r * r;
    }
  }
  return scale * std::sqrt(ssq);
}

void scal(std::size_t n, double alpha, double* x) {
  add_flops(n);
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void copy(std::size_t n, const double* x, double* y) {
  util::copy_bytes(y, x, n * sizeof(double));
}

}  // namespace ptucker::blas
