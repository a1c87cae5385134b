#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "blas/blas.hpp"
#include "lapack/lapack.hpp"
#include "util/error.hpp"

namespace ptucker::la {

namespace detail {

/// Sort eigenpairs so values are descending; reorders vector columns to
/// match. Shared by both eigensolvers.
void sort_eig_descending(SymEig& eig) {
  const std::size_t n = eig.n;
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    return eig.values[a] > eig.values[b];
  });
  std::vector<double> values(n);
  std::vector<double> vectors(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = eig.values[perm[i]];
    blas::copy(n, eig.vectors.data() + perm[i] * n, vectors.data() + i * n);
  }
  eig.values = std::move(values);
  eig.vectors = std::move(vectors);
}

}  // namespace detail

namespace {

/// Householder reduction of a real symmetric matrix to tridiagonal form with
/// accumulation of the orthogonal transform (tred2 lineage, adapted to
/// column-major 0-based storage; z is symmetric input on entry, transform
/// accumulator on exit).
void tridiagonalize(std::vector<double>& z, std::vector<double>& d,
                    std::vector<double>& e, std::size_t n) {
  auto zz = [&](std::size_t i, std::size_t j) -> double& {
    return z[i + j * n];
  };
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(zz(i, k));
      if (scale == 0.0) {
        e[i] = zz(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          zz(i, k) /= scale;
          h += zz(i, k) * zz(i, k);
        }
        double f = zz(i, l);
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        zz(i, l) = f - g;
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          zz(j, i) = zz(i, j) / h;
          g = 0.0;
          for (std::size_t k = 0; k <= j; ++k) g += zz(j, k) * zz(i, k);
          for (std::size_t k = j + 1; k <= l; ++k) g += zz(k, j) * zz(i, k);
          e[j] = g / h;
          f += e[j] * zz(i, j);
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          f = zz(i, j);
          g = e[j] - hh * f;
          e[j] = g;
          for (std::size_t k = 0; k <= j; ++k) {
            zz(j, k) -= f * e[k] + g * zz(i, k);
          }
        }
      }
    } else {
      e[i] = zz(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (d[i] != 0.0) {
      for (std::size_t j = 0; j < i; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k < i; ++k) g += zz(i, k) * zz(k, j);
        for (std::size_t k = 0; k < i; ++k) zz(k, j) -= g * zz(k, i);
      }
    }
    d[i] = zz(i, i);
    zz(i, i) = 1.0;
    for (std::size_t j = 0; j < i; ++j) {
      zz(j, i) = 0.0;
      zz(i, j) = 0.0;
    }
  }
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix with
/// eigenvector accumulation (tql2 lineage).
void tridiag_ql(std::vector<double>& d, std::vector<double>& e,
                std::vector<double>& z, std::size_t n) {
  auto zz = [&](std::size_t i, std::size_t j) -> double& {
    return z[i + j * n];
  };
  auto sign = [](double a, double b) {
    return b >= 0.0 ? std::fabs(a) : -std::fabs(a);
  };
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  // Deflate against the norm of the whole tridiagonal, not the local
  // |d[m]| + |d[m+1]|: on a graded spectrum (a Gram spanning 20 decades)
  // the local test stalls once a block's entries sink to roundoff of the
  // largest eigenvalue, while an off-diagonal below eps * ||T|| is already
  // negligible for every eigenpair.
  double tnorm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    tnorm = std::max(tnorm, std::fabs(d[i]) + std::fabs(e[i]));
  }
  const double deflate = std::numeric_limits<double>::epsilon() * tnorm;
  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        if (std::fabs(e[m]) <= deflate) break;
      }
      if (m != l) {
        PT_CHECK(iter++ < 64, "tridiagonal QL failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + sign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow_break = false;
        for (std::size_t ii = m; ii-- > l;) {
          const std::size_t i = ii;
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow_break = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          for (std::size_t k = 0; k < n; ++k) {
            f = zz(k, i + 1);
            zz(k, i + 1) = s * zz(k, i) + c * f;
            zz(k, i) = c * zz(k, i) - s * f;
          }
        }
        if (underflow_break) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
}

}  // namespace

SymEig eig_sym(const double* a, std::size_t n, std::size_t lda) {
  PT_REQUIRE(n >= 1, "eig_sym: empty matrix");
  SymEig eig;
  eig.n = n;
  eig.values.assign(n, 0.0);
  eig.vectors.resize(n * n);
  for (std::size_t j = 0; j < n; ++j) {
    blas::copy(n, a + j * lda, eig.vectors.data() + j * n);
  }
  if (n == 1) {
    eig.values[0] = eig.vectors[0];
    eig.vectors[0] = 1.0;
    return eig;
  }
  std::vector<double> e(n, 0.0);
  // ~(10/3) n^3 flops for the full solve, the paper's Sec. V-D estimate.
  blas::add_flops(static_cast<std::uint64_t>(10.0 / 3.0 *
                                             static_cast<double>(n) * n * n));
  tridiagonalize(eig.vectors, eig.values, e, n);
  tridiag_ql(eig.values, e, eig.vectors, n);
  detail::sort_eig_descending(eig);
  return eig;
}

}  // namespace ptucker::la
