#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.hpp"
#include "core/reconstruct.hpp"
#include "core/st_hosvd.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "dist/tsqr.hpp"
#include "test_utils.hpp"
#include "util/rng.hpp"

namespace ptucker {
namespace {

using dist::DistTensor;
using tensor::Dims;
using tensor::Matrix;
using tensor::Tensor;
using testing::run_ranks;

/// R^T R == Y(n) Y(n)^T — TSQR's R reproduces the Gram matrix.
class TsqrGrids : public ::testing::TestWithParam<std::vector<int>> {};

INSTANTIATE_TEST_SUITE_P(
    Grids, TsqrGrids,
    ::testing::Values(std::vector<int>{1, 1, 1}, std::vector<int>{1, 2, 1},
                      std::vector<int>{1, 2, 2}, std::vector<int>{1, 1, 5},
                      std::vector<int>{1, 3, 2}),
    [](const auto& info) { return testing::shape_name(info.param); });

TEST_P(TsqrGrids, RFactorReproducesGramMatrix) {
  const auto& shape = GetParam();
  int p = 1;
  for (int e : shape) p *= e;
  const Dims dims{7, 6, 5};

  // Sequential oracle.
  Tensor global(dims);
  global.fill_from(testing::splitmix_field(9));
  const Matrix gram = tensor::local_gram(global, 0);

  run_ranks(p, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, shape);
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(9));
    const Matrix r = dist::tsqr_r_factor(x, 0);
    const Matrix rtr = Matrix::multiply(r, true, r, false);
    EXPECT_LT(testing::max_diff(rtr, gram), 1e-9)
        << "R^T R differs from the Gram matrix";
  });
}

TEST_P(TsqrGrids, FactorMatchesGramRoute) {
  const auto& shape = GetParam();
  int p = 1;
  for (int e : shape) p *= e;
  const Dims dims{6, 8, 7};
  run_ranks(p, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, shape);
    const DistTensor x =
        data::make_low_rank(grid, dims, Dims{3, 4, 3}, 11, 0.05);
    const dist::FactorResult tsqr = dist::factor_via_tsqr(
        x, 0, dist::RankSelection::fixed_rank(3));
    const dist::GramColumns s = dist::gram(x, 0);
    const dist::FactorResult gram = dist::eigenvectors(
        s, *grid, 0, dist::RankSelection::fixed_rank(3));
    // Same squared singular values...
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_NEAR(tsqr.eigenvalues[i], gram.eigenvalues[i],
                  1e-8 * (1.0 + gram.eigenvalues[0]));
    }
    // ...and the same leading subspace (entrywise after canonicalization).
    EXPECT_LT(testing::max_diff(tsqr.u, gram.u), 1e-6);
    EXPECT_LT(testing::orthonormality_defect(tsqr.u), 1e-10);
  });
}

TEST(Tsqr, ResolvesDeepTailTheGramRouteLoses) {
  // Singular values spanning 10 decades: sigma^2 spans 20 — beyond double
  // precision for the Gram route, easy for TSQR.
  const std::size_t in = 6;
  const Dims dims{in, 40, 20};
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 2, 2});
    DistTensor x(grid, dims);
    // Build Y with prescribed spectrum: U diag(sigma) V^T reshaped. Use a
    // rank-in construction via fill from a small deterministic model.
    const Matrix u = Matrix::random_orthonormal(in, in, 3);
    const std::size_t cols = 40 * 20;
    const Matrix v = Matrix::random_orthonormal(cols, in, 4);
    std::vector<double> sigma(in);
    for (std::size_t i = 0; i < in; ++i) {
      sigma[i] = std::pow(10.0, -2.0 * static_cast<double>(i));
    }
    x.fill_global([&](std::span<const std::size_t> idx) {
      const std::size_t col = idx[1] + 40 * idx[2];
      double value = 0.0;
      for (std::size_t k = 0; k < in; ++k) {
        value += u(idx[0], k) * sigma[k] * v(col, k);
      }
      return value;
    });
    const dist::FactorResult tsqr = dist::factor_via_tsqr(
        x, 0, dist::RankSelection::fixed_rank(in));
    // sigma_4 = 1e-8: sigma^2 = 1e-16 — resolved by TSQR within ~1e-3 rel.
    const double got = std::sqrt(tsqr.eigenvalues[4]);
    EXPECT_NEAR(got / 1e-8, 1.0, 1e-3);

    // The Gram route flattens this tail to eigensolver noise.
    const dist::GramColumns s = dist::gram(x, 0);
    const dist::FactorResult gram = dist::eigenvectors(
        s, *grid, 0, dist::RankSelection::fixed_rank(in));
    const double gram_tail = std::sqrt(std::max(0.0, gram.eigenvalues[4]));
    EXPECT_GT(std::fabs(gram_tail / 1e-8 - 1.0), 1e-2)
        << "Gram route unexpectedly resolved sigma^2 = 1e-16";
  });
}

TEST(Tsqr, SthosvdWithTsqrMatchesGramResults) {
  const Dims dims{8, 9, 7};
  run_ranks(6, [&](mps::Comm& comm) {
    // Mode 2 is distributed (P2 = 6): the general TSQR runs it too — no
    // mode falls back to the Gram route anymore.
    auto grid = dist::make_grid(comm, {1, 1, 6});
    const DistTensor x =
        data::make_low_rank(grid, dims, Dims{3, 3, 3}, 13, 0.1);
    core::SthosvdOptions gram_opts;
    gram_opts.epsilon = 0.2;
    core::SthosvdOptions tsqr_opts = gram_opts;
    tsqr_opts.factor_method = core::FactorMethod::TsqrSvd;

    const auto a = core::st_hosvd(x, gram_opts);
    const auto b = core::st_hosvd(x, tsqr_opts);
    EXPECT_EQ(a.tucker.core_dims(), b.tucker.core_dims());
    for (int n = 0; n < 3; ++n) {
      EXPECT_EQ(b.mode_routes[static_cast<std::size_t>(n)],
                core::FactorRoute::Tsqr);
    }
    const double err_a =
        core::normalized_error(x, core::reconstruct(a.tucker));
    const double err_b =
        core::normalized_error(x, core::reconstruct(b.tucker));
    EXPECT_NEAR(err_a, err_b, 1e-8);
  });
}

TEST(Tsqr, EmptyLocalBlockHandled) {
  // 5 ranks over a right mode of extent 3: some ranks hold nothing.
  run_ranks(5, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 5});
    DistTensor x(grid, Dims{4, 3});
    x.fill_global(testing::splitmix_field(21));
    const Matrix r = dist::tsqr_r_factor(x, 0);
    const Matrix rtr = Matrix::multiply(r, true, r, false);
    // Compare with the distributed Gram.
    const dist::GramColumns s = dist::gram(x, 0);
    // s.cols is the full 4x4 Gram here (P0 = 1).
    EXPECT_LT(testing::max_diff(rtr, s.cols), 1e-10);
  });
}

}  // namespace
}  // namespace ptucker
