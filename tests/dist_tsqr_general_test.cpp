/// \file dist_tsqr_general_test.cpp
/// \brief The general row-distributed TSQR (any Pn): correctness against the
/// sequential route on grids that distribute the factored mode, the eq. 3
/// error bound through ST-HOSVD, the no-fallback guarantee on a 2x2 grid,
/// and the cost-model Auto policy.

#include <gtest/gtest.h>

#include <cmath>

#include "core/hooi.hpp"
#include "core/metrics.hpp"
#include "core/reconstruct.hpp"
#include "core/seq/seq_tucker.hpp"
#include "core/st_hosvd.hpp"
#include "costmodel/tucker_model.hpp"
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

/// R^T R == Y(n) Y(n)^T for EVERY mode on grids that distribute the factored
/// mode (Pn > 1) — the configurations the old kernel rejected.
class TsqrGeneralGrids : public ::testing::TestWithParam<std::vector<int>> {};

INSTANTIATE_TEST_SUITE_P(
    Grids, TsqrGeneralGrids,
    ::testing::Values(std::vector<int>{2, 1, 1}, std::vector<int>{4, 1, 1},
                      std::vector<int>{2, 2, 1}, std::vector<int>{2, 3, 1},
                      std::vector<int>{3, 1, 2}, std::vector<int>{2, 2, 2}),
    [](const auto& info) { return testing::shape_name(info.param); });

TEST_P(TsqrGeneralGrids, RFactorReproducesSequentialGramEveryMode) {
  const auto& shape = GetParam();
  int p = 1;
  for (int e : shape) p *= e;
  const Dims dims{7, 6, 5};

  // Sequential oracle: the Gram matrix of the full tensor, per mode.
  Tensor global(dims);
  global.fill_from(testing::splitmix_field(9));

  run_ranks(p, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, shape);
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(9));
    for (int mode = 0; mode < 3; ++mode) {
      const Matrix gram = tensor::local_gram(global, mode);
      const Matrix r = dist::tsqr_r_factor(x, mode);
      const Matrix rtr = Matrix::multiply(r, true, r, false);
      EXPECT_LT(testing::max_diff(rtr, gram), 1e-9)
          << "R^T R differs from the sequential Gram matrix in mode " << mode;
    }
  });
}

TEST_P(TsqrGeneralGrids, FactorMatchesGramRouteOnDistributedModes) {
  const auto& shape = GetParam();
  int p = 1;
  for (int e : shape) p *= e;
  const Dims dims{6, 8, 7};
  run_ranks(p, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, shape);
    const DistTensor x =
        data::make_low_rank(grid, dims, Dims{3, 4, 3}, 11, 0.05);
    for (int mode = 0; mode < 3; ++mode) {
      const dist::FactorResult tsqr = dist::factor_via_tsqr(
          x, mode, dist::RankSelection::fixed_rank(3));
      const dist::GramColumns s = dist::gram(x, mode);
      const dist::FactorResult gram = dist::eigenvectors(
          s, *grid, mode, dist::RankSelection::fixed_rank(3));
      for (std::size_t i = 0; i < tsqr.eigenvalues.size(); ++i) {
        EXPECT_NEAR(tsqr.eigenvalues[i], gram.eigenvalues[i],
                    1e-8 * (1.0 + gram.eigenvalues[0]))
            << "mode " << mode << " eigenvalue " << i;
      }
      EXPECT_LT(testing::max_diff(tsqr.u, gram.u), 1e-6) << "mode " << mode;
      EXPECT_LT(testing::orthonormality_defect(tsqr.u), 1e-10);
    }
  });
}

TEST(TsqrGeneral, DeepTailResolvedOnDistributedMode) {
  // The numerical-stability payoff must survive distribution of the factored
  // mode: singular values spanning 10 decades (sigma^2 spans 20) with P0 = 2.
  const std::size_t in = 6;
  const Dims dims{in, 40, 20};
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    DistTensor x(grid, dims);
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
  });
}

TEST(TsqrGeneral, EmptyModeBlocksHandled) {
  // More ranks in the factored mode than it has rows: P0 = 5 over J0 = 3,
  // so some ranks own zero mode-0 rows and contribute only padding.
  run_ranks(5, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {5, 1});
    DistTensor x(grid, Dims{3, 4});
    x.fill_global(testing::splitmix_field(21));
    Tensor global(Dims{3, 4});
    global.fill_from(testing::splitmix_field(21));
    const Matrix r = dist::tsqr_r_factor(x, 0);
    const Matrix rtr = Matrix::multiply(r, true, r, false);
    EXPECT_LT(testing::max_diff(rtr, tensor::local_gram(global, 0)), 1e-10);
  });
}

/// On a 2x2(x1) grid the TSQR route runs on every mode — mode_routes
/// records it for all of them — and the result matches the Gram route
/// and the sequential reference with the eq. 3 bound intact.
TEST(TsqrGeneral, SthosvdNoFallbackOn2x2Grid) {
  const Dims dims{8, 9, 7};
  const double eps = 0.2;
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, dims, Dims{3, 3, 3}, 13, 0.1);
    core::SthosvdOptions gram_opts;
    gram_opts.epsilon = eps;
    core::SthosvdOptions tsqr_opts = gram_opts;
    tsqr_opts.factor_method = core::FactorMethod::TsqrSvd;

    const auto a = core::st_hosvd(x, gram_opts);
    const auto b = core::st_hosvd(x, tsqr_opts);
    for (int n = 0; n < 3; ++n) {
      EXPECT_EQ(b.mode_routes[static_cast<std::size_t>(n)],
                core::FactorRoute::Tsqr)
          << "TSQR must be exercised on every mode, not silently fall back";
    }
    EXPECT_EQ(a.tucker.core_dims(), b.tucker.core_dims());
    EXPECT_LE(b.error_bound, eps);
    const double err_a =
        core::normalized_error(x, core::reconstruct(a.tucker));
    const double err_b =
        core::normalized_error(x, core::reconstruct(b.tucker));
    EXPECT_NEAR(err_a, err_b, 1e-8);
    EXPECT_LE(err_b, eps);
  });
}

TEST(TsqrGeneral, SthosvdMatchesSequentialRouteAcrossEps) {
  const Dims dims{8, 7, 6};
  for (const double eps : {1e-1, 1e-2, 1e-4}) {
    // Sequential reference on the identical global tensor.
    const Tensor global = data::make_low_rank_seq(dims, Dims{3, 3, 3}, 17, 0.02);
    core::seq::SeqOptions seq_opts;
    seq_opts.epsilon = eps;
    const auto ref = core::seq::seq_st_hosvd(global, seq_opts);
    const double ref_err = core::seq::seq_normalized_error(
        global, core::seq::seq_reconstruct(ref.tucker));

    run_ranks(6, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, {2, 3, 1});
      const DistTensor x =
          data::make_low_rank(grid, dims, Dims{3, 3, 3}, 17, 0.02);
      core::SthosvdOptions opts;
      opts.epsilon = eps;
      opts.factor_method = core::FactorMethod::TsqrSvd;
      const auto got = core::st_hosvd(x, opts);
      EXPECT_EQ(got.tucker.core_dims(), ref.tucker.core_dims())
          << "eps = " << eps;
      EXPECT_LE(got.error_bound, eps);
      const double err =
          core::normalized_error(x, core::reconstruct(got.tucker));
      EXPECT_LE(err, eps) << "eq. 3 bound violated at eps = " << eps;
      EXPECT_NEAR(err, ref_err, 1e-7) << "eps = " << eps;
    });
  }
}

TEST(TsqrGeneral, AutoPolicyFollowsCostModel) {
  // Pure model: a tall-skinny unfolding (J0 = 4 vs Jhat_0 = 250000) on a
  // distributed mode prefers TSQR; a fat unfolding prefers the Gram route.
  EXPECT_TRUE(costmodel::prefer_tsqr({4, 500, 500}, 0, {2, 2, 1}));
  EXPECT_FALSE(costmodel::prefer_tsqr({500, 4, 500}, 0, {2, 2, 1}));
  // With Pn == 1 the Gram route keeps its latency edge at small sizes.
  EXPECT_FALSE(costmodel::prefer_tsqr({8, 8, 8}, 2, {2, 2, 1}));
}

TEST(TsqrGeneral, SthosvdAutoRoutesTallSkinnyModeThroughTsqr) {
  const Dims dims{4, 60, 60};
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, dims, Dims{3, 5, 5}, 23, 0.05);
    core::SthosvdOptions opts;
    opts.fixed_ranks = {3, 5, 5};
    opts.factor_method = core::FactorMethod::Auto;
    const auto result = core::st_hosvd(x, opts);
    // Mode 0 is tall-skinny (4 x 3600, P0 = 2): the model routes it through
    // TSQR; the fat later modes do not.
    EXPECT_EQ(result.mode_routes[0], core::FactorRoute::Tsqr);
    EXPECT_NE(result.mode_routes[1], core::FactorRoute::Tsqr);
    EXPECT_NE(result.mode_routes[2], core::FactorRoute::Tsqr);
    EXPECT_EQ(result.tucker.core_dims(), (Dims{3, 5, 5}));
  });
}

TEST(TsqrGeneral, HooiWithTsqrMatchesGramRoute) {
  const Dims dims{8, 9, 7};
  run_ranks(6, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 3, 1});
    const DistTensor x =
        data::make_low_rank(grid, dims, Dims{3, 3, 3}, 29, 0.1);
    core::SthosvdOptions gram_init;
    gram_init.fixed_ranks = {3, 3, 3};
    core::SthosvdOptions tsqr_init = gram_init;
    tsqr_init.factor_method = core::FactorMethod::TsqrSvd;
    core::HooiOptions opts;
    opts.max_sweeps = 3;

    const auto a = core::hooi(x, gram_init, opts);
    const auto b = core::hooi(x, tsqr_init, opts);
    ASSERT_EQ(a.error_history.size(), b.error_history.size());
    for (std::size_t i = 0; i < a.error_history.size(); ++i) {
      EXPECT_NEAR(a.error_history[i], b.error_history[i], 1e-8)
          << "sweep " << i;
    }
  });
}

}  // namespace
}  // namespace ptucker
