/// \file randomized_route_test.cpp
/// \brief The randomized sketched factor route (FactorMethod::Randomized):
/// eq. 3 error bound against the sequential oracle on ragged dims, the
/// sketch width, the cost-model Auto crossover, the eps-tail fallback to the
/// Gram route (recorded in mode_routes and counted, never silent), and the
/// sequential oracle's route record.

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
#include "dist/sketch.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using dist::DistTensor;
using tensor::Dims;
using tensor::Tensor;
using testing::run_ranks;

/// Eq. 3 on ragged dims across grids, checked against the sequential oracle
/// running the identical sketch (same seed, same counter-based Omega): same
/// core dims, near-identical measured error, bound respected.
TEST(RandomizedRoute, Eq3BoundMatchesSequentialOracleOnRaggedDims) {
  const Dims dims{19, 13, 8};
  const double eps = 0.2;

  core::seq::SeqOptions seq_opts;
  seq_opts.epsilon = eps;
  seq_opts.route = core::FactorRoute::Randomized;
  const Tensor global = data::make_low_rank_seq(dims, Dims{5, 4, 3}, 7, 0.01);
  const auto ref = core::seq::seq_st_hosvd(global, seq_opts);
  for (const core::FactorRoute route : ref.mode_routes) {
    EXPECT_EQ(route, core::FactorRoute::Randomized);
  }
  const double ref_err = core::seq::seq_normalized_error(
      global, core::seq::seq_reconstruct(ref.tucker));
  EXPECT_LE(ref_err, eps);

  for (const auto& shape :
       {std::vector<int>{1, 1, 1}, std::vector<int>{2, 2, 1},
        std::vector<int>{3, 1, 2}}) {
    int p = 1;
    for (int e : shape) p *= e;
    run_ranks(p, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, shape);
      const DistTensor x = data::make_low_rank(grid, dims, Dims{5, 4, 3}, 7,
                                               0.01);
      core::SthosvdOptions opts;
      opts.epsilon = eps;
      opts.factor_method = core::FactorMethod::Randomized;
      const auto got = core::st_hosvd(x, opts);
      for (int n = 0; n < 3; ++n) {
        EXPECT_EQ(got.mode_routes[static_cast<std::size_t>(n)],
                  core::FactorRoute::Randomized);
      }
      EXPECT_EQ(got.tucker.core_dims(), ref.tucker.core_dims())
          << "grid " << testing::shape_name(shape);
      EXPECT_LE(got.error_bound, eps);
      const double err =
          core::normalized_error(x, core::reconstruct(got.tucker));
      EXPECT_LE(err, eps) << "eq. 3 bound violated on grid "
                          << testing::shape_name(shape);
      EXPECT_NEAR(err, ref_err, 1e-7)
          << "grid " << testing::shape_name(shape);
    });
  }
}

/// Under fixed ranks every mode runs the sketch at width rank + 8, which is
/// the length of the sketch spectrum the driver records.
TEST(RandomizedRoute, SketchWidthIsRankPlusOversample) {
  const Dims dims{24, 18, 12};
  const testing::CounterDelta delta;
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor x = data::make_low_rank(grid, dims, Dims{4, 4, 3}, 3,
                                             0.05);
    core::SthosvdOptions opts;
    opts.fixed_ranks = {4, 4, 3};
    opts.factor_method = core::FactorMethod::Randomized;
    const auto got = core::st_hosvd(x, opts);
    for (std::size_t n = 0; n < 3; ++n) {
      EXPECT_EQ(got.mode_routes[n], core::FactorRoute::Randomized);
      EXPECT_EQ(got.mode_eigenvalues[n].size(), opts.fixed_ranks[n] + 8)
          << "mode " << n;
    }
  });
  EXPECT_EQ(delta("dist.sketch_fallbacks"), 0u);
}

/// The default sketch (8 oversampling columns, one power iteration) passes
/// the bound-free sanity checks and is as good as the exact Gram route.
TEST(RandomizedRoute, DefaultSketchMatchesExactRoute) {
  const Dims dims{40, 24, 16};
  const Dims ranks{6, 5, 4};
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    const DistTensor x = data::make_low_rank(grid, dims, ranks, 41, 0.1);
    core::SthosvdOptions gram_opts;
    gram_opts.fixed_ranks = ranks;
    const auto exact = core::st_hosvd(x, gram_opts);
    const double exact_err =
        core::normalized_error(x, core::reconstruct(exact.tucker));

    core::SthosvdOptions opts;
    opts.fixed_ranks = ranks;
    opts.factor_method = core::FactorMethod::Randomized;
    const auto got = core::st_hosvd(x, opts);
    EXPECT_EQ(got.tucker.core_dims(), exact.tucker.core_dims());
    for (const auto& u : got.tucker.factors) {
      EXPECT_LT(testing::orthonormality_defect(u), 1e-10);
    }
    const double err =
        core::normalized_error(x, core::reconstruct(got.tucker));
    EXPECT_LE(err, 1.1 * exact_err) << "default sketch should match exact";
  });
}

/// Pure cost model: the sketch wins exactly where its O(Jn w Jhat) flops
/// undercut both exact routes — a huge mode extent with a narrow sketch —
/// and is never picked when the width is not materially below Jn.
TEST(RandomizedRoute, CostModelCrossover) {
  const std::vector<int> unit{1, 1, 1};
  // Huge mode-0 extent, narrow sketch: the sketch's 2(1+2q) w J flops beat
  // the Gram route's (Jn+1) J.
  EXPECT_TRUE(costmodel::prefer_sketch({256, 48, 48}, 0, 16, 1, unit));
  // Small extent: the Gram route is linear in a small Jn; sketch loses.
  EXPECT_FALSE(costmodel::prefer_sketch({48, 48, 48}, 0, 16, 1, unit));
  // Width >= Jn/2: no flop advantage, never picked.
  EXPECT_FALSE(costmodel::prefer_sketch({32, 500, 500}, 0, 16, 1, unit));
  // More power iterations shift the crossover upward.
  const std::size_t jn_q1 = [&] {
    std::size_t jn = 48;
    while (!costmodel::prefer_sketch({jn, 48, 48}, 0, 16, 1, unit)) jn += 16;
    return jn;
  }();
  const std::size_t jn_q3 = [&] {
    std::size_t jn = 48;
    while (!costmodel::prefer_sketch({jn, 48, 48}, 0, 16, 3, unit)) jn += 16;
    return jn;
  }();
  EXPECT_GE(jn_q3, jn_q1);
}

/// FactorMethod::Auto routes the huge tall mode through the sketch and the
/// small later modes through the exact routes, matching prefer_sketch.
TEST(RandomizedRoute, AutoPolicyFollowsCostModel) {
  const Dims dims{256, 24, 24};
  const Dims ranks{8, 6, 6};
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor x = data::make_low_rank(grid, dims, ranks, 17, 0.05);
    core::SthosvdOptions opts;
    opts.fixed_ranks = ranks;
    opts.factor_method = core::FactorMethod::Auto;
    const auto got = core::st_hosvd(x, opts);

    // The driver's choice must agree with the public predicate.
    const std::size_t w0 = dist::sketch_width(256, 8);
    ASSERT_TRUE(costmodel::prefer_sketch(dims, 0, w0,
                                         dist::kSketchPowerIterations,
                                         {1, 1, 1}));
    EXPECT_EQ(got.mode_routes[0], core::FactorRoute::Randomized);
    // After mode 0 truncates to 8, the later unfoldings are small: exact.
    EXPECT_NE(got.mode_routes[1], core::FactorRoute::Randomized);
    EXPECT_NE(got.mode_routes[2], core::FactorRoute::Randomized);
    EXPECT_EQ(got.tucker.core_dims(), ranks);
  });
}

/// A tight eps on full-rank data starves the sketch of budget: the
/// posteriori check must reject it, fall back to the Gram route, record it
/// in mode_routes and count it once per fallback (not once per rank) — and
/// the eq. 3 bound must still hold through the fallback.
TEST(RandomizedRoute, EpsTailFallbackToGramIsRecorded) {
  const Dims dims{24, 12, 10};
  const double eps = 1e-4;
  const testing::CounterDelta delta;
  std::uint64_t gram_modes = 0;
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(99));  // full-rank noise
    core::SthosvdOptions opts;
    opts.epsilon = eps;
    opts.factor_method = core::FactorMethod::Randomized;
    const auto got = core::st_hosvd(x, opts);
    if (comm.rank() == 0) {
      for (const core::FactorRoute route : got.mode_routes) {
        if (route == core::FactorRoute::Gram) ++gram_modes;
      }
    }
    EXPECT_EQ(got.mode_routes[0], core::FactorRoute::Gram);
    EXPECT_LE(got.error_bound, eps);
    const double err =
        core::normalized_error(x, core::reconstruct(got.tucker));
    EXPECT_LE(err, eps);
  });
  EXPECT_GE(gram_modes, 1u);
  EXPECT_EQ(delta("dist.sketch_fallbacks"), gram_modes);
}

/// The sequential oracle's Tsqr -> Gram replacement on a non-wide
/// unfolding is recorded in mode_routes, not silent.
TEST(RandomizedRoute, SeqSvdQrDowngradeIsRecorded) {
  const Tensor x = Tensor::randn(Dims{16, 2, 2}, 21);
  core::seq::SeqOptions opts;
  opts.epsilon = 0.3;
  opts.route = core::FactorRoute::Tsqr;
  const auto got = core::seq::seq_st_hosvd(x, opts);
  // Mode 0's unfolding is 16 x 4 — not wide, so the QR route is undefined
  // and the Gram route runs instead; modes 1 and 2 are wide and keep Tsqr.
  EXPECT_EQ(got.mode_routes[0], core::FactorRoute::Gram);
  EXPECT_EQ(got.mode_routes[1], core::FactorRoute::Tsqr);
  EXPECT_EQ(got.mode_routes[2], core::FactorRoute::Tsqr);
}

/// The sequential randomized route records its eps-tail fallback in
/// mode_routes too.
TEST(RandomizedRoute, SeqSketchFallbackIsRecorded) {
  const Tensor x = Tensor::randn(Dims{20, 8, 8}, 33);
  core::seq::SeqOptions opts;
  opts.epsilon = 1e-4;
  opts.route = core::FactorRoute::Randomized;
  const auto got = core::seq::seq_st_hosvd(x, opts);
  EXPECT_EQ(got.mode_routes[0], core::FactorRoute::Gram);
  const double err = core::seq::seq_normalized_error(
      x, core::seq::seq_reconstruct(got.tucker));
  EXPECT_LE(err, opts.epsilon);
}

/// HOOI sweeps reuse the initialization's randomized route under fixed
/// ranks and stay monotone, landing at the same fit as the Gram route.
TEST(RandomizedRoute, HooiSweepsMatchGramRoute) {
  const Dims dims{30, 20, 14};
  const Dims ranks{5, 4, 3};
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    const DistTensor x = data::make_low_rank(grid, dims, ranks, 55, 0.1);
    core::SthosvdOptions gram_init;
    gram_init.fixed_ranks = ranks;
    core::SthosvdOptions rand_init = gram_init;
    rand_init.factor_method = core::FactorMethod::Randomized;
    core::HooiOptions opts;
    opts.max_sweeps = 3;

    const auto a = core::hooi(x, gram_init, opts);
    const auto b = core::hooi(x, rand_init, opts);
    ASSERT_FALSE(b.error_history.empty());
    for (std::size_t i = 1; i < b.error_history.size(); ++i) {
      EXPECT_LE(b.error_history[i], b.error_history[i - 1] + 1e-12)
          << "sweep " << i << " not monotone";
    }
    EXPECT_NEAR(a.error_history.back(), b.error_history.back(), 1e-6);
  });
}

}  // namespace
}  // namespace ptucker
