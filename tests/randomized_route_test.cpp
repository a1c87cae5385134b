/// \file randomized_route_test.cpp
/// \brief The randomized sketched factor route (FactorMethod::Randomized):
/// eq. 3 error bound against the sequential oracle on ragged dims, the
/// oversampling / power-iteration knobs, the cost-model Auto crossover, the
/// eps-tail fallback to the Gram route, and the recorded (never silent)
/// downgrades of the sequential oracle.

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
  EXPECT_TRUE(ref.downgrades.empty());
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
      EXPECT_TRUE(got.downgrades.empty());
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

TEST(RandomizedRoute, ObservabilityRecordsSeedWidthAndPowerIterations) {
  const Dims dims{24, 18, 12};
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor x = data::make_low_rank(grid, dims, Dims{4, 4, 3}, 3,
                                             0.05);
    core::SthosvdOptions opts;
    opts.fixed_ranks = {4, 4, 3};
    opts.factor_method = core::FactorMethod::Randomized;
    opts.sketch.seed = 0xabcd;
    opts.sketch.oversample = 5;
    opts.sketch.power_iterations = 2;
    const auto got = core::st_hosvd(x, opts);
    ASSERT_EQ(got.sketches.size(), 3u);
    for (const auto& trace : got.sketches) {
      EXPECT_EQ(trace.seed, 0xabcdu);
      EXPECT_EQ(trace.power_iterations, 2);
      EXPECT_FALSE(trace.fell_back);
      // width = rank + oversample, clamped to the (shrinking) mode extent.
      const std::size_t rank =
          opts.fixed_ranks[static_cast<std::size_t>(trace.mode)];
      EXPECT_EQ(trace.width, rank + 5) << "mode " << trace.mode;
    }
  });
}

/// More oversampling and more power iterations only sharpen the subspace:
/// every configuration passes the bound-free sanity checks, and the richest
/// one is as good as the exact Gram route.
TEST(RandomizedRoute, OversamplingAndPowerIterationSweep) {
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

    const struct {
      std::size_t oversample;
      int power_iterations;
    } configs[] = {{2, 0}, {4, 1}, {8, 2}};
    for (const auto& cfg : configs) {
      core::SthosvdOptions opts;
      opts.fixed_ranks = ranks;
      opts.factor_method = core::FactorMethod::Randomized;
      opts.sketch.oversample = cfg.oversample;
      opts.sketch.power_iterations = cfg.power_iterations;
      const auto got = core::st_hosvd(x, opts);
      EXPECT_EQ(got.tucker.core_dims(), exact.tucker.core_dims());
      for (const auto& u : got.tucker.factors) {
        EXPECT_LT(testing::orthonormality_defect(u), 1e-10);
      }
      const double err =
          core::normalized_error(x, core::reconstruct(got.tucker));
      EXPECT_LE(err, 2.0 * exact_err)
          << "p=" << cfg.oversample << " q=" << cfg.power_iterations;
      if (cfg.oversample == 8) {
        EXPECT_LE(err, 1.1 * exact_err) << "rich sketch should match exact";
      }
    }
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
    const std::size_t w0 = dist::sketch_width(256, 8, opts.sketch);
    ASSERT_TRUE(costmodel::prefer_sketch(dims, 0, w0, 1, {1, 1, 1}));
    EXPECT_EQ(got.mode_routes[0], core::FactorRoute::Randomized);
    ASSERT_EQ(got.sketches.size(), 1u);
    EXPECT_EQ(got.sketches[0].mode, 0);
    // After mode 0 truncates to 8, the later unfoldings are small: exact.
    EXPECT_NE(got.mode_routes[1], core::FactorRoute::Randomized);
    EXPECT_NE(got.mode_routes[2], core::FactorRoute::Randomized);
    EXPECT_EQ(got.tucker.core_dims(), ranks);
  });
}

/// A tight eps on full-rank data starves the sketch of budget: the
/// posteriori check must reject it, fall back to the Gram route, record the
/// downgrade — and the eq. 3 bound must still hold through the fallback.
TEST(RandomizedRoute, EpsTailFallbackToGramIsRecorded) {
  const Dims dims{24, 12, 10};
  const double eps = 1e-4;
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(99));  // full-rank noise
    core::SthosvdOptions opts;
    opts.epsilon = eps;
    opts.factor_method = core::FactorMethod::Randomized;
    opts.sketch.rank_guess = 4;
    opts.sketch.oversample = 2;
    const auto got = core::st_hosvd(x, opts);
    ASSERT_FALSE(got.downgrades.empty());
    for (const auto& d : got.downgrades) {
      EXPECT_EQ(d.requested, core::FactorRoute::Randomized);
      EXPECT_EQ(d.used, core::FactorRoute::Gram);
      EXPECT_EQ(got.mode_routes[static_cast<std::size_t>(d.mode)],
                core::FactorRoute::Gram);
      EXPECT_FALSE(d.reason.empty());
    }
    // Every fallback also shows up in the sketch observability trail.
    ASSERT_FALSE(got.sketches.empty());
    bool any_fell_back = false;
    for (const auto& trace : got.sketches) any_fell_back |= trace.fell_back;
    EXPECT_TRUE(any_fell_back);
    EXPECT_LE(got.error_bound, eps);
    const double err =
        core::normalized_error(x, core::reconstruct(got.tucker));
    EXPECT_LE(err, eps);
  });
}

/// The sequential oracle's Tsqr -> Gram downgrade on a non-wide unfolding
/// is recorded, not silent.
TEST(RandomizedRoute, SeqSvdQrDowngradeIsRecorded) {
  const Tensor x = Tensor::randn(Dims{16, 2, 2}, 21);
  core::seq::SeqOptions opts;
  opts.epsilon = 0.3;
  opts.route = core::FactorRoute::Tsqr;
  const auto got = core::seq::seq_st_hosvd(x, opts);
  // Mode 0's unfolding is 16 x 4 — not wide, so the QR route is undefined
  // and the Gram route runs instead; modes 1 and 2 are wide and keep Tsqr.
  ASSERT_EQ(got.downgrades.size(), 1u);
  EXPECT_EQ(got.downgrades[0].mode, 0);
  EXPECT_EQ(got.downgrades[0].requested, core::FactorRoute::Tsqr);
  EXPECT_EQ(got.downgrades[0].used, core::FactorRoute::Gram);
  EXPECT_FALSE(got.downgrades[0].reason.empty());
  EXPECT_EQ(got.mode_routes[0], core::FactorRoute::Gram);
  EXPECT_EQ(got.mode_routes[1], core::FactorRoute::Tsqr);
  EXPECT_EQ(got.mode_routes[2], core::FactorRoute::Tsqr);
}

/// The sequential randomized route uses the same recorded-downgrade
/// mechanism for its eps-tail fallback.
TEST(RandomizedRoute, SeqSketchFallbackIsRecorded) {
  const Tensor x = Tensor::randn(Dims{20, 8, 8}, 33);
  core::seq::SeqOptions opts;
  opts.epsilon = 1e-4;
  opts.route = core::FactorRoute::Randomized;
  opts.sketch.rank_guess = 3;
  opts.sketch.oversample = 2;
  const auto got = core::seq::seq_st_hosvd(x, opts);
  ASSERT_FALSE(got.downgrades.empty());
  EXPECT_EQ(got.downgrades[0].requested,
            core::FactorRoute::Randomized);
  EXPECT_EQ(got.downgrades[0].used, core::FactorRoute::Gram);
  const double err = core::seq::seq_normalized_error(
      x, core::seq::seq_reconstruct(got.tucker));
  EXPECT_LE(err, opts.epsilon);
}

/// HOOI accepts the randomized route for its fixed-rank sweeps and stays
/// monotone, landing at the same fit as the Gram-route sweeps.
TEST(RandomizedRoute, HooiSweepsMatchGramRoute) {
  const Dims dims{30, 20, 14};
  const Dims ranks{5, 4, 3};
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    const DistTensor x = data::make_low_rank(grid, dims, ranks, 55, 0.1);
    core::SthosvdOptions init;
    init.fixed_ranks = ranks;
    core::HooiOptions gram_opts;
    gram_opts.max_sweeps = 3;
    core::HooiOptions rand_opts = gram_opts;
    rand_opts.factor_method = core::FactorMethod::Randomized;
    rand_opts.sketch.oversample = 8;
    rand_opts.sketch.power_iterations = 2;

    const auto a = core::hooi(x, init, gram_opts);
    const auto b = core::hooi(x, init, rand_opts);
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
