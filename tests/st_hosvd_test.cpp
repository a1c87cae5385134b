#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/reconstruct.hpp"
#include "core/st_hosvd.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "obs/trace.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using core::SthosvdOptions;
using dist::DistTensor;
using tensor::Dims;
using tensor::Tensor;
using testing::run_ranks;

int grid_size(const std::vector<int>& shape) {
  int p = 1;
  for (int e : shape) p *= e;
  return p;
}

class SthosvdGrids : public ::testing::TestWithParam<std::vector<int>> {};

INSTANTIATE_TEST_SUITE_P(
    Grids, SthosvdGrids,
    ::testing::Values(std::vector<int>{1, 1, 1}, std::vector<int>{2, 1, 1},
                      std::vector<int>{2, 2, 1}, std::vector<int>{2, 2, 2},
                      std::vector<int>{1, 3, 2}, std::vector<int>{4, 2, 1}),
    [](const auto& info) { return testing::shape_name(info.param); });

TEST_P(SthosvdGrids, RecoversExactLowRankTensor) {
  const auto& shape = GetParam();
  const Dims dims{10, 9, 8};
  const Dims ranks{3, 4, 2};
  run_ranks(grid_size(shape), [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, shape);
    const DistTensor x = data::make_low_rank(grid, dims, ranks, 7, 0.0);
    SthosvdOptions opts;
    // eps = 1e-6 keeps the tail threshold comfortably above the ~1e-15
    // relative eigenvalue noise floor of an exactly low-rank Gram matrix.
    opts.epsilon = 1e-6;
    const auto result = core::st_hosvd(x, opts);
    // Exact multilinear ranks detected.
    EXPECT_EQ(result.tucker.core_dims(), ranks);
    // Reconstruction error at numerical noise level.
    const DistTensor xt = core::reconstruct(result.tucker);
    EXPECT_LT(core::normalized_error(x, xt), 1e-6);
  });
}

TEST_P(SthosvdGrids, ErrorBoundHolds) {
  const auto& shape = GetParam();
  const Dims dims{9, 8, 7};
  const Dims ranks{3, 3, 3};
  const double eps = 0.2;  // loose target so truncation actually happens
  run_ranks(grid_size(shape), [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, shape);
    const DistTensor x = data::make_low_rank(grid, dims, ranks, 13, 0.05);
    SthosvdOptions opts;
    opts.epsilon = eps;
    const auto result = core::st_hosvd(x, opts);
    const DistTensor xt = core::reconstruct(result.tucker);
    const double err = core::normalized_error(x, xt);
    // Paper eq. (3): ‖X − X̃‖ <= eps ‖X‖ — with slack for fp rounding.
    EXPECT_LE(err, eps * 1.0000001);
    // And the a-priori bound from the truncated tails dominates the error.
    EXPECT_LE(err, result.error_bound + 1e-9);
  });
}

TEST(Sthosvd, ErrorIsIndependentOfProcessorGrid) {
  const Dims dims{8, 8, 8};
  const Dims ranks{3, 3, 3};
  const double eps = 0.3;
  std::vector<double> errors;
  for (const auto& shape : {std::vector<int>{1, 1, 1},
                            std::vector<int>{2, 2, 2},
                            std::vector<int>{4, 1, 2}}) {
    double err = 0.0;
    run_ranks(grid_size(shape), [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, shape);
      const DistTensor x = data::make_low_rank(grid, dims, ranks, 3, 0.1);
      SthosvdOptions opts;
      opts.epsilon = eps;
      const auto result = core::st_hosvd(x, opts);
      const DistTensor xt = core::reconstruct(result.tucker);
      const double e = core::normalized_error(x, xt);
      if (comm.rank() == 0) err = e;
    });
    errors.push_back(err);
  }
  EXPECT_NEAR(errors[0], errors[1], 1e-8);
  EXPECT_NEAR(errors[0], errors[2], 1e-8);
}

TEST(Sthosvd, FixedRanksAreRespected) {
  run_ranks(4, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 8, 6}, Dims{4, 4, 3}, 5, 0.2);
    SthosvdOptions opts;
    opts.fixed_ranks = {2, 3, 2};
    const auto result = core::st_hosvd(x, opts);
    EXPECT_EQ(result.tucker.core_dims(), (Dims{2, 3, 2}));
    for (int n = 0; n < 3; ++n) {
      EXPECT_EQ(result.tucker.factors[static_cast<std::size_t>(n)].cols(),
                opts.fixed_ranks[static_cast<std::size_t>(n)]);
    }
  });
}

TEST(Sthosvd, FactorsAreOrthonormal) {
  run_ranks(4, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 7, 6}, Dims{3, 3, 3}, 9, 0.1);
    const auto result = core::st_hosvd(x, SthosvdOptions{});
    for (const auto& u : result.tucker.factors) {
      EXPECT_LT(testing::orthonormality_defect(u), 1e-9);
    }
  });
}

TEST(Sthosvd, CoreNormPlusErrorAccountsForFullNorm) {
  // ‖X‖² = ‖G‖² + ‖X − X̃‖² for orthonormal factors (Pythagoras).
  run_ranks(4, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 8, 8}, Dims{3, 3, 3}, 11, 0.15);
    SthosvdOptions opts;
    opts.epsilon = 0.25;
    const auto result = core::st_hosvd(x, opts);
    const DistTensor xt = core::reconstruct(result.tucker);
    const double norm_x_sq = x.norm_squared();
    const double core_sq = result.tucker.core.norm_squared();
    const double err = core::normalized_error(x, xt);
    EXPECT_NEAR(core_sq + err * err * norm_x_sq, norm_x_sq,
                1e-8 * norm_x_sq);
  });
}

TEST(Sthosvd, ModeOrderDoesNotChangeErrorGuarantee) {
  const Dims dims{8, 6, 7};
  const double eps = 0.3;
  for (const auto strategy :
       {core::ModeOrderStrategy::Natural, core::ModeOrderStrategy::GreedyFlops}) {
    run_ranks(4, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, {2, 2, 1});
      const DistTensor x =
          data::make_low_rank(grid, dims, Dims{3, 2, 3}, 21, 0.1);
      SthosvdOptions opts;
      opts.epsilon = eps;
      opts.order_strategy = strategy;
      const auto result = core::st_hosvd(x, opts);
      const DistTensor xt = core::reconstruct(result.tucker);
      EXPECT_LE(core::normalized_error(x, xt), eps * 1.0000001);
    });
  }
}

TEST(Sthosvd, CustomModeOrderIsUsed) {
  run_ranks(2, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{6, 6, 6}, Dims{2, 2, 2}, 1, 0.05);
    SthosvdOptions opts;
    opts.order_strategy = core::ModeOrderStrategy::Custom;
    opts.custom_order = {2, 0, 1};
    const auto result = core::st_hosvd(x, opts);
    EXPECT_EQ(result.mode_order_used, (std::vector<int>{2, 0, 1}));
  });
}

TEST(Sthosvd, SpectraHaveFullLengthPerMode) {
  run_ranks(2, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{7, 6, 5}, Dims{3, 3, 3}, 2, 0.1);
    const auto result = core::st_hosvd(x, SthosvdOptions{});
    ASSERT_EQ(result.mode_eigenvalues.size(), 3u);
    EXPECT_EQ(result.mode_eigenvalues[0].size(), 7u);
    EXPECT_EQ(result.mode_eigenvalues[1].size(), 6u);
    EXPECT_EQ(result.mode_eigenvalues[2].size(), 5u);
  });
}

TEST(Sthosvd, EpsilonZeroKeepsEverything) {
  run_ranks(2, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{5, 4, 3}, Dims{5, 4, 3}, 3, 0.3);
    SthosvdOptions opts;
    opts.epsilon = 0.0;
    const auto result = core::st_hosvd(x, opts);
    // Full-rank data with eps = 0: nothing may be truncated.
    EXPECT_EQ(result.tucker.core_dims(), (Dims{5, 4, 3}));
    const dist::DistTensor xt = core::reconstruct(result.tucker);
    EXPECT_LT(core::normalized_error(x, xt), 1e-9);
  });
}

TEST(Sthosvd, TuckerCompressionAccountants) {
  run_ranks(1, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{10, 10, 10}, Dims{2, 2, 2}, 4, 0.0);
    const auto result = core::st_hosvd(x, SthosvdOptions{});
    const auto& t = result.tucker;
    EXPECT_EQ(t.original_elements(), 1000u);
    EXPECT_EQ(t.compressed_elements(), 8u + 3u * 20u);
    EXPECT_NEAR(t.compression_ratio(), 1000.0 / 68.0, 1e-12);
    EXPECT_NEAR(core::compression_ratio(Dims{10, 10, 10}, Dims{2, 2, 2}),
                t.compression_ratio(), 1e-12);
  });
}

TEST(Sthosvd, FourWayTensor) {
  run_ranks(8, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 2, 1});
    const DistTensor x = data::make_low_rank(grid, Dims{6, 6, 6, 5},
                                             Dims{2, 3, 2, 2}, 17, 0.0);
    SthosvdOptions opts;
    opts.epsilon = 1e-6;
    const auto result = core::st_hosvd(x, opts);
    EXPECT_EQ(result.tucker.core_dims(), (Dims{2, 3, 2, 2}));
    const DistTensor xt = core::reconstruct(result.tucker);
    EXPECT_LT(core::normalized_error(x, xt), 1e-6);
  });
}

// --- Fig. 8 attribution: the kernels emit their own spans ------------------

/// Spans of one traced ST-HOSVD of a 9x8x7 tensor on a 2x2x1 grid.
std::vector<obs::TraceEvent> traced_sthosvd(core::FactorMethod method) {
  obs::TraceSession::start();
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    DistTensor x(grid, Dims{9, 8, 7});
    x.fill_global(testing::splitmix_field(31));
    SthosvdOptions opts;
    opts.epsilon = 0.3;
    opts.factor_method = method;
    (void)core::st_hosvd(x, opts);
  });
  obs::TraceSession::stop();
  EXPECT_EQ(obs::TraceSession::dropped(), 0u);
  return obs::TraceSession::events();
}

TEST(SthosvdSpans, GramRouteRecordsOneKernelSpanPerRankAndMode) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with PTUCKER_OBS=OFF";
  const std::vector<obs::TraceEvent> events =
      traced_sthosvd(core::FactorMethod::GramEig);
  for (const char* name : {"st_hosvd.mode", "Gram", "Evecs", "TTM"}) {
    for (int r = 0; r < 4; ++r) {
      for (int n = 0; n < 3; ++n) {
        EXPECT_EQ(testing::count_spans(events, name, r, n), 1u)
            << name << " on rank " << r << ", mode " << n;
      }
    }
    // Nothing outside those (rank, mode) pairs: each span is set once.
    EXPECT_EQ(testing::count_spans(events, name), 12u) << name;
  }
}

TEST(SthosvdSpans, TsqrRouteRecordsTsqrAndEvecsButNoGram) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with PTUCKER_OBS=OFF";
  const std::vector<obs::TraceEvent> events =
      traced_sthosvd(core::FactorMethod::TsqrSvd);
  EXPECT_EQ(testing::count_spans(events, "Gram"), 0u);
  for (const char* name : {"TSQR", "Evecs", "TTM"}) {
    for (int r = 0; r < 4; ++r) {
      for (int n = 0; n < 3; ++n) {
        EXPECT_EQ(testing::count_spans(events, name, r, n), 1u)
            << name << " on rank " << r << ", mode " << n;
      }
    }
  }
}

}  // namespace
}  // namespace ptucker
