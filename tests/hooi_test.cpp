#include <gtest/gtest.h>

#include "core/hooi.hpp"
#include "core/metrics.hpp"
#include "core/reconstruct.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "obs/trace.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using core::HooiOptions;
using core::SthosvdOptions;
using dist::DistTensor;
using tensor::Dims;
using testing::run_ranks;

TEST(Hooi, ErrorHistoryIsMonotonicallyNonIncreasing) {
  run_ranks(4, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{9, 8, 7}, Dims{4, 4, 3}, 3, 0.3);
    SthosvdOptions init;
    init.fixed_ranks = {2, 2, 2};  // truncate aggressively so HOOI can help
    HooiOptions opts;
    opts.max_sweeps = 4;
    opts.improvement_tol = 0.0;  // run all sweeps
    const auto result = core::hooi(x, init, opts);
    ASSERT_GE(result.error_history.size(), 2u);
    for (std::size_t i = 1; i < result.error_history.size(); ++i) {
      EXPECT_LE(result.error_history[i],
                result.error_history[i - 1] + 1e-10)
          << "sweep " << i << " increased the error";
    }
  });
}

TEST(Hooi, NeverWorseThanSthosvdInitialization) {
  run_ranks(4, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 2, 2});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 8, 8}, Dims{4, 4, 4}, 7, 0.25);
    SthosvdOptions init;
    init.fixed_ranks = {2, 3, 2};
    const auto result = core::hooi(x, init, HooiOptions{});
    const DistTensor xt = core::reconstruct(result.tucker);
    const double hooi_err = core::normalized_error(x, xt);
    EXPECT_LE(hooi_err, result.error_history.front() + 1e-9);
  });
}

TEST(Hooi, ReportedFitMatchesActualReconstructionError) {
  // ‖X‖² − ‖G‖² == ‖X − X̃‖² (the Alg. 2 line-10 identity).
  run_ranks(2, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 7, 6}, Dims{3, 3, 3}, 11, 0.2);
    SthosvdOptions init;
    init.fixed_ranks = {2, 2, 2};
    const auto result = core::hooi(x, init, HooiOptions{});
    const DistTensor xt = core::reconstruct(result.tucker);
    const double measured = core::normalized_error(x, xt);
    EXPECT_NEAR(result.error_history.back(), measured,
                1e-8 * (1.0 + measured));
  });
}

TEST(Hooi, RanksStayFixedAcrossSweeps) {
  run_ranks(2, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{7, 7, 7}, Dims{3, 3, 3}, 13, 0.3);
    SthosvdOptions init;
    init.fixed_ranks = {2, 3, 2};
    HooiOptions opts;
    opts.max_sweeps = 3;
    const auto result = core::hooi(x, init, opts);
    EXPECT_EQ(result.tucker.core_dims(), (Dims{2, 3, 2}));
  });
}

TEST(Hooi, StopsEarlyOnTargetError) {
  run_ranks(2, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    // Exact low-rank data: init already reaches ~0 error.
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 8, 8}, Dims{3, 3, 3}, 15, 0.0);
    SthosvdOptions init;
    init.epsilon = 1e-8;
    HooiOptions opts;
    opts.max_sweeps = 10;
    opts.target_error = 1e-6;
    const auto result = core::hooi(x, init, opts);
    EXPECT_LE(result.sweeps, 1);
  });
}

TEST(Hooi, ExactRecoveryStaysExact) {
  run_ranks(4, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 6, 7}, Dims{2, 3, 2}, 19, 0.0);
    SthosvdOptions init;
    init.epsilon = 1e-8;
    const auto result = core::hooi(x, init, HooiOptions{});
    const DistTensor xt = core::reconstruct(result.tucker);
    EXPECT_LT(core::normalized_error(x, xt), 1e-9);
  });
}

TEST(Hooi, GridIndependenceOfFinalError) {
  const Dims dims{8, 8, 6};
  const Dims true_ranks{4, 4, 3};
  std::vector<double> errors;
  for (const auto& shape :
       {std::vector<int>{1, 1, 1}, std::vector<int>{2, 2, 1}}) {
    int p = 1;
    for (int e : shape) p *= e;
    double err = 0.0;
    run_ranks(p, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, shape);
      const DistTensor x = data::make_low_rank(grid, dims, true_ranks, 23, 0.2);
      SthosvdOptions init;
      init.fixed_ranks = {2, 2, 2};
      HooiOptions opts;
      opts.max_sweeps = 2;
      opts.improvement_tol = 0.0;
      const auto result = core::hooi(x, init, opts);
      if (comm.rank() == 0) err = result.error_history.back();
    });
    errors.push_back(err);
  }
  EXPECT_NEAR(errors[0], errors[1], 1e-7);
}

TEST(Hooi, SweepsRecordGramEvecsAndTtmSpans) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with PTUCKER_OBS=OFF";
  int sweeps = 0;
  obs::TraceSession::start();
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    DistTensor x(grid, Dims{9, 8, 7});
    x.fill_global(testing::splitmix_field(37));
    SthosvdOptions init;
    init.fixed_ranks = {3, 3, 3};
    HooiOptions opts;
    opts.max_sweeps = 2;
    opts.improvement_tol = 0.0;  // run all sweeps
    const auto result = core::hooi(x, init, opts);
    if (comm.rank() == 0) sweeps = result.sweeps;
  });
  obs::TraceSession::stop();
  ASSERT_EQ(sweeps, 2);
  const std::vector<obs::TraceEvent> events = obs::TraceSession::events();
  for (int r = 0; r < 4; ++r) {
    for (int n = 0; n < 3; ++n) {
      // One factor per mode from the ST-HOSVD initialization, then one
      // per mode per sweep.
      for (const char* name : {"Gram", "Evecs"}) {
        EXPECT_EQ(testing::count_spans(events, name, r, n),
                  static_cast<std::size_t>(1 + sweeps))
            << name << " on rank " << r << ", mode " << n;
      }
    }
  }
  // Per rank: 3 truncating TTMs in the initialization; per sweep, a
  // 2-mode multi-TTM for each of the 3 modes plus the core TTM.
  EXPECT_EQ(testing::count_spans(events, "TTM"),
            static_cast<std::size_t>(4 * (3 + sweeps * (3 * 2 + 1))));
}

}  // namespace
}  // namespace ptucker
