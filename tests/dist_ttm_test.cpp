#include <gtest/gtest.h>

#include <tuple>

#include "dist/grid.hpp"
#include "dist/ttm.hpp"
#include "test_utils.hpp"
#include "util/rng.hpp"

namespace ptucker {
namespace {

using dist::DistTensor;
using dist::TtmAlgo;
using tensor::Dims;
using tensor::Matrix;
using tensor::Tensor;
using testing::run_ranks;

int grid_size(const std::vector<int>& shape) {
  int p = 1;
  for (int e : shape) p *= e;
  return p;
}

/// Fill a distributed tensor deterministically (grid-independent).
void fill_test_tensor(DistTensor& x, std::uint64_t seed) {
  x.fill_global([seed](std::span<const std::size_t> idx) {
    std::uint64_t h = seed;
    for (std::size_t i : idx) h = util::splitmix64(h ^ (i + 0x9e37));
    return static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5;
  });
}

/// Parameter: (grid shape, mode, K, algo).
using TtmCase = std::tuple<std::vector<int>, int, std::size_t, TtmAlgo>;

class DistTtm : public ::testing::TestWithParam<TtmCase> {};

std::vector<TtmCase> ttm_cases() {
  std::vector<TtmCase> cases;
  const std::vector<std::vector<int>> grids = {
      {1, 1, 1}, {2, 1, 1}, {1, 2, 2}, {2, 2, 2}, {3, 2, 1}, {1, 4, 1}};
  for (const auto& g : grids) {
    for (int mode = 0; mode < 3; ++mode) {
      for (std::size_t k : {std::size_t{2}, std::size_t{5}, std::size_t{9}}) {
        for (TtmAlgo algo : {TtmAlgo::Blocked, TtmAlgo::ReduceScatter,
                             TtmAlgo::Auto}) {
          cases.emplace_back(g, mode, k, algo);
        }
      }
    }
  }
  return cases;
}

const char* algo_name(TtmAlgo algo) {
  switch (algo) {
    case TtmAlgo::Auto: return "Auto";
    case TtmAlgo::Blocked: return "Blocked";
    case TtmAlgo::ReduceScatter: return "RS";
  }
  return "?";
}

std::string ttm_case_name(const ::testing::TestParamInfo<TtmCase>& info) {
  return ptucker::testing::shape_name(std::get<0>(info.param)) + "_mode" +
         std::to_string(std::get<1>(info.param)) + "_k" +
         std::to_string(std::get<2>(info.param)) + "_" +
         algo_name(std::get<3>(info.param));
}

INSTANTIATE_TEST_SUITE_P(GridsModesAlgos, DistTtm,
                         ::testing::ValuesIn(ttm_cases()), ttm_case_name);

TEST_P(DistTtm, MatchesSequentialOracle) {
  const auto& [shape, mode, k, algo] = GetParam();
  const Dims dims{7, 6, 8};  // non-divisible by several extents
  const Matrix m = Matrix::randn(k, dims[static_cast<std::size_t>(mode)], 77);

  // Sequential oracle on the same global data.
  Tensor global(dims);
  global.fill_from([&](std::span<const std::size_t> idx) {
    std::uint64_t h = 55;
    for (std::size_t i : idx) h = util::splitmix64(h ^ (i + 0x9e37));
    return static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5;
  });
  const Tensor expected = tensor::local_ttm(global, m, mode);

  run_ranks(grid_size(shape), [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, shape);
    DistTensor x(grid, dims);
    fill_test_tensor(x, 55);
    const DistTensor z = dist::ttm(x, m, mode, algo);
    EXPECT_EQ(z.global_dim(mode), k);
    const Tensor gathered = z.gather(0);
    if (comm.rank() == 0) {
      EXPECT_LT(testing::max_diff(expected, gathered), 1e-10);
    }
  });
}

TEST(DistTtm, BlockedAndReduceScatterAgreeExactly) {
  const Dims dims{8, 8, 8};
  run_ranks(8, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 2});
    DistTensor x(grid, dims);
    fill_test_tensor(x, 7);
    const Matrix m = Matrix::randn(3, 8, 9);
    const DistTensor a = dist::ttm(x, m, 1, TtmAlgo::Blocked);
    const DistTensor b = dist::ttm(x, m, 1, TtmAlgo::ReduceScatter);
    EXPECT_LT(testing::max_diff(a.local(), b.local()), 1e-11);
  });
}

TEST(DistTtm, ChainOrderIrrelevance) {
  // X x1 V x2 W == X x2 W x1 V in the distributed setting too.
  const Dims dims{6, 5, 4};
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    DistTensor x(grid, dims);
    fill_test_tensor(x, 3);
    const Matrix v = Matrix::randn(2, 5, 10);
    const Matrix w = Matrix::randn(3, 4, 11);
    std::vector<const Matrix*> ms = {nullptr, &v, &w};
    const DistTensor a = dist::ttm_chain(x, ms, {1, 2});
    const DistTensor b = dist::ttm_chain(x, ms, {2, 1});
    const Tensor ga = a.gather(0);
    const Tensor gb = b.gather(0);
    if (comm.rank() == 0) {
      EXPECT_LT(testing::max_diff(ga, gb), 1e-10);
    }
  });
}

TEST(DistTtm, ExpandingTtmForReconstruction) {
  // K > Jn (reconstruction direction: multiply by U, not U^T).
  const Dims dims{4, 3, 5};
  Tensor global = Tensor::randn(dims, 21);
  const Matrix u = Matrix::randn(9, 3, 22);  // expands mode 1 from 3 to 9
  const Tensor expected = tensor::local_ttm(global, u, 1);
  run_ranks(6, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 3, 2});
    const DistTensor x = DistTensor::scatter(grid, global, 0);
    const DistTensor z = dist::ttm(x, u, 1);
    const Tensor gathered = z.gather(0);
    if (comm.rank() == 0) {
      EXPECT_LT(testing::max_diff(expected, gathered), 1e-10);
    }
  });
}

TEST(DistTtm, OutputSmallerThanGridExtent) {
  // K = 1 on a mode with Pn = 4: most ranks own empty output blocks.
  const Dims dims{8, 6, 2};
  Tensor global = Tensor::randn(dims, 31);
  const Matrix m = Matrix::randn(1, 8, 32);
  const Tensor expected = tensor::local_ttm(global, m, 0);
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {4, 1, 1});
    const DistTensor x = DistTensor::scatter(grid, global, 0);
    for (TtmAlgo algo : {TtmAlgo::Blocked, TtmAlgo::ReduceScatter}) {
      const DistTensor z = dist::ttm(x, m, 0, algo);
      const Tensor gathered = z.gather(0);
      if (comm.rank() == 0) {
        EXPECT_LT(testing::max_diff(expected, gathered), 1e-10);
      }
    }
  });
}

TEST(DistTtm, NoCommunicationWhenPnIsOne) {
  mps::Runtime rt(4);
  std::vector<DistTensor> xs(4);
  rt.run([&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 4, 1});
    DistTensor x(grid, Dims{6, 8, 4});
    fill_test_tensor(x, 1);
    xs[static_cast<std::size_t>(comm.rank())] = std::move(x);
  });
  rt.reset_stats();  // discard grid-construction traffic
  rt.run([&](mps::Comm& comm) {
    const Matrix m = Matrix::randn(3, 6, 2);
    const DistTensor z =
        dist::ttm(xs[static_cast<std::size_t>(comm.rank())], m, 0);
    (void)z;
  });
  // Paper Sec. V-B: if Pn = 1 no parallel communication is required at all.
  EXPECT_EQ(rt.total_stats().messages_sent, 0u);
}

TEST(DistTtm, SpanCarriesItsMode) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with PTUCKER_OBS=OFF";
  obs::TraceSession::start();
  run_ranks(2, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1});
    DistTensor x(grid, Dims{6, 5});
    fill_test_tensor(x, 2);
    const Matrix m = Matrix::randn(2, 5, 3);
    (void)dist::ttm(x, m, 1, TtmAlgo::Auto);
  });
  obs::TraceSession::stop();
  const std::vector<obs::TraceEvent> events = obs::TraceSession::events();
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(testing::count_spans(events, "TTM", r, 1), 1u) << "rank " << r;
    EXPECT_EQ(testing::count_spans(events, "TTM", r, 0), 0u) << "rank " << r;
  }
}

TEST(DistTtm, FourWayTensorAllModes) {
  // The paper's data are 4- and 5-way; exercise every mode of a 4-way
  // tensor on a non-trivial grid against the sequential oracle.
  const Dims dims{5, 6, 4, 7};
  Tensor global = Tensor::randn(dims, 41);
  run_ranks(8, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 2, 2});
    const DistTensor x = DistTensor::scatter(grid, global, 0);
    for (int mode = 0; mode < 4; ++mode) {
      const Matrix m =
          Matrix::randn(3, dims[static_cast<std::size_t>(mode)], 42 + mode);
      const Tensor expected = tensor::local_ttm(global, m, mode);
      const DistTensor z = dist::ttm(x, m, mode);
      const Tensor gathered = z.gather(0);
      if (comm.rank() == 0) {
        EXPECT_LT(testing::max_diff(expected, gathered), 1e-10)
            << "mode " << mode;
      }
    }
  });
}

TEST(DistTtm, FiveWayTensorChain) {
  // Full 5-way multi-TTM chain (the SP / TJLR shape class).
  const Dims dims{4, 5, 3, 6, 2};
  Tensor global = Tensor::randn(dims, 51);
  std::vector<Matrix> ms;
  for (int n = 0; n < 5; ++n) {
    ms.push_back(Matrix::randn(2, dims[static_cast<std::size_t>(n)], 60 + n));
  }
  Tensor expected = global;
  for (int n = 0; n < 5; ++n) {
    expected = tensor::local_ttm(expected, ms[static_cast<std::size_t>(n)], n);
  }
  run_ranks(8, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 2, 1, 2, 2});
    const DistTensor x = DistTensor::scatter(grid, global, 0);
    std::vector<const Matrix*> ptrs;
    for (const auto& m : ms) ptrs.push_back(&m);
    const DistTensor z = dist::ttm_chain(x, ptrs, {0, 1, 2, 3, 4});
    const Tensor gathered = z.gather(0);
    if (comm.rank() == 0) {
      EXPECT_LT(testing::max_diff(expected, gathered), 1e-10);
    }
  });
}

TEST(DistTtm, RejectsBadMatrixShape) {
  run_ranks(2, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1});
    DistTensor x(grid, Dims{6, 5});
    const Matrix m = Matrix::randn(2, 4, 3);  // cols != 5
    EXPECT_THROW((void)dist::ttm(x, m, 1), InvalidArgument);
  });
}

}  // namespace
}  // namespace ptucker
