#include <gtest/gtest.h>

#include <tuple>

#include "dist/eigenvectors.hpp"
#include "dist/gram.hpp"
#include "dist/grid.hpp"
#include "lapack/lapack.hpp"
#include "test_utils.hpp"
#include "util/rng.hpp"

namespace ptucker {
namespace {

using dist::DistTensor;
using dist::GramAlgo;
using tensor::Dims;
using tensor::Matrix;
using tensor::Tensor;
using testing::run_ranks;

int grid_size(const std::vector<int>& shape) {
  int p = 1;
  for (int e : shape) p *= e;
  return p;
}

void fill_test_tensor(DistTensor& x, std::uint64_t seed) {
  x.fill_global([seed](std::span<const std::size_t> idx) {
    std::uint64_t h = seed;
    for (std::size_t i : idx) h = util::splitmix64(h ^ (i + 0x517));
    return static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5;
  });
}

Tensor global_test_tensor(const Dims& dims, std::uint64_t seed) {
  Tensor t(dims);
  t.fill_from([seed](std::span<const std::size_t> idx) {
    std::uint64_t h = seed;
    for (std::size_t i : idx) h = util::splitmix64(h ^ (i + 0x517));
    return static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5;
  });
  return t;
}

using GramCase = std::tuple<std::vector<int>, int>;

class DistGram : public ::testing::TestWithParam<GramCase> {};

std::vector<GramCase> gram_cases() {
  std::vector<GramCase> cases;
  const std::vector<std::vector<int>> grids = {
      {1, 1, 1}, {2, 1, 1}, {1, 3, 1}, {2, 2, 1}, {2, 2, 2}, {4, 1, 1},
      {1, 2, 3}};
  for (const auto& g : grids) {
    for (int mode = 0; mode < 3; ++mode) cases.emplace_back(g, mode);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(GridsAndModes, DistGram,
                         ::testing::ValuesIn(gram_cases()),
                         [](const auto& info) {
                           return testing::shape_name(std::get<0>(info.param)) +
                                  "_mode" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST_P(DistGram, BlockColumnsMatchSequentialGram) {
  const auto& [shape, mode] = GetParam();
  const Dims dims{6, 7, 5};
  const Tensor global = global_test_tensor(dims, 11);
  const Matrix expected = tensor::local_gram(global, mode);

  run_ranks(grid_size(shape), [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, shape);
    DistTensor x(grid, dims);
    fill_test_tensor(x, 11);
    const dist::GramColumns s = dist::gram(x, mode);
    // My block column must equal the matching columns of the full Gram.
    ASSERT_EQ(s.cols.rows(), expected.rows());
    for (std::size_t j = 0; j < s.range.size(); ++j) {
      for (std::size_t i = 0; i < expected.rows(); ++i) {
        EXPECT_NEAR(s.cols(i, j), expected(i, s.range.lo + j), 1e-10)
            << "entry (" << i << ", " << s.range.lo + j << ")";
      }
    }
  });
}

TEST_P(DistGram, SymmetricAlgoAgreesWithFullStorage) {
  const auto& [shape, mode] = GetParam();
  const Dims dims{5, 6, 4};
  run_ranks(grid_size(shape), [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, shape);
    DistTensor x(grid, dims);
    fill_test_tensor(x, 13);
    const dist::GramColumns full =
        dist::gram(x, mode, GramAlgo::FullStorage);
    const dist::GramColumns sym =
        dist::gram(x, mode, GramAlgo::ExploitSymmetry);
    EXPECT_LT(testing::max_diff(full.cols, sym.cols), 1e-10);
  });
}

TEST_P(DistGram, EigenvectorsProduceOrthonormalReplicatedFactor) {
  const auto& [shape, mode] = GetParam();
  const Dims dims{6, 7, 5};
  const int p = grid_size(shape);
  std::vector<Matrix> factors(static_cast<std::size_t>(p));
  run_ranks(p, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, shape);
    DistTensor x(grid, dims);
    fill_test_tensor(x, 17);
    const dist::GramColumns s = dist::gram(x, mode);
    const dist::FactorResult f = dist::eigenvectors(
        s, *grid, mode, dist::RankSelection::fixed_rank(3));
    EXPECT_EQ(f.rank, 3u);
    EXPECT_EQ(f.u.rows(), dims[static_cast<std::size_t>(mode)]);
    EXPECT_EQ(f.u.cols(), 3u);
    EXPECT_LT(testing::orthonormality_defect(f.u), 1e-9);
    // Eigenvalues descending.
    for (std::size_t i = 1; i < f.eigenvalues.size(); ++i) {
      EXPECT_GE(f.eigenvalues[i - 1], f.eigenvalues[i] - 1e-12);
    }
    factors[static_cast<std::size_t>(comm.rank())] = f.u;
  });
  // Replication: every rank computed the identical factor.
  for (int r = 1; r < p; ++r) {
    EXPECT_EQ(testing::max_diff(factors[0],
                                factors[static_cast<std::size_t>(r)]),
              0.0)
        << "factor differs on rank " << r;
  }
}

TEST(DistGram, EigenvaluesMatchSequentialSolver) {
  const Dims dims{8, 5, 4};
  const Tensor global = global_test_tensor(dims, 23);
  const Matrix gram_seq = tensor::local_gram(global, 0);
  const la::SymEig seq_eig = la::eig_sym(gram_seq.data(), 8, 8);
  // Independently derived second oracle: cyclic Jacobi.
  const la::SymEig jacobi = la::eig_sym_jacobi(gram_seq.data(), 8, 8);

  run_ranks(8, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 2});
    DistTensor x(grid, dims);
    fill_test_tensor(x, 23);
    const dist::GramColumns s = dist::gram(x, 0);
    const dist::FactorResult f =
        dist::eigenvectors(s, *grid, 0, dist::RankSelection::fixed_rank(8));
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_NEAR(f.eigenvalues[i], seq_eig.values[i],
                  1e-9 * (1.0 + std::fabs(seq_eig.values[i])));
      EXPECT_NEAR(f.eigenvalues[i], jacobi.values[i], 1e-9);
    }
    // Same eigenvectors as Jacobi's, column by column up to sign.
    ASSERT_EQ(f.u.cols(), 8u);
    for (std::size_t j = 0; j < 8; ++j) {
      const double* u = f.u.col(j);
      const double* v = jacobi.vector(j);
      double same = 0.0;
      double flipped = 0.0;
      for (std::size_t i = 0; i < 8; ++i) {
        same = std::max(same, std::fabs(u[i] - v[i]));
        flipped = std::max(flipped, std::fabs(u[i] + v[i]));
      }
      EXPECT_LT(std::min(same, flipped), 1e-7) << "column " << j;
    }
  });
}

TEST(RankSelection, TailThresholdSemantics) {
  // Spectrum 10, 5, 1, 0.1, 0.01: tails are 16.11, 6.11, 1.11, 0.11, 0.01.
  const std::vector<double> spectrum = {10.0, 5.0, 1.0, 0.1, 0.01};
  EXPECT_EQ(dist::select_rank_by_tail(spectrum, 0.005), 5u);
  EXPECT_EQ(dist::select_rank_by_tail(spectrum, 0.01), 4u);
  EXPECT_EQ(dist::select_rank_by_tail(spectrum, 0.11), 3u);
  EXPECT_EQ(dist::select_rank_by_tail(spectrum, 1.11), 2u);
  EXPECT_EQ(dist::select_rank_by_tail(spectrum, 6.11), 1u);
  EXPECT_EQ(dist::select_rank_by_tail(spectrum, 1e9), 1u);  // never 0
}

TEST(RankSelection, NegativeEigenvaluesClampedToZero) {
  const std::vector<double> spectrum = {4.0, 1.0, -1e-14, -1e-13};
  // Numerical negatives contribute nothing to the tail.
  EXPECT_EQ(dist::select_rank_by_tail(spectrum, 0.5), 2u);
}

TEST(DistGram, FourWayTensorAllModes) {
  const Dims dims{5, 4, 6, 3};
  const Tensor global = global_test_tensor(dims, 61);
  run_ranks(8, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 2, 1});
    DistTensor x(grid, dims);
    fill_test_tensor(x, 61);
    for (int mode = 0; mode < 4; ++mode) {
      const Matrix expected = tensor::local_gram(global, mode);
      const dist::GramColumns s = dist::gram(x, mode);
      for (std::size_t j = 0; j < s.range.size(); ++j) {
        for (std::size_t i = 0; i < expected.rows(); ++i) {
          EXPECT_NEAR(s.cols(i, j), expected(i, s.range.lo + j), 1e-10)
              << "mode " << mode;
        }
      }
    }
  });
}

TEST(DistGram, GramOnReducedTensorHasReducedTrace) {
  // trace(S) == ‖Y‖² — the invariant ST-HOSVD relies on for rank selection.
  const Dims dims{6, 5, 4};
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    DistTensor x(grid, dims);
    fill_test_tensor(x, 31);
    const double norm_sq = x.norm_squared();
    for (int mode = 0; mode < 3; ++mode) {
      const dist::GramColumns s = dist::gram(x, mode);
      // Sum my diagonal entries and all-reduce across the mode comm.
      double local_trace = 0.0;
      for (std::size_t j = 0; j < s.range.size(); ++j) {
        local_trace += s.cols(s.range.lo + j, j);
      }
      const double trace = mps::allreduce_scalar(
          x.grid().mode_comm(mode), local_trace);
      EXPECT_NEAR(trace, norm_sq, 1e-9 * (1.0 + norm_sq));
    }
  });
}

}  // namespace
}  // namespace ptucker
