#include <gtest/gtest.h>

#include <tuple>

#include "tensor/local_kernels.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using tensor::Dims;
using tensor::Matrix;
using tensor::Tensor;

/// Parameter: (dims, mode). Sweeps 3-, 4- and 5-way shapes including unit
/// extents, and every mode — the local layout has three regimes (left == 1,
/// interior, right == 1) that all must agree with the naive oracle.
class LocalKernels
    : public ::testing::TestWithParam<std::tuple<Dims, int>> {};

std::vector<std::tuple<Dims, int>> kernel_cases() {
  std::vector<std::tuple<Dims, int>> cases;
  const std::vector<Dims> shapes = {
      {6, 5, 4},    {4, 4, 4},     {1, 5, 3},   {5, 1, 3},
      {5, 3, 1},    {7, 2, 3, 4},  {2, 3, 4, 5}, {3, 3, 3, 3, 3},
      {12, 2, 2},   {2, 2, 12},
  };
  for (const auto& dims : shapes) {
    for (int mode = 0; mode < static_cast<int>(dims.size()); ++mode) {
      cases.emplace_back(dims, mode);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ShapesAndModes, LocalKernels,
                         ::testing::ValuesIn(kernel_cases()),
                         [](const auto& info) {
                           return testing::dims_name(std::get<0>(info.param)) +
                                  "_mode" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST_P(LocalKernels, TtmMatchesNaive) {
  const auto& [dims, mode] = GetParam();
  const Tensor y = Tensor::randn(dims, 100 + static_cast<std::uint64_t>(mode));
  for (std::size_t k : {std::size_t{1}, std::size_t{2},
                        dims[static_cast<std::size_t>(mode)],
                        dims[static_cast<std::size_t>(mode)] + 3}) {
    const Matrix m = Matrix::randn(k, dims[static_cast<std::size_t>(mode)],
                                   200 + k);
    const Tensor fast = tensor::local_ttm(y, m, mode);
    const Tensor slow = tensor::naive_ttm(y, m, mode);
    EXPECT_LT(testing::max_diff(fast, slow), 1e-11)
        << "K=" << k << " mode=" << mode;
  }
}

TEST_P(LocalKernels, GramMatchesNaive) {
  const auto& [dims, mode] = GetParam();
  const Tensor y = Tensor::randn(dims, 300 + static_cast<std::uint64_t>(mode));
  const Matrix fast = tensor::local_gram(y, mode);
  const Matrix slow = tensor::naive_gram(y, mode);
  EXPECT_LT(testing::max_diff(fast, slow), 1e-10);
}

TEST_P(LocalKernels, GramSymMatchesGram) {
  const auto& [dims, mode] = GetParam();
  const Tensor y = Tensor::randn(dims, 400 + static_cast<std::uint64_t>(mode));
  const Matrix full = tensor::local_gram(y, mode);
  const Matrix sym = tensor::local_gram_sym(y, mode);
  EXPECT_LT(testing::max_diff(full, sym), 1e-10);
}

TEST_P(LocalKernels, GramTraceEqualsNormSquared) {
  const auto& [dims, mode] = GetParam();
  const Tensor y = Tensor::randn(dims, 500);
  const Matrix s = tensor::local_gram(y, mode);
  double trace = 0.0;
  for (std::size_t i = 0; i < s.rows(); ++i) trace += s(i, i);
  EXPECT_NEAR(trace, y.norm_squared(), 1e-9 * (1.0 + y.norm_squared()));
}

TEST_P(LocalKernels, CrossGramWithSelfEqualsGram) {
  const auto& [dims, mode] = GetParam();
  const Tensor y = Tensor::randn(dims, 600);
  const Matrix gram = tensor::local_gram(y, mode);
  const Matrix cross = tensor::local_cross_gram(y, y, mode);
  EXPECT_LT(testing::max_diff(gram, cross), 1e-10);
}

TEST(LocalKernels, CrossGramDifferentModeExtents) {
  // Y and W share all dims except the mode: the Alg. 4 off-diagonal case.
  const Tensor y = Tensor::randn(Dims{4, 5, 3}, 1);
  const Tensor w = Tensor::randn(Dims{4, 2, 3}, 2);
  const Matrix cross = tensor::local_cross_gram(y, w, 1);
  EXPECT_EQ(cross.rows(), 5u);
  EXPECT_EQ(cross.cols(), 2u);
  // Oracle via naive unfoldings.
  const tensor::UnfoldShape sy = tensor::unfold_shape(y.dims(), 1);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      double sum = 0.0;
      for (std::size_t r = 0; r < sy.right; ++r) {
        for (std::size_t l = 0; l < sy.left; ++l) {
          sum += y[l + i * sy.left + r * sy.left * 5] *
                 w[l + j * sy.left + r * sy.left * 2];
        }
      }
      EXPECT_NEAR(cross(i, j), sum, 1e-11);
    }
  }
}

TEST(LocalKernels, TtmCommutativityAcrossModes) {
  // X xm W xn V == X xn V xm W for m != n (paper Sec. II-A).
  const Tensor x = Tensor::randn(Dims{5, 4, 3, 2}, 9);
  const Matrix v = Matrix::randn(3, 4, 10);  // mode 1
  const Matrix w = Matrix::randn(2, 3, 11);  // mode 2
  const Tensor a = tensor::local_ttm(tensor::local_ttm(x, v, 1), w, 2);
  const Tensor b = tensor::local_ttm(tensor::local_ttm(x, w, 2), v, 1);
  EXPECT_LT(testing::max_diff(a, b), 1e-11);
}

TEST(LocalKernels, TtmWithIdentityIsNoOp) {
  const Tensor x = Tensor::randn(Dims{4, 3, 5}, 12);
  for (int mode = 0; mode < 3; ++mode) {
    const Matrix id =
        Matrix::identity(x.dim(mode));
    const Tensor y = tensor::local_ttm(x, id, mode);
    EXPECT_LT(testing::max_diff(x, y), 1e-14);
  }
}

TEST(LocalKernels, TtmMatricizedEquivalence) {
  // Y = X xn M  <=>  Y(n) = M X(n): check one explicit unfolding entry set.
  const Tensor x = Tensor::randn(Dims{3, 4, 2}, 13);
  const Matrix m = Matrix::randn(2, 4, 14);
  const Tensor y = tensor::local_ttm(x, m, 1);
  // Element (k, i1, i3): sum_j m(k,j) x(i1, j, i3).
  for (std::size_t i1 = 0; i1 < 3; ++i1) {
    for (std::size_t k = 0; k < 2; ++k) {
      for (std::size_t i3 = 0; i3 < 2; ++i3) {
        double sum = 0.0;
        for (std::size_t j = 0; j < 4; ++j) {
          const std::size_t idx[] = {i1, j, i3};
          sum += m(k, j) * x.at(idx);
        }
        const std::size_t yidx[] = {i1, k, i3};
        EXPECT_NEAR(y.at(yidx), sum, 1e-12);
      }
    }
  }
}

TEST(LocalKernels, TtmIntoReusesBuffer) {
  const Tensor x = Tensor::randn(Dims{4, 5, 3}, 15);
  const Matrix m = Matrix::randn(2, 5, 16);
  Tensor out(Dims{4, 2, 3}, 123.0);  // pre-filled garbage
  tensor::local_ttm_into(x, m, 1, out);
  const Tensor expected = tensor::naive_ttm(x, m, 1);
  EXPECT_LT(testing::max_diff(out, expected), 1e-11);
}

TEST_P(LocalKernels, BatchedAndPerSlicePathsBitIdentical) {
  // The batched engine clips KC slabs at slice boundaries precisely so the
  // per-element floating-point grouping matches the per-slice loop: the
  // two must agree bit for bit, not just to tolerance.
  const auto& [dims, mode] = GetParam();
  const Tensor y = Tensor::randn(dims, 700 + static_cast<std::uint64_t>(mode));
  const Tensor w = Tensor::randn(dims, 800 + static_cast<std::uint64_t>(mode));
  const std::size_t jn = dims[static_cast<std::size_t>(mode)];
  const Matrix m = Matrix::randn(jn + 2, jn, 900);

  EXPECT_EQ(testing::max_diff(testing::per_slice_ttm(y, m, mode),
                              tensor::local_ttm(y, m, mode)),
            0.0);
  EXPECT_EQ(testing::max_diff(testing::per_slice_gram(y, mode),
                              tensor::local_gram(y, mode)),
            0.0);
  EXPECT_EQ(testing::max_diff(testing::per_slice_gram_sym(y, mode),
                              tensor::local_gram_sym(y, mode)),
            0.0);
  EXPECT_EQ(testing::max_diff(testing::per_slice_cross_gram(y, w, mode),
                              tensor::local_cross_gram(y, w, mode)),
            0.0);
}

TEST(LocalKernels, RejectsDimensionMismatch) {
  const Tensor x = Tensor::randn(Dims{4, 5}, 17);
  const Matrix m = Matrix::randn(2, 3, 18);  // cols != dim(1)
  EXPECT_THROW((void)tensor::local_ttm(x, m, 1), InvalidArgument);
  EXPECT_THROW((void)tensor::local_ttm(x, m, 5), InvalidArgument);
}

}  // namespace
}  // namespace ptucker
