#include <gtest/gtest.h>

#include "core/seq/seq_tucker.hpp"
#include "data/synthetic.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using core::seq::SeqOptions;
using tensor::Dims;
using tensor::Tensor;

TEST(SeqSthosvd, ExactRecovery) {
  const Tensor x = data::make_low_rank_seq(Dims{9, 8, 7}, Dims{3, 2, 3}, 1);
  SeqOptions opts;
  opts.epsilon = 1e-6;
  const auto result = core::seq::seq_st_hosvd(x, opts);
  EXPECT_EQ(result.tucker.core.dims(), (Dims{3, 2, 3}));
  const Tensor xt = core::seq::seq_reconstruct(result.tucker);
  EXPECT_LT(core::seq::seq_normalized_error(x, xt), 1e-6);
}

TEST(SeqSthosvd, ErrorBoundHolds) {
  const Tensor x =
      data::make_low_rank_seq(Dims{8, 8, 8}, Dims{3, 3, 3}, 3, 0.1);
  SeqOptions opts;
  opts.epsilon = 0.25;
  const auto result = core::seq::seq_st_hosvd(x, opts);
  const Tensor xt = core::seq::seq_reconstruct(result.tucker);
  EXPECT_LE(core::seq::seq_normalized_error(x, xt), 0.25 * 1.0000001);
}

TEST(SeqSthosvd, SvdQrMethodAgreesWithGramRoute) {
  // The Sec. IX Gram-free path must yield the same subspaces and errors in
  // well-conditioned settings.
  const Tensor x =
      data::make_low_rank_seq(Dims{6, 8, 7}, Dims{2, 3, 2}, 7, 0.05);
  SeqOptions gram_opts;
  gram_opts.epsilon = 1e-3;
  SeqOptions qr_opts = gram_opts;
  qr_opts.route = core::FactorRoute::Tsqr;
  const auto a = core::seq::seq_st_hosvd(x, gram_opts);
  const auto b = core::seq::seq_st_hosvd(x, qr_opts);
  EXPECT_EQ(a.tucker.core.dims(), b.tucker.core.dims());
  const double err_a = core::seq::seq_normalized_error(
      x, core::seq::seq_reconstruct(a.tucker));
  const double err_b = core::seq::seq_normalized_error(
      x, core::seq::seq_reconstruct(b.tucker));
  EXPECT_NEAR(err_a, err_b, 1e-7);
}

TEST(SeqHooi, ImprovesOrMatchesInitialization) {
  const Tensor x =
      data::make_low_rank_seq(Dims{9, 8, 7}, Dims{4, 4, 3}, 9, 0.3);
  SeqOptions init;
  init.fixed_ranks = {2, 2, 2};
  const auto result = core::seq::seq_hooi(x, init, 5, 0.0);
  ASSERT_GE(result.error_history.size(), 2u);
  EXPECT_LE(result.error_history.back(), result.error_history.front() + 1e-12);
  for (std::size_t i = 1; i < result.error_history.size(); ++i) {
    EXPECT_LE(result.error_history[i], result.error_history[i - 1] + 1e-10);
  }
}

TEST(SeqHooi, CompressionRatioReported) {
  const Tensor x =
      data::make_low_rank_seq(Dims{10, 10, 10}, Dims{2, 2, 2}, 11);
  SeqOptions opts;
  opts.epsilon = 1e-6;
  const auto result = core::seq::seq_st_hosvd(x, opts);
  EXPECT_NEAR(result.tucker.compression_ratio(), 1000.0 / 68.0, 1e-9);
}

TEST(SeqSthosvd, GreedyOrderStrategiesAreValidPermutations) {
  const Tensor x =
      data::make_low_rank_seq(Dims{4, 12, 8}, Dims{2, 5, 3}, 13, 0.05);
  for (auto strategy : {core::ModeOrderStrategy::GreedyFlops,
                        core::ModeOrderStrategy::GreedyRatio}) {
    SeqOptions opts;
    opts.epsilon = 1e-3;
    opts.order_strategy = strategy;
    const auto result = core::seq::seq_st_hosvd(x, opts);
    std::vector<bool> seen(3, false);
    for (int n : result.mode_order_used) {
      seen[static_cast<std::size_t>(n)] = true;
    }
    EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
  }
}

TEST(SeqSthosvd, GreedyFlopsStartsWithSmallestDim) {
  // With unknown ranks the greedy-flops heuristic minimizes the current
  // Gram cost, i.e. picks the smallest current dimension first.
  const Tensor x = data::make_low_rank_seq(Dims{4, 12, 8}, Dims{2, 2, 2}, 15);
  SeqOptions opts;
  opts.epsilon = 1e-3;
  opts.order_strategy = core::ModeOrderStrategy::GreedyFlops;
  const auto result = core::seq::seq_st_hosvd(x, opts);
  EXPECT_EQ(result.mode_order_used.front(), 0);
}

}  // namespace
}  // namespace ptucker
