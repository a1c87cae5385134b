#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/st_hosvd.hpp"
#include "core/streaming.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "pario/model_io.hpp"
#include "test_utils.hpp"
#include "util/timer.hpp"

namespace ptucker {
namespace {

using dist::DistTensor;
using tensor::Dims;
using testing::run_ranks;

/// Failure-injection and edge-condition tests: the library must fail loudly
/// and promptly (no hangs, no silent corruption) on misuse.

TEST(Failure, GridProductMismatchThrowsEverywhere) {
  EXPECT_THROW(run_ranks(4,
                         [](mps::Comm& comm) {
                           (void)dist::make_grid(comm, {3, 2});
                         }),
               InvalidArgument);
}

TEST(Failure, NonPermutationModeOrderRejected) {
  run_ranks(1, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{4, 4, 4}, Dims{2, 2, 2}, 1, 0.0);
    core::SthosvdOptions opts;
    opts.order_strategy = core::ModeOrderStrategy::Custom;
    opts.custom_order = {0, 0, 2};  // repeats a mode
    EXPECT_THROW((void)core::st_hosvd(x, opts), InvalidArgument);
    opts.custom_order = {0, 1};  // wrong length
    EXPECT_THROW((void)core::st_hosvd(x, opts), InvalidArgument);
  });
}

TEST(Failure, WrongFixedRankCountRejected) {
  run_ranks(1, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{4, 4, 4}, Dims{2, 2, 2}, 1, 0.0);
    core::SthosvdOptions opts;
    opts.fixed_ranks = {2, 2};  // three modes!
    EXPECT_THROW((void)core::st_hosvd(x, opts), InvalidArgument);
  });
}

TEST(Failure, NegativeEpsilonRejected) {
  run_ranks(1, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{4, 4, 4}, Dims{2, 2, 2}, 1, 0.0);
    core::SthosvdOptions opts;
    opts.epsilon = -0.5;
    EXPECT_THROW((void)core::st_hosvd(x, opts), InvalidArgument);
  });
}

TEST(Failure, FixedRankLargerThanDimIsClamped) {
  run_ranks(1, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{4, 4, 4}, Dims{2, 2, 2}, 1, 0.1);
    core::SthosvdOptions opts;
    opts.fixed_ranks = {10, 2, 2};  // mode 0 has only 4 rows
    const auto result = core::st_hosvd(x, opts);
    EXPECT_EQ(result.tucker.core_dims()[0], 4u);
  });
}

TEST(Failure, EpsilonAboveOneCompressesToRankOne) {
  run_ranks(1, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{6, 6, 6}, Dims{3, 3, 3}, 2, 0.2);
    core::SthosvdOptions opts;
    opts.epsilon = 10.0;  // absurd tolerance: everything may be truncated
    const auto result = core::st_hosvd(x, opts);
    EXPECT_EQ(result.tucker.core_dims(), (Dims{1, 1, 1}));
  });
}

TEST(Failure, UnitDimensionsWork) {
  run_ranks(2, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{6, 1, 5}, Dims{2, 1, 2}, 3, 0.0);
    core::SthosvdOptions opts;
    opts.epsilon = 1e-8;
    const auto result = core::st_hosvd(x, opts);
    EXPECT_EQ(result.tucker.core_dims()[1], 1u);
  });
}

TEST(Failure, MoreRanksThanModeExtent) {
  // Pn = 4 over a dim of 2: two ranks hold empty blocks through the whole
  // pipeline (gram, eigenvectors, ttm).
  run_ranks(4, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {4, 1});
    DistTensor x(grid, Dims{2, 8});
    x.fill_global([](std::span<const std::size_t> idx) {
      return static_cast<double>(idx[0] + 1) *
             std::sin(static_cast<double>(idx[1]));
    });
    core::SthosvdOptions opts;
    opts.epsilon = 1e-6;
    const auto result = core::st_hosvd(x, opts);
    EXPECT_LE(result.tucker.core_dims()[0], 2u);
  });
}

TEST(Failure, AbortDuringCollectiveUnblocksAllRanks) {
  // One rank throws while others are inside a barrier-like collective; the
  // abort must propagate promptly rather than hanging until timeout.
  mps::Runtime rt(4);
  rt.set_recv_timeout_ms(60000);
  util::Timer timer;
  EXPECT_THROW(rt.run([](mps::Comm& comm) {
    if (comm.rank() == 3) {
      throw InvalidArgument("injected failure before collective");
    }
    std::vector<double> v(64, 1.0);
    mps::allreduce(comm, std::span<double>(v));
  }),
               InvalidArgument);
  EXPECT_LT(timer.seconds(), 30.0);
}

TEST(Failure, MismatchedCollectiveParticipationIsDetected) {
  // Rank 1 skips the all-reduce: the others eventually hit the recv
  // timeout (deadlock detection) instead of hanging forever.
  mps::Runtime rt(2);
  rt.set_recv_timeout_ms(300);
  EXPECT_THROW(rt.run([](mps::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> v(64, 1.0);
      mps::allreduce(comm, std::span<double>(v));
    }
    // rank 1 returns immediately.
  }),
               Error);
}

/// Write a small valid PTZ1 model and return its path (2 ranks, 2x1 grid).
std::string write_small_ptz1(const char* name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 6}, Dims{3, 2}, 21, 0.0);
    core::SthosvdOptions opts;
    opts.epsilon = 1e-8;
    const auto model = core::st_hosvd(x, opts).tucker;
    data::NormalizationStats stats;
    stats.species_mode = 1;
    stats.mean.assign(6, 1.0);
    stats.stdev.assign(6, 2.0);
    pario::write_model(path, model.core,
                       std::span<const tensor::Matrix>(model.factors),
                       &stats);
  });
  return path;
}

TEST(Failure, TruncatedPtz1Rejected) {
  const std::string path = write_small_ptz1("ptucker_fail_trunc.ptz");
  const auto full = std::filesystem::file_size(path);
  // Cut into the core payload: the offset-table validation must reject it.
  std::filesystem::resize_file(path, full - 24);
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1});
    EXPECT_THROW((void)pario::read_model(path, grid), InvalidArgument);
  });
  // Cut into the factor payload: the claimed factor shapes no longer fit.
  std::filesystem::resize_file(path, 200);
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1});
    EXPECT_THROW((void)pario::read_model(path, grid), InvalidArgument);
  });
  std::filesystem::remove(path);
}

TEST(Failure, HostileStatsCountRejectedBeforeAllocation) {
  const std::string path = write_small_ptz1("ptucker_fail_stats.ptz");
  // The stats count field sits after magic(4) + u64 * (version, order,
  // 2 core dims, 2 grid, 2 rows, 2 cols, has_stats, species_mode) = 4+8*12.
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t absurd = 1ull << 29;  // passes the 2^30 cap...
    fs.seekp(4 + 8 * 12);
    fs.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  }
  // ...but claims ~8 GiB of stats payload the file does not have: must
  // throw InvalidArgument before any resize, not bad_alloc or a short read.
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1});
    EXPECT_THROW((void)pario::read_model(path, grid), InvalidArgument);
  });
  // An outright implausible count (> 2^30) is rejected by the cap itself.
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t absurd = 1ull << 40;
    fs.seekp(4 + 8 * 12);
    fs.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  }
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1});
    EXPECT_THROW((void)pario::read_model(path, grid), InvalidArgument);
  });
  std::filesystem::remove(path);
}

TEST(Failure, HostileFactorShapeRejectedBeforeAllocation) {
  const std::string path = write_small_ptz1("ptucker_fail_factor.ptz");
  // factor_rows[0] sits after magic(4) + u64 * (version, order, 2 core
  // dims, 2 grid) = 4 + 8 * 6. Claim in-bounds-looking rows whose payload
  // vastly exceeds the file.
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t absurd = 1ull << 28;
    fs.seekp(4 + 8 * 6);
    fs.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  }
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1});
    EXPECT_THROW((void)pario::read_model(path, grid), InvalidArgument);
  });
  std::filesystem::remove(path);
}

TEST(Failure, OverflowingOffsetMathThrowsCleanly) {
  // Absurd dims whose element product overflows u64: the checked offset
  // math must throw InvalidArgument instead of wrapping silently.
  const Dims absurd{1ull << 40, 1ull << 40, 1ull << 40};
  const std::vector<int> grid{1, 1, 1};
  EXPECT_THROW((void)pario::ptz1_file_bytes(absurd, grid, {}),
               InvalidArgument);
}

TEST(Failure, TimeDistributedReconstructGridRejected) {
  // StreamingReconstructor stitches entry outputs along time locally, so a
  // grid that distributes the time mode is a checked InvalidArgument (the
  // message points at the spatial modes and serve::QueryServer) — never a
  // hang or a silently wrong stitch. Regression for the serve PR: the
  // restriction must hold even now that the server has a grid-free path.
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "ptucker_fail_tgrid").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string archive = dir + "/models.pta";
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    const Dims step_dims{4, 3, 2};
    pario::archive_create(archive, comm, step_dims, -1, 4);
    Dims dims = step_dims;
    dims.push_back(2);
    auto wgrid = dist::make_grid(comm, {2, 1, 1, 1});
    const DistTensor x =
        data::make_low_rank(wgrid, dims, Dims{2, 2, 2, 2}, 21, 0.0);
    core::SthosvdOptions opts;
    opts.epsilon = 1e-6;
    const auto result = core::st_hosvd(x, opts);
    pario::archive_append_model(
        archive, 0, 1e-6, result.tucker.core,
        std::span<const tensor::Matrix>(result.tucker.factors));
    const core::StreamingReconstructor recon(archive);
    // Time extent 2: rejected with a checked error on every rank.
    auto tgrid = dist::make_grid(comm, {1, 1, 1, 2});
    EXPECT_THROW((void)recon.reconstruct_steps(tgrid, 0, 2),
                 InvalidArgument);
    // Time extent 1 on the same ranks works.
    auto sgrid = dist::make_grid(comm, {2, 1, 1, 1});
    const DistTensor out = recon.reconstruct_steps(sgrid, 0, 2);
    EXPECT_EQ(out.global_dims(), dims);
  });
  fs::remove_all(dir);
}

TEST(Failure, ZeroSizedTensorNormIsZero) {
  run_ranks(2, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1});
    DistTensor x(grid, Dims{1, 4});  // rank 1 holds an empty block
    EXPECT_DOUBLE_EQ(x.norm_squared(), 0.0);
  });
}

}  // namespace
}  // namespace ptucker
