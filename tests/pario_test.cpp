#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/reconstruct.hpp"
#include "core/st_hosvd.hpp"
#include "core/tucker_io.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "pario/block_file.hpp"
#include "pario/model_io.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using core::TuckerTensor;
using dist::DistTensor;
using tensor::Dims;
using tensor::Tensor;
using testing::counter_value;
using testing::run_ranks;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Every message the write/read paths may legitimately inject is a barrier
/// token; any payload word elsewhere is inter-rank data movement.
void expect_only_barrier_traffic(const mps::Runtime& rt) {
  for (int r = 0; r < rt.world_size(); ++r) {
    const mps::CommStats& s = rt.rank_stats(r);
    for (int k = 0; k < mps::CommStats::kNumOps; ++k) {
      const auto kind = static_cast<mps::OpKind>(k);
      if (kind == mps::OpKind::Barrier) continue;
      EXPECT_EQ(s.op_message_count(kind), 0u)
          << "rank " << r << " sent " << mps::op_name(kind) << " messages";
      EXPECT_EQ(s.op_words(kind), 0.0)
          << "rank " << r << " moved " << mps::op_name(kind) << " words";
    }
  }
}

TEST(ParIo, RoundTripSameGridBitExactWithZeroDataMovement) {
  const std::string path = temp_path("ptucker_ptb_same.ptb");
  const Dims dims{9, 8, 7};
  mps::Runtime rt(4);
  std::vector<DistTensor> xs(4);
  rt.run([&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(31));
    xs[static_cast<std::size_t>(comm.rank())] = std::move(x);
  });
  rt.reset_stats();  // count only the IO path itself
  rt.run([&](mps::Comm& comm) {
    const DistTensor& x = xs[static_cast<std::size_t>(comm.rank())];
    pario::write_dist_tensor(path, x);
    const DistTensor y = pario::read_dist_tensor(x.grid_ptr(), path);
    EXPECT_EQ(y.global_dims(), dims);
    // Bit-exact: the payload is raw little-endian doubles either way.
    EXPECT_EQ(testing::max_diff(x.local(), y.local()), 0.0);
  });
  expect_only_barrier_traffic(rt);
  EXPECT_EQ(std::filesystem::file_size(path),
            pario::ptb1_file_bytes(dims, {2, 2, 1}));
  std::filesystem::remove(path);
}

TEST(ParIo, RedistributesAcrossGridsAndRankCounts) {
  const std::string path = temp_path("ptucker_ptb_redist.ptb");
  const Dims dims{10, 7, 6};
  Tensor reference;
  // Write on a 2x2x1 grid of 4 ranks...
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(77));
    pario::write_dist_tensor(path, x);
    const Tensor global = x.gather(0);
    if (comm.rank() == 0) reference = global;
  });
  // ...read on a 3x1x2 grid of 6 ranks: every rank assembles its block from
  // the writer's offset table with no communication at all.
  mps::Runtime rt(6);
  std::vector<std::shared_ptr<mps::CartGrid>> grids(6);
  rt.run([&](mps::Comm& comm) {
    grids[static_cast<std::size_t>(comm.rank())] =
        dist::make_grid(comm, {3, 1, 2});
  });
  rt.reset_stats();  // count only the redistribution read
  rt.run([&](mps::Comm& comm) {
    auto grid = grids[static_cast<std::size_t>(comm.rank())];
    const DistTensor y = pario::read_dist_tensor(grid, path);
    DistTensor expect(grid, dims);
    expect.fill_global(testing::splitmix_field(77));
    EXPECT_EQ(testing::max_diff(expect.local(), y.local()), 0.0);
  });
  // The read path is zero-message outright (not even barriers).
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(rt.rank_stats(r).messages_sent, 0u) << "rank " << r;
  }
  // And a single-rank read sees the full original tensor.
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor y = pario::read_dist_tensor(grid, path);
    EXPECT_EQ(testing::max_diff(reference, y.local()), 0.0);
  });
  std::filesystem::remove(path);
}

// A read that fully covers a writer block without being exactly that block
// preads the block front to back in chunks of at most 1 MiB of whole mode-0
// runs, verifying its CRC across the chunks. The 96 x 96 x 16 blocks here
// are 1.125 MiB each, so every block spans two chunks.
TEST(ParIo, CoveredBlocksReadInBoundedChunksWithVerifiedCrc) {
  const std::string path = temp_path("ptucker_ptb_chunked.ptb");
  const Dims dims{192, 192, 16};
  const std::vector<int> writer_grid{2, 2, 1};
  const auto field = testing::splitmix_field(91);
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, writer_grid);
    DistTensor x(grid, dims);
    x.fill_global(field);
    pario::write_dist_tensor(path, x);
  });
  Tensor reference(dims);
  reference.fill_from(field);
  const std::uint64_t block_bytes = sizeof(double) * 96 * 96 * 16;
  const std::uint64_t chunk = std::uint64_t{1} << 20;
  const std::uint64_t chunks_per_block = (block_bytes + chunk - 1) / chunk;
  ASSERT_EQ(chunks_per_block, 2u);

  // One rank: every block is covered, none is the whole request.
  const std::uint64_t reads0 = counter_value("pario.reads");
  (void)pario::BlockFile::open(path);
  const std::uint64_t header_reads = counter_value("pario.reads") - reads0;
  const std::uint64_t reads1 = counter_value("pario.reads");
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor y = pario::read_dist_tensor(grid, path);
    EXPECT_EQ(testing::max_diff(y.local(), reference), 0.0);
  });
  EXPECT_LE(counter_value("pario.reads") - reads1,
            header_reads + 4 * chunks_per_block);

  // Two ranks on 1x2x1: each rank covers the two writer blocks of its
  // mode-1 half and skips the other two.
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 2, 1});
    const DistTensor y = pario::read_dist_tensor(grid, path);
    DistTensor expect(grid, dims);
    expect.fill_global(field);
    EXPECT_EQ(testing::max_diff(y.local(), expect.local()), 0.0);
  });

  // A box that covers blocks 0 and 1 and cuts through blocks 2 and 3 takes
  // the chunked and the per-run path in one read.
  {
    const pario::BlockFile file = pario::BlockFile::open(path);
    const std::vector<util::Range> box{{0, 192}, {0, 150}, {0, 16}};
    const Tensor got = file.read_ranges(box);
    Tensor want(Dims{192, 150, 16});
    for (std::size_t k = 0; k < 16; ++k) {
      for (std::size_t j = 0; j < 150; ++j) {
        std::memcpy(want.data() + 192 * (j + 150 * k),
                    reference.data() + 192 * (j + 192 * k),
                    192 * sizeof(double));
      }
    }
    EXPECT_EQ(testing::max_diff(got, want), 0.0);
  }

  // One flipped byte in the second chunk of block 2 fails that block's CRC.
  const std::uint64_t block2 =
      std::filesystem::file_size(path) - 2 * block_bytes;
  const std::uint64_t run_bytes = 96 * sizeof(double);
  const std::uint64_t second_chunk = chunk / run_bytes * run_bytes;
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    const auto at = static_cast<std::streamoff>(block2 + second_chunk + 100);
    fs.seekg(at);
    char byte = 0;
    fs.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    fs.seekp(at);
    fs.write(&byte, 1);
  }
  const std::uint64_t failures0 = counter_value("pario.crc_failures");
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    try {
      (void)pario::read_dist_tensor(grid, path);
      FAIL() << "a corrupted covered block read back silently";
    } catch (const ChecksumError& e) {
      EXPECT_NE(std::string(e.what()).find("block 2 "), std::string::npos)
          << e.what();
    }
  });
  EXPECT_EQ(counter_value("pario.crc_failures") - failures0, 1u);
  std::filesystem::remove(path);
}

TEST(ParIo, ReadsLegacyPtt1FilesBlockParallel) {
  const std::string path = temp_path("ptucker_ptb_legacy.ptt");
  const Dims dims{8, 6, 5};
  Tensor global(dims);
  global.fill_from(testing::splitmix_field(5));
  testing::write_ptt1(path, global);
  mps::Runtime rt(4);
  std::vector<std::shared_ptr<mps::CartGrid>> grids(4);
  rt.run([&](mps::Comm& comm) {
    grids[static_cast<std::size_t>(comm.rank())] =
        dist::make_grid(comm, {1, 2, 2});
  });
  rt.reset_stats();
  rt.run([&](mps::Comm& comm) {
    auto grid = grids[static_cast<std::size_t>(comm.rank())];
    const DistTensor y = pario::read_dist_tensor(grid, path);
    DistTensor expect(grid, dims);
    expect.fill_global(testing::splitmix_field(5));
    EXPECT_EQ(testing::max_diff(expect.local(), y.local()), 0.0);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(rt.rank_stats(r).messages_sent, 0u) << "rank " << r;
  }
  std::filesystem::remove(path);
}

/// A hostile legacy header: PTT1 dims claiming 2^40 doubles (8 TiB) in a
/// 40-byte file. The claim must be checked against the file size before
/// anything is sized from it — an allocation first would surface as
/// std::bad_alloc (or an OOM kill), not as the named InvalidArgument.
TEST(ParIo, HostilePtt1HeaderThrowsBeforeAllocating) {
  const std::string path = temp_path("ptucker_hostile.ptt");
  {
    std::ofstream os(path, std::ios::binary);
    os.write("PTT1", 4);
    const std::uint64_t fields[4] = {3, 1ull << 14, 1ull << 13, 1ull << 13};
    os.write(reinterpret_cast<const char*>(fields), sizeof(fields));
    os.write("\0\0\0\0", 4);
  }
  ASSERT_EQ(std::filesystem::file_size(path), 40u);
  EXPECT_THROW((void)pario::BlockFile::open(path), InvalidArgument);
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    EXPECT_THROW((void)pario::read_dist_tensor(grid, path), InvalidArgument);
  });
  std::filesystem::remove(path);
}

TEST(ParIo, HandlesEmptyBlocks) {
  // 5 ranks over a mode of extent 3: uniform floor splits leave some ranks
  // with nothing to write or read.
  const std::string path = temp_path("ptucker_ptb_empty.ptb");
  const Dims dims{3, 4};
  run_ranks(5, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {5, 1});
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(9));
    pario::write_dist_tensor(path, x);
    const DistTensor y = pario::read_dist_tensor(grid, path);
    EXPECT_EQ(testing::max_diff(x.local(), y.local()), 0.0);
  });
  // The file is complete (trailing empty blocks included in the size).
  EXPECT_EQ(std::filesystem::file_size(path),
            pario::ptb1_file_bytes(dims, {5, 1}));
  // Cross-grid read of the same file.
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 2});
    const DistTensor y = pario::read_dist_tensor(grid, path);
    DistTensor expect(grid, dims);
    expect.fill_global(testing::splitmix_field(9));
    EXPECT_EQ(testing::max_diff(expect.local(), y.local()), 0.0);
  });
  std::filesystem::remove(path);
}

TEST(ParIo, RejectsTruncatedAndCorruptFiles) {
  const std::string path = temp_path("ptucker_ptb_corrupt.ptb");
  const Dims dims{6, 6};
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1});
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(3));
    pario::write_dist_tensor(path, x);
  });

  // Garbage magic.
  const std::string garbage = temp_path("ptucker_ptb_garbage.ptb");
  {
    std::ofstream os(garbage, std::ios::binary);
    os << "not a block tensor at all";
  }
  EXPECT_THROW((void)pario::BlockFile::open(garbage), InvalidArgument);
  std::filesystem::remove(garbage);

  // Corrupt dims: an absurd extent must be rejected before any size
  // arithmetic can wrap or any allocation is attempted (dims[0] sits at
  // byte 20: magic + version + order).
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t absurd = 1ull << 62;
    fs.seekp(20);
    fs.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  }
  EXPECT_THROW((void)pario::BlockFile::open(path), InvalidArgument);
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t dim = 6;  // restore
    fs.seekp(20);
    fs.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  }

  // Truncated payload: the offset table points past the new end.
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 16);
  EXPECT_THROW((void)pario::BlockFile::open(path), InvalidArgument);

  // Truncated header.
  std::filesystem::resize_file(path, 12);
  EXPECT_THROW((void)pario::BlockFile::open(path), InvalidArgument);
  std::filesystem::remove(path);

  EXPECT_THROW((void)pario::BlockFile::open(temp_path("ptucker_missing.ptb")),
               InvalidArgument);
}

TEST(ParIo, Ptz1SaveLoadOntoDifferentGridIsExact) {
  const std::string path = temp_path("ptucker_model_par.ptz");
  Tensor saved_core;
  std::vector<tensor::Matrix> saved_factors;
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 7, 6}, Dims{3, 2, 2}, 3, 0.0);
    core::SthosvdOptions opts;
    opts.epsilon = 1e-8;
    const TuckerTensor model = core::st_hosvd(x, opts).tucker;
    core::save_tucker(path, model);
    const Tensor gathered = model.core.gather(0);
    if (comm.rank() == 0) {
      saved_core = gathered;
      saved_factors = model.factors;
    }
  });
  // Loaded onto a different grid (and rank count), the model is the saved
  // one exactly: the core blocks are re-cut, never recomputed.
  run_ranks(6, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {3, 1, 2});
    const TuckerTensor loaded = core::load_tucker(path, grid);
    const Tensor gathered = loaded.core.gather(0);
    if (comm.rank() == 0) {
      EXPECT_EQ(testing::max_diff(gathered, saved_core), 0.0);
      ASSERT_EQ(loaded.factors.size(), saved_factors.size());
      for (std::size_t n = 0; n < saved_factors.size(); ++n) {
        EXPECT_EQ(testing::max_diff(loaded.factors[n], saved_factors[n]), 0.0)
            << "mode " << n;
      }
    }
  });
  std::filesystem::remove(path);
}

TEST(ParIo, Ptz1SaveLoadMovesZeroWords) {
  const std::string path = temp_path("ptucker_model_zero.ptz");
  mps::Runtime rt(4);
  std::vector<TuckerTensor> models(4);
  rt.run([&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 7, 6}, Dims{3, 2, 2}, 11, 0.0);
    core::SthosvdOptions opts;
    opts.epsilon = 1e-8;
    models[static_cast<std::size_t>(comm.rank())] =
        core::st_hosvd(x, opts).tucker;
  });
  rt.reset_stats();  // count only save + load
  rt.run([&](mps::Comm& comm) {
    const TuckerTensor& model = models[static_cast<std::size_t>(comm.rank())];
    core::save_tucker(path, model);
    const TuckerTensor loaded =
        core::load_tucker(path, model.core.grid_ptr());
    EXPECT_EQ(loaded.core_dims(), model.core_dims());
    EXPECT_EQ(testing::max_diff(loaded.core.local(), model.core.local()),
              0.0);
  });
  expect_only_barrier_traffic(rt);
  std::filesystem::remove(path);
}

TEST(ParIo, Ptz1ArchivesNormalizationStats) {
  const std::string path = temp_path("ptucker_model_stats.ptz");
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 7, 5}, Dims{3, 2, 2}, 19, 0.0);
    core::SthosvdOptions opts;
    opts.epsilon = 1e-8;
    const TuckerTensor model = core::st_hosvd(x, opts).tucker;
    data::NormalizationStats stats;
    stats.species_mode = 2;
    stats.mean = {1.0, 2.0, 3.0, 4.0, 5.0};
    stats.stdev = {0.1, 0.2, 0.3, 0.4, 0.5};
    pario::write_model(path, model.core,
                       std::span<const tensor::Matrix>(model.factors),
                       &stats);
    const pario::ModelData loaded = pario::read_model(path, grid);
    EXPECT_TRUE(loaded.has_stats);
    EXPECT_EQ(loaded.stats.species_mode, 2);
    EXPECT_EQ(loaded.stats.mean, stats.mean);
    EXPECT_EQ(loaded.stats.stdev, stats.stdev);
    EXPECT_EQ(testing::max_diff(loaded.core.local(), model.core.local()),
              0.0);
  });
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ptucker
