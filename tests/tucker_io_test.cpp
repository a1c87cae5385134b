#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/metrics.hpp"
#include "core/reconstruct.hpp"
#include "core/st_hosvd.hpp"
#include "core/tucker_io.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using core::TuckerTensor;
using dist::DistTensor;
using tensor::Dims;
using tensor::Tensor;
using testing::run_ranks;

std::string temp_model_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(TuckerIo, SaveLoadRoundTripSameGrid) {
  const std::string path = temp_model_path("ptucker_model_same.bin");
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 7, 6}, Dims{3, 2, 2}, 3, 0.0);
    core::SthosvdOptions opts;
    opts.epsilon = 1e-8;
    const TuckerTensor model = core::st_hosvd(x, opts).tucker;
    core::save_tucker(path, model);
    const TuckerTensor loaded = core::load_tucker(path, grid);
    EXPECT_EQ(loaded.core_dims(), model.core_dims());
    EXPECT_EQ(loaded.factors.size(), model.factors.size());
    // The loaded model reconstructs identically.
    const DistTensor a = core::reconstruct(model);
    const DistTensor b = core::reconstruct(loaded);
    EXPECT_LT(testing::max_diff(a.local(), b.local()), 1e-12);
  });
  std::filesystem::remove(temp_model_path("ptucker_model_same.bin"));
}

TEST(TuckerIo, LoadOntoDifferentGrid) {
  const std::string path = temp_model_path("ptucker_model_diff.bin");
  // Save on a 2x2x1 grid...
  Tensor reference;
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 7, 6}, Dims{3, 2, 2}, 5, 0.0);
    core::SthosvdOptions opts;
    opts.epsilon = 1e-8;
    const TuckerTensor model = core::st_hosvd(x, opts).tucker;
    core::save_tucker(path, model);
    const Tensor rec = core::reconstruct(model).gather(0);
    if (comm.rank() == 0) reference = rec;
  });
  // ...load on a 3x1x2 grid (different rank count entirely).
  run_ranks(6, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {3, 1, 2});
    const TuckerTensor loaded = core::load_tucker(path, grid);
    const Tensor rec = core::reconstruct(loaded).gather(0);
    if (comm.rank() == 0) {
      EXPECT_LT(testing::max_diff(reference, rec), 1e-11);
    }
  });
  std::filesystem::remove(path);
}

TEST(TuckerIo, SerializedBytesMatchesFileSize) {
  const std::string path = temp_model_path("ptucker_model_size.bin");
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{10, 8}, Dims{3, 2}, 7, 0.0);
    core::SthosvdOptions opts;
    opts.epsilon = 1e-8;
    const TuckerTensor model = core::st_hosvd(x, opts).tucker;
    core::save_tucker(path, model);
    if (comm.rank() == 0) {
      EXPECT_EQ(std::filesystem::file_size(path),
                core::serialized_bytes(model));
    }
  });
  std::filesystem::remove(path);
}

TEST(TuckerIo, CompressedFileIsSmallerThanRawData) {
  const std::string path = temp_model_path("ptucker_model_small.bin");
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{16, 16, 16}, Dims{2, 2, 2}, 9, 0.0);
    core::SthosvdOptions opts;
    opts.epsilon = 1e-6;
    const TuckerTensor model = core::st_hosvd(x, opts).tucker;
    core::save_tucker(path, model);
    if (comm.rank() == 0) {
      const auto raw_bytes = 16ull * 16 * 16 * sizeof(double);
      EXPECT_LT(std::filesystem::file_size(path), raw_bytes / 10);
    }
  });
  std::filesystem::remove(path);
}

TEST(TuckerIo, LoadRejectsGarbageFile) {
  // Plain garbage, and the header of the retired rank-0 stream container
  // (its magic, u64 version 1, u64 order 2): neither is a PTZ1 model.
  std::string legacy{'P', 'T', 'K', 'R'};
  for (const std::uint64_t word : {std::uint64_t{1}, std::uint64_t{2}}) {
    legacy.append(reinterpret_cast<const char*>(&word), sizeof(word));
  }
  const std::string path = temp_model_path("ptucker_model_garbage.bin");
  for (const std::string& bytes :
       {std::string("this is not a tucker model"), legacy}) {
    {
      std::ofstream os(path, std::ios::binary);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(run_ranks(1,
                           [&](mps::Comm& comm) {
                             auto grid = dist::make_grid(comm, {1, 1});
                             (void)core::load_tucker(path, grid);
                           }),
                 InvalidArgument)
        << bytes.substr(0, 4);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ptucker
