#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/reconstruct.hpp"
#include "core/st_hosvd.hpp"
#include "core/streaming.hpp"
#include "dist/grid.hpp"
#include "pario/archive_io.hpp"
#include "pario/block_file.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using core::TuckerTensor;
using dist::DistTensor;
using tensor::Dims;
using tensor::Tensor;
using testing::run_ranks;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A smooth, per-step-distinct field so windows compress well and
/// cross-window mixups are caught.
double field_value(std::span<const std::size_t> idx, std::size_t t) {
  double v = 0.2;
  for (std::size_t n = 0; n < idx.size(); ++n) {
    v += std::sin(0.3 * static_cast<double>(idx[n]) +
                  0.7 * static_cast<double>(n + 1) +
                  0.11 * static_cast<double>(t));
  }
  return v;
}

/// Fill a window tensor (last mode = time, steps [first, first+count)).
void fill_window(DistTensor& x, std::size_t first) {
  x.fill_global([&](std::span<const std::size_t> idx) {
    return field_value(idx.subspan(0, idx.size() - 1),
                       first + idx[idx.size() - 1]);
  });
}

/// Compress one window of the synthetic field on \p grid.
TuckerTensor window_model(std::shared_ptr<mps::CartGrid> grid,
                          const Dims& step_dims, std::size_t first,
                          std::size_t count, double eps) {
  Dims dims = step_dims;
  dims.push_back(count);
  DistTensor x(std::move(grid), dims);
  fill_window(x, first);
  core::SthosvdOptions opts;
  opts.epsilon = eps;
  return core::st_hosvd(x, opts).tucker;
}

TEST(Archive, AppendReloadAcrossGridsAndEntriesMatch) {
  const std::string path = temp_path("ptucker_arch_rt.pta");
  const Dims step_dims{8, 7, 5};
  const double eps = 1e-6;
  const std::size_t window = 3;
  const std::size_t windows = 3;

  // Append on grid A (4 ranks, 2x2x1 spatial x 1 time).
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1, 1});
    pario::archive_create(path, comm, step_dims, /*species_mode=*/2, 8);
    for (std::size_t w = 0; w < windows; ++w) {
      const TuckerTensor model =
          window_model(grid, step_dims, w * window, window, eps);
      pario::archive_append_model(
          path, w * window, eps, model.core,
          std::span<const tensor::Matrix>(model.factors));
    }
  });

  // Reload every entry on grid B (6 ranks, 3x1x2 spatial x 1 time) and
  // check the reconstructions against the original field.
  run_ranks(6, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {3, 1, 2, 1});
    const pario::ArchiveReader reader(path);
    EXPECT_EQ(reader.step_dims(), step_dims);
    EXPECT_EQ(reader.species_mode(), 2);
    EXPECT_EQ(reader.entry_count(), windows);
    EXPECT_EQ(reader.entry_capacity(), 8u);
    EXPECT_EQ(reader.step_end(), windows * window);
    for (std::size_t e = 0; e < windows; ++e) {
      const pario::ArchiveEntry& ent = reader.entry(e);
      EXPECT_EQ(ent.step_first, e * window);
      EXPECT_EQ(ent.step_count, window);
      EXPECT_DOUBLE_EQ(ent.eps, eps);
      pario::ModelData md = reader.read_entry(e, grid);
      TuckerTensor model;
      model.core = std::move(md.core);
      model.factors = std::move(md.factors);
      DistTensor expect(grid, model.data_dims());
      fill_window(expect, ent.step_first);
      const DistTensor got = core::reconstruct(model);
      EXPECT_LT(testing::max_diff(got.local().data(),
                                  expect.local().data(),
                                  got.local().size()),
                1e-5)
          << "entry " << e;
    }
  });
  std::filesystem::remove(path);
}

TEST(Archive, ReadPathMovesZeroWords) {
  const std::string path = temp_path("ptucker_arch_zero.pta");
  const Dims step_dims{6, 6, 4};
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1, 1});
    pario::archive_create(path, comm, step_dims, 2, 4);
    for (std::size_t w = 0; w < 2; ++w) {
      const TuckerTensor model =
          window_model(grid, step_dims, 2 * w, 2, 1e-4);
      pario::archive_append_model(
          path, 2 * w, 1e-4, model.core,
          std::span<const tensor::Matrix>(model.factors));
    }
  });
  mps::Runtime rt(4);
  std::vector<std::shared_ptr<mps::CartGrid>> grids(4);
  rt.run([&](mps::Comm& comm) {
    grids[static_cast<std::size_t>(comm.rank())] =
        dist::make_grid(comm, {2, 2, 1, 1});
  });
  rt.reset_stats();  // count only the archive read path
  rt.run([&](mps::Comm& comm) {
    auto grid = grids[static_cast<std::size_t>(comm.rank())];
    const pario::ArchiveReader reader(path);
    for (std::size_t e = 0; e < reader.entry_count(); ++e) {
      const pario::ModelData md = reader.read_entry(e, grid);
      EXPECT_GT(md.core.local().size() + md.factors.size(), 0u);
    }
  });
  // Opening the archive and loading every entry injects no messages at all
  // — not even barriers: every rank preads only its own bytes.
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(rt.rank_stats(r).messages_sent, 0u) << "rank " << r;
  }
  std::filesystem::remove(path);
}

TEST(Archive, PerEntryErrorBoundHolds) {
  const std::string path = temp_path("ptucker_arch_eps.pta");
  const Dims step_dims{8, 6, 4};
  const double eps = 1e-2;
  const std::size_t window = 4;
  const std::size_t windows = 2;
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1, 1});
    pario::archive_create(path, comm, step_dims, -1, 4);
    for (std::size_t w = 0; w < windows; ++w) {
      const TuckerTensor model =
          window_model(grid, step_dims, w * window, window, eps);
      pario::archive_append_model(
          path, w * window, eps, model.core,
          std::span<const tensor::Matrix>(model.factors));
    }
    // Reconstruct each entry's full window and compare with the original:
    // per-entry normalized error must meet the recorded eq. 3 bound.
    const pario::ArchiveReader reader(path);
    for (std::size_t e = 0; e < reader.entry_count(); ++e) {
      const pario::ArchiveEntry& ent = reader.entry(e);
      pario::ModelData md = reader.read_entry(e, grid);
      TuckerTensor model;
      model.core = std::move(md.core);
      model.factors = std::move(md.factors);
      const DistTensor got = core::reconstruct(model);
      DistTensor expect(grid, model.data_dims());
      fill_window(expect, ent.step_first);
      double diff_sq = 0.0;
      double ref_sq = 0.0;
      for (std::size_t i = 0; i < got.local().size(); ++i) {
        const double d = got.local()[i] - expect.local()[i];
        diff_sq += d * d;
        ref_sq += expect.local()[i] * expect.local()[i];
      }
      diff_sq = mps::allreduce_scalar(comm, diff_sq);
      ref_sq = mps::allreduce_scalar(comm, ref_sq);
      EXPECT_LE(std::sqrt(diff_sq / ref_sq), ent.eps) << "entry " << e;
    }
  });
  std::filesystem::remove(path);
}

TEST(Archive, CrashMidAppendLeavesCommittedEntriesReadable) {
  const std::string path = temp_path("ptucker_arch_crash.pta");
  const Dims step_dims{6, 5, 4};
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1, 1});
    pario::archive_create(path, comm, step_dims, -1, 4);
    for (std::size_t w = 0; w < 2; ++w) {
      const TuckerTensor model =
          window_model(grid, step_dims, 2 * w, 2, 1e-6);
      pario::archive_append_model(
          path, 2 * w, 1e-6, model.core,
          std::span<const tensor::Matrix>(model.factors));
    }
  });

  // Simulate a crash mid-append of entry 1: roll the commit point back to
  // 1 committed entry (count field precedes the table; see archive_io.hpp)
  // and truncate into entry 1's payload — payload written, commit absent.
  const pario::ArchiveReader committed(path);
  ASSERT_EQ(committed.entry_count(), 2u);
  const pario::ArchiveEntry entry1 = committed.entry(1);
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t one = 1;
    // count field offset: magic + u64 * (version, order, 3 step dims,
    // species_mode, capacity) = 4 + 8 * 7.
    fs.seekp(4 + 8 * 7);
    fs.write(reinterpret_cast<const char*>(&one), sizeof(one));
  }
  std::filesystem::resize_file(path,
                               entry1.byte_offset + entry1.byte_count / 2);

  // The archive still opens and entry 0 is fully readable.
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1, 1});
    const pario::ArchiveReader reader(path);
    ASSERT_EQ(reader.entry_count(), 1u);
    EXPECT_EQ(reader.step_end(), 2u);
    pario::ModelData md = reader.read_entry(0, grid);
    TuckerTensor model;
    model.core = std::move(md.core);
    model.factors = std::move(md.factors);
    DistTensor expect(grid, model.data_dims());
    fill_window(expect, 0);
    const DistTensor got = core::reconstruct(model);
    EXPECT_LT(testing::max_diff(got.local().data(), expect.local().data(),
                                got.local().size()),
              1e-5);
  });

  // A committed count pointing into truncated bytes is detected, not
  // trusted: restore count = 2 with the file still cut short.
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t two = 2;
    fs.seekp(4 + 8 * 7);
    fs.write(reinterpret_cast<const char*>(&two), sizeof(two));
  }
  EXPECT_THROW((void)pario::ArchiveReader(path), InvalidArgument);
  std::filesystem::remove(path);
}

TEST(Archive, RejectsMisuse) {
  const std::string path = temp_path("ptucker_arch_misuse.pta");
  const Dims step_dims{6, 5, 4};
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1, 1});
    pario::archive_create(path, comm, step_dims, -1, /*capacity=*/1);
    const TuckerTensor model = window_model(grid, step_dims, 0, 2, 1e-4);
    const auto factors = std::span<const tensor::Matrix>(model.factors);
    // Non-contiguous window: the first entry must start at step 0.
    EXPECT_THROW(
        pario::archive_append_model(path, 5, 1e-4, model.core, factors),
        InvalidArgument);
    pario::archive_append_model(path, 0, 1e-4, model.core, factors);
    // Appends past entry_capacity chain into continuation tables now;
    // ArchiveFull is reserved for the process-wide hard cap and names
    // every knob involved. (Barriers around the cap writes: the cap is
    // process-global, so every rank must see the same value when its
    // append validates.)
    const std::size_t old_cap = pario::archive_hard_cap();
    comm.barrier();
    pario::set_archive_hard_cap(1);
    comm.barrier();
    try {
      pario::archive_append_model(path, 2, 1e-4, model.core, factors);
      FAIL() << "append past the hard cap succeeded";
    } catch (const ArchiveFull& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("entry_capacity"), std::string::npos) << what;
      EXPECT_NE(what.find("archive_create"), std::string::npos) << what;
      EXPECT_NE(what.find("set_archive_hard_cap"), std::string::npos) << what;
    }
    comm.barrier();
    pario::set_archive_hard_cap(old_cap);
    comm.barrier();
    // With the cap lifted, the same append chains past entry_capacity.
    pario::archive_append_model(path, 2, 1e-4, model.core, factors);
    // Contiguity still enforced inside the continuation table.
    EXPECT_THROW(
        pario::archive_append_model(path, 9, 1e-4, model.core, factors),
        InvalidArgument);
  });
  // Covering queries validate their range; the chained entry is visible.
  const pario::ArchiveReader reader(path);
  EXPECT_EQ(reader.entry_count(), 2u);
  EXPECT_EQ(reader.entry_capacity(), 1u);
  EXPECT_EQ(reader.total_capacity(), 2u);
  EXPECT_THROW((void)reader.covering(1, 1), InvalidArgument);
  EXPECT_THROW((void)reader.covering(0, 5), InvalidArgument);
  EXPECT_EQ(reader.covering(0, 2).size(), 1u);
  EXPECT_EQ(reader.covering(0, 4).size(), 2u);
  std::filesystem::remove(path);
}

/// Chaining: a small primary table grows through continuation tables and
/// every entry stays readable — across grids, and in both container
/// versions. The v2 run creates the archive; the v1 run starts from a
/// checked-in fixture (same field, shapes and grid, windows 0-2 already
/// committed, so one continuation table exists) and keeps its v1 slots.
TEST(Archive, ChainsPastCapacityThroughContinuationTables) {
  const Dims step_dims{6, 5, 4};
  const double eps = 1e-5;
  const std::size_t window = 2;
  const std::size_t windows = 7;  // capacity 2 -> primary + 3 chained
  for (const bool legacy : {false, true}) {
    const std::string path = temp_path("ptucker_arch_chain.pta");
    const std::size_t first = legacy ? 3 : 0;
    if (legacy) {
      std::filesystem::copy_file(
          testing::test_data_path("v1_chain.pta"), path,
          std::filesystem::copy_options::overwrite_existing);
      ASSERT_EQ(pario::ArchiveReader(path).entry_count(), first);
    }

    run_ranks(4, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, {2, 2, 1, 1});
      if (!legacy) {
        pario::archive_create(path, comm, step_dims, -1, /*capacity=*/2);
      }
      for (std::size_t w = first; w < windows; ++w) {
        const TuckerTensor model =
            window_model(grid, step_dims, w * window, window, eps);
        pario::archive_append_model(
            path, w * window, eps, model.core,
            std::span<const tensor::Matrix>(model.factors));
      }
    });

    std::uint64_t version = 0;
    std::ifstream(path, std::ios::binary)
        .seekg(4)
        .read(reinterpret_cast<char*>(&version), sizeof(version));
    EXPECT_EQ(version, legacy ? 1u : 2u);
    run_ranks(2, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, {2, 1, 1, 1});
      const pario::ArchiveReader reader(path);
      ASSERT_EQ(reader.entry_count(), windows) << "legacy " << legacy;
      EXPECT_EQ(reader.entry_capacity(), 2u);
      EXPECT_EQ(reader.total_capacity(), 8u);  // 2 + 3 x 2 chained
      EXPECT_EQ(reader.step_end(), windows * window);
      for (std::size_t e = 0; e < windows; ++e) {
        pario::ModelData md = reader.read_entry(e, grid);
        TuckerTensor model;
        model.core = std::move(md.core);
        model.factors = std::move(md.factors);
        DistTensor expect(grid, model.data_dims());
        fill_window(expect, reader.entry(e).step_first);
        const DistTensor got = core::reconstruct(model);
        EXPECT_LT(testing::max_diff(got.local().data(),
                                    expect.local().data(),
                                    got.local().size()),
                  1e-4)
            << "legacy " << legacy << " entry " << e;
      }
    });
    std::filesystem::remove(path);
  }
}

/// A torn (or missing) continuation header ends the chain exactly like a
/// clean EOF — the committed prefix stays readable — while corruption in a
/// *committed* continuation slot stays loud.
TEST(Archive, TornContinuationReadsAsCleanEnd) {
  const std::string path = temp_path("ptucker_arch_torn_chain.pta");
  const Dims step_dims{6, 5, 4};
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1, 1});
    pario::archive_create(path, comm, step_dims, -1, /*capacity=*/1);
    for (std::size_t w = 0; w < 3; ++w) {
      const TuckerTensor model =
          window_model(grid, step_dims, 2 * w, 2, 1e-4);
      pario::archive_append_model(
          path, 2 * w, 1e-4, model.core,
          std::span<const tensor::Matrix>(model.factors));
    }
  });
  const pario::ArchiveReader full(path);
  ASSERT_EQ(full.entry_count(), 3u);
  // Continuation table t lives where entry t-1's blob ends.
  const auto cont_off = [&](std::size_t e) {
    return full.entry(e).byte_offset + full.entry(e).byte_count;
  };
  const auto flip_byte = [&](std::uint64_t off) {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    fs.seekg(static_cast<std::streamoff>(off));
    char b = 0;
    fs.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    fs.seekp(static_cast<std::streamoff>(off));
    fs.write(&b, 1);
  };

  // Smash the second continuation's magic: its entry drops off, the rest
  // reads fine.
  flip_byte(cont_off(1));
  {
    const pario::ArchiveReader reader(path);
    EXPECT_EQ(reader.entry_count(), 2u);
    EXPECT_EQ(reader.step_end(), 4u);
    EXPECT_GT(reader.read_entry_local(1).core.size(), 0u);
  }
  flip_byte(cont_off(1));  // restore
  // Smash the first continuation's header_check: same clean-EOF behavior
  // (v2 archives; the check spans magic + capacity).
  flip_byte(cont_off(0) + 12);
  {
    const pario::ArchiveReader reader(path);
    EXPECT_EQ(reader.entry_count(), 1u);
  }
  flip_byte(cont_off(0) + 12);  // restore
  ASSERT_EQ(pario::ArchiveReader(path).entry_count(), 3u);
  // A committed slot inside a continuation table is covered by its CRC:
  // flip one byte of the first continuation's slot 0 -> loud failure.
  flip_byte(cont_off(0) + 4 + 3 * 8 + 2);
  EXPECT_THROW((void)pario::ArchiveReader(path), ChecksumError);
  std::filesystem::remove(path);
}

/// archive_append_models: K windows, one commit — including a batch that
/// overflows the primary table and grows the chain mid-batch.
TEST(Archive, BatchedAppendSpansChainBoundary) {
  const std::string path = temp_path("ptucker_arch_batch.pta");
  const Dims step_dims{6, 5, 4};
  const double eps = 1e-5;
  const std::size_t window = 2;
  const std::size_t windows = 5;  // capacity 2 -> chains twice mid-batch

  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1, 1});
    pario::archive_create(path, comm, step_dims, -1, /*capacity=*/2);
    std::vector<TuckerTensor> models;
    models.reserve(windows);
    for (std::size_t w = 0; w < windows; ++w) {
      models.push_back(
          window_model(grid, step_dims, w * window, window, eps));
    }
    std::vector<pario::ArchiveWindow> batch(windows);
    for (std::size_t w = 0; w < windows; ++w) {
      batch[w].step_first = w * window;
      batch[w].eps = eps;
      batch[w].core = &models[w].core;
      batch[w].factors =
          std::span<const tensor::Matrix>(models[w].factors);
    }
    pario::archive_append_models(
        path, std::span<const pario::ArchiveWindow>(batch));
  });

  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1, 1});
    const pario::ArchiveReader reader(path);
    ASSERT_EQ(reader.entry_count(), windows);
    EXPECT_EQ(reader.total_capacity(), 6u);  // 2 + 2 x 2 chained
    EXPECT_EQ(reader.step_end(), windows * window);
    for (std::size_t e = 0; e < windows; ++e) {
      pario::ModelData md = reader.read_entry(e, grid);
      TuckerTensor model;
      model.core = std::move(md.core);
      model.factors = std::move(md.factors);
      DistTensor expect(grid, model.data_dims());
      fill_window(expect, reader.entry(e).step_first);
      const DistTensor got = core::reconstruct(model);
      EXPECT_LT(testing::max_diff(got.local().data(),
                                  expect.local().data(),
                                  got.local().size()),
                1e-4)
          << "entry " << e;
    }
  });
  std::filesystem::remove(path);
}

TEST(Streaming, PipelineCompressesIntoOneArchiveAndReconstructsRanges) {
  namespace fs = std::filesystem;
  const std::string dir = temp_path("ptucker_stream_dir");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string archive = dir + "/models.pta";
  const Dims step_dims{8, 6, 5};
  const std::size_t steps = 7;  // window 3 -> entries of 3, 3, 1

  // "Solver" phase: dump the steps.
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    for (std::size_t t = 0; t < steps; ++t) {
      DistTensor field(grid, step_dims);
      field.fill_global([&](std::span<const std::size_t> idx) {
        return field_value(idx, t);
      });
      char name[32];
      std::snprintf(name, sizeof(name), "/step_%04zu.ptb", t);
      pario::write_dist_tensor(dir + name, field);
    }
  });

  // Streaming phase: normalize per species, compress, append.
  run_ranks(4, [&](mps::Comm& comm) {
    core::StreamingOptions opts;
    opts.sthosvd.epsilon = 1e-8;  // near-lossless: physical values testable
    opts.window = 3;
    opts.species_mode = 2;
    core::StreamingCompressor compressor(comm, dir, archive, opts);
    EXPECT_EQ(compressor.num_steps(), steps);
    EXPECT_EQ(compressor.window(), 3u);
    const auto results = compressor.compress_all();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[2].step_first, 6u);
    EXPECT_EQ(results[2].step_count, 1u);  // short last window kept
    for (const auto& r : results) EXPECT_LE(r.error_bound, 1e-8);
  });

  // Query phase: an arbitrary range spanning two entries, sliced in space,
  // must reproduce the original physical values (stats denormalized).
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1, 1});
    const core::StreamingReconstructor recon(archive);
    EXPECT_EQ(recon.num_steps(), steps);
    const std::vector<util::Range> spatial{{1, 7}, {0, 6}, {2, 5}};
    const DistTensor got = recon.reconstruct_steps(grid, 2, 7, spatial);
    EXPECT_EQ(got.global_dims(), (Dims{6, 6, 3, 5}));
    DistTensor expect(grid, Dims{6, 6, 3, 5});
    expect.fill_global([&](std::span<const std::size_t> idx) {
      const std::size_t full[3] = {idx[0] + 1, idx[1], idx[2] + 2};
      return field_value(full, 2 + idx[3]);
    });
    EXPECT_LT(testing::max_diff(got.local().data(), expect.local().data(),
                                got.local().size()),
              1e-6);
  });
  fs::remove_all(dir);
}

/// commit_every batches windows into one archive commit; the layout is
/// deterministic, so the batched archive must be bit-identical to the
/// per-window one.
TEST(Streaming, BatchedCommitProducesIdenticalArchive) {
  namespace fs = std::filesystem;
  const std::string dir = temp_path("ptucker_stream_batch");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const Dims step_dims{6, 5, 4};
  const std::size_t steps = 5;  // window 2 -> 3 windows (last one short)

  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    for (std::size_t t = 0; t < steps; ++t) {
      DistTensor field(grid, step_dims);
      field.fill_global([&](std::span<const std::size_t> idx) {
        return field_value(idx, t);
      });
      char name[32];
      std::snprintf(name, sizeof(name), "/step_%04zu.ptb", t);
      pario::write_dist_tensor(dir + name, field);
    }
  });

  const auto compress = [&](const std::string& archive,
                            std::size_t commit_every) {
    run_ranks(2, [&](mps::Comm& comm) {
      core::StreamingOptions opts;
      opts.sthosvd.epsilon = 1e-6;
      opts.window = 2;
      opts.commit_every = commit_every;
      opts.archive_capacity = 4;
      core::StreamingCompressor compressor(comm, dir, archive, opts);
      const auto results = compressor.compress_all();
      ASSERT_EQ(results.size(), 3u);
    });
  };
  const std::string arch_single = dir + "/single.pta";
  const std::string arch_batched = dir + "/batched.pta";
  compress(arch_single, 1);
  compress(arch_batched, 8);  // larger than the stream: one commit total

  const pario::ArchiveReader a(arch_single);
  const pario::ArchiveReader b(arch_batched);
  ASSERT_EQ(a.entry_count(), 3u);
  ASSERT_EQ(b.entry_count(), 3u);
  EXPECT_EQ(b.step_end(), steps);
  std::ifstream fa(arch_single, std::ios::binary);
  std::ifstream fb(arch_batched, std::ios::binary);
  const std::vector<char> bytes_a(std::istreambuf_iterator<char>(fa), {});
  const std::vector<char> bytes_b(std::istreambuf_iterator<char>(fb), {});
  EXPECT_EQ(bytes_a, bytes_b);
  fs::remove_all(dir);
}

TEST(Streaming, CostModelWindowChoiceIsSaneAndBudgetBounded) {
  const Dims step_dims{32, 32, 8};
  const std::vector<int> grid{2, 2, 1};
  const std::size_t w =
      core::pick_streaming_window(step_dims, grid, 16, 1.0e8, 100);
  EXPECT_GE(w, 1u);
  EXPECT_LE(w, 16u);
  // A tiny memory budget forces single-step windows.
  EXPECT_EQ(core::pick_streaming_window(step_dims, grid, 16, 1.0, 100), 1u);
  // Never exceeds the number of steps.
  EXPECT_LE(core::pick_streaming_window(step_dims, grid, 16, 1.0e8, 2), 2u);
}

}  // namespace
}  // namespace ptucker
