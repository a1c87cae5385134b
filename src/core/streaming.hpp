#pragma once
/// \file streaming.hpp
/// \brief The end-to-end in-situ pipeline (paper Sec. II): consume a
/// directory of per-timestep dumps window by window, compress each window
/// with ST-HOSVD, and append the models to ONE PTA1 archive; then answer
/// arbitrary-time-range reconstruction queries against that archive.
///
///   StreamingCompressor   TimestepReader::read_window -> normalize ->
///                         st_hosvd -> pario::archive_append_model
///   StreamingReconstructor maps a global step range onto the covering
///                         archive entries, partially reconstructs each
///                         (row subsets of the time factor), denormalizes
///                         with the per-window archived stats, and stitches
///                         the pieces along the time mode.
///
/// The window size is either fixed by the caller or chosen from the cost
/// model: among the windows whose modeled per-rank working set (paper
/// eq. 2) fits the memory budget, the one with the lowest modeled
/// ST-HOSVD seconds per step (ties to the larger window). The whole
/// archive IO path (append payload, entry loads) stays
/// communication-free; only the compression/reconstruction kernels
/// themselves communicate.

#include <memory>
#include <string>
#include <vector>

#include "core/st_hosvd.hpp"
#include "pario/archive_io.hpp"
#include "pario/timestep_reader.hpp"

namespace ptucker::core {

/// Cap on the automatic window choice.
inline constexpr std::size_t kMaxStreamingWindow = 32;
/// Per-rank working-set budget (doubles) for the automatic window choice
/// (paper eq. 2 memory bound): ~0.8 GiB of doubles.
inline constexpr double kStreamingMemoryBudgetDoubles = 1.0e8;

struct StreamingOptions {
  /// Per-window compression options (epsilon is the per-entry eq. 3 bound).
  SthosvdOptions sthosvd;
  /// Steps per window; 0 = pick from the cost model (pick_streaming_window
  /// with kMaxStreamingWindow and kStreamingMemoryBudgetDoubles).
  std::size_t window = 0;
  /// Species mode of the step tensors; >= 0 enables per-window
  /// normalization, with the stats archived in each entry.
  int species_mode = -1;
  /// Entry-table capacity of the created archive.
  std::size_t archive_capacity = pario::kDefaultArchiveCapacity;
  /// Windows per archive commit: compressed models are buffered and
  /// appended in batches of this size through archive_append_models, so K
  /// windows cost one bracketing fsync pair instead of K. A crash loses at
  /// most the uncommitted tail of buffered windows (the archive stays
  /// consistent — re-run from its step_end). 1 = commit every window.
  std::size_t commit_every = 1;
};

/// Cost-model window choice (exposed for tests and tools): among the
/// windows in [1, max_window] whose modeled per-rank memory (paper eq. 2)
/// fits the budget, the one with the lowest modeled ST-HOSVD seconds per
/// step — ties going to the larger window (better time-mode compression).
/// Ranks are estimated at half of each extent (the bound must hold before
/// the true eps-driven ranks are known). Window 1 is the floor even when
/// the model says it exceeds the budget: there is no smaller unit of
/// streaming work.
[[nodiscard]] std::size_t pick_streaming_window(
    const tensor::Dims& step_dims, const std::vector<int>& spatial_grid,
    std::size_t max_window, double budget_doubles,
    std::size_t num_steps);

/// Collective driver of the compression side. Construct inside the SPMD
/// region; each call to compress_next consumes one window.
class StreamingCompressor {
 public:
  struct WindowResult {
    std::size_t step_first = 0;
    std::size_t step_count = 0;
    double error_bound = 0.0;        ///< eq. 3 bound of this window
    double compression_ratio = 0.0;  ///< original / compressed elements
    double seconds = 0.0;            ///< read + compress + append wall time
  };

  /// Collective: scans \p step_dir, creates (truncating) the archive at
  /// \p archive_path, builds the processor grid (spatial default shape x 1
  /// time), and resolves the window size.
  StreamingCompressor(mps::Comm& comm, std::string step_dir,
                      std::string archive_path, StreamingOptions options = {});

  [[nodiscard]] std::size_t window() const { return window_; }
  [[nodiscard]] std::size_t num_steps() const { return reader_.num_steps(); }
  [[nodiscard]] std::size_t next_step() const { return next_; }
  [[nodiscard]] const pario::TimestepReader& reader() const { return reader_; }
  [[nodiscard]] const std::string& archive_path() const {
    return archive_path_;
  }

  /// Collective: compress the next window and append it to the archive
  /// (buffered: the append is committed every commit_every windows and when
  /// the last step is consumed, so the archive is always complete once the
  /// stream is). Returns false (and leaves \p out untouched) when every
  /// step has been consumed. The last window may be short — no step is
  /// ever dropped.
  bool compress_next(WindowResult* out = nullptr);

  /// Collective: drive compress_next to completion.
  std::vector<WindowResult> compress_all();

 private:
  /// One compressed-but-uncommitted window awaiting the batched append.
  struct PendingWindow {
    std::size_t step_first = 0;
    double eps = 0.0;
    TuckerTensor model;
    data::NormalizationStats stats;
    bool has_stats = false;
  };

  /// Collective: commit every buffered window in one batched append.
  void flush_pending();

  mps::Comm& comm_;
  pario::TimestepReader reader_;
  std::string archive_path_;
  StreamingOptions opts_;
  std::shared_ptr<mps::CartGrid> grid_;
  std::size_t window_ = 1;
  std::size_t next_ = 0;
  std::vector<PendingWindow> pending_;
};

/// Query side: maps arbitrary global time ranges onto the covering archive
/// entries and stitches their partial reconstructions. Construction is
/// per-rank and communication-free (every rank parses the archive itself).
class StreamingReconstructor {
 public:
  explicit StreamingReconstructor(const std::string& archive_path);

  [[nodiscard]] const pario::ArchiveReader& archive() const {
    return archive_;
  }
  [[nodiscard]] const tensor::Dims& step_dims() const {
    return archive_.step_dims();
  }
  /// One past the last archived step.
  [[nodiscard]] std::uint64_t num_steps() const {
    return archive_.step_end();
  }

  /// Collective: reconstruct global steps [step_lo, step_hi), restricted to
  /// \p spatial per-mode ranges (empty vector = full extent everywhere), as
  /// a DistTensor on \p grid whose last mode is time. The grid's time
  /// extent must be 1 so stitching entry outputs along time stays local —
  /// the archive read path moves zero words between ranks (the TTM chains
  /// inside reconstruction are the only communication). When an entry
  /// archived normalization stats and \p denormalize is set, physical
  /// values are restored per window.
  [[nodiscard]] dist::DistTensor reconstruct_steps(
      std::shared_ptr<mps::CartGrid> grid, std::uint64_t step_lo,
      std::uint64_t step_hi, std::vector<util::Range> spatial = {},
      bool denormalize = true) const;

 private:
  pario::ArchiveReader archive_;
};

}  // namespace ptucker::core
