#pragma once
/// \file block_file.hpp
/// \brief The PTB1 chunked block-tensor container: rank-parallel reads and
/// writes of a distributed dense tensor with zero inter-rank data movement.
///
/// Layout (little-endian):
///   "PTB1" | u64 version | u64 order N | u64 dims[N] | u64 grid[N]
///   | u64 block_offset[prod(grid)]
///   | u64 block_crc[prod(grid)]          (version 2 only)
///   | f64 block payloads ...
///
/// Version 2, the only version written, adds one CRC32C per block — stored
/// in the low 32 bits of a u64 slot, written by the owning rank alongside
/// its payload — verified on any read that fully covers a block. Legacy
/// version-1 files are still read (no verification).
///
/// Block b (grid-rank order, coordinate 0 fastest — the CartGrid
/// linearization) holds the uniform_block sub-tensor of every mode at b's
/// grid coordinates, dense in first-index-fastest layout, starting at byte
/// block_offset[b]. Offsets are computable from dims + grid, so on write
/// every rank pwrites its own block with no communication (rank 0 writes
/// the header, bracketed by two barriers); on read every rank preads
/// exactly the bytes of its own block. The offset table still rides in the
/// header so a reader on a *different* grid can locate the runs it needs
/// (redistribution) and so truncation is detected, not trusted.
///
/// A legacy "PTT1" dense tensor file ("PTT1" | u64 order | u64 dims[N] |
/// f64 data, first-index-fastest) is read-only: it opens through the same
/// interface as a degenerate PTB1 with a 1 x ... x 1 grid, which is what
/// lets the example tools and the timestep reader ingest it block-parallel.

#include <memory>
#include <string>

#include "dist/dist_tensor.hpp"
#include "pario/layout.hpp"
#include "pario/posix_file.hpp"

namespace ptucker::pario {

/// Parsed header + open descriptor of a PTB1 (or PTT1) file; read side.
/// Construction and reads are communication-free.
class BlockFile {
 public:
  /// Open and validate; sniffs PTB1 vs PTT1 by magic.
  [[nodiscard]] static BlockFile open(const std::string& path);

  [[nodiscard]] const tensor::Dims& dims() const { return dims_; }
  [[nodiscard]] int order() const { return static_cast<int>(dims_.size()); }
  /// Writer grid shape (all ones for a PTT1 file).
  [[nodiscard]] const std::vector<int>& grid_shape() const { return grid_; }

  /// Read an arbitrary hyper-rectangle into a dense tensor (preads only).
  [[nodiscard]] tensor::Tensor read_ranges(
      const std::vector<util::Range>& ranges) const;

  /// True for a version-2 (checksummed) file.
  [[nodiscard]] bool checksummed() const { return !crcs_.empty(); }

 private:
  BlockFile() = default;
  File file_;
  tensor::Dims dims_;
  std::vector<int> grid_;
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint64_t> crcs_;  // empty for version-1 / PTT1 files
};

/// Collective: write \p x as a PTB1 container. Rank 0 writes the header and
/// sizes the file; every rank then pwrites its own block at its computed
/// offset. The only communication is two barriers (zero payload words).
void write_dist_tensor(const std::string& path, const dist::DistTensor& x);

/// Collective: build a DistTensor on \p grid from a PTB1/PTT1 file. Every
/// rank preads exactly its own block — one contiguous read when the file
/// was written on the same grid, otherwise the writer blocks it covers
/// (in chunks of at most 1 MiB) and the mode-0 runs of those it only cuts
/// (redistribution). Zero messages, no barriers.
[[nodiscard]] dist::DistTensor read_dist_tensor(
    std::shared_ptr<mps::CartGrid> grid, const std::string& path);

/// Total byte size of the PTB1 container write_dist_tensor emits for the
/// given dims and grid.
[[nodiscard]] std::uint64_t ptb1_file_bytes(const tensor::Dims& dims,
                                            const std::vector<int>& grid);

}  // namespace ptucker::pario
