#include "pario/layout.hpp"

#include <algorithm>
#include <cstring>

#include "obs/registry.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace ptucker::pario::detail {

namespace {

/// Coordinates of grid rank \p b (coordinate 0 fastest, as in CartGrid).
std::vector<int> grid_coords(const std::vector<int>& grid, int b) {
  std::vector<int> coords(grid.size());
  for (std::size_t n = 0; n < grid.size(); ++n) {
    coords[n] = b % grid[n];
    b /= grid[n];
  }
  return coords;
}

int grid_size(const std::vector<int>& grid) {
  int p = 1;
  for (int e : grid) p *= e;
  return p;
}

/// Largest coalesced pread of a covered block: whole mode-0 runs up to this
/// many bytes (or one run, if a single run is longer).
constexpr std::size_t kReadChunkBytes = std::size_t{1} << 20;

struct CrcCounters {
  obs::Counter checked;
  obs::Counter failures;
};

CrcCounters& crc_counters() {
  static CrcCounters* c = [] {
    auto* t = new CrcCounters;
    t->checked = obs::registry().counter("pario.crc_checked");
    t->failures = obs::registry().counter("pario.crc_failures");
    return t;
  }();
  return *c;
}

}  // namespace

void verify_crc32c(const char* container, const File& file,
                   const std::string& what, std::uint64_t offset,
                   std::uint64_t stored, std::uint32_t computed) {
  crc_counters().checked.inc();
  if ((stored & 0xFFFFFFFFull) == computed) return;
  crc_counters().failures.inc();
  std::ostringstream os;
  os << container << ": checksum mismatch in " << what << " of " << file.path()
     << " at offset " << offset << " (stored crc32c 0x" << std::hex
     << (stored & 0xFFFFFFFFull) << ", computed 0x" << computed << std::dec
     << ") — silent corruption or a torn write";
  throw ChecksumError(os.str());
}

std::vector<util::Range> block_ranges(const tensor::Dims& dims,
                                      const std::vector<int>& grid, int b) {
  PT_CHECK(dims.size() == grid.size(), "block_ranges: dims/grid order");
  const std::vector<int> coords = grid_coords(grid, b);
  std::vector<util::Range> ranges(dims.size());
  for (std::size_t n = 0; n < dims.size(); ++n) {
    ranges[n] = util::uniform_block(dims[n], static_cast<std::size_t>(grid[n]),
                                    static_cast<std::size_t>(coords[n]));
  }
  return ranges;
}

std::uint64_t block_elements(const tensor::Dims& dims,
                             const std::vector<int>& grid, int b) {
  std::uint64_t count = 1;
  for (const util::Range& r : block_ranges(dims, grid, b)) {
    count = util::checked_mul(count, r.size(), "pario: block_elements");
  }
  return count;
}

std::vector<std::uint64_t> block_offsets(const tensor::Dims& dims,
                                         const std::vector<int>& grid,
                                         std::uint64_t base) {
  const int p = grid_size(grid);
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(p) + 1);
  offsets[0] = base;
  for (int b = 0; b < p; ++b) {
    const std::uint64_t bytes = util::checked_mul(
        sizeof(double), block_elements(dims, grid, b), "pario: block_offsets");
    offsets[static_cast<std::size_t>(b) + 1] = util::checked_add(
        offsets[static_cast<std::size_t>(b)], bytes, "pario: block_offsets");
  }
  return offsets;
}

tensor::Tensor read_blocked_ranges(const File& file, const tensor::Dims& dims,
                                   const std::vector<int>& grid,
                                   const std::vector<std::uint64_t>& offsets,
                                   const std::vector<util::Range>& ranges,
                                   const std::vector<std::uint64_t>& block_crcs) {
  const std::size_t order = dims.size();
  PT_REQUIRE(ranges.size() == order, "read_blocked_ranges: one range per mode");
  tensor::Dims out_dims(order);
  for (std::size_t n = 0; n < order; ++n) {
    PT_REQUIRE(ranges[n].lo <= ranges[n].hi && ranges[n].hi <= dims[n],
               "read_blocked_ranges: range out of bounds in mode " << n);
    out_dims[n] = ranges[n].size();
  }
  tensor::Tensor out(out_dims);
  if (out.size() == 0) return out;

  std::vector<double> chunk;  // reused by every covered block
  const int p = grid_size(grid);
  for (int b = 0; b < p; ++b) {
    const std::vector<util::Range> block = block_ranges(dims, grid, b);

    // Intersection of the request with this block.
    std::vector<util::Range> is(order);
    bool empty = false;
    bool whole = true;    // intersection == block == request
    bool covered = true;  // intersection == block (crc verifiable)
    for (std::size_t n = 0; n < order; ++n) {
      is[n] = {std::max(ranges[n].lo, block[n].lo),
               std::min(ranges[n].hi, block[n].hi)};
      if (is[n].lo >= is[n].hi) {
        empty = true;
        break;
      }
      covered = covered && is[n].lo == block[n].lo && is[n].hi == block[n].hi;
      whole = whole && covered && is[n].lo == ranges[n].lo &&
              is[n].hi == ranges[n].hi;
    }
    if (empty) continue;

    const bool verify =
        covered && static_cast<std::size_t>(b) < block_crcs.size();
    const std::uint64_t block_base = offsets[static_cast<std::size_t>(b)];
    if (whole) {  // grid-matched fast path: the block IS the request
      file.read_at(block_base, out.data(), out.size() * sizeof(double));
      if (verify) {
        verify_crc32c("pario", file, "block " + std::to_string(b), block_base,
                      block_crcs[static_cast<std::size_t>(b)],
                      util::crc32c(0, out.data(), out.size() * sizeof(double)));
      }
      return out;
    }

    // Strides of the block's dense layout and of the output tensor.
    std::vector<std::uint64_t> bstride(order), ostride(order);
    std::uint64_t bs = 1;
    std::uint64_t os = 1;
    for (std::size_t n = 0; n < order; ++n) {
      bstride[n] = bs;
      ostride[n] = os;
      bs *= block[n].size();
      os *= out_dims[n];
    }

    // Walk the mode-0 runs of the intersection. A partially covered block
    // is pread run by run straight into `out`. A covered block is contiguous
    // in the file and its runs come in file order, so it is pread in chunks
    // of whole runs, each checksummed while hot and then copied run by run.
    const std::size_t run = is[0].size();
    const std::size_t run_bytes = run * sizeof(double);
    std::uint64_t src0 = is[0].lo - block[0].lo;
    std::uint64_t dst0 = is[0].lo - ranges[0].lo;
    std::vector<std::size_t> idx(order, 0);  // tail index within is[1..]
    std::size_t runs = 1;
    for (std::size_t n = 1; n < order; ++n) runs *= is[n].size();
    const std::size_t chunk_runs =
        std::min(runs, std::max<std::size_t>(1, kReadChunkBytes / run_bytes));
    if (covered && chunk.size() < chunk_runs * run) {
      chunk.resize(chunk_runs * run);
    }
    std::uint32_t crc = 0;
    for (std::size_t r = 0; r < runs; ++r) {
      std::uint64_t src = src0;
      std::uint64_t dst = dst0;
      for (std::size_t n = 1; n < order; ++n) {
        src += (is[n].lo - block[n].lo + idx[n]) * bstride[n];
        dst += (is[n].lo - ranges[n].lo + idx[n]) * ostride[n];
      }
      if (!covered) {
        file.read_at(block_base + src * sizeof(double), out.data() + dst,
                     run_bytes);
      } else {
        const std::size_t k = r % chunk_runs;
        if (k == 0) {
          const std::size_t bytes = std::min(chunk_runs, runs - r) * run_bytes;
          file.read_at(block_base + src * sizeof(double), chunk.data(), bytes);
          if (verify) crc = util::crc32c(crc, chunk.data(), bytes);
        }
        std::memcpy(out.data() + dst, chunk.data() + k * run, run_bytes);
      }
      for (std::size_t n = 1; n < order; ++n) {
        if (++idx[n] < is[n].size()) break;
        idx[n] = 0;
      }
    }
    if (verify) {
      verify_crc32c("pario", file, "block " + std::to_string(b), block_base,
                    block_crcs[static_cast<std::size_t>(b)], crc);
    }
  }
  return out;
}

/// --- header (de)serialization -------------------------------------------------

void HeaderWriter::magic(const char m[4]) { buf_.insert(buf_.end(), m, m + 4); }

void HeaderWriter::u64(std::uint64_t v) {
  const char* p = reinterpret_cast<const char*>(&v);
  buf_.insert(buf_.end(), p, p + sizeof(v));
}

void HeaderWriter::u64s(const std::vector<std::uint64_t>& v) {
  for (std::uint64_t x : v) u64(x);
}

void HeaderWriter::f64s(const double* data, std::size_t count) {
  const char* p = reinterpret_cast<const char*>(data);
  buf_.insert(buf_.end(), p, p + count * sizeof(double));
}

bool HeaderReader::try_magic(const char m[4]) {
  char buf[4] = {};
  file_.read_at(pos_, buf, 4);
  if (std::memcmp(buf, m, 4) != 0) return false;
  pos_ += 4;
  return true;
}

void HeaderReader::expect_magic(const char m[4]) {
  PT_REQUIRE(try_magic(m), "pario: bad magic in " << file_.path()
                                                  << " (expected "
                                                  << std::string(m, 4) << ")");
}

std::uint64_t HeaderReader::u64() {
  std::uint64_t v = 0;
  file_.read_at(pos_, &v, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

std::vector<std::uint64_t> HeaderReader::u64s(std::size_t count) {
  std::vector<std::uint64_t> v(count);
  if (count > 0) file_.read_at(pos_, v.data(), count * sizeof(std::uint64_t));
  pos_ += count * sizeof(std::uint64_t);
  return v;
}

void HeaderReader::f64s(double* out, std::size_t count) {
  if (count > 0) file_.read_at(pos_, out, count * sizeof(double));
  pos_ += count * sizeof(double);
}

std::vector<int> read_grid_shape(HeaderReader& reader, std::uint64_t order,
                                 const File& file) {
  const auto grid64 = reader.u64s(order);
  std::vector<int> grid(order);
  std::uint64_t ranks = 1;
  for (std::uint64_t n = 0; n < order; ++n) {
    PT_REQUIRE(grid64[n] >= 1 && grid64[n] <= kMaxGridRanks,
               "pario: implausible grid extent in " << file.path());
    grid[n] = static_cast<int>(grid64[n]);
    ranks *= grid64[n];
    PT_REQUIRE(ranks <= kMaxGridRanks,
               "pario: implausible grid in " << file.path());
  }
  return grid;
}

void validate_blocked_header(const char* what, const File& file,
                             const tensor::Dims& dims,
                             const std::vector<int>& grid,
                             const std::vector<std::uint64_t>& offsets,
                             std::uint64_t header_end, std::uint64_t limit) {
  PT_REQUIRE(!dims.empty() && dims.size() <= kMaxOrder,
             what << ": implausible order " << dims.size() << " in "
                  << file.path());
  PT_REQUIRE(dims.size() == grid.size(),
             what << ": dims/grid order mismatch in " << file.path());
  // Bound the dims before any size arithmetic: past this check every
  // element/byte product in the readers is exact in 64 bits.
  std::uint64_t elements = 1;
  for (std::size_t d : dims) {
    const std::uint64_t factor = std::max<std::uint64_t>(d, 1);
    PT_REQUIRE(d <= kMaxElements && elements <= kMaxElements / factor,
               what << ": implausible dims in " << file.path());
    elements *= factor;
  }
  std::uint64_t ranks = 1;
  for (int e : grid) {
    PT_REQUIRE(e >= 1, what << ": grid extent " << e << " < 1 in "
                            << file.path());
    ranks *= static_cast<std::uint64_t>(e);
    PT_REQUIRE(ranks <= kMaxGridRanks,
               what << ": implausible grid in " << file.path());
  }
  PT_REQUIRE(offsets.size() == ranks,
             what << ": offset table size mismatch in " << file.path());
  PT_REQUIRE(limit <= file.size(),
             what << ": blob limit past the end of " << file.path());
  for (std::uint64_t b = 0; b < ranks; ++b) {
    const std::uint64_t bytes =
        sizeof(double) * block_elements(dims, grid, static_cast<int>(b));
    PT_REQUIRE(offsets[b] >= header_end &&
                   offsets[b] + bytes >= offsets[b] &&  // no wraparound
                   offsets[b] + bytes <= limit,
               what << ": block " << b << " extends past the end of "
                    << file.path() << " (truncated or corrupt header)");
  }
}

}  // namespace ptucker::pario::detail
