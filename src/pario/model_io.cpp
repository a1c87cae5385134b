#include "pario/model_io.hpp"

#include <cstring>

#include "pario/layout.hpp"
#include "util/crc32c.hpp"

namespace ptucker::pario {

namespace {
constexpr char kMagicModel[4] = {'P', 'T', 'Z', '1'};
constexpr std::uint64_t kVersionPlain = 1;  // legacy, read-only: no checksums
constexpr std::uint64_t kVersionCrc = 2;    // + core_crc[R] + factor_crc

/// Ceiling on the per-species stats count a header may claim; far above any
/// real species extent, small enough that the payload math stays exact.
constexpr std::uint64_t kMaxStatsCount = 1ull << 30;

std::uint64_t stats_bytes(std::size_t count) {
  return count == 0 ? 0
                    : sizeof(std::uint64_t) * 2 +
                          util::checked_mul(sizeof(double) * 2, count,
                                            "pario: PTZ1 stats");
}

/// Header bytes of the written (version 2) layout, which appends after the
/// core_offset table one CRC32C u64 slot per core block (written by the
/// owning rank) and one factor_crc u64 over the whole factor payload region.
std::uint64_t header_bytes(std::size_t order, std::uint64_t ranks,
                           std::size_t stats_count) {
  const std::uint64_t words = util::checked_add(
      2 + 4 * order + 1 + 1,
      util::checked_mul(2, ranks, "pario: PTZ1 header"), "pario: PTZ1 header");
  return util::checked_add(
      4 + util::checked_mul(sizeof(std::uint64_t), words,
                            "pario: PTZ1 header"),
      stats_bytes(stats_count), "pario: PTZ1 header");
}

std::uint64_t factor_bytes(std::span<const tensor::Matrix> factors) {
  std::uint64_t bytes = 0;
  for (const tensor::Matrix& u : factors) {
    bytes = util::checked_add(
        bytes,
        util::checked_mul(sizeof(double), u.size(), "pario: PTZ1 factors"),
        "pario: PTZ1 factors");
  }
  return bytes;
}
}  // namespace

std::uint64_t ptz1_file_bytes(const tensor::Dims& core_dims,
                              const std::vector<int>& grid,
                              std::span<const tensor::Matrix> factors,
                              std::size_t stats_count) {
  const auto offsets = detail::block_offsets(core_dims, grid, 0);
  return util::checked_add(
      util::checked_add(
          header_bytes(core_dims.size(), offsets.size() - 1, stats_count),
          factor_bytes(factors), "pario: PTZ1 size"),
      offsets.back(), "pario: PTZ1 size");
}

bool is_ptz1(const std::string& path) {
  const File file = File::open_read(path);
  if (file.size() < 4) return false;
  char magic[4] = {};
  file.read_at(0, magic, 4);
  return std::memcmp(magic, kMagicModel, 4) == 0;
}

std::uint64_t write_model_at(const std::string& path, std::uint64_t base,
                             bool create, const dist::DistTensor& core,
                             std::span<const tensor::Matrix> factors,
                             const data::NormalizationStats* stats) {
  const mps::Comm& comm = core.comm();
  const std::size_t order = core.global_dims().size();
  PT_REQUIRE(factors.size() == order,
             "write_model: need one factor per mode");
  if (stats != nullptr) {
    PT_REQUIRE(stats->mean.size() == stats->stdev.size(),
               "write_model: stats mean/stdev size mismatch");
  }
  const std::size_t stats_count = stats == nullptr ? 0 : stats->mean.size();
  const std::uint64_t ranks = static_cast<std::uint64_t>(comm.size());
  const std::uint64_t head = header_bytes(order, ranks, stats_count);
  const std::uint64_t data_base = head + factor_bytes(factors);
  // Offsets are blob-relative: base + offsets[b] is the absolute position.
  const auto offsets =
      detail::block_offsets(core.global_dims(), core.grid().shape(),
                            data_base);
  const std::uint64_t blob_bytes = offsets.back();
  const std::uint64_t end =
      util::checked_add(base, blob_bytes, "pario: PTZ1 blob end");

  if (comm.rank() == 0) {
    detail::HeaderWriter w;
    w.magic(kMagicModel);
    w.u64(kVersionCrc);
    w.u64(static_cast<std::uint64_t>(order));
    for (std::size_t d : core.global_dims()) w.u64(d);
    for (int e : core.grid().shape()) w.u64(static_cast<std::uint64_t>(e));
    for (const tensor::Matrix& u : factors) w.u64(u.rows());
    for (const tensor::Matrix& u : factors) w.u64(u.cols());
    w.u64(stats_count > 0 ? 1 : 0);
    if (stats_count > 0) {
      w.u64(static_cast<std::uint64_t>(stats->species_mode));
      w.u64(stats_count);
      w.f64s(stats->mean.data(), stats_count);
      w.f64s(stats->stdev.data(), stats_count);
    }
    for (std::uint64_t b = 0; b < ranks; ++b) w.u64(offsets[b]);
    // Core crc slots: zero-filled, overwritten by the owning ranks (an
    // empty block keeps 0 = crc32c of zero bytes). factor_crc covers the
    // factor payload region exactly as it is serialized below.
    for (std::uint64_t b = 0; b < ranks; ++b) w.u64(0);
    std::uint32_t fcrc = 0;
    for (const tensor::Matrix& u : factors) {
      fcrc = util::crc32c(fcrc, u.data(), u.size() * sizeof(double));
    }
    w.u64(fcrc);
    for (const tensor::Matrix& u : factors) w.f64s(u.data(), u.size());
    PT_CHECK(w.size() == data_base, "pario: PTZ1 header size mismatch");
    File f = create ? File::create(path) : File::open_write(path);
    f.write_at(base, w.bytes().data(), w.bytes().size());
    f.truncate(end);
  }
  comm.barrier();
  if (core.local().size() > 0) {
    const File f = File::open_write(path);
    const std::uint64_t c64 = util::crc32c(
        0, core.local().data(), core.local().size() * sizeof(double));
    // The crc table sits ranks+1 u64s before the factor payloads.
    const std::uint64_t crc_table = head - sizeof(std::uint64_t) * (ranks + 1);
    f.write_at(base + crc_table +
                   sizeof(std::uint64_t) *
                       static_cast<std::uint64_t>(comm.rank()),
               &c64, sizeof(c64));
    f.write_at(base + offsets[static_cast<std::size_t>(comm.rank())],
               core.local().data(), core.local().size() * sizeof(double));
  }
  comm.barrier();
  return blob_bytes;
}

void write_model(const std::string& path, const dist::DistTensor& core,
                 std::span<const tensor::Matrix> factors,
                 const data::NormalizationStats* stats) {
  (void)write_model_at(path, 0, /*create=*/true, core, factors, stats);
}

namespace {

/// Everything of a PTZ1 blob except the core payload: the parsed + validated
/// header, the replicated factors/stats, and the absolute core-block offset
/// table. Shared by the distributed reader (each rank then preads only its
/// own block) and the grid-free local reader (which preads every block).
struct ParsedModel {
  tensor::Dims core_dims;
  std::vector<int> file_grid;
  std::vector<std::uint64_t> core_offsets;  ///< absolute file positions
  std::vector<std::uint64_t> core_crcs;     ///< empty for version-1 blobs
  std::vector<tensor::Matrix> factors;
  bool has_stats = false;
  data::NormalizationStats stats;
};

ParsedModel parse_model_blob(const File& file, std::uint64_t base,
                             std::uint64_t limit) {
  PT_REQUIRE(base <= limit && limit <= file.size(),
             "pario: PTZ1 blob bounds [" << base << ", " << limit
                                         << ") outside " << file.path());
  detail::HeaderReader reader(file, base);
  reader.expect_magic(kMagicModel);
  const std::uint64_t version = reader.u64();
  PT_REQUIRE(version == kVersionPlain || version == kVersionCrc,
             "pario: unsupported PTZ1 version " << version << " in "
                                                << file.path());
  const std::uint64_t order = reader.u64();
  PT_REQUIRE(order >= 1 && order <= detail::kMaxOrder,
             "pario: implausible order " << order << " in " << file.path());
  const auto dims64 = reader.u64s(order);
  ParsedModel model;
  model.core_dims.assign(dims64.begin(), dims64.end());
  model.file_grid = detail::read_grid_shape(reader, order, file);
  std::uint64_t ranks = 1;
  for (int e : model.file_grid) ranks *= static_cast<std::uint64_t>(e);
  const auto rows = reader.u64s(order);
  const auto cols = reader.u64s(order);

  model.has_stats = reader.u64() != 0;
  if (model.has_stats) {
    const std::uint64_t species_mode = reader.u64();
    PT_REQUIRE(species_mode < order,
               "pario: implausible stats species mode in " << file.path());
    model.stats.species_mode = static_cast<int>(species_mode);
    const std::uint64_t count = reader.u64();
    // Validate the claimed count against the blob bytes actually present
    // BEFORE resizing, so a truncated or hostile header throws instead of
    // triggering a huge allocation or a short read mid-parse.
    PT_REQUIRE(count <= kMaxStatsCount,
               "pario: implausible stats count in " << file.path());
    const std::uint64_t payload = 2 * sizeof(double) * count;
    PT_REQUIRE(reader.pos() + payload <= limit,
               "pario: stats record extends past the end of "
                   << file.path() << " (truncated or hostile header)");
    model.stats.mean.resize(count);
    model.stats.stdev.resize(count);
    reader.f64s(model.stats.mean.data(), count);
    reader.f64s(model.stats.stdev.data(), count);
  }
  const auto core_offsets64 = reader.u64s(ranks);
  std::uint64_t factor_crc = 0;
  if (version == kVersionCrc) {
    model.core_crcs = reader.u64s(ranks);
    factor_crc = reader.u64();
  }
  PT_REQUIRE(reader.pos() <= limit,
             "pario: PTZ1 header extends past the end of "
                 << file.path() << " (truncated or hostile header)");

  // Factors: replicated, so every rank reads them straight from the file.
  // Claimed shapes are cross-checked against the blob size before any
  // Matrix is allocated. In version 2 the stored factor_crc is accumulated
  // across the payloads as they stream in and verified at the end.
  model.factors.reserve(order);
  const std::uint64_t factor_base = reader.pos();
  std::uint64_t factor_pos = factor_base;
  std::uint32_t fcrc = 0;
  for (std::uint64_t n = 0; n < order; ++n) {
    PT_REQUIRE(rows[n] <= (1ull << 30) && cols[n] <= (1ull << 30) &&
                   rows[n] * cols[n] <= detail::kMaxElements,
               "pario: implausible factor shape in " << file.path());
    const std::uint64_t fbytes = sizeof(double) * rows[n] * cols[n];
    PT_REQUIRE(factor_pos + fbytes <= limit,
               "pario: factor " << n << " extends past the end of "
                                << file.path()
                                << " (truncated or hostile header)");
    tensor::Matrix u(rows[n], cols[n]);
    if (u.size() > 0) {
      file.read_at(factor_pos, u.data(), fbytes);
      if (version == kVersionCrc) {
        fcrc = util::crc32c(fcrc, u.data(), fbytes);
      }
    }
    factor_pos += fbytes;
    model.factors.push_back(std::move(u));
  }
  if (version == kVersionCrc) {
    detail::verify_crc32c("pario(PTZ1)", file, "factor region", factor_base,
                          factor_crc, fcrc);
  }
  // Shift the blob-relative core offsets to absolute file positions.
  model.core_offsets.resize(core_offsets64.size());
  for (std::size_t b = 0; b < core_offsets64.size(); ++b) {
    model.core_offsets[b] =
        util::checked_add(base, core_offsets64[b], "pario: PTZ1 core offset");
  }
  detail::validate_blocked_header("pario(PTZ1)", file, model.core_dims,
                                  model.file_grid, model.core_offsets,
                                  factor_pos, limit);
  return model;
}

}  // namespace

ModelData read_model_at(const File& file, std::uint64_t base,
                        std::uint64_t limit,
                        std::shared_ptr<mps::CartGrid> grid) {
  PT_REQUIRE(grid != nullptr, "read_model: null grid");
  ParsedModel parsed = parse_model_blob(file, base, limit);
  PT_REQUIRE(static_cast<int>(parsed.core_dims.size()) == grid->order(),
             "read_model: file order " << parsed.core_dims.size()
                                       << " != grid order " << grid->order());
  ModelData model;
  model.factors = std::move(parsed.factors);
  model.has_stats = parsed.has_stats;
  model.stats = std::move(parsed.stats);

  // Core: every rank preads its own block out of the writer's layout.
  model.core = dist::DistTensor(std::move(grid), parsed.core_dims);
  if (model.core.local().size() > 0) {
    std::vector<util::Range> mine(parsed.core_dims.size());
    for (int n = 0; n < model.core.order(); ++n) {
      mine[static_cast<std::size_t>(n)] = model.core.mode_range(n);
    }
    model.core.local() = detail::read_blocked_ranges(
        file, parsed.core_dims, parsed.file_grid, parsed.core_offsets, mine,
        parsed.core_crcs);
  }
  return model;
}

LocalModelData read_model_local_at(const File& file, std::uint64_t base,
                                   std::uint64_t limit) {
  ParsedModel parsed = parse_model_blob(file, base, limit);
  LocalModelData model;
  model.factors = std::move(parsed.factors);
  model.has_stats = parsed.has_stats;
  model.stats = std::move(parsed.stats);
  // The full core: the same positioned-read machinery the distributed path
  // uses for one rank's block, asked for the whole hyper-rectangle — so the
  // assembled tensor is byte-identical to a 1-rank distributed load.
  std::vector<util::Range> all(parsed.core_dims.size());
  for (std::size_t n = 0; n < parsed.core_dims.size(); ++n) {
    all[n] = util::Range{0, parsed.core_dims[n]};
  }
  model.core = detail::read_blocked_ranges(file, parsed.core_dims,
                                           parsed.file_grid,
                                           parsed.core_offsets, all,
                                           parsed.core_crcs);
  return model;
}

ModelData read_model(const std::string& path,
                     std::shared_ptr<mps::CartGrid> grid) {
  const File file = File::open_read(path);
  return read_model_at(file, 0, file.size(), std::move(grid));
}

}  // namespace ptucker::pario
