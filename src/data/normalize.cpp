#include "data/normalize.hpp"

#include <cmath>

#include "mps/collectives.hpp"

namespace ptucker::data {

namespace {

/// Walk the local tensor and apply fn(species_local_index, value_ref).
template <class Fn>
void for_each_species(tensor::Tensor& local, int species_mode, Fn&& fn) {
  const tensor::UnfoldShape s = tensor::unfold_shape(local.dims(),
                                                     species_mode);
  for (std::size_t r = 0; r < s.right; ++r) {
    for (std::size_t m = 0; m < s.mid; ++m) {
      double* base = local.data() + r * s.left * s.mid + m * s.left;
      for (std::size_t l = 0; l < s.left; ++l) {
        fn(m, base[l]);
      }
    }
  }
}

}  // namespace

NormalizationStats normalize_species(dist::DistTensor& x, int species_mode) {
  PT_REQUIRE(species_mode >= 0 && species_mode < x.order(),
             "normalize: species mode out of range");
  const std::size_t n_species = x.global_dim(species_mode);
  const util::Range my_range = x.mode_range(species_mode);
  const std::size_t local_species = my_range.size();

  // Per-local-species sums over my block, then summed over the processor
  // row (all ranks holding the same species block).
  std::vector<double> sums(2 * local_species, 0.0);
  for_each_species(x.local(), species_mode, [&](std::size_t s, double& v) {
    sums[s] += v;
    sums[local_species + s] += v * v;
  });
  const mps::Comm& row = x.grid().slice_comm(species_mode);
  mps::allreduce(row, std::span<double>(sums));

  const double count =
      static_cast<double>(tensor::prod_except(x.global_dims(), species_mode));
  std::vector<double> local_mean(local_species);
  std::vector<double> local_std(local_species);
  for (std::size_t s = 0; s < local_species; ++s) {
    local_mean[s] = sums[s] / count;
    const double var =
        std::max(0.0, sums[local_species + s] / count -
                          local_mean[s] * local_mean[s]);
    local_std[s] = std::sqrt(var);
  }

  // Transform my block.
  for_each_species(x.local(), species_mode, [&](std::size_t s, double& v) {
    v -= local_mean[s];
    if (local_std[s] >= kStdFloor) v /= local_std[s];
  });

  // Assemble the global stats (replicated) for reporting / denormalization.
  NormalizationStats stats;
  stats.species_mode = species_mode;
  stats.mean.assign(n_species, 0.0);
  stats.stdev.assign(n_species, 0.0);
  const mps::Comm& col = x.grid().mode_comm(species_mode);
  const int pn = x.grid().extent(species_mode);
  std::vector<std::size_t> counts(static_cast<std::size_t>(pn));
  for (int l = 0; l < pn; ++l) {
    counts[static_cast<std::size_t>(l)] =
        x.mode_range_of(species_mode, l).size();
  }
  mps::allgatherv(col, std::span<const double>(local_mean),
                  std::span<double>(stats.mean),
                  std::span<const std::size_t>(counts));
  mps::allgatherv(col, std::span<const double>(local_std),
                  std::span<double>(stats.stdev),
                  std::span<const std::size_t>(counts));
  return stats;
}

void denormalize_species(dist::DistTensor& x, const NormalizationStats& stats) {
  denormalize_species_range(x, stats, 0);
}

void denormalize_species_range(dist::DistTensor& x,
                               const NormalizationStats& stats,
                               std::size_t species_lo) {
  PT_REQUIRE(stats.species_mode >= 0 && stats.species_mode < x.order(),
             "denormalize: species mode out of range");
  denormalize_species_range_seq(
      x.local(), stats, species_lo + x.mode_range(stats.species_mode).lo);
}

NormalizationStats normalize_species_seq(tensor::Tensor& x, int species_mode) {
  PT_REQUIRE(species_mode >= 0 && species_mode < x.order(),
             "normalize: species mode out of range");
  const std::size_t n_species = x.dim(species_mode);
  std::vector<double> sums(2 * n_species, 0.0);
  for_each_species(x, species_mode, [&](std::size_t s, double& v) {
    sums[s] += v;
    sums[n_species + s] += v * v;
  });
  const double count =
      static_cast<double>(tensor::prod_except(x.dims(), species_mode));
  NormalizationStats stats;
  stats.species_mode = species_mode;
  stats.mean.resize(n_species);
  stats.stdev.resize(n_species);
  for (std::size_t s = 0; s < n_species; ++s) {
    stats.mean[s] = sums[s] / count;
    const double var = std::max(
        0.0, sums[n_species + s] / count - stats.mean[s] * stats.mean[s]);
    stats.stdev[s] = std::sqrt(var);
  }
  for_each_species(x, species_mode, [&](std::size_t s, double& v) {
    v -= stats.mean[s];
    if (stats.stdev[s] >= kStdFloor) v /= stats.stdev[s];
  });
  return stats;
}

void denormalize_species_range_seq(tensor::Tensor& x,
                                   const NormalizationStats& stats,
                                   std::size_t species_lo) {
  PT_REQUIRE(stats.species_mode >= 0 && stats.species_mode < x.order(),
             "denormalize: species mode out of range");
  PT_REQUIRE(species_lo + x.dim(stats.species_mode) <= stats.mean.size(),
             "denormalize: species range ["
                 << species_lo << ", "
                 << species_lo + x.dim(stats.species_mode)
                 << ") outside the stats (" << stats.mean.size()
                 << " species)");
  for_each_species(x, stats.species_mode, [&](std::size_t s, double& v) {
    const std::size_t g = species_lo + s;
    if (stats.stdev[g] >= kStdFloor) v *= stats.stdev[g];
    v += stats.mean[g];
  });
}

}  // namespace ptucker::data
