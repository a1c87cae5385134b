/// \file ablate_ttm_paths.cpp
/// \brief Two TTM ablations:
///
///  (1) the Sec. V-B design choice: the paper's blocked Alg. 3 (Pn reduces,
///      bounded temporaries) vs the single-multiply + reduce-scatter fast
///      path (fewer messages, larger temporary), sweeping the output extent
///      K across the K = Jn/Pn threshold the paper uses to switch; and
///  (2) the local-kernel engine: the batched single-invocation path
///      (gemm_batch_strided — shared packed factor panels, threading on
///      aggregate flops) vs the pre-batched per-right-slice gemm loop, on
///      shapes whose slices are small (mode 0 of a cube has left = 1, i.e.
///      thousands of rank-1-row multiplies under the per-slice policy).
///
/// --smoke shrinks the sizes for CI and *asserts* that both local paths
/// produce bit-identical outputs, so kernel regressions fail the job.

#include "bench_common.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "dist/ttm.hpp"
#include "tensor/local_kernels.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace ptucker;

namespace {

/// Seconds per call of \p ttm(out), after one warm-up call that also
/// leaves the result in \p out.
template <class Ttm>
double time_local_ttm(Ttm&& ttm, int reps, tensor::Tensor& out) {
  ttm(out);
  util::Timer timer;
  for (int rep = 0; rep < reps; ++rep) ttm(out);
  return timer.seconds() / reps;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("ablate_ttm_paths",
                       "blocked Alg. 3 vs reduce-scatter TTM, and "
                       "batched vs per-slice local kernels");
  args.add_int("dim", 64, "tensor extent per mode for the distributed sweep");
  args.add_int("ranks", 8, "number of (thread) ranks");
  args.add_int("local_dim", 128, "extent per mode for the local-path table");
  args.add_int("local_k", 12, "output extent K for the local-path table");
  args.add_flag("smoke", "small sizes + bit-identity assertions (CI)");
  args.parse(argc, argv);

  const bool smoke = args.get_flag("smoke");
  const std::size_t dim =
      smoke ? 24 : static_cast<std::size_t>(args.get_int("dim"));
  const std::size_t local_dim =
      smoke ? 48 : static_cast<std::size_t>(args.get_int("local_dim"));
  const std::size_t local_k = static_cast<std::size_t>(args.get_int("local_k"));
  const int p = static_cast<int>(args.get_int("ranks"));
  const int reps = smoke ? 1 : 3;

  // --- (2) local engine: batched vs per-slice ------------------------------
  {
    const tensor::Dims ldims{local_dim, local_dim, local_dim};
    bench::header("Ablation: local TTM path",
                  bench::dims_name(ldims) + " x_n M (K = " +
                      std::to_string(local_k) + "), single rank");
    util::Table table({"mode", "slices", "per-slice(s)", "batched(s)",
                       "speedup"});
    const tensor::Tensor y = tensor::Tensor::randn(ldims, 42);
    for (int mode = 0; mode < 3; ++mode) {
      const tensor::UnfoldShape s = tensor::unfold_shape(ldims, mode);
      const tensor::Matrix m =
          tensor::Matrix::randn(local_k, ldims[static_cast<std::size_t>(mode)],
                                7 + static_cast<std::uint64_t>(mode));
      tensor::Dims zdims = ldims;
      zdims[static_cast<std::size_t>(mode)] = local_k;
      tensor::Tensor z_slice(zdims);
      tensor::Tensor z_batch(zdims);
      const double t_slice = time_local_ttm(
          [&](tensor::Tensor& z) {
            bench::per_slice_ttm_into(y, m, mode, z);
          },
          reps, z_slice);
      const double t_batch = time_local_ttm(
          [&](tensor::Tensor& z) { tensor::local_ttm_into(y, m, mode, z); },
          reps, z_batch);
      if (smoke) {
        for (std::size_t i = 0; i < z_slice.size(); ++i) {
          PT_CHECK(z_slice[i] == z_batch[i],
                   "local TTM paths diverged at element " << i << " mode "
                                                          << mode);
        }
      }
      table.add_row({std::to_string(mode), std::to_string(s.right),
                     util::Table::fmt(t_slice, 4),
                     util::Table::fmt(t_batch, 4),
                     util::Table::fmt(t_slice / t_batch, 2)});
    }
    std::printf("%s", table.str().c_str());
    bench::paper_note(
        "the per-slice policy issues one gemm per right-slice ('multiple "
        "subroutine calls to respect the local layout'), applied uniformly "
        "here: for mode 0 the slices are single rows, so call overhead, "
        "per-call factor packing and microkernel padding dominate (the "
        "pre-batched code special-cased left == 1 to a single gemm — the "
        "batched engine generalizes that collapse to every mode). Interior "
        "modes are near parity single-core; their batched win is the "
        "aggregate-flop threading decision. Bit-identical results on every "
        "path.");
  }

  // --- (1) distributed: blocked Alg. 3 vs reduce-scatter -------------------
  const tensor::Dims dims{dim, dim, dim};
  const std::vector<int> shape{2, 2, 2};
  PT_REQUIRE(p == 8, "ablation uses a fixed 2x2x2 grid (8 ranks)");

  bench::header("Ablation: TTM paths",
                bench::dims_name(dims) + " x_0 M, K sweep on a 2x2x2 grid");

  util::Table table({"K", "blocked(s)", "blocked words/rank", "rs(s)",
                     "rs words/rank", "auto picks"});
  for (std::size_t k : {dim / 16, dim / 8, dim / 4, dim / 2, dim}) {
    if (k == 0) continue;
    double t_blocked = 0.0;
    double t_rs = 0.0;
    double w_blocked = 0.0;
    double w_rs = 0.0;
    mps::Runtime rt(p);
    std::vector<dist::DistTensor> xs(static_cast<std::size_t>(p));
    rt.run([&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, shape);
      xs[static_cast<std::size_t>(comm.rank())] = data::make_low_rank(
          grid, dims, tensor::Dims{8, 8, 8}, 3, 0.01);
    });
    const tensor::Matrix m = tensor::Matrix::randn(k, dim, 7);

    rt.reset_stats();
    rt.run([&](mps::Comm& comm) {
      auto& x = xs[static_cast<std::size_t>(comm.rank())];
      const double t = bench::time_region(comm, [&] {
        for (int rep = 0; rep < reps; ++rep) {
          (void)dist::ttm(x, m, 0, dist::TtmAlgo::Blocked);
        }
      });
      if (comm.rank() == 0) t_blocked = t / reps;
    });
    w_blocked = rt.max_stats().words_sent() / reps;

    rt.reset_stats();
    rt.run([&](mps::Comm& comm) {
      auto& x = xs[static_cast<std::size_t>(comm.rank())];
      const double t = bench::time_region(comm, [&] {
        for (int rep = 0; rep < reps; ++rep) {
          (void)dist::ttm(x, m, 0, dist::TtmAlgo::ReduceScatter);
        }
      });
      if (comm.rank() == 0) t_rs = t / reps;
    });
    w_rs = rt.max_stats().words_sent() / reps;

    const bool auto_rs = k * 2 <= dim;  // the Auto criterion for Pn = 2
    table.add_row({std::to_string(k), util::Table::fmt(t_blocked, 4),
                   util::Table::fmt(w_blocked, 0), util::Table::fmt(t_rs, 4),
                   util::Table::fmt(w_rs, 0),
                   auto_rs ? "reduce-scatter" : "blocked"});
  }
  std::printf("%s", table.str().c_str());
  bench::paper_note(
      "Sec. V-B: when K < Jn/Pn the unblocked reduce-scatter path avoids "
      "the Pn-round latency at no bandwidth/compute penalty; the blocked "
      "path bounds temporary memory when K is large.");
  return 0;
}
