/// \file ablate_factor_routes.cpp
/// \brief The three per-mode factor routes head to head: Gram + eigensolver
/// (paper default), general row-distributed TSQR + small SVD (Sec. IX), and
/// the randomized sketch (counter-based Omega, thin QR, projected spectrum).
/// Prints a per-mode table on a grid that distributes every mode, then a
/// crossover sweep over growing mode-0 extents where the sketch's
/// O((1+2q) w J) flops undercut both exact routes — with the cost-model Auto
/// pick alongside so the dispatch policy can be read off the timings.
///
/// `--smoke` runs one small end-to-end ST-HOSVD per route and asserts the
/// eq. 3 error bound for each; CI uses it as a release-kernel gate.

#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "core/reconstruct.hpp"
#include "core/st_hosvd.hpp"
#include "costmodel/tucker_model.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "dist/sketch.hpp"
#include "util/cli.hpp"

using namespace ptucker;

namespace {

/// Mean wall-clock over `reps` runs of one fixed-rank factor route on mode
/// `mode`.
double time_route(mps::Runtime& rt, std::vector<dist::DistTensor>& xs,
                  int mode, const dist::RankSelection& select,
                  core::FactorMethod method, int reps) {
  double t_out = 0.0;
  rt.run([&](mps::Comm& comm) {
    auto& x = xs[static_cast<std::size_t>(comm.rank())];
    const double t = bench::time_region(comm, [&] {
      for (int rep = 0; rep < reps; ++rep) {
        (void)core::factor_mode(x, mode, method, select, 0.0);
      }
    });
    if (comm.rank() == 0) t_out = t / reps;
  });
  return t_out;
}

const char* auto_pick(const tensor::Dims& dims, int mode, std::size_t rank,
                      const std::vector<int>& shape) {
  const std::size_t jn = dims[static_cast<std::size_t>(mode)];
  if (costmodel::prefer_sketch(dims, mode, dist::sketch_width(jn, rank),
                               dist::kSketchPowerIterations, shape))
    return "randomized";
  return costmodel::prefer_tsqr(dims, mode, shape) ? "tsqr" : "gram";
}

/// One end-to-end ST-HOSVD per route on a small eps-driven problem; each
/// must honor the eq. 3 bound. Exits nonzero on the first violation.
int run_smoke() {
  const tensor::Dims dims{48, 24, 20};
  const std::vector<int> shape{2, 2, 1};
  const double eps = 0.15;
  const struct {
    core::FactorMethod method;
    core::FactorRoute route;
  } requests[] = {{core::FactorMethod::GramEig, core::FactorRoute::Gram},
                  {core::FactorMethod::TsqrSvd, core::FactorRoute::Tsqr},
                  {core::FactorMethod::Randomized,
                   core::FactorRoute::Randomized}};
  bool ok = true;
  for (const auto& request : requests) {
    mps::Runtime rt(4);
    rt.run([&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, shape);
      const dist::DistTensor x =
          data::make_low_rank(grid, dims, tensor::Dims{6, 5, 4}, 11, 0.005);
      core::SthosvdOptions opts;
      opts.epsilon = eps;
      opts.factor_method = request.method;
      const auto result = core::st_hosvd(x, opts);
      const double err =
          core::normalized_error(x, core::reconstruct(result.tucker));
      if (comm.rank() == 0) {
        const char* name = core::factor_route_name(request.route).data();
        const bool bound_ok = err <= eps && result.error_bound <= eps;
        // Every mode must have run the requested route (no sketch fallback).
        bool route_ok = true;
        for (const core::FactorRoute used : result.mode_routes) {
          route_ok = route_ok && used == request.route;
        }
        std::printf("smoke %-10s: err %.3e bound %.3e (eps %.2f) %s\n", name,
                    err, result.error_bound, eps,
                    bound_ok && route_ok ? "ok" : "FAIL");
        if (!bound_ok || !route_ok) ok = false;
      }
    });
  }
  std::printf(ok ? "smoke: all three routes honor eq. 3\n"
                 : "smoke: eq. 3 violated\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("ablate_factor_routes",
                       "Gram+eig vs TSQR+SVD vs randomized sketch per mode");
  args.add_int("dim", 64, "extent of the two fat modes");
  args.add_int("skinny", 8, "extent of the tall-skinny first mode");
  args.add_int("ranks", 8, "number of (thread) ranks (must be 8: the "
                           "ablation uses a fixed 2x2x2 grid)");
  args.add_flag("smoke", "assert the eq. 3 bound end to end for all three "
                         "routes and exit");
  args.parse(argc, argv);

  if (args.get_flag("smoke")) return run_smoke();

  const std::size_t dim = static_cast<std::size_t>(args.get_int("dim"));
  const std::size_t skinny = static_cast<std::size_t>(args.get_int("skinny"));
  const int p = static_cast<int>(args.get_int("ranks"));
  PT_REQUIRE(p == 8, "ablation uses a fixed 2x2x2 grid (8 ranks)");
  const tensor::Dims dims{skinny, dim, dim};
  const std::vector<int> shape{2, 2, 2};

  bench::header("Ablation: factor routes",
                "Gram+eig vs TSQR+SVD vs randomized sketch per mode of " +
                    bench::dims_name(dims) + " on a 2x2x2 grid");

  util::Table table({"mode", "Jn", "gram(s)", "tsqr(s)", "rand(s)", "width",
                     "auto picks"});
  for (int mode = 0; mode < 3; ++mode) {
    const std::size_t jn = dims[static_cast<std::size_t>(mode)];
    const std::size_t rank = std::min<std::size_t>(4, jn);
    const dist::RankSelection select = dist::RankSelection::fixed_rank(rank);
    mps::Runtime rt(p);
    std::vector<dist::DistTensor> xs(static_cast<std::size_t>(p));
    rt.run([&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, shape);
      xs[static_cast<std::size_t>(comm.rank())] = data::make_low_rank(
          grid, dims, tensor::Dims{4, 8, 8}, 3, 0.01);
    });

    const double t_gram =
        time_route(rt, xs, mode, select, core::FactorMethod::GramEig, 3);
    const double t_tsqr =
        time_route(rt, xs, mode, select, core::FactorMethod::TsqrSvd, 3);
    const double t_rand =
        time_route(rt, xs, mode, select, core::FactorMethod::Randomized, 3);
    table.add_row({std::to_string(mode), std::to_string(jn),
                   util::Table::fmt(t_gram, 4), util::Table::fmt(t_tsqr, 4),
                   util::Table::fmt(t_rand, 4),
                   std::to_string(dist::sketch_width(jn, rank)),
                   auto_pick(dims, mode, rank, shape)});
  }
  std::printf("%s", table.str().c_str());

  // Crossover sweep: grow the mode-0 extent with the other modes fixed. The
  // exact routes pay O(Jn) per unfolding column (Gram) or an O(Jn^2)-row
  // tree (TSQR); the sketch pays O((1+2q) w) per column at fixed width
  // w = rank + oversample, so past the crossover it wins by a growing ratio.
  bench::header("Crossover: mode-0 extent sweep",
                "fixed rank 8, sketch width " +
                    std::to_string(dist::sketch_width(256, 8)) +
                    ", q = 1, modes 1-2 at 48");
  util::Table sweep({"J0", "gram(s)", "tsqr(s)", "rand(s)", "rand speedup",
                     "auto picks"});
  for (const std::size_t d0 : {std::size_t{64}, std::size_t{128},
                               std::size_t{192}, std::size_t{256}}) {
    const tensor::Dims sdims{d0, 48, 48};
    const dist::RankSelection select = dist::RankSelection::fixed_rank(8);
    mps::Runtime rt(p);
    std::vector<dist::DistTensor> xs(static_cast<std::size_t>(p));
    rt.run([&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, shape);
      xs[static_cast<std::size_t>(comm.rank())] = data::make_low_rank(
          grid, sdims, tensor::Dims{8, 8, 8}, 3, 0.01);
    });
    const double t_gram =
        time_route(rt, xs, 0, select, core::FactorMethod::GramEig, 3);
    const double t_tsqr =
        time_route(rt, xs, 0, select, core::FactorMethod::TsqrSvd, 3);
    const double t_rand =
        time_route(rt, xs, 0, select, core::FactorMethod::Randomized, 3);
    const double best_exact = std::min(t_gram, t_tsqr);
    sweep.add_row({std::to_string(d0), util::Table::fmt(t_gram, 4),
                   util::Table::fmt(t_tsqr, 4), util::Table::fmt(t_rand, 4),
                   util::Table::fmt(best_exact / t_rand, 2) + "x",
                   auto_pick(sdims, 0, 8, shape)});
  }
  std::printf("%s", sweep.str().c_str());

  bench::paper_note(
      "The randomized route sketches the unfolding down to w = rank + p "
      "columns before any factorization, so its leading cost 2(1+2q) w J / P "
      "is independent of the mode extent Jn where the Gram route pays "
      "2 Jn J / P and TSQR factors Jn x Jn tree blocks. Past the crossover "
      "extent the sketch wins by a growing ratio, which is exactly what the "
      "Auto column dispatches on; the eps-aware posteriori check (see "
      "--smoke) keeps eq. 3 certified or falls back to Gram, recorded.");
  return 0;
}
