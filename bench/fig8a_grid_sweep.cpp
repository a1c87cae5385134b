/// \file fig8a_grid_sweep.cpp
/// \brief Reproduces Fig. 8a: relative ST-HOSVD run time across processor
/// grid configurations for a 4-way cubical tensor compressed 4x per mode
/// (paper: 384^4 -> 96^4 on 384 cores; here scaled to thread-ranks on one
/// node). Each bar is broken down into Gram / Evecs / TTM time, read from
/// the kernels' own spans on the critical rank.

#include <algorithm>

#include "bench_common.hpp"
#include "core/st_hosvd.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "util/cli.hpp"

using namespace ptucker;

int main(int argc, char** argv) {
  util::ArgParser args("fig8a_grid_sweep",
                       "ST-HOSVD time across processor grids");
  args.add_int("dim", 48, "tensor extent per mode (4-way)");
  args.add_int("reduced", 12, "target rank per mode (dim/4 as in the paper)");
  args.add_int("ranks", 16, "number of (thread) ranks");
  args.add_int("max_grids", 8, "max number of grids to sweep");
  args.parse(argc, argv);

  const std::size_t dim = static_cast<std::size_t>(args.get_int("dim"));
  const std::size_t red = static_cast<std::size_t>(args.get_int("reduced"));
  const int p = static_cast<int>(args.get_int("ranks"));
  const tensor::Dims dims{dim, dim, dim, dim};
  const tensor::Dims ranks{red, red, red, red};

  bench::header("Fig. 8a", "processor-grid sweep, " + bench::dims_name(dims) +
                               " -> " + bench::dims_name(ranks) + " on " +
                               std::to_string(p) + " ranks");

  // All 4-way factorizations of P with no extent exceeding the dims,
  // deduplicated and capped (the paper also omits grids > 5x the optimum).
  auto shapes = mps::all_grid_shapes(p, 4);
  shapes.erase(std::remove_if(shapes.begin(), shapes.end(),
                              [&](const std::vector<int>& s) {
                                for (std::size_t n = 0; n < 4; ++n) {
                                  if (static_cast<std::size_t>(s[n]) > dims[n])
                                    return true;
                                }
                                return false;
                              }),
               shapes.end());
  // The paper's figure contrasts good grids (P1 = 1) with bad ones
  // (P1 > 1, omitting grids worse than 5x the optimum). Keep a diverse
  // sweep: half the budget for P1 = 1 shapes (squattest first), half for
  // increasing P1, preferring balanced remainders.
  std::stable_sort(shapes.begin(), shapes.end(),
                   [](const auto& a, const auto& b) {
                     const int ma = *std::max_element(a.begin(), a.end());
                     const int mb = *std::max_element(b.begin(), b.end());
                     return std::tie(a[0], ma) < std::tie(b[0], mb);
                   });
  const std::size_t budget =
      static_cast<std::size_t>(args.get_int("max_grids"));
  std::vector<std::vector<int>> sweep;
  for (const auto& s : shapes) {  // P1 == 1 half
    if (sweep.size() >= budget / 2) break;
    if (s[0] == 1) sweep.push_back(s);
  }
  int last_p1 = 1;
  for (const auto& s : shapes) {  // P1 > 1 half, one per distinct P1
    if (sweep.size() >= budget) break;
    if (s[0] > last_p1) {
      sweep.push_back(s);
      last_p1 = s[0];
    }
  }

  struct Result {
    std::vector<int> shape;
    double total = 0.0;
    double gram = 0.0;
    double evecs = 0.0;
    double ttm = 0.0;
  };
  std::vector<Result> results;

  for (const auto& shape : sweep) {
    Result res;
    res.shape = shape;
    mps::run(p, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, shape);
      const dist::DistTensor x =
          data::make_low_rank(grid, dims, ranks, 5, 0.01);
      core::SthosvdOptions opts;
      opts.fixed_ranks = ranks;
      // time_region's barriers bracket the session: no rank enters
      // st_hosvd before it starts, and every rank has left before it stops.
      if (comm.rank() == 0) obs::TraceSession::start();
      const double t = bench::time_region(comm, [&] {
        (void)core::st_hosvd(x, opts);
      });
      if (comm.rank() == 0) {
        obs::TraceSession::stop();
        res.total = t;
      }
    });
    const bench::RankSpans spans(p);
    const int c = spans.critical_rank("st_hosvd.mode");
    res.gram = spans.seconds("Gram", c);
    res.evecs = spans.seconds("Evecs", c);
    res.ttm = spans.seconds("TTM", c);
    results.push_back(res);
  }

  const double best = std::min_element(results.begin(), results.end(),
                                       [](const Result& a, const Result& b) {
                                         return a.total < b.total;
                                       })
                          ->total;
  util::Table table({"grid", "time(s)", "relative", "Gram(s)", "Evecs(s)",
                     "TTM(s)"});
  for (const auto& r : results) {
    table.add_row({bench::shape_name(r.shape), util::Table::fmt(r.total, 3),
                   util::Table::fmt(r.total / best, 2),
                   bench::span_cell(r.gram), bench::span_cell(r.evecs),
                   bench::span_cell(r.ttm)});
  }
  std::printf("%s", table.str().c_str());
  bench::paper_note(
      "Fig. 8a: best grids have P1 = 1 (no communication in the dominant "
      "first Gram/TTM); bad grids are several times slower; Evecs is "
      "negligible throughout.");
  return 0;
}
