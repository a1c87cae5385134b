/// \file query_server.cpp
/// \brief The analyst side of the paper's workflow as a long-lived service:
/// compress a short "run" into one PTA1 archive, open it with
/// serve::QueryServer, and answer the queries Sec. V motivates — one
/// element, one fiber, a spatial sub-box, a time range — each reconstructed
/// on demand from the covering window models, never materializing a full
/// window. Queries can also be submitted asynchronously through the
/// server's bounded executor; the demo ends with a per-query trace
/// breakdown and the server's live stats_report().
///
///   ./query_server --ranks 2 --dim 24 --species 6 --windows 4 --window 3

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <numbers>
#include <string_view>

#include "core/st_hosvd.hpp"
#include "dist/grid.hpp"
#include "mps/runtime.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pario/archive_io.hpp"
#include "serve/query_server.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

using namespace ptucker;

namespace {

/// Same toy field shape as streaming_compress: drifting Gaussian bursts.
double field_at(std::span<const std::size_t> idx, std::size_t dim,
                std::size_t species, std::size_t step) {
  const double x = static_cast<double>(idx[0]) / static_cast<double>(dim);
  const double y = static_cast<double>(idx[1]) / static_cast<double>(dim);
  const double t = 0.05 * static_cast<double>(step);
  const double s =
      static_cast<double>(idx[2] + 1) / static_cast<double>(species);
  const double cx = 0.5 + 0.3 * std::sin(2.0 * std::numbers::pi * (t + s));
  const double cy = 0.5 + 0.3 * std::cos(2.0 * std::numbers::pi * t * s);
  const double r2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
  return s * std::exp(-40.0 * r2) +
         0.1 * std::sin(2.0 * std::numbers::pi * (x + y) + t);
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("query_server",
                       "serve element/fiber/subtensor/time-range queries "
                       "from a PTA1 archive");
  args.add_int("ranks", 2, "number of (thread) ranks for the archive build");
  args.add_int("dim", 24, "spatial extent (dim x dim grid)");
  args.add_int("species", 6, "number of species");
  args.add_int("windows", 4, "number of window models");
  args.add_int("window", 3, "timesteps per window");
  args.add_double("eps", 1e-4, "max normalized RMS error per window");
  args.add_string("archive", "", "PTA1 archive path (default: tmp)");
  args.parse(argc, argv);

  const int p = static_cast<int>(args.get_int("ranks"));
  const std::size_t dim = static_cast<std::size_t>(args.get_int("dim"));
  const std::size_t species =
      static_cast<std::size_t>(args.get_int("species"));
  const std::size_t windows =
      static_cast<std::size_t>(args.get_int("windows"));
  const std::size_t window = static_cast<std::size_t>(args.get_int("window"));
  const tensor::Dims step_dims{dim, dim, species};

  namespace fs = std::filesystem;
  std::string archive = args.get_string("archive");
  const bool temp = archive.empty();
  if (temp) {
    const std::string dir =
        (fs::temp_directory_path() / "ptucker_query_server").string();
    fs::remove_all(dir);
    fs::create_directories(dir);
    archive = dir + "/run.pta";
  }

  // Phase 1: compress the "run" window-by-window into one archive. This is
  // the producer side; everything after it is a single serving process.
  if (!fs::exists(archive)) {
    mps::run(p, [&](mps::Comm& comm) {
      std::vector<int> shape = dist::default_grid_shape(p, step_dims);
      shape.push_back(1);
      auto grid = dist::make_grid(comm, shape);
      pario::archive_create(archive, comm, step_dims, /*species_mode=*/-1);
      for (std::size_t w = 0; w < windows; ++w) {
        tensor::Dims dims = step_dims;
        dims.push_back(window);
        dist::DistTensor x(grid, dims);
        x.fill_global([&](std::span<const std::size_t> idx) {
          return field_at(idx, dim, species, w * window + idx.back());
        });
        core::SthosvdOptions opts;
        opts.epsilon = args.get_double("eps");
        core::TuckerTensor model = core::st_hosvd(x, opts).tucker;
        pario::archive_append_model(
            archive, w * window, opts.epsilon, model.core,
            std::span<const tensor::Matrix>(model.factors));
      }
    });
  }

  // Phase 2: open the archive and serve queries.
  serve::ServerOptions options;
  options.cache_capacity = 8;
  options.executor_threads = 2;
  serve::QueryServer server({archive}, options);

  std::printf("archive: %s\n", archive.c_str());
  std::printf("  steps per archived field: %llu, step dims %zu x %zu x %zu\n",
              static_cast<unsigned long long>(server.num_steps(0)), dim, dim,
              species);

  // One element: the value at (dim/2, dim/2, species 0) of step 1.
  const std::size_t mid[3] = {dim / 2, dim / 2, 0};
  std::printf("element (%zu, %zu, 0) @ step 1: %.6f (field %.6f)\n", mid[0],
              mid[1], server.element(0, 1, mid),
              field_at(mid, dim, species, 1));

  // One spatial fiber: vary mode 0 across the grid at fixed (y, species).
  const std::vector<double> xf = server.fiber(0, 1, /*mode=*/0, mid);
  std::printf("x-fiber @ step 1: %zu values, [%.4f, %.4f, %.4f, ...]\n",
              xf.size(), xf[0], xf[1], xf[2]);

  // The time fiber: one grid point's history across ALL archived steps —
  // this spans every window boundary in one call.
  const std::vector<double> tf =
      server.fiber(0, 0, static_cast<int>(step_dims.size()), mid);
  std::printf("time fiber @ (%zu, %zu, 0): %zu steps, first %.4f last %.4f\n",
              mid[0], mid[1], tf.size(), tf.front(), tf.back());

  // A spatial sub-box over a step range crossing a window boundary.
  serve::Request req;
  req.step_lo = window - 1;  // last step of window 0 ...
  req.step_hi = window + 2;  // ... through the second step of window 1
  req.box = {util::Range{0, dim / 2}, util::Range{dim / 4, dim / 2},
             util::Range{0, species}};
  const tensor::Tensor box = server.subtensor(req);
  std::printf("subtensor steps [%llu, %llu) box %zu x %zu x %zu: %zu values\n",
              static_cast<unsigned long long>(req.step_lo),
              static_cast<unsigned long long>(req.step_hi), dim / 2, dim / 4,
              species, box.size());

  // Async: overlap several queries through the bounded executor.
  std::vector<std::future<tensor::Tensor>> pending;
  for (std::uint64_t s = 0; s + 1 < server.num_steps(0); ++s) {
    serve::Request r;
    r.step_lo = s;
    r.step_hi = s + 1;
    pending.push_back(server.submit(std::move(r)));
  }
  double total = 0.0;
  for (auto& f : pending) total += f.get().data()[0];
  std::printf("executor: %zu async single-step queries done (sum %.4f)\n",
              pending.size(), total);

  // Per-query introspection: re-run the sub-box query under a trace
  // session. Every panel it needs is now cached, so the breakdown shows the
  // hit path. Stage times are the query's serve.* spans; hits, misses and
  // bytes are registry deltas.
  const auto counter = [](const char* name) {
    return static_cast<unsigned long long>(
        obs::registry().counter(name).value());
  };
  const unsigned long long hits0 = counter("serve.cache.hits");
  const unsigned long long misses0 = counter("serve.cache.misses");
  const unsigned long long bytes0 = counter("pario.read_bytes");
  obs::TraceSession::start();
  const tensor::Tensor traced = server.subtensor(req);
  obs::TraceSession::stop();
  PT_CHECK(traced.size() == box.size(),
           "traced query disagrees with the untraced one");
  if (obs::kTraceCompiled) {
    std::map<std::string_view, unsigned long long> ns;
    std::size_t entries = 0;
    for (const obs::TraceEvent& e : obs::TraceSession::events()) {
      ns[e.name] += e.dur_ns;
      if (std::string_view(e.name) == "serve.entry") ++entries;
    }
    const auto us = [&](const char* name) { return ns[name] / 1000; };
    std::printf(
        "traced query: %zu entries (%llu hit, %llu miss), %llu bytes "
        "loaded\n",
        entries, counter("serve.cache.hits") - hits0,
        counter("serve.cache.misses") - misses0,
        counter("pario.read_bytes") - bytes0);
    std::printf(
        "  route %llu us | load %llu us | reconstruct %llu us | "
        "denormalize %llu us | stitch %llu us | total %llu us\n",
        us("serve.route"), us("serve.load"), us("serve.reconstruct"),
        us("serve.denormalize"), us("serve.stitch"), us("serve.query"));
  } else {
    std::printf("traced query: tracing compiled out (PTUCKER_OBS=OFF)\n");
  }

  // Live introspection: the whole stack (server, cache, executor, plus the
  // process-wide obs registry) in one text report.
  std::printf("--- stats_report ---\n%s", server.stats_report().c_str());

  if (temp) fs::remove_all(fs::path(archive).parent_path());
  return 0;
}
