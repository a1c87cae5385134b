/// \file tensor_compress_tool.cpp
/// \brief File-to-file compression utility: reads a dense tensor file
/// ("PTT1" or chunked "PTB1"), compresses it in parallel, and writes the
/// compressed Tucker model as a parallel "PTZ1" container. The
/// archive-side half of the paper's storage/transfer workflow. Input and
/// output move through src/pario/: every rank reads and writes only its
/// own block — nothing funnels through rank 0.
///
///   # generate a demo input, compress at 1e-3, inspect sizes
///   ./tensor_compress_tool --demo demo.ptb
///   ./tensor_compress_tool --input demo.ptb --output demo.ptz --eps 1e-3

#include <cstdio>
#include <filesystem>

#include "core/metrics.hpp"
#include "core/st_hosvd.hpp"
#include "core/tucker_io.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "mps/runtime.hpp"
#include "obs/trace.hpp"
#include "pario/block_file.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace ptucker;

int main(int argc, char** argv) {
  util::ArgParser args("tensor_compress_tool",
                       "compress a tensor file into a Tucker model file");
  args.add_string("input", "", "input tensor file (PTT1 or PTB1 format)");
  args.add_string("output", "", "output model file (default: input + .ptz)");
  args.add_string("demo", "",
                  "write a demo low-rank tensor here (PTB1) and exit");
  args.add_double("eps", 1e-3, "max normalized RMS error");
  args.add_int("ranks", 8, "number of (thread) ranks");
  args.add_flag("hooi", "refine with HOOI sweeps after ST-HOSVD");
  args.add_string("trace", "",
                  "write a chrome://tracing JSON of the run to this path");
  args.parse(argc, argv);

  const int p = static_cast<int>(args.get_int("ranks"));
  const std::string demo = args.get_string("demo");
  if (!demo.empty()) {
    // Every rank builds and writes its own block of the demo tensor.
    const tensor::Dims dims{48, 40, 36};
    mps::run(p, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, dist::default_grid_shape(p, dims));
      pario::write_dist_tensor(
          demo, data::make_low_rank(grid, dims, tensor::Dims{6, 5, 4}, 1234,
                                    1e-6));
    });
    std::printf("wrote demo tensor 48x40x36 (true ranks 6x5x4) to %s\n",
                demo.c_str());
    return 0;
  }

  const std::string input = args.get_string("input");
  PT_REQUIRE(!input.empty(), "--input is required (or use --demo)");
  std::string output = args.get_string("output");
  if (output.empty()) output = input + ".ptz";
  const double eps = args.get_double("eps");

  const std::string trace_path = args.get_string("trace");
  if (!trace_path.empty()) obs::TraceSession::start();

  mps::run(p, [&](mps::Comm& comm) {
    // Every rank reads the header itself and preads exactly its own block
    // of the input — no root read, no scatter.
    const tensor::Dims dims = pario::BlockFile::open(input).dims();
    auto grid = dist::make_grid(comm, dist::default_grid_shape(p, dims));
    const dist::DistTensor x = pario::read_dist_tensor(grid, input);

    util::Timer timer;
    core::SthosvdOptions opts;
    opts.epsilon = eps;
    const auto result = core::st_hosvd(x, opts);
    const double seconds = timer.seconds();
    core::save_tucker(output, result.tucker);

    if (comm.rank() == 0) {
      const auto in_bytes = std::filesystem::file_size(input);
      const auto out_bytes = std::filesystem::file_size(output);
      std::printf("compressed %s -> %s (PTZ1)\n", input.c_str(),
                  output.c_str());
      std::printf("  dims        :");
      for (std::size_t d : dims) std::printf(" %zu", d);
      std::printf("\n  reduced dims:");
      for (std::size_t r : result.tucker.core_dims()) std::printf(" %zu", r);
      std::printf("\n  file size   : %.2f MB -> %.3f MB (%.1fx)\n",
                  static_cast<double>(in_bytes) / 1048576.0,
                  static_cast<double>(out_bytes) / 1048576.0,
                  static_cast<double>(in_bytes) /
                      static_cast<double>(out_bytes));
      std::printf("  error bound : %.3e (target %.1e)\n", result.error_bound,
                  eps);
      std::printf("  time        : %.2fs on %d ranks\n", seconds, p);
    }
  });
  if (!trace_path.empty()) {
    obs::TraceSession::stop();
    obs::TraceSession::write_chrome_json(trace_path);
    std::printf("trace: %zu events -> %s\n",
                obs::TraceSession::events().size(), trace_path.c_str());
  }
  return 0;
}
