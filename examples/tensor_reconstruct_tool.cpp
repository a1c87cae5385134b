/// \file tensor_reconstruct_tool.cpp
/// \brief File-to-file reconstruction utility: reads a compressed Tucker
/// model ("PTZ1") or a time-partitioned model archive
/// ("PTA1"), sniffed by magic, and writes a dense tensor file — the full
/// reconstruction, an arbitrary per-mode index range ("a:b" slices), or,
/// against an archive, an arbitrary global time range (--steps a:b) that
/// may span several archived window models. Output is the chunked "PTB1"
/// container, written block-parallel (every rank writes its own block;
/// nothing is gathered). With --reference the tool also checks the
/// normalized RMS error — against the original tensor file for a single
/// model, or against the original step directory (per covered window) for
/// an archive — used by CI to verify the eq. 3 bound.
///
///   ./tensor_reconstruct_tool --model demo.ptz --output slice.ptb
///       --slices "0:48,10:20,0:36"
///   ./tensor_reconstruct_tool --model run.pta --steps 30:42
///       --output days.ptb --reference step_dir --check_eps 1e-3

#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/reconstruct.hpp"
#include "core/streaming.hpp"
#include "core/tucker_io.hpp"
#include "dist/grid.hpp"
#include "mps/runtime.hpp"
#include "obs/trace.hpp"
#include "pario/block_file.hpp"
#include "pario/model_io.hpp"
#include "pario/timestep_reader.hpp"
#include "util/cli.hpp"

using namespace ptucker;

namespace {

/// Parse a full unsigned decimal string; fails through PT_REQUIRE (naming
/// the offending text) on garbage, partial parses, or overflow instead of
/// letting stoull's bare exceptions escape.
std::uint64_t parse_u64(const std::string& text, const char* what) {
  std::uint64_t v = 0;
  std::size_t pos = 0;
  try {
    v = std::stoull(text, &pos);
  } catch (const std::logic_error&) {  // std::invalid_argument/out_of_range
    pos = std::string::npos;
  }
  PT_REQUIRE(!text.empty() && pos == text.size(),
             what << ": '" << text << "' is not an unsigned integer");
  return v;
}

/// Parse "lo:hi" into a pair; fails loudly on malformed input.
std::pair<std::uint64_t, std::uint64_t> parse_lo_hi(const std::string& text,
                                                    const char* what) {
  const auto colon = text.find(':');
  PT_REQUIRE(colon != std::string::npos,
             what << ": '" << text << "' must look like lo:hi");
  return {parse_u64(text.substr(0, colon), what),
          parse_u64(text.substr(colon + 1), what)};
}

/// Parse "a:b,c:d,..." into per-mode ranges; empty string = full tensor.
std::vector<util::Range> parse_slices(const std::string& text,
                                      const tensor::Dims& dims) {
  std::vector<util::Range> ranges;
  if (text.empty()) {
    for (std::size_t d : dims) ranges.push_back({0, d});
    return ranges;
  }
  std::stringstream ss(text);
  std::string part;
  while (std::getline(ss, part, ',')) {
    const auto [lo, hi] = parse_lo_hi(part, "--slices");
    ranges.push_back({static_cast<std::size_t>(lo),
                      static_cast<std::size_t>(hi)});
  }
  PT_REQUIRE(ranges.size() == dims.size(),
             "need one lo:hi slice per mode (" << dims.size() << ")");
  for (std::size_t n = 0; n < dims.size(); ++n) {
    PT_REQUIRE(ranges[n].lo < ranges[n].hi && ranges[n].hi <= dims[n],
               "slice " << n << " out of range");
  }
  return ranges;
}

/// Normalized RMS error of the distributed slice vs the same ranges of a
/// reference tensor file: each rank preads only its own sub-block of the
/// reference, then two scalar all-reduces.
double error_vs_reference(const dist::DistTensor& slice,
                          const std::vector<util::Range>& slice_origin,
                          const std::string& reference_path) {
  const pario::BlockFile ref = pario::BlockFile::open(reference_path);
  std::vector<util::Range> mine(slice_origin.size());
  for (int n = 0; n < slice.order(); ++n) {
    const util::Range r = slice.mode_range(n);
    const std::size_t base = slice_origin[static_cast<std::size_t>(n)].lo;
    mine[static_cast<std::size_t>(n)] = {base + r.lo, base + r.hi};
  }
  const tensor::Tensor expect = ref.read_ranges(mine);
  PT_REQUIRE(expect.size() == slice.local().size(),
             "--reference dims do not cover the reconstructed slice");
  double diff_sq = 0.0;
  double ref_sq = 0.0;
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const double d = slice.local()[i] - expect[i];
    diff_sq += d * d;
    ref_sq += expect[i] * expect[i];
  }
  diff_sq = mps::allreduce_scalar(slice.comm(), diff_sq);
  ref_sq = mps::allreduce_scalar(slice.comm(), ref_sq);
  return ref_sq > 0.0 ? std::sqrt(diff_sq / ref_sq) : std::sqrt(diff_sq);
}

/// Single-model reconstruction (PTZ1): the pre-archive flow.
int run_single_model(mps::Comm& comm, const util::ArgParser& args,
                     const std::string& model_path,
                     const std::string& output) {
  const int p = comm.size();
  // Grid order must match the model's order. Every rank peeks at the PTZ1
  // order word itself (no broadcast needed); load_tucker validates the rest
  // of the header, version included.
  PT_REQUIRE(pario::is_ptz1(model_path),
             model_path << " is neither a PTZ1 model nor a PTA1 archive");
  const pario::File f = pario::File::open_read(model_path);
  std::uint64_t order = 0;
  f.read_at(12, &order, sizeof(order));  // past magic + version
  PT_REQUIRE(order >= 1 && order <= 64,
             "implausible model order " << order << " in " << model_path);
  std::vector<int> shape(order, 1);
  // Distribute ranks over the last mode by default (safe for any dims).
  shape[order - 1] = p;
  auto grid = dist::make_grid(comm, shape);

  const core::TuckerTensor model = core::load_tucker(model_path, grid);
  const tensor::Dims dims = model.data_dims();
  const auto ranges = parse_slices(args.get_string("slices"), dims);

  const dist::DistTensor slice = core::reconstruct_range(model, ranges);

  pario::write_dist_tensor(output, slice);
  if (comm.rank() == 0) {
    std::printf("reconstructed");
    for (const auto& r : ranges) std::printf(" %zu:%zu", r.lo, r.hi);
    std::printf(" (%zu elements) from %s -> %s (PTB1)\n",
                static_cast<std::size_t>(tensor::prod(slice.global_dims())),
                model_path.c_str(), output.c_str());
  }

  int exit_code = 0;
  if (!args.get_string("reference").empty()) {
    const double err =
        error_vs_reference(slice, ranges, args.get_string("reference"));
    const double bound = args.get_double("check_eps");
    if (comm.rank() == 0) {
      std::printf("  error vs reference : %.3e", err);
      if (bound > 0.0) {
        std::printf(" (bound %.1e: %s)", bound,
                    err <= bound ? "OK" : "FAIL");
      }
      std::printf("\n");
      if (bound > 0.0 && err > bound) exit_code = 1;
    }
  }
  return exit_code;
}

/// Archive reconstruction (--steps a:b against a PTA1 container): maps the
/// time range onto the covering window models, stitches their partial
/// reconstructions, and (with --reference <step_dir>) checks the
/// normalized RMS error per covered window against the original dumps.
int run_archive(mps::Comm& comm, const util::ArgParser& args,
                const std::string& model_path, const std::string& output) {
  const std::string steps_text = args.get_string("steps");
  PT_REQUIRE(!steps_text.empty(),
             "a PTA1 archive needs --steps a:b (which global timesteps to "
             "reconstruct)");
  const auto [step_lo, step_hi] = parse_lo_hi(steps_text, "--steps");

  // Every rank parses the archive itself — no broadcast anywhere.
  const core::StreamingReconstructor recon(model_path);
  const tensor::Dims& sdims = recon.step_dims();
  const auto spatial = parse_slices(args.get_string("slices"), sdims);

  tensor::Dims spatial_sizes(sdims.size());
  for (std::size_t n = 0; n < sdims.size(); ++n) {
    spatial_sizes[n] = spatial[n].size();
  }
  std::vector<int> shape =
      dist::default_grid_shape(comm.size(), spatial_sizes);
  shape.push_back(1);  // time extent 1: stitching stays local
  auto grid = dist::make_grid(comm, shape);

  const std::vector<std::size_t> covered =
      recon.archive().covering(step_lo, step_hi);
  const dist::DistTensor slice =
      recon.reconstruct_steps(grid, step_lo, step_hi, spatial);

  pario::write_dist_tensor(output, slice);
  if (comm.rank() == 0) {
    std::printf("reconstructed steps %llu:%llu x",
                static_cast<unsigned long long>(step_lo),
                static_cast<unsigned long long>(step_hi));
    for (const auto& r : spatial) std::printf(" %zu:%zu", r.lo, r.hi);
    std::printf(" (%zu elements, %zu window models) from %s -> %s (PTB1)\n",
                static_cast<std::size_t>(tensor::prod(slice.global_dims())),
                covered.size(), model_path.c_str(), output.c_str());
  }

  int exit_code = 0;
  if (!args.get_string("reference").empty()) {
    // --reference is the original step directory: check the normalized RMS
    // error of every covered window (the per-entry eq. 3 bound).
    const pario::TimestepReader ref(args.get_string("reference"));
    PT_REQUIRE(ref.step_dims() == sdims,
               "--reference step dims do not match the archive");
    std::vector<util::Range> mine(sdims.size());
    std::size_t slab = 1;
    for (std::size_t n = 0; n < sdims.size(); ++n) {
      const util::Range r = slice.mode_range(static_cast<int>(n));
      mine[n] = {spatial[n].lo + r.lo, spatial[n].lo + r.hi};
      slab *= r.size();
    }
    const double bound = args.get_double("check_eps");
    for (std::size_t e : covered) {
      const pario::ArchiveEntry& ent = recon.archive().entry(e);
      const std::uint64_t wlo = std::max(step_lo, ent.step_first);
      const std::uint64_t whi = std::min(step_hi, ent.step_end());
      double diff_sq = 0.0;
      double ref_sq = 0.0;
      for (std::uint64_t t = wlo; t < whi; ++t) {
        const tensor::Tensor expect = ref.read_step(t, mine);
        const double* got =
            slice.local().data() + (t - step_lo) * slab;
        for (std::size_t i = 0; i < expect.size(); ++i) {
          const double d = got[i] - expect[i];
          diff_sq += d * d;
          ref_sq += expect[i] * expect[i];
        }
      }
      diff_sq = mps::allreduce_scalar(comm, diff_sq);
      ref_sq = mps::allreduce_scalar(comm, ref_sq);
      const double err = ref_sq > 0.0 ? std::sqrt(diff_sq / ref_sq)
                                      : std::sqrt(diff_sq);
      if (comm.rank() == 0) {
        std::printf("  window [%3llu, %3llu) error vs reference : %.3e",
                    static_cast<unsigned long long>(wlo),
                    static_cast<unsigned long long>(whi), err);
        if (bound > 0.0) {
          std::printf(" (bound %.1e: %s)", bound,
                      err <= bound ? "OK" : "FAIL");
        }
        std::printf("\n");
        if (bound > 0.0 && err > bound) exit_code = 1;
      }
    }
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("tensor_reconstruct_tool",
                       "reconstruct a tensor (or slice) from a Tucker model "
                       "or a PTA1 model archive");
  args.add_string("model", "",
                  "input model file (PTZ1) or archive (PTA1)");
  args.add_string("output", "", "output tensor file (PTB1)");
  args.add_string("slices", "", "per-mode lo:hi ranges, e.g. 0:48,10:20,0:36"
                  " (spatial modes only when --steps is used)");
  args.add_string("steps", "",
                  "global timestep range a:b to reconstruct from a PTA1 "
                  "archive");
  args.add_string("reference", "",
                  "original tensor file (single model) or step directory "
                  "(archive) to compare against");
  args.add_double("check_eps", 0.0,
                  "fail unless error vs --reference is <= this bound "
                  "(per covered window for an archive)");
  args.add_int("ranks", 8, "number of (thread) ranks");
  args.add_string("trace", "",
                  "write a chrome://tracing JSON of the run to this path");
  args.parse(argc, argv);

  const std::string model_path = args.get_string("model");
  const std::string output = args.get_string("output");
  PT_REQUIRE(!model_path.empty() && !output.empty(),
             "--model and --output are required");
  const int p = static_cast<int>(args.get_int("ranks"));

  const std::string trace_path = args.get_string("trace");
  if (!trace_path.empty()) obs::TraceSession::start();

  int exit_code = 0;
  mps::run(p, [&](mps::Comm& comm) {
    int code = 0;
    if (pario::is_pta1(model_path)) {
      code = run_archive(comm, args, model_path, output);
    } else {
      PT_REQUIRE(args.get_string("steps").empty(),
                 "--steps needs a PTA1 archive; " << model_path
                                                  << " is a single model");
      code = run_single_model(comm, args, model_path, output);
    }
    if (comm.rank() == 0) exit_code = code;
  });
  if (!trace_path.empty()) {
    obs::TraceSession::stop();
    obs::TraceSession::write_chrome_json(trace_path);
    std::printf("trace: %zu events -> %s\n",
                obs::TraceSession::events().size(), trace_path.c_str());
  }
  return exit_code;
}
