#pragma once
/// \file bench_common.hpp
/// \brief Shared helpers for the figure/table reproduction benches.
///
/// Every bench prints (a) a header identifying the paper artifact it
/// regenerates, (b) the measured rows/series, and (c) a `paper:` line
/// quoting what the paper reports, so EXPERIMENTS.md can be assembled
/// directly from bench output.

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "mps/runtime.hpp"
#include "obs/trace.hpp"
#include "tensor/matrix.hpp"
#include "tensor/tensor.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace ptucker::bench {

inline void header(const std::string& artifact, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), what.c_str());
  std::printf("==============================================================\n");
}

inline void paper_note(const std::string& note) {
  std::printf("paper: %s\n\n", note.c_str());
}

inline std::string shape_name(const std::vector<int>& shape) {
  std::string s;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) s += "x";
    s += std::to_string(shape[i]);
  }
  return s;
}

inline std::string dims_name(const std::vector<std::size_t>& dims) {
  std::string s;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) s += "x";
    s += std::to_string(dims[i]);
  }
  return s;
}

/// Time a parallel body: barrier, run, barrier; returns the rank-0 measured
/// wall time (all ranks are synchronized around the region).
template <class Body>
double time_region(mps::Comm& comm, Body&& body) {
  comm.barrier();
  util::Timer timer;
  body();
  comm.barrier();
  return timer.seconds();
}

/// Per-rank summed durations of the spans recorded by the last trace
/// session, by span name: the Fig. 8 per-kernel breakdown of a traced run.
class RankSpans {
 public:
  /// Collect obs::TraceSession::events() of a run on \p ranks ranks.
  explicit RankSpans(int ranks);
  /// Summed seconds of \p name spans on \p rank (0 when absent).
  [[nodiscard]] double seconds(std::string_view name, int rank) const;
  /// The rank with the largest summed \p name spans. Reading child spans
  /// on this critical rank keeps them nested inside its parent total.
  [[nodiscard]] int critical_rank(std::string_view name) const;

 private:
  int ranks_;
  std::map<std::string, std::vector<double>, std::less<>> sums_;
};

/// Table cell for a span-derived time: "-" when tracing is compiled out.
inline std::string span_cell(double seconds) {
  return obs::kTraceCompiled ? util::Table::fmt(seconds, 3) : "-";
}

/// Estimate this machine's per-core GEMM throughput (flops/s) for the
/// %-of-peak columns (paper reports % of the Ivy Bridge 19.2 GFLOPS core
/// peak; we report % of measured single-core GEMM peak instead).
double measure_core_gemm_flops();

/// The paper's per-slice local-kernel policy ("multiple subroutine calls to
/// respect the local layout"), the strawman the ablations time against the
/// batched engine in tensor/local_kernels: one gemm per right-slice of the
/// mode-n view, Z_r(left x K) = Y_r(left x mid) * M^T, in every mode
/// (including left == 1, where each slice is a single row). Bit-identical
/// to tensor::local_ttm_into. \p z must already have the output dims.
void per_slice_ttm_into(const tensor::Tensor& y, const tensor::Matrix& m,
                        int mode, tensor::Tensor& z);

/// Per-slice Gram, S = sum_r B_r^T B_r as one syrk_full per right-slice
/// (a single syrk_full when left == 1). Bit-identical to
/// tensor::local_gram.
[[nodiscard]] tensor::Matrix per_slice_gram(const tensor::Tensor& y,
                                            int mode);

}  // namespace ptucker::bench
