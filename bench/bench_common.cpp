#include "bench_common.hpp"

#include <vector>

#include "blas/blas.hpp"

namespace ptucker::bench {

RankSpans::RankSpans(int ranks) : ranks_(ranks) {
  for (const obs::TraceEvent& e : obs::TraceSession::events()) {
    if (e.rank < 0 || e.rank >= ranks) continue;
    auto& v = sums_[e.name];
    v.resize(static_cast<std::size_t>(ranks), 0.0);
    v[static_cast<std::size_t>(e.rank)] += static_cast<double>(e.dur_ns) * 1e-9;
  }
}

double RankSpans::seconds(std::string_view name, int rank) const {
  const auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second[static_cast<std::size_t>(rank)];
}

int RankSpans::critical_rank(std::string_view name) const {
  int best = 0;
  for (int r = 1; r < ranks_; ++r) {
    if (seconds(name, r) > seconds(name, best)) best = r;
  }
  return best;
}

double measure_core_gemm_flops() {
  const std::size_t n = 384;
  std::vector<double> a(n * n, 1.5);
  std::vector<double> b(n * n, -0.5);
  std::vector<double> c(n * n, 0.0);
  // Warm-up.
  blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, a.data(), n,
             b.data(), n, 0.0, c.data(), n);
  util::Timer timer;
  const int reps = 3;
  for (int r = 0; r < reps; ++r) {
    blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, a.data(), n,
               b.data(), n, 0.0, c.data(), n);
  }
  const double seconds = timer.seconds();
  return 2.0 * static_cast<double>(n) * n * n * reps / seconds;
}

}  // namespace ptucker::bench
