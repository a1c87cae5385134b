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

void per_slice_ttm_into(const tensor::Tensor& y, const tensor::Matrix& m,
                        int mode, tensor::Tensor& z) {
  const tensor::UnfoldShape s = tensor::unfold_shape(y.dims(), mode);
  const std::size_t k = m.rows();
  PT_REQUIRE(m.cols() == s.mid && z.size() == s.left * k * s.right,
             "per_slice_ttm_into: shape mismatch");
  for (std::size_t r = 0; r < s.right; ++r) {
    blas::gemm(blas::Trans::No, blas::Trans::Yes, s.left, k, s.mid, 1.0,
               y.data() + r * s.left * s.mid, s.left, m.data(), k, 0.0,
               z.data() + r * s.left * k, s.left);
  }
}

tensor::Matrix per_slice_gram(const tensor::Tensor& y, int mode) {
  const tensor::UnfoldShape s = tensor::unfold_shape(y.dims(), mode);
  tensor::Matrix gram(s.mid, s.mid);
  if (s.left == 1) {
    blas::syrk_full(blas::Trans::No, s.mid, s.right, 1.0, y.data(), s.mid,
                    0.0, gram.data(), s.mid);
    return gram;
  }
  for (std::size_t r = 0; r < s.right; ++r) {
    // Block column r of the unfolding is B_r^T: S += B_r^T * B_r.
    blas::syrk_full(blas::Trans::Yes, s.mid, s.left, 1.0,
                    y.data() + r * s.left * s.mid, s.left, r == 0 ? 0.0 : 1.0,
                    gram.data(), s.mid);
  }
  return gram;
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
