/// \file micro_local_kernels.cpp
/// \brief google-benchmark microbenchmarks for the sequential building
/// blocks: gemm, syrk, local TTM, and local Gram across modes — the kernels
/// whose efficiency determines the %%-of-peak numbers in Fig. 9.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "blas/blas.hpp"
#include "lapack/lapack.hpp"
#include "tensor/local_kernels.hpp"

namespace {

using ptucker::blas::Trans;
using ptucker::tensor::Dims;
using ptucker::tensor::Matrix;
using ptucker::tensor::Tensor;

void BM_Gemm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Matrix a = Matrix::randn(n, n, 1);
  const Matrix b = Matrix::randn(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    ptucker::blas::gemm(Trans::No, Trans::No, n, n, n, 1.0, a.data(), n,
                        b.data(), n, 0.0, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(384);

void BM_SyrkFullVsLower(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 256;
  const bool lower = state.range(1) == 1;
  const Matrix a = Matrix::randn(n, k, 3);
  Matrix c(n, n);
  for (auto _ : state) {
    if (lower) {
      ptucker::blas::syrk_lower(Trans::No, n, k, 1.0, a.data(), n, 0.0,
                                c.data(), n);
      ptucker::blas::symmetrize_from_lower(n, c.data(), n);
    } else {
      ptucker::blas::syrk_full(Trans::No, n, k, 1.0, a.data(), n, 0.0,
                               c.data(), n);
    }
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_SyrkFullVsLower)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({256, 0})
    ->Args({256, 1});

/// Args: (mode, path) with path 0 = batched single-invocation engine,
/// 1 = the bench-local per-right-slice gemm loop.
void BM_LocalTtm(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const bool per_slice = state.range(1) == 1;
  const Dims dims{48, 48, 48};
  const std::size_t k = 12;
  const Tensor y = Tensor::randn(dims, 5);
  const Matrix m = Matrix::randn(k, dims[static_cast<std::size_t>(mode)], 6);
  Dims zdims = dims;
  zdims[static_cast<std::size_t>(mode)] = k;
  for (auto _ : state) {
    Tensor z(zdims);
    if (per_slice) {
      ptucker::bench::per_slice_ttm_into(y, m, mode, z);
    } else {
      ptucker::tensor::local_ttm_into(y, m, mode, z);
    }
    benchmark::DoNotOptimize(z.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(ptucker::tensor::prod(dims)) * k *
          state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LocalTtm)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1});

/// Args: (mode, path) as in BM_LocalTtm.
void BM_LocalGram(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const bool per_slice = state.range(1) == 1;
  const Dims dims{48, 48, 48};
  const Tensor y = Tensor::randn(dims, 7);
  for (auto _ : state) {
    Matrix s = per_slice ? ptucker::bench::per_slice_gram(y, mode)
                         : ptucker::tensor::local_gram(y, mode);
    benchmark::DoNotOptimize(s.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(dims[static_cast<std::size_t>(mode)]) *
          static_cast<double>(ptucker::tensor::prod(dims)) *
          state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LocalGram)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1});

/// The symmetric local Gram (packed syrk_lower_batch_strided + tiled
/// symmetrize) vs the full-storage batched gemm, interior mode.
void BM_LocalGramSym(benchmark::State& state) {
  const bool sym = state.range(0) == 1;
  const Dims dims{48, 48, 48};
  const Tensor y = Tensor::randn(dims, 8);
  for (auto _ : state) {
    Matrix s = sym ? ptucker::tensor::local_gram_sym(y, 1)
                   : ptucker::tensor::local_gram(y, 1);
    benchmark::DoNotOptimize(s.data());
  }
}
BENCHMARK(BM_LocalGramSym)->Arg(0)->Arg(1);

void BM_Eig(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Matrix g = Matrix::randn(n, n, 9);
  Matrix s(n, n);
  ptucker::blas::syrk_full(Trans::No, n, n, 1.0, g.data(), n, 0.0, s.data(),
                           n);
  for (auto _ : state) {
    auto eig = ptucker::la::eig_sym(s.data(), n, n);
    benchmark::DoNotOptimize(eig.values.data());
  }
}
BENCHMARK(BM_Eig)->Arg(32)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
