/// \file ptbench.cpp
/// \brief Benchmark driver for the three ptucker user flows:
///
///   compress  a PTB1 tensor file -> read_dist_tensor -> st_hosvd ->
///             save_tucker (PTZ1), the tensor_compress_tool path;
///   stream    a directory of PTB1 step files -> StreamingCompressor ->
///             one PTA1 archive;
///   serve     closed-loop queries through QueryServer::submit.
///
/// A workload runs its own flow at full size for most of the measured time
/// and the other two flows at a small companion size, so every end-to-end
/// metric exists on every workload (BENCHMARK.json lists them). The traced
/// run (--trace 1) analyses only the workload's own flow and reports the
/// per-layer metrics; layers its operation does not run read 0.
///
/// Every number is measured from outside the library: the driver times its
/// own calls into the public entry points, reads the obs spans the library
/// already records (Gram/Evecs/TTM, stream.*, serve.*), registry counter
/// deltas (mps.*, pario.*, serve.*) and blas::flop_count(). Nothing under
/// src/ is modified for the benchmark.
///
///   ptbench --workload compress-hcci --seed 1 --seconds 10 --trace 0
///           --work <scratch dir> [--smoke]
///
/// The last stdout line is one JSON object:
///   {"correct":..,"attempted":..,"failed":..,"metrics":{..},"facts":{..}}
/// perfbench/run.py builds this program, runs it and re-emits the result in
/// the benchmark's output schema.

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "blas/blas.hpp"
#include "core/metrics.hpp"
#include "core/reconstruct.hpp"
#include "core/st_hosvd.hpp"
#include "core/streaming.hpp"
#include "core/tucker_io.hpp"
#include "data/combustion.hpp"
#include "data/normalize.hpp"
#include "dist/grid.hpp"
#include "mps/runtime.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pario/archive_io.hpp"
#include "pario/block_file.hpp"
#include "pario/timestep_reader.hpp"
#include "serve/query_server.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace ptucker;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// Ranks of every distributed operation (one thread per rank).
constexpr int kRanks = 4;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double mean_of(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Exact nearest-rank percentile of a sorted sample: the k-th smallest,
/// k = ceil(p/100 * n).
double exact_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  auto k = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  k = std::clamp<std::size_t>(k, 1, sorted.size());
  return sorted[k - 1];
}

/// Counter value in a registry snapshot; 0 when it was never registered.
double snap_counter(const obs::Snapshot& snap, const char* name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

/// p50 of a registry histogram in a snapshot; 0 when empty or absent.
double snap_p50(const obs::Snapshot& snap, const char* name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0
                                     : static_cast<double>(it->second.p50);
}

/// FNV-1a over a file's bytes (byte-identity gate).
std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = 1469598103934665603ull;
  char buf[1 << 16];
  while (in) {
    in.read(buf, sizeof(buf));
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 1099511628211ull;
    }
  }
  return h;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Run \p body in a forked child process and wait for it to end; throws
/// if it fails. The caller must have no other thread running: fork()
/// copies only the calling thread.
void run_in_child(const std::function<void()>& body) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  PT_REQUIRE(pid >= 0, "fork failed: " << std::strerror(errno));
  if (pid == 0) {
    int code = 0;
    try {
      body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ptbench: set-up failed: %s\n", e.what());
      code = 1;
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    PT_REQUIRE(errno == EINTR, "waitpid failed: " << std::strerror(errno));
  }
  PT_REQUIRE(WIFEXITED(status) && WEXITSTATUS(status) == 0,
             "the set-up process failed");
}

// --- metrics and results -----------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Operation tally shared by every flow: an operation that throws or fails a
/// correctness gate counts as failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool gates_ok = true;
  void fail_gate(const std::string& why, std::uint64_t ops = 1) {
    gates_ok = false;
    failed += ops;
    std::fprintf(stderr, "ptbench: correctness gate failed: %s\n",
                 why.c_str());
  }
};

/// Every per-layer metric with its unit, zero until a flow measures it. A
/// layer the workload's operation does not run keeps reading 0.
Metrics zero_layer_metrics() {
  const std::pair<const char*, const char*> names[] = {
      {"pario.read_s", "s"},           {"pario.read_mb_s", "MB/s"},
      {"core.save_s", "s"},            {"core.sthosvd_s", "s"},
      {"dist.gram_s", "s"},            {"dist.evecs_s", "s"},
      {"dist.ttm_s", "s"},             {"dist.other_s", "s"},
      {"dist.rank_imbalance", "x"},    {"blas.flops", "flop"},
      {"blas.gflops", "GF/s"},         {"blas.peak_gflops", "GF/s"},
      {"blas.pct_peak", "%"},          {"mps.bytes", "bytes"},
      {"mps.messages", "count"},       {"mps.overlap_us_p50", "us"},
      {"compress.op_s", "s"},          {"compress.other_s", "s"},
      {"compress.serial_s", "s"},      {"compress.parallel_eff", "x"},
      {"stream.window_ms", "ms"},      {"stream.read_ms", "ms"},
      {"stream.normalize_ms", "ms"},   {"stream.compress_ms", "ms"},
      {"stream.append_ms", "ms"},      {"stream.other_ms", "ms"},
      {"pario.fsyncs_per_window", "count"},
      {"pario.write_bytes_per_window", "bytes"},
      {"serve.cache_hit_rate", "ratio"},
      {"serve.entries_per_query", "count"},
      {"serve.eval_us", "us"},         {"serve.route_us", "us"},
      {"serve.load_us", "us"},         {"serve.reconstruct_us", "us"},
      {"serve.denormalize_us", "us"},  {"serve.stitch_us", "us"},
      {"serve.other_us", "us"},        {"serve.queue_us", "us"},
      {"serve.admission_waits", "count"},
      {"pario.read_bytes_per_query", "bytes"},
      {"obs.trace_overhead", "x"},     {"obs.trace_dropped", "count"},
  };
  Metrics m;
  for (const auto& [name, unit] : names) m[name] = Metric{0.0, unit};
  return m;
}

void set_metric(Metrics& m, const std::string& name, double value) {
  auto it = m.find(name);
  PT_CHECK(it != m.end(), "ptbench: unknown metric " << name);
  it->second.value = value;
}

// --- tracing helpers ---------------------------------------------------------

/// Per-rank summed span durations (seconds) of one traced region, keyed by
/// span name. Events outside any rank (serve workers) land in slot 0.
struct SpanSums {
  std::map<std::string, std::vector<double>> by_rank;
  std::uint64_t dropped = 0;

  static SpanSums collect(int ranks) {
    SpanSums s;
    for (const obs::TraceEvent& e : obs::TraceSession::events()) {
      auto& v = s.by_rank[e.name];
      v.resize(static_cast<std::size_t>(ranks), 0.0);
      const int r = e.rank >= 0 && e.rank < ranks ? e.rank : 0;
      v[static_cast<std::size_t>(r)] += static_cast<double>(e.dur_ns) * 1e-9;
    }
    s.dropped = obs::TraceSession::dropped();
    return s;
  }
  /// Summed durations of \p name on rank \p r (0 when absent).
  [[nodiscard]] double at(const std::string& name, std::size_t r) const {
    const auto it = by_rank.find(name);
    return it == by_rank.end() ? 0.0 : it->second[r];
  }
  [[nodiscard]] double total(const std::string& name) const {
    const auto it = by_rank.find(name);
    return it == by_rank.end()
               ? 0.0
               : std::accumulate(it->second.begin(), it->second.end(), 0.0);
  }
};

/// Index of the largest element: the critical rank of a per-rank timing.
/// Layer times are read on that one rank, so child spans nest inside their
/// parent and every "other" remainder is non-negative.
std::size_t argmax(const std::vector<double>& v) {
  return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) -
                                  v.begin());
}

/// Ring sizes for one traced region, large enough that nothing is dropped:
/// one compress operation or stream pass records a few hundred spans, a
/// traced serve loop ~9 per query.
constexpr std::size_t kOpTraceCapacity = std::size_t{1} << 16;
constexpr std::size_t kServeTraceCapacity = std::size_t{1} << 20;

/// Single-core gemm rate (GF/s): the denominator of blas.pct_peak, probed
/// in the same run. Restores the gemm-thread autotune afterwards.
double probe_peak_gflops() {
  constexpr std::size_t n = 384;
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = static_cast<double>(util::splitmix64(i) % 1000) * 1e-3;
    b[i] = static_cast<double>(util::splitmix64(i + n * n) % 1000) * 1e-3;
  }
  blas::set_gemm_threads(1);
  double best = 0.0;
  for (int rep = 0; rep < 12; ++rep) {
    const auto t0 = Clock::now();
    blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, a.data(), n,
               b.data(), n, 0.0, c.data(), n);
    const double s = seconds_between(t0, Clock::now());
    best = std::max(best, 2.0 * static_cast<double>(n * n * n) / s * 1e-9);
  }
  blas::reset_gemm_threads();
  return best;
}

// --- input generation --------------------------------------------------------
//
// Every input is one fixed surrogate field (data seed kFieldSeed) whose mode
// indices are permuted by the run's seed. A permutation of a mode's indices
// leaves that mode's Gram spectrum unchanged, so every seed yields inputs
// with the same ranks, flops and bytes: the run-to-run spread measures the
// machine, not the input.

constexpr std::uint64_t kFieldSeed = 42;

/// Permute the indices of modes [0, \p modes) of \p x in place, by a seeded
/// permutation that maps every block range of the grid onto itself, so
/// each rank permutes its own block with no communication and one slab of
/// scratch (a slab: all local elements with one index of the last mode).
void permute_modes(dist::DistTensor& x, std::uint64_t seed, int modes) {
  tensor::Tensor& t = x.local();
  const tensor::Dims ld = t.dims();
  PT_CHECK(ld.size() >= 2, "permute_modes: order below 2");
  const std::size_t last = ld.size() - 1;
  if (t.size() == 0) return;
  // perm[n][i]: local index of mode n that moves to local index i.
  std::vector<std::vector<std::size_t>> perm(ld.size());
  for (std::size_t n = 0; n < ld.size(); ++n) {
    perm[n].resize(ld[n]);
    std::iota(perm[n].begin(), perm[n].end(), std::size_t{0});
    if (static_cast<int>(n) < modes) {
      util::Rng rng(util::splitmix64(seed ^ util::splitmix64(n + 1)) ^
                    x.mode_range(static_cast<int>(n)).lo);
      std::shuffle(perm[n].begin(), perm[n].end(), rng.engine());
    }
  }
  // Modes below the last, one slab at a time: gather into scratch.
  std::vector<std::vector<std::size_t>> src(last);  // element offsets
  std::size_t slab = 1;
  for (std::size_t n = 0; n < last; ++n) {
    for (const std::size_t i : perm[n]) src[n].push_back(i * slab);
    slab *= ld[n];
  }
  std::vector<double> scratch(slab);
  const std::size_t rows = ld[0];
  for (std::size_t s = 0; s < ld[last]; ++s) {
    double* p = t.data() + s * slab;
    std::vector<std::size_t> idx(last, 0);
    for (std::size_t o = 0; o < slab / rows; ++o) {
      std::size_t base = 0;
      for (std::size_t n = 1; n < last; ++n) base += src[n][idx[n]];
      for (std::size_t i = 0; i < rows; ++i) {
        scratch[o * rows + i] = p[base + src[0][i]];
      }
      for (std::size_t n = 1; n < last; ++n) {
        if (++idx[n] < ld[n]) break;
        idx[n] = 0;
      }
    }
    std::copy(scratch.begin(), scratch.end(), p);
  }
  // The last mode permutes whole slabs: follow each cycle.
  std::vector<bool> done(ld[last], false);
  for (std::size_t c = 0; c < ld[last]; ++c) {
    if (done[c]) continue;
    std::copy_n(t.data() + c * slab, slab, scratch.begin());
    std::size_t j = c;
    for (;;) {
      done[j] = true;
      const std::size_t k = perm[last][j];
      if (k == c) {
        std::copy(scratch.begin(), scratch.end(), t.data() + j * slab);
        break;
      }
      std::copy_n(t.data() + k * slab, slab, t.data() + j * slab);
      j = k;
    }
  }
}

/// The HCCI surrogate's spectral character (decay depth, noise) on custom
/// space x space x species x time dims: the ladder is re-derived for the
/// new extents exactly as data::combustion_spec derives it.
data::CombustionSpec step_series_spec(std::size_t dim, std::size_t species,
                                      std::size_t steps) {
  data::CombustionSpec spec =
      data::combustion_spec(data::CombustionPreset::HCCI, 1.0, kFieldSeed);
  spec.dims = {dim, dim, species, steps};
  spec.species_mode = 2;
  spec.time_mode = 3;
  const std::size_t max_dim = std::max(dim, steps);
  spec.components = static_cast<int>(std::min<std::size_t>(
      1200, std::max<std::size_t>(16, max_dim + max_dim / 4)));
  spec.rho = std::pow(10.0, -spec.decades / static_cast<double>(max_dim));
  return spec;
}

/// Write \p spec's time steps as one PTB1 file per step into \p dir
/// (4 ranks; every rank writes its own spatial block of every step). The
/// seed permutes space and species, never time, so every window holds the
/// same steps for every seed.
void write_step_files(const std::string& dir, const data::CombustionSpec& spec,
                      std::uint64_t seed) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const tensor::Dims step_dims(spec.dims.begin(), spec.dims.end() - 1);
  const std::size_t steps = spec.dims.back();
  mps::run(kRanks, [&](mps::Comm& comm) {
    std::vector<int> shape = dist::default_grid_shape(kRanks, step_dims);
    auto step_grid = dist::make_grid(comm, shape);
    shape.push_back(1);  // every rank holds all steps of its spatial block
    auto series_grid = dist::make_grid(comm, shape);
    dist::DistTensor series = data::make_combustion(series_grid, spec);
    permute_modes(series, seed, 3);
    for (std::size_t t = 0; t < steps; ++t) {
      dist::DistTensor step(step_grid, step_dims);
      const std::size_t slab = step.local().size();
      PT_CHECK(slab * steps == series.local().size(),
               "ptbench: step slab does not tile the series block");
      std::memcpy(step.local().data(), series.local().data() + t * slab,
                  slab * sizeof(double));
      char name[32];
      std::snprintf(name, sizeof(name), "step_%04zu.ptb", t);
      pario::write_dist_tensor(dir + "/" + name, step);
    }
  });
}

// --- compress flow -----------------------------------------------------------

/// File -> PTZ1: read_dist_tensor, st_hosvd at eps 1e-4, save_tucker.
class CompressFlow {
 public:
  CompressFlow(std::string dir, double scale, std::uint64_t seed)
      : dir_(std::move(dir)),
        spec_(data::combustion_spec(data::CombustionPreset::HCCI, scale,
                                    kFieldSeed)),
        seed_(seed) {}

  void write_input() const {
    fs::create_directories(dir_);
    mps::run(kRanks, [&](mps::Comm& comm) {
      auto grid =
          dist::make_grid(comm, dist::default_grid_shape(kRanks, spec_.dims));
      dist::DistTensor x = data::make_combustion(grid, spec_);
      permute_modes(x, seed_, x.order());
      pario::write_dist_tensor(input(), x);
    });
  }

  /// Forget the output bytes of earlier repetitions.
  void reset_gate() { out_hash_ = 0; }

  /// Per-rank phase times of one operation.
  struct OpTimes {
    double total = 0.0;
    std::vector<double> read, sthosvd, save;
    std::uint64_t flops = 0;
    int gemm_threads = 0;
  };

  /// One file -> PTZ1 operation on \p ranks ranks, timed from outside.
  OpTimes op(int ranks) const {
    OpTimes t;
    t.read.assign(static_cast<std::size_t>(ranks), 0.0);
    t.sthosvd = t.read;
    t.save = t.read;
    const std::uint64_t flops0 = blas::flop_count();
    const auto t0 = Clock::now();
    mps::run(ranks, [&](mps::Comm& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      const tensor::Dims dims = pario::BlockFile::open(input()).dims();
      auto grid =
          dist::make_grid(comm, dist::default_grid_shape(ranks, dims));
      const auto a = Clock::now();
      const dist::DistTensor x = pario::read_dist_tensor(grid, input());
      const auto b = Clock::now();
      core::SthosvdOptions opts;
      opts.epsilon = kEps;
      const core::SthosvdResult res = core::st_hosvd(x, opts);
      const auto c = Clock::now();
      core::save_tucker(output(), res.tucker);
      const auto d = Clock::now();
      t.read[r] = seconds_between(a, b);
      t.sthosvd[r] = seconds_between(b, c);
      t.save[r] = seconds_between(c, d);
      if (r == 0) t.gemm_threads = blas::gemm_threads();
    });
    t.total = seconds_between(t0, Clock::now());
    t.flops = blas::flop_count() - flops0;
    return t;
  }

  /// op() plus the byte-identity gate: every repetition must write the same
  /// PTZ1 bytes as the first.
  bool checked_op(Tally& tally, OpTimes* out) {
    ++tally.attempted;
    try {
      const OpTimes t = op(kRanks);
      const std::uint64_t h = file_hash(output());
      if (out_hash_ == 0) out_hash_ = h;
      if (h != out_hash_) {
        tally.fail_gate("compress: PTZ1 bytes differ between repetitions");
        return false;
      }
      if (out != nullptr) *out = t;
      return true;
    } catch (const std::exception& e) {
      ++tally.failed;
      std::fprintf(stderr, "ptbench: compress op failed: %s\n", e.what());
      return false;
    }
  }

  /// Eq. 3 gate: reconstruct the saved model and measure the error.
  void gate(Tally& tally) const {
    double err = 1.0;
    mps::run(kRanks, [&](mps::Comm& comm) {
      auto grid =
          dist::make_grid(comm, dist::default_grid_shape(kRanks, spec_.dims));
      const dist::DistTensor x = pario::read_dist_tensor(grid, input());
      const core::TuckerTensor model = core::load_tucker(output(), grid);
      const double e = core::normalized_error(x, core::reconstruct(model));
      if (comm.rank() == 0) err = e;
    });
    std::fprintf(stderr, "ptbench: compress eq.3 error %.3e (eps %.0e)\n", err,
                 kEps);
    if (!(err <= kEps)) tally.fail_gate("compress: eq. 3 error above eps");
  }

  [[nodiscard]] double ratio() const {
    return static_cast<double>(fs::file_size(input())) /
           static_cast<double>(fs::file_size(output()));
  }
  [[nodiscard]] std::uint64_t input_bytes() const {
    return fs::file_size(input());
  }
  [[nodiscard]] const data::CombustionSpec& spec() const { return spec_; }

  static constexpr double kEps = 1e-4;

 private:
  [[nodiscard]] std::string input() const { return dir_ + "/input.ptb"; }
  [[nodiscard]] std::string output() const { return dir_ + "/model.ptz"; }

  std::string dir_;
  data::CombustionSpec spec_;
  std::uint64_t seed_;
  std::uint64_t out_hash_ = 0;
};

// --- stream flow -------------------------------------------------------------

struct SeriesSize {
  std::size_t dim = 0;
  std::size_t species = 0;
  std::size_t steps = 0;
  std::size_t window = 2;
};

/// Step directory -> PTA1: one pass creates a fresh archive and consumes
/// every window through StreamingCompressor::compress_next.
class StreamFlow {
 public:
  StreamFlow(std::string dir, SeriesSize size, std::uint64_t seed)
      : dir_(std::move(dir)), size_(size), seed_(seed) {}

  void write_input() const {
    write_step_files(steps_dir(),
                     step_series_spec(size_.dim, size_.species, size_.steps),
                     seed_);
  }

  struct PassTimes {
    double total = 0.0;
    std::size_t windows = 0;
    std::vector<double> window_s;  ///< per rank, summed over the pass
  };

  PassTimes pass(const std::string& archive) const {
    PassTimes t;
    t.window_s.assign(kRanks, 0.0);
    std::vector<std::size_t> windows(kRanks, 0);
    const auto t0 = Clock::now();
    mps::run(kRanks, [&](mps::Comm& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      core::StreamingCompressor sc(comm, steps_dir(), archive, options());
      for (;;) {
        const auto a = Clock::now();
        if (!sc.compress_next()) break;
        t.window_s[r] += seconds_between(a, Clock::now());
        ++windows[r];
      }
    });
    t.total = seconds_between(t0, Clock::now());
    t.windows = windows[0];
    return t;
  }

  bool checked_pass(Tally& tally, PassTimes* out) const {
    const std::size_t windows =
        (size_.steps + size_.window - 1) / size_.window;
    tally.attempted += windows;
    try {
      const PassTimes t = pass(archive());
      const pario::ArchiveReader ar(archive());
      if (t.windows != windows || ar.entry_count() != windows ||
          ar.step_end() != size_.steps) {
        tally.fail_gate("stream: archive does not cover every step", windows);
        return false;
      }
      if (out != nullptr) *out = t;
      return true;
    } catch (const std::exception& e) {
      tally.failed += windows;
      std::fprintf(stderr, "ptbench: stream pass failed: %s\n", e.what());
      return false;
    }
  }

  /// Per-window eq. 3 gate on the last pass's archive: two seeded windows
  /// are reconstructed with reconstruct_steps (normalized values) and
  /// compared against the normalized input window.
  void gate(Tally& tally) const {
    const std::size_t windows =
        (size_.steps + size_.window - 1) / size_.window;
    std::vector<std::size_t> picks = {util::splitmix64(seed_) % windows,
                                      util::splitmix64(seed_ + 1) % windows};
    for (const std::size_t w : picks) {
      const std::uint64_t lo = w * size_.window;
      const std::uint64_t hi = std::min<std::uint64_t>(lo + size_.window,
                                                       size_.steps);
      const double eps = pario::ArchiveReader(archive()).entry(w).eps;
      double err = 1.0;
      mps::run(kRanks, [&](mps::Comm& comm) {
        const core::StreamingReconstructor rec(archive());
        const pario::TimestepReader reader(steps_dir());
        std::vector<int> shape =
            dist::default_grid_shape(kRanks, reader.step_dims());
        shape.push_back(1);
        auto grid = dist::make_grid(comm, shape);
        dist::DistTensor x = reader.read_window(grid, lo, hi - lo);
        (void)data::normalize_species(x, 2);
        const dist::DistTensor xt =
            rec.reconstruct_steps(grid, lo, hi, {}, /*denormalize=*/false);
        const double e = core::normalized_error(x, xt);
        if (comm.rank() == 0) err = e;
      });
      if (!(err <= eps)) {
        tally.fail_gate("stream: window " + std::to_string(w) +
                        " reconstructs above its eps");
      }
    }
  }

  [[nodiscard]] double ratio() const {
    return static_cast<double>(dir_bytes(steps_dir())) /
           static_cast<double>(fs::file_size(archive()));
  }
  [[nodiscard]] const SeriesSize& size() const { return size_; }
  [[nodiscard]] std::uint64_t input_bytes() const {
    return dir_bytes(steps_dir());
  }
  [[nodiscard]] std::string steps_dir() const { return dir_ + "/steps"; }
  [[nodiscard]] std::string archive() const { return dir_ + "/series.pta"; }

  [[nodiscard]] core::StreamingOptions options() const {
    core::StreamingOptions opts;
    opts.sthosvd.epsilon = kEps;
    opts.window = size_.window;
    opts.species_mode = 2;
    return opts;
  }
  static constexpr double kEps = 1e-3;

 private:
  std::string dir_;
  SeriesSize size_;
  std::uint64_t seed_;
};

// --- serve flow --------------------------------------------------------------

/// Deterministic query stream: Zipf(s=1) entry popularity over a seeded
/// permutation of the archive's entries; ~80% 4x4x1 boxes of one step,
/// ~15% full spatial planes of one species for one step, ~5% 4x4x1 boxes
/// spanning 8 consecutive windows.
class QueryGen {
 public:
  QueryGen(std::uint64_t seed, const tensor::Dims& step_dims,
           std::size_t entries, std::size_t window)
      : seed_(seed), dims_(step_dims), entries_(entries), window_(window) {
    perm_.resize(entries);
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});
    util::Rng rng(seed);
    std::shuffle(perm_.begin(), perm_.end(), rng.engine());
    cdf_.resize(entries);
    double acc = 0.0;
    for (std::size_t k = 0; k < entries; ++k) {
      acc += 1.0 / static_cast<double>(k + 1);
      cdf_[k] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }

  [[nodiscard]] serve::Request make(std::uint64_t i) const {
    std::uint64_t h = util::splitmix64(seed_ ^ (i * 0x9e3779b97f4a7c15ull));
    const auto next = [&h] {
      h = util::splitmix64(h);
      return h;
    };
    const auto unit = [&] {
      return static_cast<double>(next() >> 11) * 0x1.0p-53;
    };
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), unit()) - cdf_.begin());
    const std::size_t entry = perm_[std::min(rank, entries_ - 1)];
    const double kind = unit();
    serve::Request req;
    req.box.resize(dims_.size());
    const std::size_t species = next() % dims_[2];
    if (kind < 0.15) {  // full spatial plane of one species, one step
      req.box[0] = {0, dims_[0]};
      req.box[1] = {0, dims_[1]};
    } else {
      for (int n = 0; n < 2; ++n) {
        const std::size_t lo = next() % (dims_[n] - 3);
        req.box[n] = {lo, lo + 4};
      }
    }
    req.box[2] = {species, species + 1};
    if (kind >= 0.95 && entries_ >= 8) {  // 8 consecutive windows
      const std::size_t first = std::min(entry, entries_ - 8);
      req.step_lo = first * window_;
      req.step_hi = req.step_lo + 8 * window_;
    } else {
      req.step_lo = entry * window_ + next() % window_;
      req.step_hi = req.step_lo + 1;
    }
    return req;
  }

 private:
  std::uint64_t seed_;
  tensor::Dims dims_;
  std::size_t entries_;
  std::size_t window_;
  std::vector<std::size_t> perm_;
  std::vector<double> cdf_;
};

/// Requests with the answers the executor gave (the serve gate's input).
using Samples = std::vector<std::pair<serve::Request, tensor::Tensor>>;

/// Closed-loop results: exact per-query latencies from submit() until the
/// answer was ready.
struct LoopResult {
  std::vector<double> latency_us;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  Samples samples;
};

/// One generator thread keeps \p outstanding requests in flight through
/// submit(), polling the futures so each completion is stamped when it
/// happens. Stops issuing after \p seconds or \p max_queries.
LoopResult closed_loop(const serve::QueryServer& server, const QueryGen& gen,
                       std::uint64_t first_index, double seconds,
                       std::size_t max_queries, std::size_t outstanding,
                       bool keep_samples) {
  struct Slot {
    std::future<tensor::Tensor> fut;
    Clock::time_point t0;
    std::uint64_t index = 0;
    bool live = false;
  };
  LoopResult res;
  res.latency_us.reserve(std::min<std::size_t>(max_queries, 1 << 20));
  std::vector<Slot> slots(outstanding);
  std::uint64_t issued = 0;
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  auto last = start;
  const auto launch = [&](Slot& s) {
    s.index = first_index + issued++;
    s.t0 = Clock::now();
    s.fut = server.submit(gen.make(s.index));
    s.live = true;
  };
  for (Slot& s : slots) launch(s);
  std::size_t live = slots.size();
  while (live > 0) {
    bool progressed = false;
    for (Slot& s : slots) {
      if (!s.live || s.fut.wait_for(std::chrono::seconds(0)) !=
                         std::future_status::ready) {
        continue;
      }
      const auto t1 = Clock::now();
      last = t1;
      s.live = false;
      --live;
      progressed = true;
      try {
        tensor::Tensor ans = s.fut.get();
        res.latency_us.push_back(seconds_between(s.t0, t1) * 1e6);
        if (keep_samples && s.index % 61 == 0 && res.samples.size() < 64) {
          res.samples.emplace_back(gen.make(s.index), std::move(ans));
        }
      } catch (const std::exception& e) {
        ++res.failed;
        std::fprintf(stderr, "ptbench: query failed: %s\n", e.what());
      }
      if (t1 < stop && issued < max_queries) {
        launch(s);
        ++live;
      }
    }
    if (!progressed) std::this_thread::yield();
  }
  res.wall_s = seconds_between(start, last);
  return res;
}

/// Queries against a live QueryServer over an archive of >= 96 windows
/// (more entries than the default 64-panel cache).
class ServeFlow {
 public:
  ServeFlow(std::string dir, SeriesSize size, std::uint64_t seed)
      : stream_(std::move(dir), size, seed), seed_(seed) {}

  /// Stop the server (and its worker threads).
  void close() { server_.reset(); }

  /// Stream the step files into the archive the server will open.
  void write_input() const {
    stream_.write_input();
    (void)stream_.pass(stream_.archive());
  }

  void open() {
    server_ = std::make_unique<serve::QueryServer>(
        std::vector<std::string>{stream_.archive()}, server_options());
    const pario::ArchiveReader ar(stream_.archive());
    gen_ = std::make_unique<QueryGen>(seed_, ar.step_dims(), ar.entry_count(),
                                      stream_.size().window);
  }

  static serve::ServerOptions server_options() {
    serve::ServerOptions o;
    const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
    o.executor_threads = hw - 1;  // + the generator thread = every core
    return o;
  }

  LoopResult loop(double seconds, std::size_t max_queries, bool samples) {
    LoopResult r = closed_loop(*server_, *gen_, next_index_, seconds,
                               max_queries, kOutstanding, samples);
    next_index_ += r.latency_us.size() + r.failed;
    return r;
  }

  /// Executor answers must be bit-identical to a synchronous subtensor() on
  /// a fresh single-worker server.
  void gate(const Samples& samples, Tally& tally) const {
    serve::ServerOptions o;
    o.executor_threads = 1;
    const serve::QueryServer fresh({stream_.archive()}, o);
    std::size_t bad = 0;
    for (const auto& [req, ans] : samples) {
      const tensor::Tensor ref = fresh.subtensor(req);
      if (ref.dims() != ans.dims() ||
          std::memcmp(ref.data(), ans.data(), ref.size() * sizeof(double)) !=
              0) {
        ++bad;
      }
    }
    if (samples.empty()) tally.fail_gate("serve: no answers sampled");
    if (bad > 0) {
      tally.fail_gate("serve: " + std::to_string(bad) +
                      " executor answers differ from subtensor()");
    }
  }

  [[nodiscard]] double ratio() const { return stream_.ratio(); }
  [[nodiscard]] std::uint64_t archive_bytes() const {
    return fs::file_size(stream_.archive());
  }
  [[nodiscard]] std::uint64_t input_bytes() const {
    return stream_.input_bytes();
  }
  [[nodiscard]] std::size_t workers() const {
    return server_options().executor_threads;
  }

  static constexpr std::size_t kOutstanding = 6;

 private:
  StreamFlow stream_;
  std::uint64_t seed_;
  std::unique_ptr<serve::QueryServer> server_;
  std::unique_ptr<QueryGen> gen_;
  std::uint64_t next_index_ = 0;
};

// --- workloads ---------------------------------------------------------------

enum class Flow { Compress, Stream, Serve };

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work;
};

/// Sizes of one workload's three flows: the workload's own flow at full
/// size, the other two at the companion size (smoke: everything small).
struct Plan {
  Flow primary = Flow::Compress;
  double compress_scale = 0.03;
  SeriesSize stream{32, 8, 16, 2};
  SeriesSize serve{16, 8, 192, 2};  // 96 windows: the cache still misses
};

Plan make_plan(const Config& cfg) {
  Plan p;
  if (cfg.workload == "compress-hcci") {
    p.primary = Flow::Compress;
    if (!cfg.smoke) p.compress_scale = 0.15;  // ~101x101x33x94, 241 MiB
  } else if (cfg.workload == "stream-append") {
    p.primary = Flow::Stream;
    if (!cfg.smoke) p.stream = {96, 16, 64, 2};
  } else if (cfg.workload == "serve-zipf") {
    p.primary = Flow::Serve;
    if (!cfg.smoke) p.serve = {48, 16, 192, 2};  // 96 windows
  } else {
    PT_REQUIRE(false, "unknown workload '" << cfg.workload << "'");
  }
  return p;
}

/// Everything one run reports.
struct Report {
  Tally tally;
  Metrics metrics;
  std::map<std::string, std::string> facts;  ///< name -> raw JSON value
  void fact(const std::string& k, double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    facts[k] = os.str();
  }
  void fact(const std::string& k, const std::string& v) {
    facts[k] = "\"" + v + "\"";
  }
};

/// The three flows of one workload, all set up in one process.
class Bench {
 public:
  /// A run gives up repeating operations after this many failures.
  static constexpr std::uint64_t kMaxFailures = 3;
  /// Seconds per round of an untraced run.
  static constexpr double kRoundS = 1.0;

  Bench(const Config& cfg, const Plan& plan)
      : cfg_(cfg),
        plan_(plan),
        compress_(cfg.work + "/compress", plan.compress_scale, cfg.seed),
        stream_(cfg.work + "/stream", plan.stream, cfg.seed),
        serve_(cfg.work + "/serve", plan.serve, cfg.seed) {}

  /// Full set-up of every flow; returns its seconds. The inputs are
  /// written by a child process, so this process's memory high-water mark
  /// (peak_rss_mb) is the flows' own; opening the server stays here.
  double setup() {
    const auto t0 = Clock::now();
    serve_.close();  // fork() with no other thread running
    compress_.reset_gate();
    run_in_child([&] {
      compress_.write_input();
      stream_.write_input();
      serve_.write_input();
    });
    serve_.open();
    return seconds_between(t0, Clock::now());
  }

  /// Untraced run: end-to-end metrics of all three flows. The flows take
  /// turns in rounds of kRoundS seconds, so a burst of interference on the
  /// host lands in a few rounds of every flow instead of in all of one
  /// flow; timings are medians over operations, serve figures medians over
  /// rounds.
  void measure(Report& rep) {
    Tally& tally = rep.tally;
    Metrics& m = rep.metrics;
    const int rounds =
        std::max(2, static_cast<int>(std::lround(cfg_.seconds / kRoundS)));
    // The workload's own flow gets 70% of the time, each companion 15%.
    const auto slice = [&](Flow f) {
      return cfg_.seconds * (f == plan_.primary ? 0.7 : 0.15) / rounds;
    };
    const auto failing = [&] { return tally.failed >= kMaxFailures; };

    (void)compress_.checked_op(tally, nullptr);  // warm-ups
    (void)stream_.checked_pass(tally, nullptr);
    (void)serve_.loop(slice(Flow::Serve), std::size_t{1} << 20, false);

    std::vector<double> compress_s, steps_per_s, qps, p50, p99;
    Samples served;  // every round's gate samples
    for (int r = 0; r < rounds && !failing(); ++r) {
      auto t0 = Clock::now();
      do {  // compress: seconds per file -> PTZ1 operation
        CompressFlow::OpTimes t;
        if (compress_.checked_op(tally, &t)) compress_s.push_back(t.total);
      } while (seconds_between(t0, Clock::now()) < slice(Flow::Compress) &&
               !failing());
      t0 = Clock::now();
      do {  // stream: steps archived per second over a full pass
        StreamFlow::PassTimes t;
        if (stream_.checked_pass(tally, &t)) {
          steps_per_s.push_back(static_cast<double>(stream_.size().steps) /
                                t.total);
        }
      } while (seconds_between(t0, Clock::now()) < slice(Flow::Stream) &&
               !failing());
      // serve: closed loop, 6 outstanding
      LoopResult loop =
          serve_.loop(slice(Flow::Serve), std::size_t{1} << 24, true);
      tally.attempted += loop.latency_us.size() + loop.failed;
      tally.failed += loop.failed;
      std::sort(loop.latency_us.begin(), loop.latency_us.end());
      qps.push_back(static_cast<double>(loop.latency_us.size()) / loop.wall_s);
      p50.push_back(exact_percentile(loop.latency_us, 50));
      p99.push_back(exact_percentile(loop.latency_us, 99));
      for (auto& sample : loop.samples) served.push_back(std::move(sample));
    }
    m["compress_s"] = {median(compress_s), "s"};
    m["stream_steps_per_s"] = {median(steps_per_s), "1/s"};
    m["query_qps"] = {median(qps), "1/s"};
    m["query_p50_us"] = {median(p50), "us"};
    m["query_p99_us"] = {median(p99), "us"};
    m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    m["compression_ratio"] = {primary_ratio(), "x"};
    rep.fact("compress_ops", static_cast<double>(compress_s.size()));
    rep.fact("stream_passes", static_cast<double>(steps_per_s.size()));
    std::fprintf(stderr, "ptbench: compress_s samples:");
    for (const double v : compress_s) std::fprintf(stderr, " %.4f", v);
    std::fprintf(stderr, "\nptbench: query_qps per round:");
    for (const double v : qps) std::fprintf(stderr, " %.0f", v);
    std::fprintf(stderr, "\n");

    compress_.gate(tally);
    stream_.gate(tally);
    serve_.gate(served, tally);
  }

  /// Traced run: per-layer metrics. Every flow is traced, the companions
  /// first and the workload's own flow last, so each flow's metrics
  /// (compress.*, stream.*, serve.*) come from its own run, and the shared
  /// layers (dist, core.sthosvd_s, blas, mps, obs.trace_overhead) describe
  /// the workload's own operation wherever it runs them.
  void trace(Report& rep) {
    rep.metrics = zero_layer_metrics();
    const double peak = probe_peak_gflops();
    set_metric(rep.metrics, "blas.peak_gflops", peak);
    std::vector<Flow> order = {Flow::Stream, Flow::Compress, Flow::Serve};
    order.erase(std::find(order.begin(), order.end(), plan_.primary));
    order.push_back(plan_.primary);
    for (const Flow f : order) {
      switch (f) {
        case Flow::Compress: trace_compress(rep, peak); break;
        case Flow::Stream: trace_stream(rep, peak); break;
        case Flow::Serve: trace_serve(rep, peak); break;
      }
    }
  }

  [[nodiscard]] double primary_ratio() const {
    switch (plan_.primary) {
      case Flow::Compress: return compress_.ratio();
      case Flow::Stream: return stream_.ratio();
      case Flow::Serve: return serve_.ratio();
    }
    return 0.0;
  }

  void facts(Report& rep) const {
    switch (plan_.primary) {
      case Flow::Compress: {
        const auto& d = compress_.spec().dims;
        std::uint64_t elems = 1;
        for (std::size_t x : d) elems *= x;
        rep.fact("input_dims", std::to_string(d[0]) + "x" +
                                   std::to_string(d[1]) + "x" +
                                   std::to_string(d[2]) + "x" +
                                   std::to_string(d[3]));
        rep.fact("input_bytes", static_cast<double>(compress_.input_bytes()));
        rep.fact("working_set_bytes", static_cast<double>(elems * 8));
        break;
      }
      case Flow::Stream: {
        const SeriesSize& s = stream_.size();
        rep.fact("input_bytes", static_cast<double>(stream_.input_bytes()));
        rep.fact("working_set_bytes",
                 static_cast<double>(s.dim * s.dim * s.species * s.window * 8));
        break;
      }
      case Flow::Serve:
        rep.fact("input_bytes", static_cast<double>(serve_.input_bytes()));
        rep.fact("working_set_bytes",
                 static_cast<double>(serve_.archive_bytes()));
        rep.fact("executor_threads", static_cast<double>(serve_.workers()));
        break;
    }
  }

 private:
  void trace_compress(Report& rep, double peak) {
    Tally& tally = rep.tally;
    Metrics& m = rep.metrics;
    const int reps = cfg_.smoke ? 1 : 3;
    (void)compress_.checked_op(tally, nullptr);  // warm-up
    std::vector<double> untraced;
    for (int i = 0; i < reps; ++i) {
      CompressFlow::OpTimes t;
      if (compress_.checked_op(tally, &t)) untraced.push_back(t.total);
    }

    obs::registry().reset();
    std::vector<double> op_s, read_s, sthosvd_s, save_s, gram_s, evecs_s,
        ttm_s, imbalance;
    std::uint64_t flops = 0, dropped = 0;
    int gemm_threads = 1;
    for (int i = 0; i < reps; ++i) {
      obs::TraceSession::start(kOpTraceCapacity);
      CompressFlow::OpTimes t;
      const bool ok = compress_.checked_op(tally, &t);
      obs::TraceSession::stop();
      if (!ok) continue;
      const SpanSums spans = SpanSums::collect(kRanks);
      dropped += spans.dropped;
      const std::size_t c = argmax(t.sthosvd);
      op_s.push_back(t.total);
      read_s.push_back(t.read[c]);
      sthosvd_s.push_back(t.sthosvd[c]);
      save_s.push_back(t.save[c]);
      gram_s.push_back(spans.at("Gram", c));
      evecs_s.push_back(spans.at("Evecs", c));
      ttm_s.push_back(spans.at("TTM", c));
      imbalance.push_back(max_of(t.sthosvd) / mean_of(t.sthosvd));
      flops += t.flops;
      gemm_threads = t.gemm_threads;
    }
    const auto n = static_cast<double>(std::max<std::size_t>(1, op_s.size()));
    const obs::Snapshot snap = obs::registry().snapshot();

    // Means keep the accounting additive: op = read + sthosvd + save +
    // other, and sthosvd = gram + evecs + ttm + other.
    const double op = mean_of(op_s), read = mean_of(read_s),
                 sth = mean_of(sthosvd_s), save = mean_of(save_s),
                 gram = mean_of(gram_s), evecs = mean_of(evecs_s),
                 ttm = mean_of(ttm_s);
    set_metric(m, "compress.op_s", op);
    set_metric(m, "pario.read_s", read);
    set_metric(m, "pario.read_mb_s",
               static_cast<double>(compress_.input_bytes()) / 1e6 / read);
    set_metric(m, "core.sthosvd_s", sth);
    set_metric(m, "core.save_s", save);
    set_metric(m, "compress.other_s", op - read - sth - save);
    set_metric(m, "dist.gram_s", gram);
    set_metric(m, "dist.evecs_s", evecs);
    set_metric(m, "dist.ttm_s", ttm);
    set_metric(m, "dist.other_s", sth - gram - evecs - ttm);
    set_metric(m, "dist.rank_imbalance", mean_of(imbalance));
    const double op_flops = static_cast<double>(flops) / n;
    const double gflops = op_flops / sth * 1e-9;
    set_metric(m, "blas.flops", op_flops);
    set_metric(m, "blas.gflops", gflops);
    set_metric(m, "blas.pct_peak",
               100.0 * gflops / (peak * kRanks * gemm_threads));
    set_metric(m, "mps.bytes",
               snap_counter(snap, "mps.bytes") / n);
    set_metric(m, "mps.messages",
               snap_counter(snap, "mps.messages") / n);
    set_metric(m, "mps.overlap_us_p50", snap_p50(snap, "mps.overlap_us"));
    set_metric(m, "obs.trace_overhead", median(op_s) / median(untraced));
    m.at("obs.trace_dropped").value += static_cast<double>(dropped);

    // Plain single-threaded baseline of the same operation.
    blas::set_gemm_threads(1);
    ++tally.attempted;
    try {
      const double serial = compress_.op(1).total;
      set_metric(m, "compress.serial_s", serial);
      set_metric(m, "compress.parallel_eff",
                 serial / (kRanks * median(untraced)));
    } catch (const std::exception& e) {
      ++tally.failed;
      std::fprintf(stderr, "ptbench: serial baseline failed: %s\n", e.what());
    }
    blas::reset_gemm_threads();
    rep.fact("gemm_threads_per_rank", static_cast<double>(gemm_threads));
    compress_.gate(tally);
  }

  void trace_stream(Report& rep, double peak) {
    Tally& tally = rep.tally;
    Metrics& m = rep.metrics;
    const int reps = cfg_.smoke ? 1 : 3;
    (void)stream_.checked_pass(tally, nullptr);  // warm-up
    std::vector<double> untraced;
    for (int i = 0; i < reps; ++i) {
      StreamFlow::PassTimes t;
      if (stream_.checked_pass(tally, &t)) untraced.push_back(t.total);
    }

    obs::registry().reset();
    const std::uint64_t flops0 = blas::flop_count();
    std::vector<double> traced;
    std::map<std::string, double> span_s;  // summed over passes
    std::vector<double> compress_rank(kRanks, 0.0);
    std::uint64_t windows = 0, dropped = 0;
    for (int i = 0; i < reps; ++i) {
      obs::TraceSession::start(kOpTraceCapacity);
      StreamFlow::PassTimes t;
      const bool ok = stream_.checked_pass(tally, &t);
      obs::TraceSession::stop();
      if (!ok) continue;
      const SpanSums spans = SpanSums::collect(kRanks);
      dropped += spans.dropped;
      traced.push_back(t.total);
      windows += t.windows;
      const std::size_t c = argmax(t.window_s);
      span_s["window"] += t.window_s[c];
      for (const char* name : {"stream.read", "stream.normalize",
                               "stream.compress", "stream.append", "Gram",
                               "Evecs", "TTM"}) {
        span_s[name] += spans.at(name, c);
      }
      for (std::size_t r = 0; r < kRanks; ++r) {
        compress_rank[r] += spans.at("stream.compress", r);
      }
    }
    const double flops = static_cast<double>(blas::flop_count() - flops0);
    const obs::Snapshot snap = obs::registry().snapshot();
    const double w = static_cast<double>(std::max<std::uint64_t>(1, windows));
    const auto per_window = [&](const char* name) { return span_s[name] / w; };

    const double window = per_window("window"),
                 read = per_window("stream.read"),
                 norm = per_window("stream.normalize"),
                 comp = per_window("stream.compress"),
                 append = per_window("stream.append");
    set_metric(m, "stream.window_ms", 1e3 * window);
    set_metric(m, "stream.read_ms", 1e3 * read);
    set_metric(m, "stream.normalize_ms", 1e3 * norm);
    set_metric(m, "stream.compress_ms", 1e3 * comp);
    set_metric(m, "stream.append_ms", 1e3 * append);
    set_metric(m, "stream.other_ms",
               1e3 * (window - read - norm - comp - append));
    const double gram = per_window("Gram"), evecs = per_window("Evecs"),
                 ttm = per_window("TTM");
    set_metric(m, "core.sthosvd_s", comp);
    set_metric(m, "dist.gram_s", gram);
    set_metric(m, "dist.evecs_s", evecs);
    set_metric(m, "dist.ttm_s", ttm);
    set_metric(m, "dist.other_s", comp - gram - evecs - ttm);
    set_metric(m, "dist.rank_imbalance",
               max_of(compress_rank) / mean_of(compress_rank));
    const double gflops = flops / w / comp * 1e-9;
    set_metric(m, "blas.flops", flops / w);
    set_metric(m, "blas.gflops", gflops);
    set_metric(m, "blas.pct_peak",
               100.0 * gflops / (peak * kRanks * blas::gemm_threads()));
    set_metric(m, "mps.bytes",
               snap_counter(snap, "mps.bytes") / w);
    set_metric(m, "mps.messages",
               snap_counter(snap, "mps.messages") / w);
    set_metric(m, "mps.overlap_us_p50", snap_p50(snap, "mps.overlap_us"));
    set_metric(m, "pario.fsyncs_per_window",
               snap_counter(snap, "pario.fsyncs") / w);
    set_metric(m, "pario.write_bytes_per_window",
               snap_counter(snap, "pario.write_bytes") / w);
    set_metric(m, "obs.trace_overhead", median(traced) / median(untraced));
    m.at("obs.trace_dropped").value += static_cast<double>(dropped);
    rep.fact("gemm_threads_per_rank",
             static_cast<double>(blas::gemm_threads()));
    stream_.gate(tally);
  }

  void trace_serve(Report& rep, double peak) {
    Tally& tally = rep.tally;
    Metrics& m = rep.metrics;
    // Count-bounded loops so the traced one fits the trace ring.
    const std::size_t queries = cfg_.smoke ? 2000 : 40000;
    (void)serve_.loop(1.0, queries / 4, false);  // warm-up
    const LoopResult untraced = serve_.loop(60.0, queries, false);

    obs::registry().reset();
    const std::uint64_t flops0 = blas::flop_count();
    obs::TraceSession::start(kServeTraceCapacity);
    const LoopResult traced = serve_.loop(60.0, queries, true);
    obs::TraceSession::stop();
    const SpanSums spans = SpanSums::collect(1);
    const double flops = static_cast<double>(blas::flop_count() - flops0);
    const obs::Snapshot snap = obs::registry().snapshot();
    for (const LoopResult* r : {&untraced, &traced}) {
      tally.attempted += r->latency_us.size() + r->failed;
      tally.failed += r->failed;
    }

    const double n = static_cast<double>(
        std::max<std::size_t>(1, traced.latency_us.size()));
    const auto per_query_us = [&](const char* name) {
      return spans.total(name) / n * 1e6;
    };
    const double eval = per_query_us("serve.query");
    double stages = 0.0;
    for (const char* name : {"serve.route", "serve.load", "serve.reconstruct",
                             "serve.denormalize", "serve.stitch"}) {
      const double v = per_query_us(name);
      stages += v;
      set_metric(m, std::string(name) + "_us", v);
    }
    set_metric(m, "serve.eval_us", eval);
    set_metric(m, "serve.other_us", eval - stages);
    set_metric(m, "serve.queue_us", mean_of(traced.latency_us) - eval);
    const double lookups =
        snap_counter(snap, "serve.cache.lookups");
    set_metric(m, "serve.cache_hit_rate",
               lookups == 0.0 ? 0.0
                              : snap_counter(snap, "serve.cache.hits") /
                                    lookups);
    set_metric(m, "serve.entries_per_query", lookups / n);
    set_metric(m, "serve.admission_waits",
               snap_counter(snap, "serve.exec.admission_waits"));
    set_metric(m, "pario.read_bytes_per_query",
               snap_counter(snap, "pario.read_bytes") / n);
    const double recon_s = spans.total("serve.reconstruct");
    const double gflops = recon_s > 0.0 ? flops / recon_s * 1e-9 : 0.0;
    set_metric(m, "blas.flops", flops / n);
    set_metric(m, "blas.gflops", gflops);
    set_metric(m, "blas.pct_peak", 100.0 * gflops / peak);
    set_metric(m, "mps.bytes", snap_counter(snap, "mps.bytes") / n);
    set_metric(m, "mps.messages", snap_counter(snap, "mps.messages") / n);
    set_metric(m, "obs.trace_overhead",
               (traced.wall_s / n) /
                   (untraced.wall_s /
                    static_cast<double>(std::max<std::size_t>(
                        1, untraced.latency_us.size()))));
    m.at("obs.trace_dropped").value += static_cast<double>(spans.dropped);
    serve_.gate(traced.samples, tally);
  }

  Config cfg_;
  Plan plan_;
  CompressFlow compress_;
  StreamFlow stream_;
  ServeFlow serve_;
};

// --- output ------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_report(const Report& rep) {
  std::ostringstream os;
  os << "{\"correct\": " << (rep.tally.gates_ok && rep.tally.failed == 0
                                 ? "true"
                                 : "false")
     << ", \"attempted\": " << rep.tally.attempted
     << ", \"failed\": " << rep.tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : rep.metrics) {
    os << (first ? "" : ", ") << "\"" << name
       << "\": {\"value\": " << json_number(metric.value) << ", \"unit\": \""
       << metric.unit << "\"}";
    first = false;
  }
  os << "}, \"facts\": {";
  first = true;
  for (const auto& [name, value] : rep.facts) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

Config parse_args(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      PT_REQUIRE(i + 1 < argc, "missing value for " << a);
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = value();
    } else if (a == "--seed") {
      cfg.seed = std::stoull(value());
    } else if (a == "--seconds") {
      cfg.seconds = std::stod(value());
    } else if (a == "--trace") {
      cfg.trace = value() != "0";
    } else if (a == "--work") {
      cfg.work = value();
    } else if (a == "--smoke") {
      cfg.smoke = true;
    } else {
      PT_REQUIRE(false, "unknown argument " << a);
    }
  }
  PT_REQUIRE(!cfg.workload.empty(), "--workload is required");
  PT_REQUIRE(!cfg.work.empty(), "--work is required");
  PT_REQUIRE(cfg.seconds > 0.0, "--seconds must be positive");
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config cfg = parse_args(argc, argv);
    const Plan plan = make_plan(cfg);
    fs::create_directories(cfg.work);
    Bench bench(cfg, plan);
    Report rep;

    // Set-up several times; report the median (the last one stays).
    const int setups = cfg.smoke || cfg.trace ? 1 : 3;
    std::vector<double> setup_s;
    for (int i = 0; i < setups; ++i) setup_s.push_back(bench.setup());

    if (cfg.trace) {
      bench.trace(rep);
    } else {
      bench.measure(rep);
      rep.metrics["setup_s"] = {median(setup_s), "s"};
    }
    bench.facts(rep);
    rep.fact("workload", cfg.workload);
    rep.fact("seed", static_cast<double>(cfg.seed));
    rep.fact("ranks", static_cast<double>(kRanks));
    print_report(rep);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptbench: %s\n", e.what());
    return 1;
  }
}
