/// \file serve_qps.cpp
/// \brief Query-serving throughput/latency over a PTA1 archive: N client
/// threads issue small subtensor queries against serve::QueryServer and we
/// report per-query latency percentiles (p50/p90/p99), sustained QPS, and
/// the panel-cache hit rate — cold (capacity-1 cache, every query reloads
/// its entry from disk) vs warm (all panels resident after a warm-up pass).
/// A final block drives the same workload through the bounded executor
/// (submit + future) to show admission behaviour under overload.
///
/// --smoke asserts the correctness invariant instead of timing: every warm
/// answer must be bit-identical to the cold answer for the same query (the
/// cache must never change bytes), and the warm pass must actually hit.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>

#include "bench_common.hpp"
#include "core/st_hosvd.hpp"
#include "dist/grid.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pario/archive_io.hpp"
#include "serve/query_server.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace ptucker;

namespace {

using Clock = std::chrono::steady_clock;

/// Exact nearest-rank percentile of the sorted sample: the k-th smallest,
/// k = ceil(p/100 * n). Kept as the oracle the shared obs histogram is
/// checked against — same rank rule, so the exact value must fall inside
/// the histogram's reported bucket.
std::uint64_t exact_percentile(const std::vector<std::uint64_t>& sorted_us,
                               double p) {
  if (sorted_us.empty()) return 0;
  const auto n = static_cast<double>(sorted_us.size());
  auto rank = static_cast<std::size_t>(p / 100.0 * n + 0.9999999999);
  rank = std::max<std::size_t>(rank, 1);
  rank = std::min(rank, sorted_us.size());
  return sorted_us[rank - 1];
}

/// Deterministic single-step queries, round-robin over the archive entries
/// so a capacity-1 cache is evicted on every consecutive query.
std::vector<serve::Request> make_queries(const tensor::Dims& step_dims,
                                         std::size_t windows,
                                         std::size_t window, std::size_t count,
                                         std::size_t box_extent,
                                         std::uint64_t deadline_ms) {
  std::vector<serve::Request> qs;
  qs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t w = i % windows;
    const std::uint64_t step =
        w * window + util::splitmix64(2 * i) % window;
    serve::Request req;
    req.archive = 0;
    req.step_lo = step;
    req.step_hi = step + 1;
    req.deadline_ms = deadline_ms;
    req.box.resize(step_dims.size());
    for (std::size_t n = 0; n < step_dims.size(); ++n) {
      const std::size_t extent = std::min(box_extent, step_dims[n]);
      const std::size_t lo =
          util::splitmix64(util::splitmix64(i) + n) %
          (step_dims[n] - extent + 1);
      req.box[n] = util::Range{lo, lo + extent};
    }
    qs.push_back(std::move(req));
  }
  return qs;
}

struct ScenarioResult {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double qps = 0.0;
  double hit_rate = 0.0;
  std::size_t sheds = 0;            ///< queries rejected with Overloaded
  std::size_t deadline_misses = 0;  ///< queries lost to DeadlineExceeded
};

/// Run every query once across \p clients threads against \p server,
/// recording per-query latency. Answers are folded into \p checksum so the
/// reconstruction cannot be optimized away (and smoke can store them).
ScenarioResult run_clients(const serve::QueryServer& server,
                           const std::vector<serve::Request>& qs,
                           std::size_t clients, bool via_executor,
                           std::vector<tensor::Tensor>* answers_out = nullptr) {
  obs::Counter lookups = obs::registry().counter("serve.cache.lookups");
  obs::Counter hits = obs::registry().counter("serve.cache.hits");
  const std::uint64_t lookups0 = lookups.value();
  const std::uint64_t hits0 = hits.value();
  // Latencies go to the shared obs histogram (the same digest the server
  // exports for serve.query_us) AND to an exact per-thread list used to
  // cross-check the histogram's log-bucketed percentiles below.
  auto hist = std::make_unique<obs::HistogramData>();
  std::vector<std::vector<std::uint64_t>> lat(clients);
  if (answers_out) answers_out->assign(qs.size(), tensor::Tensor{});
  std::atomic<double> checksum{0.0};
  std::atomic<std::size_t> sheds{0};
  std::atomic<std::size_t> deadline_misses{0};

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Contiguous chunk per client: each thread walks the entry
      // round-robin in order, so the cold capacity-1 cache is evicted on
      // every consecutive query regardless of the client count.
      const std::size_t lo = c * qs.size() / clients;
      const std::size_t hi = (c + 1) * qs.size() / clients;
      double local = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        const auto q0 = Clock::now();
        tensor::Tensor ans;
        try {
          ans = via_executor ? server.submit(qs[i]).get()
                             : server.subtensor(qs[i]);
        } catch (const Overloaded&) {
          // Shed at admission (shed_on_overload): the client's cue to back
          // off. No latency sample — the query never ran.
          ++sheds;
          continue;
        } catch (const DeadlineExceeded&) {
          ++deadline_misses;
          continue;
        }
        const auto q1 = Clock::now();
        const auto us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(q1 - q0)
                .count());
        hist->record(us);
        lat[c].push_back(us);
        local += ans.data()[0];
        if (answers_out) (*answers_out)[i] = std::move(ans);
      }
      double expect = checksum.load();
      while (!checksum.compare_exchange_weak(expect, expect + local)) {
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<std::uint64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  // The histogram is exact to the bucket (~12.5% relative): the true
  // nearest-rank sample must lie inside the bucket each percentile names.
  // (With every query shed there is no sample to check.)
  if (!all.empty()) {
    for (const double p : {50.0, 90.0, 99.0}) {
      const obs::HistogramData::Bounds b = hist->percentile_bounds(p);
      const std::uint64_t exact = exact_percentile(all, p);
      if (exact < b.lo || exact >= b.hi) {
        std::fprintf(stderr,
                     "serve_qps: histogram p%.0f bucket [%llu, %llu) does "
                     "not contain the exact percentile %llu\n",
                     p, static_cast<unsigned long long>(b.lo),
                     static_cast<unsigned long long>(b.hi),
                     static_cast<unsigned long long>(exact));
        std::exit(1);
      }
    }
  }

  const std::uint64_t scenario_lookups = lookups.value() - lookups0;
  ScenarioResult r;
  r.p50_us = static_cast<double>(hist->percentile(50));
  r.p90_us = static_cast<double>(hist->percentile(90));
  r.p99_us = static_cast<double>(hist->percentile(99));
  r.qps = static_cast<double>(all.size()) / wall;  // completed queries only
  r.hit_rate = scenario_lookups == 0
                   ? 0.0
                   : static_cast<double>(hits.value() - hits0) /
                         static_cast<double>(scenario_lookups);
  r.sheds = sheds.load();
  r.deadline_misses = deadline_misses.load();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("serve_qps",
                       "concurrent query serving over a PTA1 archive");
  args.add_int("dim", 32, "spatial extent (dim x dim x species steps)");
  args.add_int("species", 8, "number of species");
  args.add_int("windows", 6, "number of window models in the archive");
  args.add_int("window", 4, "timesteps per window");
  args.add_int("ranks", 2, "number of (thread) ranks for archive build");
  args.add_int("queries", 400, "queries per scenario");
  args.add_int("box", 2, "spatial box extent per mode of each query");
  args.add_int("max_clients", 8, "sweep client counts 1,2,4,...,max_clients");
  args.add_int("cache", 16, "warm-scenario panel-cache capacity");
  args.add_int("shards", 4, "warm-scenario cache shards");
  args.add_int("queue_depth", 8, "executor admission-queue depth");
  args.add_double("eps", 1e-4, "per-window compression eps");
  args.add_int("deadline_ms", 0, "per-query deadline in ms (0 = unbounded)");
  args.add_flag("shed",
                "executor scenario sheds on overload (Overloaded) instead "
                "of blocking submit()");
  args.add_flag("smoke", "assert warm answers bit-match cold, then exit");
  args.add_string("trace", "",
                  "write a chrome://tracing JSON of the run to this path");
  args.parse(argc, argv);

  const std::string trace_path = args.get_string("trace");
  if (!trace_path.empty()) obs::TraceSession::start(1 << 20);
  auto finish_trace = [&] {
    if (trace_path.empty()) return;
    obs::TraceSession::stop();
    obs::TraceSession::write_chrome_json(trace_path);
    std::printf("trace: %llu events -> %s (%llu dropped)\n",
                static_cast<unsigned long long>(
                    obs::TraceSession::events().size()),
                trace_path.c_str(),
                static_cast<unsigned long long>(obs::TraceSession::dropped()));
  };

  const std::size_t dim = static_cast<std::size_t>(args.get_int("dim"));
  const std::size_t species =
      static_cast<std::size_t>(args.get_int("species"));
  const std::size_t windows =
      static_cast<std::size_t>(args.get_int("windows"));
  const std::size_t window = static_cast<std::size_t>(args.get_int("window"));
  const int p = static_cast<int>(args.get_int("ranks"));
  const std::size_t queries =
      static_cast<std::size_t>(args.get_int("queries"));
  const tensor::Dims step_dims{dim, dim, species};

  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "ptucker_serve_qps").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string archive = dir + "/run.pta";

  bench::header("Serve QPS: concurrent reconstruction queries",
                std::to_string(windows) + " windows of " +
                    std::to_string(window) + " steps of " +
                    bench::dims_name(step_dims));

  // Build the archive once: a drifting smooth field, one Tucker model per
  // window, appended to a single PTA1 container.
  mps::Runtime rt(p);
  rt.run([&](mps::Comm& comm) {
    std::vector<int> shape = dist::default_grid_shape(p, step_dims);
    shape.push_back(1);
    auto grid = dist::make_grid(comm, shape);
    pario::archive_create(archive, comm, step_dims, /*species_mode=*/-1);
    for (std::size_t w = 0; w < windows; ++w) {
      tensor::Dims dims = step_dims;
      dims.push_back(window);
      dist::DistTensor x(grid, dims);
      x.fill_global([&](std::span<const std::size_t> idx) {
        double v = 0.4;
        for (std::size_t i = 0; i < idx.size(); ++i) {
          v += std::sin(0.17 * static_cast<double>(idx[i] + 5 * i) +
                        0.3 * static_cast<double>(w));
        }
        return v;
      });
      core::SthosvdOptions opts;
      opts.epsilon = args.get_double("eps");
      core::TuckerTensor model = core::st_hosvd(x, opts).tucker;
      pario::archive_append_model(
          archive, w * window, opts.epsilon, model.core,
          std::span<const tensor::Matrix>(model.factors));
    }
  });

  const std::vector<serve::Request> qs = make_queries(
      step_dims, windows, window, queries,
      static_cast<std::size_t>(args.get_int("box")),
      static_cast<std::uint64_t>(args.get_int("deadline_ms")));

  serve::ServerOptions cold_opts;
  cold_opts.cache_capacity = 1;  // entry round-robin -> every query reloads
  cold_opts.cache_shards = 1;
  cold_opts.executor_threads = 0;
  cold_opts.revalidate = false;
  serve::ServerOptions warm_opts;
  warm_opts.cache_capacity = static_cast<std::size_t>(args.get_int("cache"));
  warm_opts.cache_shards = static_cast<std::size_t>(args.get_int("shards"));
  warm_opts.executor_threads = 0;
  warm_opts.revalidate = false;

  if (args.get_flag("smoke")) {
    // Correctness, not timing: the cache must never change answer bytes.
    serve::QueryServer cold({archive}, cold_opts);
    std::vector<tensor::Tensor> cold_ans;
    const ScenarioResult rc = run_clients(cold, qs, 1, false, &cold_ans);

    serve::ServerOptions smoke_warm = warm_opts;
    smoke_warm.executor_threads = 4;
    smoke_warm.queue_depth =
        static_cast<std::size_t>(args.get_int("queue_depth"));
    serve::QueryServer warm({archive}, smoke_warm);
    for (std::size_t w = 0; w < windows; ++w) {  // warm-up pass
      (void)warm.time_range(0, w * window, w * window + 1);
    }
    std::vector<tensor::Tensor> warm_ans;
    const ScenarioResult rw = run_clients(warm, qs, 4, true, &warm_ans);

    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < qs.size(); ++i) {
      if (cold_ans[i].size() != warm_ans[i].size() ||
          std::memcmp(cold_ans[i].data(), warm_ans[i].data(),
                      cold_ans[i].size() * sizeof(double)) != 0) {
        ++mismatches;
      }
    }
    std::printf("smoke: %zu queries, %zu mismatches, warm hit rate %.2f\n",
                qs.size(), mismatches, rw.hit_rate);
    std::printf("smoke: cold p99 %.1f us, warm p99 %.1f us\n", rc.p99_us,
                rw.p99_us);
    // Exercise the live-introspection path: the unified registry must see
    // the serve-layer counters this run just generated.
    const obs::Snapshot snap = obs::registry().snapshot("serve.");
    std::printf("smoke: registry serve.queries %llu, serve.cache.hits %llu\n",
                static_cast<unsigned long long>(
                    snap.counters.count("serve.queries")
                        ? snap.counters.at("serve.queries") : 0),
                static_cast<unsigned long long>(
                    snap.counters.count("serve.cache.hits")
                        ? snap.counters.at("serve.cache.hits") : 0));
    finish_trace();
    fs::remove_all(dir);
    if (mismatches != 0 || rw.hit_rate <= 0.5) {
      std::fprintf(stderr, "serve smoke FAILED\n");
      return 1;
    }
    if (!snap.counters.count("serve.queries") ||
        snap.counters.at("serve.queries") < qs.size()) {
      std::fprintf(stderr, "serve smoke FAILED: registry missed queries\n");
      return 1;
    }
    std::printf("serve smoke ok: warm answers bit-match cold\n");
    return 0;
  }

  util::Table table({"clients", "cache", "p50(us)", "p90(us)", "p99(us)",
                     "qps", "hit%", "ddl_miss", "shed"});
  const std::size_t max_clients =
      static_cast<std::size_t>(args.get_int("max_clients"));
  for (std::size_t clients = 1; clients <= max_clients; clients *= 2) {
    {
      serve::QueryServer server({archive}, cold_opts);
      const ScenarioResult r = run_clients(server, qs, clients, false);
      table.add_row({std::to_string(clients), "cold",
                     util::Table::fmt(r.p50_us, 1),
                     util::Table::fmt(r.p90_us, 1),
                     util::Table::fmt(r.p99_us, 1), util::Table::fmt(r.qps, 0),
                     util::Table::fmt(100.0 * r.hit_rate, 1),
                     std::to_string(r.deadline_misses),
                     std::to_string(r.sheds)});
    }
    {
      serve::QueryServer server({archive}, warm_opts);
      for (std::size_t w = 0; w < windows; ++w) {  // warm-up pass
        (void)server.time_range(0, w * window, w * window + 1);
      }
      const ScenarioResult r = run_clients(server, qs, clients, false);
      table.add_row({std::to_string(clients), "warm",
                     util::Table::fmt(r.p50_us, 1),
                     util::Table::fmt(r.p90_us, 1),
                     util::Table::fmt(r.p99_us, 1), util::Table::fmt(r.qps, 0),
                     util::Table::fmt(100.0 * r.hit_rate, 1),
                     std::to_string(r.deadline_misses),
                     std::to_string(r.sheds)});
    }
  }
  std::printf("%s", table.str().c_str());

  // Executor path: same warm workload through submit() with a deliberately
  // shallow admission queue, so overload shows up as admission_waits
  // (blocked submitters), never as unbounded queue growth.
  serve::ServerOptions exec_opts = warm_opts;
  exec_opts.executor_threads = 4;
  exec_opts.queue_depth =
      static_cast<std::size_t>(args.get_int("queue_depth"));
  exec_opts.shed_on_overload = args.get_flag("shed");
  serve::QueryServer server({archive}, exec_opts);
  for (std::size_t w = 0; w < windows; ++w) {
    (void)server.time_range(0, w * window, w * window + 1);
  }
  // Executor counts are registry deltas over this run; the peak-queue gauge
  // is a process-wide high-water mark, and this is the first run here
  // that submits.
  obs::Counter waits = obs::registry().counter("serve.exec.admission_waits");
  obs::Counter submitted = obs::registry().counter("serve.exec.submitted");
  const std::uint64_t waits0 = waits.value();
  const std::uint64_t submitted0 = submitted.value();
  const ScenarioResult r = run_clients(server, qs, max_clients, true);
  std::printf(
      "executor (%zu clients -> 4 workers, queue %zu%s): p50 %.1f us, "
      "p99 %.1f us, %0.f qps, %llu/%llu submits blocked, peak queue %lld, "
      "%zu shed, %zu deadline misses\n",
      max_clients, exec_opts.queue_depth,
      exec_opts.shed_on_overload ? ", shedding" : "", r.p50_us, r.p99_us,
      r.qps, static_cast<unsigned long long>(waits.value() - waits0),
      static_cast<unsigned long long>(submitted.value() - submitted0),
      static_cast<long long>(
          obs::registry().gauge("serve.exec.peak_queue").value()),
      r.sheds, r.deadline_misses);

  bench::paper_note(
      "the paper's analysis workflow reconstructs only the requested "
      "subdomain from the Tucker factors; serving that as a query API makes "
      "the decompressed-panel working set the knob — a warm panel cache "
      "answers from memory at microsecond latency while a cold one pays one "
      "entry load per query, and the bounded executor turns overload into "
      "queueing instead of memory growth.");

  finish_trace();
  fs::remove_all(dir);
  return 0;
}
