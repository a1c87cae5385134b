#include "serve/query_server.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>

#include "core/reconstruct.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace ptucker::serve {

namespace {

/// Serve-path registry metrics ("serve.*"), resolved once. They are the
/// only record of these events; every server in the process adds to them.
struct ServeMetrics {
  obs::Counter queries;
  obs::Counter submitted;
  obs::Counter completed;
  obs::Counter admission_waits;
  obs::Counter deadline_misses;
  obs::Counter sheds;
  obs::Counter quarantines;
  obs::Gauge queue_depth;
  obs::Gauge peak_queue;
  obs::Histogram query_us;
};

ServeMetrics& serve_metrics() {
  static ServeMetrics* m = [] {
    auto* t = new ServeMetrics;
    t->queries = obs::registry().counter("serve.queries");
    t->submitted = obs::registry().counter("serve.exec.submitted");
    t->completed = obs::registry().counter("serve.exec.completed");
    t->admission_waits = obs::registry().counter("serve.exec.admission_waits");
    t->deadline_misses = obs::registry().counter("serve.deadline_misses");
    t->sheds = obs::registry().counter("serve.exec.sheds");
    t->quarantines = obs::registry().counter("serve.quarantines");
    t->queue_depth = obs::registry().gauge("serve.exec.queue_depth");
    t->peak_queue = obs::registry().gauge("serve.exec.peak_queue");
    t->query_us = obs::registry().histogram("serve.query_us");
    return t;
  }();
  return *m;
}

std::uint64_t us_between(std::chrono::steady_clock::time_point t0,
                         std::chrono::steady_clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
          .count());
}

/// stat result condensed exactly as the TimestepReader stale-file check
/// does (see timestep_reader.cpp): identity + size + mtime.
pario::detail::StepFileSig sig_of(const struct stat& st) {
  return {static_cast<std::uint64_t>(st.st_dev),
          static_cast<std::uint64_t>(st.st_ino),
          static_cast<std::uint64_t>(st.st_size),
          static_cast<std::int64_t>(st.st_mtim.tv_sec),
          static_cast<std::int64_t>(st.st_mtim.tv_nsec)};
}

/// True when \p fresh is \p old with zero or more entries appended: every
/// old entry is unchanged (same window, same blob bytes). Anything else —
/// fewer entries, a moved blob, a re-windowed entry — is a rewrite.
bool entries_extend(const std::vector<pario::ArchiveEntry>& old_entries,
                    const std::vector<pario::ArchiveEntry>& fresh) {
  if (fresh.size() < old_entries.size()) return false;
  for (std::size_t e = 0; e < old_entries.size(); ++e) {
    const pario::ArchiveEntry& o = old_entries[e];
    const pario::ArchiveEntry& n = fresh[e];
    if (o.step_first != n.step_first || o.step_count != n.step_count ||
        o.byte_offset != n.byte_offset || o.byte_count != n.byte_count) {
      return false;
    }
  }
  return true;
}

}  // namespace

QueryServer::QueryServer(std::vector<std::string> archive_paths,
                         ServerOptions options)
    : opts_(options),
      cache_(opts_.cache_capacity, opts_.cache_shards) {
  PT_REQUIRE(!archive_paths.empty(), "QueryServer: no archives given");
  PT_REQUIRE(opts_.executor_threads == 0 || opts_.queue_depth >= 1,
             "QueryServer: queue depth < 1");
  archives_.reserve(archive_paths.size());
  for (std::string& path : archive_paths) {
    auto st = std::make_unique<ArchiveState>();
    st->path = std::move(path);
    // Signature before parse: anything that changes the file after this
    // stat is caught by the next revalidation, never missed.
    struct stat fs {};
    PT_REQUIRE(::stat(st->path.c_str(), &fs) == 0,
               "QueryServer: cannot stat " << st->path);
    st->sig = sig_of(fs);
    st->reader = std::make_shared<const pario::ArchiveReader>(st->path);
    archives_.push_back(std::move(st));
  }
  workers_.reserve(opts_.executor_threads);
  for (std::size_t i = 0; i < opts_.executor_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

QueryServer::~QueryServer() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

QueryServer::Snapshot QueryServer::snapshot(std::size_t a) const {
  PT_REQUIRE(a < archives_.size(),
             "serve: archive " << a << " out of range");
  ArchiveState& st = *archives_[a];
  if (!opts_.revalidate) {
    std::lock_guard<std::mutex> lock(st.mutex);
    return {st.reader, st.generation};
  }
  // Stat outside the lock so concurrent queries on the same (unchanged)
  // archive are not serialized behind each other's metadata round-trip.
  struct stat fs {};
  PT_REQUIRE(::stat(st.path.c_str(), &fs) == 0,
             "serve: cannot stat " << st.path);
  const pario::detail::StepFileSig sig = sig_of(fs);
  std::lock_guard<std::mutex> lock(st.mutex);
  if (sig == st.sig) return {st.reader, st.generation};
  // The file changed since the current reader parsed it. Re-open, then
  // decide: a pure append (same inode, grown, every old entry intact) is
  // adopted in place with the cached panels kept — their keys still name
  // the same bytes; anything else is a rewrite, so the generation is
  // bumped and the archive's panels dropped (stale models must never
  // serve). An unchanged-size mtime bump cannot be told apart from an
  // in-place payload rewrite, so it conservatively counts as a rewrite.
  auto fresh = std::make_shared<const pario::ArchiveReader>(st.path);
  PT_REQUIRE(fresh->step_dims() == st.reader->step_dims(),
             "serve: " << st.path
                       << " step dims changed under the server");
  const bool append = sig.dev == st.sig.dev && sig.ino == st.sig.ino &&
                      sig.size > st.sig.size &&
                      entries_extend(st.reader->entries(), fresh->entries());
  if (!append) {
    ++st.generation;
    cache_.erase_archive(a);
    // A rewrite may have replaced the bytes an entry was quarantined for;
    // lift the quarantines and let the next touch re-judge each entry.
    st.poisoned.clear();
  }
  st.reader = std::move(fresh);
  st.sig = sig;
  return {st.reader, st.generation};
}

tensor::Dims QueryServer::step_dims(std::size_t a) const {
  PT_REQUIRE(a < archives_.size(),
             "serve: archive " << a << " out of range");
  // Step dims are an archive invariant (snapshot() rejects a file whose
  // dims changed), so no revalidation round-trip is needed here.
  std::lock_guard<std::mutex> lock(archives_[a]->mutex);
  return archives_[a]->reader->step_dims();
}

std::uint64_t QueryServer::num_steps(std::size_t a) const {
  return snapshot(a).reader->step_end();
}

std::uint64_t QueryServer::generation(std::size_t a) const {
  return snapshot(a).generation;
}

tensor::Tensor QueryServer::evaluate(
    const Request& req, std::chrono::steady_clock::time_point anchor) const {
  using clock = std::chrono::steady_clock;
  const clock::time_point t_begin = clock::now();
  obs::Span span_query("serve.query");

  // Deadline checkpoints sit between stages (never mid-read), so an answer
  // is either complete or DeadlineExceeded — no partial results. The anchor
  // is submit() time for executor queries: a query that starved in the
  // queue fails fast instead of occupying a worker past its deadline.
  const std::uint64_t ddl_ms = req.deadline_ms;
  const clock::time_point ddl = anchor + std::chrono::milliseconds(ddl_ms);
  const auto check_deadline = [&](const char* stage) {
    if (ddl_ms == 0) return;
    const clock::time_point now = clock::now();
    if (now < ddl) return;
    serve_metrics().deadline_misses.inc();
    std::ostringstream os;
    os << "serve: deadline of " << ddl_ms << " ms exceeded at stage '"
       << stage << "' (" << us_between(anchor, now)
       << " us since submission)";
    throw DeadlineExceeded(os.str());
  };
  check_deadline("admit");

  const Snapshot snap = snapshot(req.archive);
  const pario::ArchiveReader& ar = *snap.reader;
  const tensor::Dims& sdims = ar.step_dims();
  const std::size_t sorder = sdims.size();

  std::vector<util::Range> box = req.box;
  std::vector<std::size_t> hits;
  {
    obs::Span span_route("serve.route");
    if (box.empty()) {
      box.resize(sorder);
      for (std::size_t n = 0; n < sorder; ++n) box[n] = {0, sdims[n]};
    }
    PT_REQUIRE(box.size() == sorder,
               "serve: " << box.size() << " box ranges for a step order of "
                         << sorder);
    for (std::size_t n = 0; n < sorder; ++n) {
      PT_REQUIRE(box[n].lo < box[n].hi && box[n].hi <= sdims[n],
                 "serve: box range [" << box[n].lo << ", " << box[n].hi
                                      << ") out of bounds in mode " << n
                                      << " (extent " << sdims[n] << ")");
    }
    // covering validates the step range (non-empty, within the archive).
    hits = ar.covering(req.step_lo, req.step_hi);
  }

  tensor::Dims out_dims(sorder + 1);
  for (std::size_t n = 0; n < sorder; ++n) out_dims[n] = box[n].size();
  out_dims[sorder] = req.step_hi - req.step_lo;
  tensor::Tensor out(out_dims);
  std::size_t slab = 1;  // elements of one time slice of the answer
  for (std::size_t n = 0; n < sorder; ++n) slab *= box[n].size();

  for (std::size_t e : hits) {
    obs::Span span_entry("serve.entry", static_cast<std::int64_t>(e));
    check_deadline("entry");
    {
      // Quarantine gate: an entry whose load already failed poisons only
      // itself — queries touching it fail fast with the original failure
      // named, and every other entry keeps serving.
      ArchiveState& ast = *archives_[req.archive];
      std::lock_guard<std::mutex> lock(ast.mutex);
      const auto poison = ast.poisoned.find(e);
      if (poison != ast.poisoned.end()) {
        throw QuarantinedError("serve: entry " + std::to_string(e) + " of " +
                               ast.path +
                               " is quarantined after a failed load: " +
                               poison->second);
      }
    }
    const PanelKey key{req.archive, snap.generation, e};
    std::shared_ptr<const EntryPanels> panels;
    try {
      panels = cache_.get_or_load(
          key, [&]() -> std::shared_ptr<const EntryPanels> {
            obs::Span span_load("serve.load", static_cast<std::int64_t>(e));
            pario::LocalModelData md = ar.read_entry_local(e);
            auto p = std::make_shared<EntryPanels>();
            p->step_first = ar.entry(e).step_first;
            p->step_count = ar.entry(e).step_count;
            p->core = std::move(md.core);
            p->factors = std::move(md.factors);
            p->has_stats = md.has_stats;
            p->stats = std::move(md.stats);
            return p;
          });
    } catch (const Error& err) {
      // The entry's bytes are bad (checksum mismatch, I/O giveup,
      // malformed blob): quarantine it so later queries fail fast instead
      // of re-reading known-bad data. Deadline misses never land here —
      // check_deadline only fires outside the loader.
      ArchiveState& ast = *archives_[req.archive];
      bool fresh = false;
      {
        std::lock_guard<std::mutex> lock(ast.mutex);
        fresh = ast.poisoned.emplace(e, err.what()).second;
      }
      if (fresh) serve_metrics().quarantines.inc();
      throw;
    }
    check_deadline("load");
    // This entry's share of the answer: the requested box, restricted in
    // time to the overlap of [step_lo, step_hi) with the entry's window.
    const std::uint64_t glo = std::max(req.step_lo, panels->step_first);
    const std::uint64_t ghi = std::min(
        req.step_hi, panels->step_first + panels->step_count);
    std::vector<util::Range> ranges = box;
    ranges.push_back({static_cast<std::size_t>(glo - panels->step_first),
                      static_cast<std::size_t>(ghi - panels->step_first)});
    tensor::Tensor part;
    {
      obs::Span span_recon("serve.reconstruct",
                           static_cast<std::int64_t>(e));
      part = core::reconstruct_range_local(
          panels->core,
          std::span<const tensor::Matrix>(panels->factors), ranges);
    }
    if (panels->has_stats && opts_.denormalize) {
      obs::Span span_denorm("serve.denormalize",
                            static_cast<std::int64_t>(e));
      PT_REQUIRE(panels->stats.species_mode >= 0 &&
                     panels->stats.species_mode < static_cast<int>(sorder),
               "serve: archived stats name a non-spatial species mode");
      data::denormalize_species_range_seq(
          part, panels->stats,
          box[static_cast<std::size_t>(panels->stats.species_mode)].lo);
    }
    {
      obs::Span span_stitch("serve.stitch", static_cast<std::int64_t>(e));
      // Stitch along time (last, slowest mode): this entry's share is one
      // contiguous slab of the answer — a pure memcpy, as
      // reconstruct_steps.
      PT_CHECK(part.size() == slab * (ghi - glo),
               "serve: stitch slab size mismatch");
      std::memcpy(out.data() + (glo - req.step_lo) * slab, part.data(),
                  part.size() * sizeof(double));
    }
  }
  serve_metrics().queries.inc();
  serve_metrics().query_us.record(us_between(t_begin, clock::now()));
  return out;
}

tensor::Tensor QueryServer::subtensor(const Request& req) const {
  return evaluate(req);
}

std::future<tensor::Tensor> QueryServer::submit(Request req) const {
  std::promise<tensor::Tensor> promise;
  std::future<tensor::Tensor> fut = promise.get_future();
  if (workers_.empty()) {
    // executor_threads == 0: evaluate on the submitting thread; the
    // returned future is already satisfied.
    serve_metrics().submitted.inc();
    try {
      promise.set_value(evaluate(req));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
    serve_metrics().completed.inc();
    return fut;
  }
  std::unique_lock<std::mutex> lock(queue_mutex_);
  PT_REQUIRE(!stopping_, "serve: submit on a stopped server");
  if (queue_.size() >= opts_.queue_depth) {
    if (opts_.shed_on_overload) {
      // Load shedding: reject now so the client can back off or retry
      // elsewhere — overload degrades to an explicit error, not latency.
      serve_metrics().sheds.inc();
      throw Overloaded(
          "serve: admission queue full (" +
          std::to_string(opts_.queue_depth) +
          " queued), query shed — back off and retry, raise queue_depth, "
          "or disable shed_on_overload");
    }
    // Admission control: a full queue blocks the client instead of
    // growing the queue — overload degrades to latency, not memory.
    serve_metrics().admission_waits.inc();
    obs::Span span_wait("serve.admission_wait");
    queue_not_full_.wait(lock, [&] {
      return queue_.size() < opts_.queue_depth || stopping_;
    });
    PT_REQUIRE(!stopping_, "serve: submit on a stopped server");
  }
  queue_.push_back(Job{std::move(req), std::move(promise),
                       std::chrono::steady_clock::now()});
  serve_metrics().submitted.inc();
  serve_metrics().queue_depth.set(
      static_cast<std::int64_t>(queue_.size()));
  serve_metrics().peak_queue.record_peak(
      static_cast<std::int64_t>(queue_.size()));
  lock.unlock();
  queue_not_empty_.notify_one();
  return fut;
}

void QueryServer::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_not_empty_.wait(lock,
                            [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;  // stopping, and the queue has drained
      job = std::move(queue_.front());
      queue_.pop_front();
      serve_metrics().queue_depth.set(
          static_cast<std::int64_t>(queue_.size()));
    }
    queue_not_full_.notify_one();
    // Count completion BEFORE resolving the future, so a client that has
    // seen every future resolve also sees completed == submitted.
    try {
      tensor::Tensor result = evaluate(job.req, job.enqueued);
      serve_metrics().completed.inc();
      job.promise.set_value(std::move(result));
    } catch (...) {
      // A malformed request (bad box, uncovered range) surfaces on the
      // client's future; the worker keeps serving.
      serve_metrics().completed.inc();
      job.promise.set_exception(std::current_exception());
    }
  }
}

double QueryServer::element(std::size_t a, std::uint64_t step,
                            std::span<const std::size_t> idx) const {
  const tensor::Dims sdims = step_dims(a);
  PT_REQUIRE(idx.size() == sdims.size(),
             "serve: element index arity " << idx.size()
                                           << " != step order "
                                           << sdims.size());
  Request req;
  req.archive = a;
  req.step_lo = step;
  req.step_hi = step + 1;
  req.box.resize(sdims.size());
  for (std::size_t n = 0; n < sdims.size(); ++n) {
    PT_REQUIRE(idx[n] < sdims[n],
               "serve: element index out of bounds in mode " << n);
    req.box[n] = {idx[n], idx[n] + 1};
  }
  return evaluate(req)[0];
}

std::vector<double> QueryServer::fiber(
    std::size_t a, std::uint64_t step, int mode,
    std::span<const std::size_t> idx) const {
  const tensor::Dims sdims = step_dims(a);
  const int sorder = static_cast<int>(sdims.size());
  PT_REQUIRE(mode >= 0 && mode <= sorder,
             "serve: fiber mode " << mode << " out of range (time mode is "
                                  << sorder << ")");
  PT_REQUIRE(idx.size() == sdims.size(),
             "serve: fiber index arity " << idx.size() << " != step order "
                                         << sdims.size());
  Request req;
  req.archive = a;
  req.box.resize(sdims.size());
  for (int n = 0; n < sorder; ++n) {
    const auto un = static_cast<std::size_t>(n);
    if (n == mode) {
      req.box[un] = {0, sdims[un]};
    } else {
      PT_REQUIRE(idx[un] < sdims[un],
                 "serve: fiber index out of bounds in mode " << n);
      req.box[un] = {idx[un], idx[un] + 1};
    }
  }
  if (mode == sorder) {
    // Time fiber: all archived steps, spanning window boundaries.
    req.step_lo = 0;
    req.step_hi = num_steps(a);
  } else {
    req.step_lo = step;
    req.step_hi = step + 1;
  }
  const tensor::Tensor t = evaluate(req);
  return {t.data(), t.data() + t.size()};
}

tensor::Tensor QueryServer::time_range(std::size_t a, std::uint64_t lo,
                                       std::uint64_t hi) const {
  Request req;
  req.archive = a;
  req.step_lo = lo;
  req.step_hi = hi;
  return evaluate(req);
}

std::size_t QueryServer::queue_size() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

std::size_t QueryServer::quarantined_entries() const {
  std::size_t n = 0;
  for (const std::unique_ptr<ArchiveState>& st : archives_) {
    std::lock_guard<std::mutex> lock(st->mutex);
    n += st->poisoned.size();
  }
  return n;
}

std::string QueryServer::stats_report() const {
  std::ostringstream os;
  os << "server.archives " << archives_.size() << "\n"
     << "server.cache.resident " << cache_.size() << "\n"
     << "server.cache.capacity " << cache_.capacity() << "\n"
     << "server.exec.queue_size " << queue_size() << "\n"
     << "server.quarantined " << quarantined_entries() << "\n"
     << obs::registry().snapshot().to_text();
  return os.str();
}

std::string QueryServer::stats_json() const {
  std::ostringstream os;
  os << "{\"server\":{\"archives\":" << archives_.size()
     << ",\"cache\":{\"resident\":" << cache_.size()
     << ",\"capacity\":" << cache_.capacity()
     << "},\"executor\":{\"queue_size\":" << queue_size()
     << "},\"quarantined\":" << quarantined_entries()
     << "},\"registry\":" << obs::registry().snapshot().to_json() << "}";
  return os.str();
}

}  // namespace ptucker::serve
