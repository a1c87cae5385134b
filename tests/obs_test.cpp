/// \file obs_test.cpp
/// \brief The observability layer: registry counters/gauges/histograms
/// under thread hammering, histogram bucket math against exact sorted
/// percentiles, and the bounded trace ring with its chrome://tracing
/// export. Everything here observes only — the determinism suites check
/// separately that results are bit-identical with tracing on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace ptucker {
namespace {

/// Nearest-rank percentile over a sorted sample: value at rank
/// ceil(p/100 * n), 1-based. The oracle the bucketed histogram must hit
/// within one bucket.
std::uint64_t exact_percentile(const std::vector<std::uint64_t>& sorted,
                               double p) {
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

TEST(Registry, CountersAccumulateAndShareCellsByName) {
  obs::Counter a = obs::registry().counter("test.shared");
  obs::Counter b = obs::registry().counter("test.shared");
  const std::uint64_t before = a.value();
  a.inc();
  b.add(4);
  EXPECT_EQ(a.value(), before + 5);
  EXPECT_EQ(b.value(), a.value());
}

TEST(Registry, GaugeSetAddAndPeak) {
  obs::Gauge g = obs::registry().gauge("test.gauge");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  obs::Gauge peak = obs::registry().gauge("test.gauge_peak");
  peak.record_peak(5);
  peak.record_peak(3);  // not a new high
  peak.record_peak(9);
  EXPECT_EQ(peak.value(), 9);
}

TEST(Registry, SnapshotFiltersByPrefixAndSerializes) {
  obs::registry().counter("snapprefix.one").add(1);
  obs::registry().counter("snapprefix.two").add(2);
  obs::registry().counter("othersnap.three").add(3);
  const obs::Snapshot snap = obs::registry().snapshot("snapprefix.");
  EXPECT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.at("snapprefix.one"), 1u);
  EXPECT_EQ(snap.counters.count("othersnap.three"), 0u);
  const std::string text = obs::registry().snapshot().to_text();
  EXPECT_NE(text.find("snapprefix.one 1"), std::string::npos);
  const std::string json = obs::registry().snapshot().to_json();
  EXPECT_NE(json.find("\"snapprefix.two\":2"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
}

TEST(Registry, ResetZeroesButKeepsHandlesValid) {
  obs::Counter c = obs::registry().counter("test.reset_me");
  c.add(42);
  obs::registry().reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();  // the handle still points at a live cell
  EXPECT_EQ(c.value(), 1u);
}

TEST(Registry, ConcurrentUpdatesAndSnapshotsAreConsistent) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  obs::Counter c = obs::registry().counter("test.hammer.counter");
  obs::Histogram h = obs::registry().histogram("test.hammer.hist");
  const std::uint64_t c0 = c.value();

  std::atomic<bool> stop{false};
  // A reader snapshotting concurrently with the writers: every observed
  // value must be monotone and <= the final total (and TSan must be quiet).
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::Snapshot s = obs::registry().snapshot("test.hammer.");
      const auto it = s.counters.find("test.hammer.counter");
      if (it != s.counters.end()) {
        EXPECT_GE(it->second, last);
        last = it->second;
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // Each thread also registers a name of its own: registration (mutex)
      // and updates (relaxed atomics) must interleave safely.
      obs::Counter mine = obs::registry().counter(
          "test.hammer.t" + std::to_string(t));
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        mine.inc();
        h.record(i & 1023);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(c.value(), c0 + kThreads * kPerThread);
  EXPECT_EQ(h.data()->count(), std::uint64_t{kThreads} * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(obs::registry()
                  .counter("test.hammer.t" + std::to_string(t))
                  .value(),
              kPerThread);
  }
}

TEST(HistogramBuckets, PartitionTheValueRange) {
  // Buckets tile [0, 2^64): every bucket's hi is the next bucket's lo, and
  // bucket_of(v) lands v inside [lo, hi).
  for (int b = 0; b + 1 < obs::HistogramData::kBuckets; ++b) {
    EXPECT_EQ(obs::HistogramData::bucket_hi(b),
              obs::HistogramData::bucket_lo(b + 1))
        << "gap after bucket " << b;
  }
  util::Rng rng(99);
  std::vector<std::uint64_t> probes = {0,  1,  7,  8,  9,  1023,
                                       1024, 1025, ~std::uint64_t{0}};
  for (int i = 0; i < 1000; ++i) {
    probes.push_back(rng.engine()() >> (i % 60));
  }
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (std::uint64_t v : probes) {
    const int b = obs::HistogramData::bucket_of(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, obs::HistogramData::kBuckets);
    EXPECT_GE(v, obs::HistogramData::bucket_lo(b));
    const std::uint64_t hi = obs::HistogramData::bucket_hi(b);
    // The top bucket's saturated bound is inclusive (2^64 - 1 itself).
    EXPECT_TRUE(v < hi || (v == kMax && hi == kMax)) << "v=" << v;
  }
}

TEST(HistogramBuckets, SmallValuesAreExact) {
  obs::HistogramData h;
  for (std::uint64_t v = 0; v < 8; ++v) h.record(v);
  // One value per exact bucket: every percentile is the sample itself + 1
  // (bucket width 1 ⇒ hi = v + 1), and min/max/sum are exact.
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_EQ(h.sum(), 28u);
  const obs::HistogramData::Bounds b = h.percentile_bounds(50.0);
  EXPECT_EQ(b.hi - b.lo, 1u);
}

TEST(HistogramPercentiles, AgreeWithExactSortWithinOneBucket) {
  obs::HistogramData h;
  util::Rng rng(4242);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    // Mix of magnitudes: sub-octave, mid-range, heavy tail.
    const std::uint64_t v =
        i % 3 == 0 ? rng.index(16)
                   : (i % 3 == 1 ? rng.index(100000)
                                 : rng.index(100000000));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const std::uint64_t exact = exact_percentile(values, p);
    const obs::HistogramData::Bounds b = h.percentile_bounds(p);
    EXPECT_GE(exact, b.lo) << "p" << p;
    EXPECT_LT(exact, b.hi) << "p" << p;
    EXPECT_EQ(h.percentile(p), b.hi) << "p" << p;
  }
}

TEST(Trace, InactiveSessionRecordsNothing) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with PTUCKER_OBS=OFF";
  obs::TraceSession::stop();
  {
    obs::Span span("trace_test.should_not_appear");
  }
  obs::TraceSession::start(256);
  obs::TraceSession::stop();
  for (const obs::TraceEvent& e : obs::TraceSession::events()) {
    EXPECT_STRNE(e.name, "trace_test.should_not_appear");
  }
}

TEST(Trace, RecordsNestedSpansWithContainment) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with PTUCKER_OBS=OFF";
  obs::TraceSession::start(256);
  {
    obs::Span outer("trace_test.outer", 7);
    {
      obs::Span inner("trace_test.inner");
    }
  }
  obs::TraceSession::stop();
  const std::vector<obs::TraceEvent> events = obs::TraceSession::events();
  ASSERT_EQ(events.size(), 2u);
  // Completion order: the inner span ends (and is recorded) first.
  const obs::TraceEvent& inner = events[0];
  const obs::TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "trace_test.inner");
  EXPECT_STREQ(outer.name, "trace_test.outer");
  EXPECT_EQ(outer.arg, 7);
  EXPECT_EQ(inner.arg, -1);
  EXPECT_GE(inner.ts_ns, outer.ts_ns);
  EXPECT_LE(inner.ts_ns + inner.dur_ns, outer.ts_ns + outer.dur_ns);
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_EQ(inner.rank, -1);  // recorded outside any mps rank

  const std::string json = obs::TraceSession::chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"trace_test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Trace, RingBoundsEventsAndCountsDrops) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with PTUCKER_OBS=OFF";
  constexpr std::size_t kCapacity = 64;
  obs::TraceSession::start(kCapacity);
  for (int i = 0; i < 200; ++i) {
    obs::Span span("trace_test.flood", i);
  }
  obs::TraceSession::stop();
  EXPECT_EQ(obs::TraceSession::events().size(), kCapacity);
  EXPECT_EQ(obs::TraceSession::dropped(), 200 - kCapacity);
  // A restart discards the old ring and its drop count.
  obs::TraceSession::start(kCapacity);
  obs::TraceSession::stop();
  EXPECT_EQ(obs::TraceSession::events().size(), 0u);
  EXPECT_EQ(obs::TraceSession::dropped(), 0u);
}

TEST(Trace, ConcurrentRecordersGetDistinctThreadIds) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with PTUCKER_OBS=OFF";
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  obs::TraceSession::start(1 << 14);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::Span span("trace_test.mt", i);
      }
    });
  }
  for (auto& th : threads) th.join();
  obs::TraceSession::stop();
  const std::vector<obs::TraceEvent> events = obs::TraceSession::events();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(obs::TraceSession::dropped(), 0u);
  std::vector<std::uint32_t> tids;
  for (const obs::TraceEvent& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

}  // namespace
}  // namespace ptucker
