#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "sim/byte_block.hpp"
#include "sim/event_queue.hpp"
#include "sim/fifo.hpp"
#include "sim/frame_pool.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/slot_table.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace rdmamon::sim {
namespace {

TEST(Time, ArithmeticAndConversions) {
  EXPECT_EQ((msec(3) + usec(500)).ns, 3'500'000);
  EXPECT_EQ((seconds(1) - msec(1)).ns, 999'000'000);
  EXPECT_DOUBLE_EQ(msec(250).seconds(), 0.25);
  EXPECT_DOUBLE_EQ(usec(1500).millis(), 1.5);
  TimePoint t{1000};
  EXPECT_EQ((t + usec(1)).ns, 2'000);
  EXPECT_EQ(((t + usec(1)) - t).ns, usec(1).ns);
}

TEST(Time, FractionalFactories) {
  EXPECT_EQ(from_millis(0.5).ns, 500'000);
  EXPECT_EQ(from_seconds(0.001).ns, 1'000'000);
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint{30}, [&] { order.push_back(3); });
  q.schedule(TimePoint{10}, [&] { order.push_back(1); });
  q.schedule(TimePoint{20}, [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(TimePoint{100}, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule(TimePoint{10}, [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  EventHandle h = q.schedule(TimePoint{10}, [] {});
  q.pop_and_run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or corrupt
  EXPECT_TRUE(q.empty());
}

TEST(Simulation, RunUntilAdvancesClock) {
  Simulation s;
  int fired = 0;
  s.after(msec(5), [&] { ++fired; });
  s.after(msec(50), [&] { ++fired; });
  s.run_until(TimePoint{} + msec(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now().ns, msec(10).ns);
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now().ns, msec(50).ns);
}

TEST(Simulation, RejectsPastScheduling) {
  Simulation s;
  s.after(msec(1), [] {});
  s.run();
  EXPECT_THROW(s.at(TimePoint{}, [] {}), std::logic_error);
  EXPECT_THROW(s.after(Duration{-5}, [] {}), std::logic_error);
}

TEST(Simulation, StopInsideCallback) {
  Simulation s;
  int fired = 0;
  s.after(msec(1), [&] {
    ++fired;
    s.stop();
  });
  s.after(msec(2), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, PopUntilRunsOnlyWhatIsDueAndSetsTheClockFirst) {
  EventQueue q;
  TimePoint clock{};
  std::vector<std::pair<int, std::int64_t>> seen;  // (event, clock inside)
  const TimePoint due = TimePoint{} + usec(7);
  q.schedule(due, [&] { seen.emplace_back(1, clock.ns); });
  q.schedule(due + nsec(1), [&] { seen.emplace_back(3, clock.ns); });
  q.schedule(due, [&] { seen.emplace_back(2, clock.ns); });
  // Exactly at the deadline: both run, in (time, seq) order.
  EXPECT_TRUE(q.pop_until(due, clock));
  EXPECT_TRUE(q.pop_until(due, clock));
  // One ns past it: stays queued, and the clock stays where it was.
  EXPECT_FALSE(q.pop_until(due, clock));
  EXPECT_EQ(clock, due);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.pop_until(kNever, clock));
  EXPECT_FALSE(q.pop_until(kNever, clock));  // drained
  const std::vector<std::pair<int, std::int64_t>> want = {
      {1, 7'000}, {2, 7'000}, {3, 7'001}};
  EXPECT_EQ(seen, want);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(Simulation, RunUntilRunsAnEventAtTheDeadlineButNotOneJustPastIt) {
  Simulation s;
  const TimePoint deadline = TimePoint{} + msec(10);
  std::vector<std::int64_t> at;
  s.at(deadline, [&] { at.push_back(s.now().ns); });
  s.at(deadline + nsec(1), [&] { at.push_back(s.now().ns); });
  s.run_until(deadline);
  EXPECT_EQ(at, std::vector<std::int64_t>{deadline.ns});
  EXPECT_EQ(s.now(), deadline);
  EXPECT_EQ(s.events_pending(), 1u);
  s.run_until(deadline + nsec(1));
  EXPECT_EQ(at, (std::vector<std::int64_t>{deadline.ns, deadline.ns + 1}));
  EXPECT_EQ(s.events_pending(), 0u);
}

TEST(Simulation, StopInsideCallbackEndsRunUntilAtTheStoppingEvent) {
  Simulation s;
  std::vector<int> order;
  s.after(msec(1), [&] {
    order.push_back(1);
    s.stop();
  });
  s.after(msec(1), [&] { order.push_back(2); });  // same instant, later seq
  s.after(msec(2), [&] { order.push_back(3); });
  s.run_until(TimePoint{} + msec(5));
  EXPECT_EQ(order, std::vector<int>{1});
  // A stopped run leaves the clock at the stopping event, not the deadline.
  EXPECT_EQ(s.now().ns, msec(1).ns);
  s.run_until(TimePoint{} + msec(5));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now().ns, msec(5).ns);
}

TEST(Simulation, NestedSchedulingFromCallbacks) {
  Simulation s;
  std::vector<std::int64_t> times;
  std::function<void(int)> chain = [&](int depth) {
    times.push_back(s.now().ns);
    if (depth < 4) s.after(usec(10), [&, depth] { chain(depth + 1); });
  };
  s.after(usec(0), [&] { chain(0); });
  s.run();
  ASSERT_EQ(times.size(), 5u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(times[i], static_cast<std::int64_t>(i) * 10'000);
  }
}

TEST(Fifo, KeepsOrderAcrossWrapAroundGrowthAndErase) {
  Fifo<int> q;
  for (int i = 0; i < 3; ++i) q.push_back(i);
  q.pop_front();  // the head moves, so later pushes wrap around
  for (int i = 3; i < 12; ++i) q.push_back(i);  // grows twice mid-wrap
  q.erase(2);  // drops 3: the front side moves
  q.erase(8);  // drops 10: the back side moves
  std::vector<int> got;
  while (!q.empty()) got.push_back(q.take_front());
  EXPECT_EQ(got, (std::vector<int>{1, 2, 4, 5, 6, 7, 8, 9, 11}));
}

TEST(SlotTable, RecyclesFreedSlots) {
  SlotTable<std::string> t;
  const auto a = t.put("a");
  const auto b = t.put("b");
  EXPECT_EQ(t.take(a), "a");
  EXPECT_EQ(t.put("c"), a);  // the freed slot is reused
  EXPECT_EQ(t[b], "b");
  EXPECT_EQ(t.live(), 2u);
  t.release(a);
  t.release(b);
  EXPECT_EQ(t.live(), 0u);
}

TEST(FramePool, RecyclesBlocksPerSizeClass) {
  FramePool pool;
  void* a = pool.allocate(200);
  FramePool::release(a);
  void* b = pool.allocate(208);  // same 16-byte class: the same block
  EXPECT_EQ(b, a);
  void* c = pool.allocate(400);  // another class: a block of its own
  EXPECT_NE(c, b);
  FramePool::release(b);
  FramePool::release(c);
}

TEST(ByteBlock, CopiesBytesAndReadsThemSizeChecked) {
  // Two words fit the inline buffer; four take the heap. Both read back
  // size-checked, before and after a move.
  const std::uint32_t words[4] = {7, 9, 11, 13};
  for (const std::size_t n : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(n);
    ByteBlock b(words, n * sizeof(std::uint32_t));
    ASSERT_EQ(b.size(), n * sizeof(std::uint32_t));
    EXPECT_EQ(b.as<std::uint32_t>(), 7u);
    EXPECT_EQ(b.as<std::uint32_t>(4 * (n - 1)), words[n - 1]);
    EXPECT_THROW(b.as<std::uint32_t>(4 * n - 3), std::length_error);
    EXPECT_THROW(b.as<std::uint32_t>(4 * n + 1), std::length_error);
    const ByteBlock moved = std::move(b);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(moved.as<std::uint32_t>(4 * (n - 1)), words[n - 1]);
  }
  EXPECT_TRUE(ByteBlock(words, 0).empty());
}

#if defined(__SANITIZE_ADDRESS__)
// Recycled storage is poisoned while free: an event firing on a freed
// slot, or a stale coroutine handle resumed into a pooled frame, is a
// reported use-after-poison instead of a silent read of recycled state.
TEST(FramePool, ReleasedBlockReadsAsPoisonedUntilReused) {
  FramePool pool;
  auto* p = static_cast<char*>(pool.allocate(256));
  FramePool::release(p);
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 255));
  auto* q = static_cast<char*>(pool.allocate(256));
  ASSERT_EQ(q, p);
  EXPECT_FALSE(__asan_address_is_poisoned(q));
  EXPECT_FALSE(__asan_address_is_poisoned(q + 255));
  FramePool::release(q);
}

TEST(SlotTable, FreedSlotReadsAsPoisonedUntilReused) {
  SlotTable<std::uint64_t> t;
  const auto s = t.put(7);
  const std::uint64_t* cell = &t[s];
  t.release(s);
  EXPECT_TRUE(__asan_address_is_poisoned(cell));
  EXPECT_EQ(t.put(8), s);
  EXPECT_FALSE(__asan_address_is_poisoned(cell));
}
#endif

TEST(Random, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Random, SplitStreamsDiffer) {
  Rng a(42);
  Rng child = a.split();
  bool any_diff = false;
  Rng b(42);
  Rng child2 = b.split();
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(child.uniform(), child2.uniform());  // reproducible
  }
  Rng c(42);
  for (int i = 0; i < 10; ++i) {
    if (child.uniform() != c.uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Random, UniformBounds) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto k = r.uniform_int(3, 9);
    EXPECT_GE(k, 3);
    EXPECT_LE(k, 9);
  }
}

TEST(Random, ExponentialMeanConverges) {
  Rng r(11);
  OnlineStats st;
  for (int i = 0; i < 200'000; ++i) st.add(r.exponential(5.0));
  EXPECT_NEAR(st.mean(), 5.0, 0.1);
}

TEST(Random, NormalMoments) {
  Rng r(13);
  OnlineStats st;
  for (int i = 0; i < 200'000; ++i) st.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(st.mean(), 10.0, 0.05);
  EXPECT_NEAR(st.stddev(), 2.0, 0.05);
}

TEST(Random, BoundedParetoStaysInBounds) {
  Rng r(17);
  for (int i = 0; i < 50'000; ++i) {
    const double v = r.bounded_pareto(1.2, 1'000.0, 1'000'000.0);
    EXPECT_GE(v, 1'000.0);
    EXPECT_LE(v, 1'000'000.0 * (1 + 1e-9));
  }
}

TEST(Zipf, PmfMatchesEmpiricalFrequencies) {
  const std::size_t n = 100;
  ZipfDistribution z(n, 0.8);
  Rng r(19);
  std::vector<int> counts(n + 1, 0);
  const int samples = 400'000;
  for (int i = 0; i < samples; ++i) ++counts[z.sample(r)];
  // Rank 1 should be the most popular and match pmf within a few percent.
  EXPECT_NEAR(static_cast<double>(counts[1]) / samples, z.pmf(1), 0.01);
  EXPECT_GT(counts[1], counts[50]);
  double total_pmf = 0;
  for (std::size_t i = 1; i <= n; ++i) total_pmf += z.pmf(i);
  EXPECT_NEAR(total_pmf, 1.0, 1e-9);
}

TEST(Zipf, HigherAlphaConcentratesMass) {
  ZipfDistribution lo(1000, 0.25), hi(1000, 0.9);
  EXPECT_GT(hi.pmf(1), lo.pmf(1));
}

TEST(Zipf, GuideTableSampleMatchesFirstCdfEntryContract) {
  // The sampler must return exactly the rank the original binary
  // search would: the first cdf entry >= u. Replay the uniform stream and
  // check every sample against std::lower_bound on the exposed CDF —
  // this is what keeps fig7 (and every ZipfTrace consumer) bit-identical.
  for (double alpha : {0.25, 0.8, 0.9}) {
    const ZipfDistribution z(1'000, alpha);
    Rng draws(91), replay(91);
    for (int i = 0; i < 50'000; ++i) {
      const double u = replay.uniform();
      const std::size_t want = static_cast<std::size_t>(
          std::lower_bound(z.cdf().begin(), z.cdf().end(), u) -
          z.cdf().begin()) + 1;
      ASSERT_EQ(z.sample(draws), want) << "alpha " << alpha << " u " << u;
    }
  }
}

TEST(Stats, OnlineMeanVarianceMinMax) {
  OnlineStats st;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(v);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_DOUBLE_EQ(st.variance(), 4.0);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
  EXPECT_EQ(st.count(), 8u);
}

TEST(Stats, MergeEqualsSequential) {
  OnlineStats a, b, all;
  Rng r(23);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.normal(0, 1);
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, HistogramPercentiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.percentile(0.5), 500.0, 500.0 * 0.10);
  EXPECT_NEAR(h.percentile(0.99), 990.0, 990.0 * 0.10);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), h.min());
}

TEST(Stats, HistogramPercentileEdges) {
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(1.0), 0.0);

  Histogram one;
  one.add(42.0);
  // Every quantile of a single sample is that sample (within the
  // log-bucket resolution, < ~1.6%).
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_NEAR(one.percentile(q), 42.0, 42.0 * 0.05) << "q=" << q;
  }

  Histogram zeros;  // nonnegative domain: zero must be representable
  for (int i = 0; i < 10; ++i) zeros.add(0.0);
  EXPECT_DOUBLE_EQ(zeros.min(), 0.0);
  EXPECT_LE(zeros.percentile(0.5), 1.0);

  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  // q=1 is the top bucket; q=0 the exact min; out-of-band q are clamped.
  EXPECT_GE(h.percentile(1.0), h.percentile(0.99));
  EXPECT_DOUBLE_EQ(h.percentile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.percentile(-0.5), h.percentile(0.0));
  EXPECT_DOUBLE_EQ(h.percentile(1.5), h.percentile(1.0));
}

TEST(Stats, OnlineStatsMergeEdges) {
  OnlineStats a;  // empty += empty
  a.merge(OnlineStats{});
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);

  OnlineStats b;  // empty += populated
  b.add(3.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_DOUBLE_EQ(a.min(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);

  a.merge(OnlineStats{});  // populated += empty: unchanged
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_DOUBLE_EQ(a.variance(), 1.0);
}

TEST(Stats, HistogramMergeAndReset) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.add(10.0);
  for (int i = 0; i < 100; ++i) b.add(1000.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_GT(a.percentile(0.9), 500.0);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.percentile(0.5), 0.0);
}

// A dense reference holding all 512 buckets, with Histogram's bucket rule
// and percentile formula: a Histogram's percentiles, min, max and mean
// must equal its bit for bit, whichever octaves it holds.
struct DenseHistogram {
  std::vector<std::uint64_t> buckets = std::vector<std::uint64_t>(512, 0);
  std::uint64_t n = 0;
  OnlineStats stats;

  static std::size_t bucket_of(double v) {
    if (!(v >= 1.0)) return 0;
    if (std::isinf(v)) return 511;
    return static_cast<std::size_t>(
        std::clamp(static_cast<int>(std::log2(v) * 8), 0, 511));
  }
  void add(double v) {
    if (v < 0.0) v = 0.0;
    ++buckets[bucket_of(v)];
    ++n;
    stats.add(v);
  }
  void merge(const DenseHistogram& o) {
    for (std::size_t b = 0; b < buckets.size(); ++b) buckets[b] += o.buckets[b];
    n += o.n;
    stats.merge(o.stats);
  }
  double percentile(double q) const {
    if (n == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto target =
        static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      seen += buckets[b];
      if (seen > target) {
        const double lo = std::exp2(static_cast<double>(b) / 8);
        const double hi = std::exp2(static_cast<double>(b + 1) / 8);
        const double mid = b == 0 ? 0.5 : std::sqrt(lo * hi);
        return std::clamp(mid, stats.min(), stats.max());
      }
    }
    return stats.max();
  }
};

/// Bit-identical, so a NaN mean (+inf merged with finite samples)
/// compares equal to itself.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same(const Histogram& h, const DenseHistogram& ref,
                 const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(h.count(), ref.n);
  EXPECT_EQ(bits(h.min()), bits(ref.stats.min()));
  EXPECT_EQ(bits(h.max()), bits(ref.stats.max()));
  EXPECT_EQ(bits(h.mean()), bits(ref.stats.mean()));
  for (double q : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(bits(h.percentile(q)), bits(ref.percentile(q))) << "q=" << q;
  }
}

TEST(Stats, HistogramEqualsTheDense512BucketLayout) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    // `low` stays within 2^12; `high` spans up to 2^60 and, on every
    // other seed, the extremes: 0, 0.5, 1e300 and +inf.
    Histogram low, high;
    DenseHistogram low_ref, high_ref;
    const int n = 1 + static_cast<int>(rng.uniform(0, 300));
    for (int i = 0; i < n; ++i) {
      const double a = std::exp2(rng.uniform(-2, 12));
      low.add(a);
      low_ref.add(a);
      const double b = std::exp2(rng.uniform(-2, 60));
      high.add(b);
      high_ref.add(b);
    }
    if (seed % 2 == 0) {
      for (double v : {0.0, 0.5, 1e300, kInf}) {
        high.add(v);
        high_ref.add(v);
      }
    }
    const std::string tag = "seed " + std::to_string(seed);
    expect_same(low, low_ref, tag + " low");
    expect_same(high, high_ref, tag + " high");

    Histogram short_into_long = high;  // holds more octaves than `low`
    short_into_long.merge(low);
    DenseHistogram short_into_long_ref = high_ref;
    short_into_long_ref.merge(low_ref);
    expect_same(short_into_long, short_into_long_ref, tag + " short->long");

    Histogram long_into_short = low;
    long_into_short.merge(high);
    DenseHistogram long_into_short_ref = low_ref;
    long_into_short_ref.merge(high_ref);
    expect_same(long_into_short, long_into_short_ref, tag + " long->short");

    // reset() forgets every sample; the histogram then behaves as new.
    long_into_short.reset();
    expect_same(long_into_short, DenseHistogram{}, tag + " reset");
    DenseHistogram refilled_ref;
    for (int i = 0; i < 16; ++i) {
      const double v = std::exp2(rng.uniform(-2, 8));
      long_into_short.add(v);
      refilled_ref.add(v);
    }
    expect_same(long_into_short, refilled_ref, tag + " refilled");
  }
}

TEST(Stats, HistogramPutsInfinityInTheTopBucketAndNanInTheBottom) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Histogram h;
  h.add(1.0);
  h.add(kInf);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_GT(h.percentile(1.0), 1e19);  // the top bucket's midpoint, ~2^64

  // NaN lands in bucket 0 as negative values do: it needs no octave
  // beyond the first.
  Histogram g;
  g.add(0.5);
  const std::uint64_t before = allocation_count();
  g.add(std::numeric_limits<double>::quiet_NaN());
  g.add(-3.0);
  EXPECT_EQ(allocation_count(), before);
  EXPECT_EQ(g.count(), 3u);
}

TEST(Stats, HistogramAllocatesOnlyWhenAValueReachesANewOctave) {
  std::uint64_t before = allocation_count();
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(allocation_count(), before);  // an empty histogram holds nothing

  h.add(100.0);  // octave 6: buckets 0..55, values below 128
  EXPECT_EQ(allocation_count(), before + 1);
  before = allocation_count();
  for (int i = 0; i < 128; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(allocation_count(), before);  // inside the held octaves

  h.add(1e6);  // a higher octave: one more block
  EXPECT_EQ(allocation_count(), before + 1);

  h.reset();  // the held memory is kept for reuse
  before = allocation_count();
  for (int i = 0; i < 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(allocation_count(), before);
}

}  // namespace
}  // namespace rdmamon::sim
