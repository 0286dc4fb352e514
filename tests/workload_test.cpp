#include <gtest/gtest.h>

#include "sim/random.hpp"
#include "workload/rubis.hpp"
#include "workload/zipf.hpp"

namespace rdmamon::workload {
namespace {

TEST(Rubis, DemandTableCoversAllClassesWithSaneMix) {
  const auto& d = rubis_demands();
  double mix = 0.0;
  for (const auto& q : d) {
    EXPECT_GT(q.php_cpu.ns, 0);
    EXPECT_GT(q.db_cpu.ns, 0);
    EXPECT_GT(q.reply_bytes, 0u);
    EXPECT_GT(q.mix, 0.0);
    mix += q.mix;
  }
  EXPECT_NEAR(mix, 1.0, 0.01);
}

TEST(Rubis, BrowseCategoriesIsTheHeaviestClass) {
  const auto& heavy = demand_of(RubisQuery::BrowseCategoriesInRegion);
  for (RubisQuery q : kAllRubisQueries) {
    if (q == RubisQuery::BrowseCategoriesInRegion) continue;
    const auto& d = demand_of(q);
    EXPECT_GT((heavy.php_cpu + heavy.db_cpu + heavy.db_io).ns,
              (d.php_cpu + d.db_cpu + d.db_io).ns)
        << to_string(q);
  }
}

TEST(Rubis, SampleQueryFollowsMix) {
  RubisWorkload wl;
  sim::Rng rng(123);
  std::array<int, kRubisQueryCount> counts{};
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(wl.sample_query(rng))];
  }
  const auto& d = rubis_demands();
  for (int i = 0; i < kRubisQueryCount; ++i) {
    const double freq = static_cast<double>(counts[static_cast<std::size_t>(i)]) / n;
    EXPECT_NEAR(freq, d[static_cast<std::size_t>(i)].mix, 0.01)
        << to_string(static_cast<RubisQuery>(i));
  }
}

TEST(Rubis, InstanceVariationIsBoundedAndPositive) {
  RubisWorkload wl;
  sim::Rng rng(7);
  const auto& base = demand_of(RubisQuery::Browse);
  for (int i = 0; i < 10'000; ++i) {
    const auto inst = wl.instance_of(RubisQuery::Browse, rng);
    EXPECT_GT(inst.php_cpu.ns, 0);
    // Scale factor is in [0.5, 2.5]: 0.5 + 0.5*min(exp, 4).
    EXPECT_GE(inst.php_cpu.ns, base.php_cpu.ns / 2 - 1);
    EXPECT_LE(inst.php_cpu.ns, base.php_cpu.ns * 5 / 2 + 1);
  }
}

TEST(Rubis, NamesAreStable) {
  EXPECT_STREQ(to_string(RubisQuery::Home), "Home");
  EXPECT_STREQ(to_string(RubisQuery::BrowseCategoriesInRegion),
               "BrowseCatgryReg");
}

TEST(ZipfTrace, DeterministicForSameSeed) {
  ZipfTraceConfig cfg;
  cfg.documents = 500;
  ZipfTrace a(cfg, 99), b(cfg, 99);
  sim::Rng r1(1), r2(1);
  for (int i = 0; i < 100; ++i) {
    const auto x = a.sample(r1);
    const auto y = b.sample(r2);
    EXPECT_EQ(x.doc_rank, y.doc_rank);
    EXPECT_EQ(x.bytes, y.bytes);
  }
}

TEST(ZipfTrace, PopularDocumentsAreCached) {
  ZipfTraceConfig cfg;
  cfg.documents = 2'000;
  ZipfTrace trace(cfg, 5);
  sim::Rng rng(6);
  int cached_top = 0, total_top = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto r = trace.sample(rng);
    if (r.doc_rank <= 10) {
      ++total_top;
      if (r.cached) ++cached_top;
    }
  }
  ASSERT_GT(total_top, 0);
  EXPECT_EQ(cached_top, total_top);  // the head of the ranking is cached
}

TEST(ZipfTrace, CachedRequestsAreCheapUncachedAreExpensive) {
  ZipfTraceConfig cfg;
  ZipfTrace trace(cfg, 11);
  sim::Rng rng(12);
  for (int i = 0; i < 5'000; ++i) {
    const auto r = trace.sample(rng);
    if (r.cached) {
      EXPECT_EQ(r.io_wait.ns, 0);
      EXPECT_LT(r.cpu_demand.ns, sim::msec(1).ns);
    } else {
      EXPECT_GE(r.io_wait.ns, kDiskSeek.ns);
    }
  }
}

TEST(ZipfTrace, HigherAlphaMeansMoreCacheHits) {
  ZipfTraceConfig lo_cfg, hi_cfg;
  lo_cfg.alpha = 0.25;
  hi_cfg.alpha = 0.9;
  ZipfTrace lo(lo_cfg, 3), hi(hi_cfg, 3);
  // The analytic cached fraction must rise with alpha (Fig 7's driver).
  EXPECT_GT(hi.cached_request_fraction(),
            lo.cached_request_fraction() + 0.1);
  EXPECT_GT(lo.cached_request_fraction(), 0.0);
  EXPECT_LT(hi.cached_request_fraction(), 1.0);
}

TEST(ZipfTrace, AnalyticCacheFractionMatchesEmpirical) {
  ZipfTraceConfig cfg;
  cfg.alpha = 0.5;
  ZipfTrace trace(cfg, 21);
  sim::Rng rng(22);
  int cached = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (trace.sample(rng).cached) ++cached;
  }
  EXPECT_NEAR(static_cast<double>(cached) / n,
              trace.cached_request_fraction(), 0.01);
}

}  // namespace
}  // namespace rdmamon::workload
