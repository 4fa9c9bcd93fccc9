// TierStore + Compactor fundamentals: journaled hot ingest, aging down the
// resolution ladder, per-class retention, clean-restart recovery, and the
// stack-level circuit breaker that turns a sick disk into "stop compacting,
// keep serving".
#include <gtest/gtest.h>

#include <filesystem>

#include "core/config.hpp"
#include "resilience/fault.hpp"
#include "sim/cluster.hpp"
#include "stack/stack.hpp"
#include "store/compactor.hpp"
#include "store/tier.hpp"
#include "store/tsdb.hpp"

namespace hpcmon::store {
namespace {

using core::kMinute;
using core::kSecond;
using core::SeriesId;
using core::TimeRange;

std::string scratch_dir(const std::string& name) {
  const std::string dir = "/tmp/hpcmon_tier_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Short ladder so one test exercises ingest, aging, and expiry quickly:
/// raw for 2 min, 30s buckets for 10 min, gone afterwards. Critical keeps
/// raw twice as long as bulk.
TierPolicy short_policy() {
  TierPolicy p;
  TierSpec raw;
  raw.resolution = 0;
  raw.agg = Agg::kLast;
  raw.keep = {2 * kMinute, 2 * kMinute, 1 * kMinute};
  TierSpec t30;
  t30.resolution = 30 * kSecond;
  t30.agg = Agg::kMean;
  t30.keep = {10 * kMinute, 10 * kMinute, 5 * kMinute};
  p.tiers = {raw, t30};
  return p;
}

struct Rig {
  TimeSeriesStore hot{4};  // tiny chunks: sealing happens fast
  std::unique_ptr<TierStore> tiers;
  std::unique_ptr<Compactor> compactor;

  explicit Rig(const std::string& dir, TierPolicy policy = short_policy(),
               core::FsFaultInjector* faults = nullptr,
               core::Duration hot_window = kMinute) {
    TierStore::Options o;
    o.dir = dir;
    o.policy = std::move(policy);
    o.faults = faults;
    tiers = std::make_unique<TierStore>(std::move(o));
    EXPECT_TRUE(tiers->open().is_ok());
    CompactorOptions co;
    co.hot_window = hot_window;
    compactor = std::make_unique<Compactor>(
        std::vector<TimeSeriesStore*>{&hot}, tiers.get(), std::move(co));
  }
};

TEST(TierStoreTest, HotIngestMovesSealedChunksBehindTheWatermark) {
  const auto dir = scratch_dir("ingest");
  Rig rig(dir);
  const SeriesId s{1};
  // 20 points, 10s apart: t in [0, 190]. Chunks of 4 seal every 40s.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(rig.hot.append(s, i * 10 * kSecond, i));
  }
  const auto raw = rig.hot.query_range(s, {0, 1000 * kSecond});
  ASSERT_EQ(raw.size(), 20u);

  // Pass at t=250s: chunks whose newest point is older than 250-60=190s
  // move to tier 0 and are evicted from the hot store.
  ASSERT_TRUE(rig.compactor->run_pass(250 * kSecond).is_ok());
  EXPECT_GT(rig.tiers->file_count(), 0u);
  EXPECT_GT(rig.tiers->watermark(), 0);
  EXPECT_LT(rig.hot.query_range(s, {0, 1000 * kSecond}).size(), 20u);

  // The merged view is byte-complete: every appended point, exactly once.
  TierSpanView<TimeSeriesStore> span(rig.tiers.get(), &rig.hot);
  const auto merged = span.query_range(s, {0, 1000 * kSecond});
  ASSERT_EQ(merged.size(), raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(merged[i].time, raw[i].time);
    EXPECT_EQ(merged[i].value, raw[i].value);
  }
  // Nothing below the watermark is only in the hot store.
  const auto wm = rig.tiers->watermark();
  const auto cold = rig.tiers->query_range(s, {0, wm});
  const auto pre_wm = span.query_range(s, {0, wm});
  EXPECT_EQ(cold.size(), pre_wm.size());
}

// A span view downsamples on one bucket grid, anchored at range.begin, on
// both sides of the tier/hot seam: it answers exactly like one store that
// holds every point, also when the range starts off a bucket multiple.
TEST(TierStoreTest, SpanDownsampleMatchesOneStoreOffTheBucketGrid) {
  const auto dir = scratch_dir("seam");
  Rig rig(dir);
  TimeSeriesStore every_point(4);
  const SeriesId s{3};
  for (int i = 0; i < 40; ++i) {  // 10 s points, t in [0, 390] s
    ASSERT_TRUE(rig.hot.append(s, i * 10 * kSecond, i));
    ASSERT_TRUE(every_point.append(s, i * 10 * kSecond, i));
  }
  // Pass at 250 s: chunks older than 190 s (t <= 150 s) move to tier 0, so
  // the 145 s bucket is split across the seam.
  ASSERT_TRUE(rig.compactor->run_pass(250 * kSecond).is_ok());
  const TimeRange range{25 * kSecond, 1000 * kSecond};
  ASSERT_FALSE(rig.tiers->query_range(s, range).empty());
  ASSERT_FALSE(rig.hot.query_range(s, range).empty());

  const TierSpanView<TimeSeriesStore> span(rig.tiers.get(), &rig.hot);
  const core::Duration bucket = 60 * kSecond;
  for (const auto agg : {Agg::kCount, Agg::kSum, Agg::kMean, Agg::kMin,
                         Agg::kMax, Agg::kLast}) {
    EXPECT_EQ(span.downsample(s, range, bucket, agg),
              every_point.downsample(s, range, bucket, agg))
        << to_string(agg);
  }
  // Buckets at 25, 85, 145, ... s with six points each; the last holds 390.
  const auto counts = span.downsample(s, range, bucket, Agg::kCount);
  ASSERT_EQ(counts.size(), 7u);
  for (std::size_t b = 0; b < counts.size(); ++b) {
    EXPECT_EQ(counts[b].time, 25 * kSecond + static_cast<core::TimePoint>(b) *
                                                 bucket);
    EXPECT_EQ(counts[b].value, b + 1 < counts.size() ? 6.0 : 1.0);
  }
}

TEST(TierStoreTest, AggregatesStayExactAcrossAging) {
  const auto dir = scratch_dir("aging");
  Rig rig(dir);
  const SeriesId s{7};
  double sum = 0.0;
  for (int i = 0; i < 40; ++i) {
    const double v = 3.5 * i - 20.0;
    ASSERT_TRUE(rig.hot.append(s, i * 10 * kSecond, v));
    sum += v;
  }
  // March time forward so raw files age into the 30s tier — but stay
  // inside the 30s tier's own retention, or the data (correctly) expires.
  for (int m = 5; m <= 9; ++m) {
    ASSERT_TRUE(rig.compactor->run_pass(m * kMinute).is_ok());
  }
  EXPECT_FALSE(rig.tiers->files(1).empty()) << "nothing aged into tier 1";

  // Index summaries carry the ORIGINAL raw stats through aging: whole-range
  // aggregates over the merged view equal the raw ground truth exactly.
  TierSpanView<TimeSeriesStore> span(rig.tiers.get(), &rig.hot);
  const TimeRange all{0, 1000 * kMinute};
  EXPECT_EQ(span.aggregate(s, all, Agg::kCount).value_or(-1), 40.0);
  EXPECT_DOUBLE_EQ(span.aggregate(s, all, Agg::kSum).value_or(-1), sum);
  EXPECT_DOUBLE_EQ(span.aggregate(s, all, Agg::kMin).value_or(1), -20.0);
  EXPECT_DOUBLE_EQ(span.aggregate(s, all, Agg::kMax).value_or(-1),
                   3.5 * 39 - 20.0);
  EXPECT_DOUBLE_EQ(span.aggregate(s, all, Agg::kMean).value_or(-1),
                   sum / 40.0);
  // The aged points themselves are 30s-bucketed (coarser, not raw).
  const auto aged = rig.tiers->query_range(s, all);
  for (const auto& p : aged) {
    if (!rig.tiers->files(1).empty() && p.time < 2 * kMinute) {
      EXPECT_EQ(p.time % (30 * kSecond), 0) << "aged point not bucket-aligned";
    }
  }
}

TEST(TierStoreTest, PerClassRetentionExpiresBulkFirst) {
  const auto dir = scratch_dir("perclass");
  Rig rig(dir);
  const SeriesId crit{1};
  const SeriesId bulk{2};
  CompactorOptions co;
  co.hot_window = kMinute;
  co.priority_of = [&](SeriesId id) {
    return core::raw(id) == 1 ? core::Priority::kCritical
                              : core::Priority::kBulk;
  };
  Compactor compactor({&rig.hot}, rig.tiers.get(), std::move(co));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rig.hot.append(crit, i * 10 * kSecond, i));
    ASSERT_TRUE(rig.hot.append(bulk, i * 10 * kSecond, i));
  }
  ASSERT_TRUE(compactor.run_pass(3 * kMinute).is_ok());
  const TimeRange all{0, 1000 * kMinute};
  // Both classes landed in the ladder (bulk's short raw retention may age
  // it straight into tier 1 within the same pass).
  EXPECT_FALSE(rig.tiers->files(0, 0).empty());
  EXPECT_FALSE(rig.tiers->query_range(bulk, all).empty());
  // At t=7min: bulk (keep 1min raw, 5min in tier 1) has fully expired;
  // critical (keep 10min in tier 1) is still queryable.
  ASSERT_TRUE(compactor.run_pass(7 * kMinute).is_ok());
  ASSERT_TRUE(compactor.run_pass(8 * kMinute).is_ok());
  EXPECT_FALSE(rig.tiers->query_range(crit, all).empty());
  EXPECT_TRUE(rig.tiers->query_range(bulk, all).empty())
      << "bulk outlived its retention";
}

TEST(TierStoreTest, CleanRestartRecoversFilesAndWatermark) {
  const auto dir = scratch_dir("restart");
  core::TimePoint wm = 0;
  std::size_t files = 0;
  std::vector<core::TimedValue> before;
  const SeriesId s{3};
  {
    Rig rig(dir);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(rig.hot.append(s, i * 10 * kSecond, 2.0 * i));
    }
    ASSERT_TRUE(rig.compactor->run_pass(250 * kSecond).is_ok());
    wm = rig.tiers->watermark();
    files = rig.tiers->file_count();
    before = rig.tiers->query_range(s, {0, 1000 * kSecond});
    ASSERT_GT(files, 0u);
  }
  // Fresh instance on the same directory: identical durable state.
  TierStore::Options o;
  o.dir = dir;
  o.policy = short_policy();
  TierStore reopened(std::move(o));
  ASSERT_TRUE(reopened.open().is_ok());
  EXPECT_EQ(reopened.watermark(), wm);
  EXPECT_EQ(reopened.file_count(), files);
  EXPECT_EQ(reopened.quarantined_count(), 0u);
  const auto after = reopened.query_range(s, {0, 1000 * kSecond});
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].time, before[i].time);
    EXPECT_EQ(after[i].value, before[i].value);
  }
}

TEST(TierStoreTest, InjectedErrorAbortsThePassWithoutDamage) {
  const auto dir = scratch_dir("ioerror");
  resilience::FaultSpec spec;
  spec.fs_error_at = 2;  // second fs op of the pass fails
  resilience::FaultPlan plan(42, spec);
  Rig rig(dir, short_policy(), &plan);
  const SeriesId s{5};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(rig.hot.append(s, i * 10 * kSecond, i));
  }
  EXPECT_FALSE(rig.compactor->run_pass(250 * kSecond).is_ok());
  EXPECT_EQ(plan.injected().fs_errors, 1u);
  // Sources untouched: the hot store still owns every sample.
  EXPECT_EQ(rig.hot.query_range(s, {0, 1000 * kSecond}).size(), 20u);
  // The next pass (fault exhausted) succeeds and the ladder catches up.
  EXPECT_TRUE(rig.compactor->run_pass(251 * kSecond).is_ok());
  EXPECT_GT(rig.tiers->file_count(), 0u);
  TierSpanView<TimeSeriesStore> span(rig.tiers.get(), &rig.hot);
  EXPECT_EQ(span.query_range(s, {0, 1000 * kSecond}).size(), 20u);
}

TEST(TierStoreTest, EnospcFailsPassesUntilSpaceReturns) {
  const auto dir = scratch_dir("enospc");
  resilience::FaultSpec spec;
  spec.fs_enospc_p = 1.0;  // every space-consuming op fails
  resilience::FaultPlan plan(7, spec);
  Rig rig(dir, short_policy(), &plan);
  const SeriesId s{9};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(rig.hot.append(s, i * 10 * kSecond, i));
  }
  EXPECT_FALSE(rig.compactor->run_pass(250 * kSecond).is_ok());
  EXPECT_FALSE(rig.compactor->run_pass(260 * kSecond).is_ok());
  EXPECT_GT(plan.injected().fs_enospc, 0u);
  EXPECT_EQ(rig.hot.query_range(s, {0, 1000 * kSecond}).size(), 20u);
  plan.set_spec({});  // space recovered
  EXPECT_TRUE(rig.compactor->run_pass(270 * kSecond).is_ok());
  TierSpanView<TimeSeriesStore> span(rig.tiers.get(), &rig.hot);
  EXPECT_EQ(span.query_range(s, {0, 1000 * kSecond}).size(), 20u);
}

// Satellite: the stack wraps compactor I/O in a circuit breaker. Persistent
// fs failure opens it (passes stop being attempted — "stop compacting, keep
// serving"), and after the cooldown a half-open probe closes it again.
TEST(TierStoreTest, StackBreakerOpensUnderDiskFailureAndRecovers) {
  const std::string dir = scratch_dir("breaker");
  sim::ClusterParams params;
  params.shape.cabinets = 1;
  params.shape.chassis_per_cabinet = 1;
  params.shape.blades_per_chassis = 1;
  params.shape.nodes_per_blade = 2;
  sim::Cluster cluster(params);
  core::Config config;
  config.set("tier_dir", dir);
  config.set("chunk_points", "4");
  config.set("tier_hot_window_s", "60");
  config.set("compact_interval_s", "3600");  // we drive passes by hand
  config.set("probe_interval_s", "0");
  config.set("health_interval_s", "0");
  resilience::FaultPlan plan(3);
  stack::MonitoringStack stack(cluster, config, &plan);
  ASSERT_NE(stack.tiers(), nullptr);
  ASSERT_NE(stack.compactor(), nullptr);

  const auto m = cluster.registry().register_metric(
      {"test.flow", "u", "breaker test series", true,
       core::Priority::kStandard});
  const auto comp = cluster.registry().register_component(
      {"test.c", core::ComponentKind::kService, cluster.topology().system()});
  const auto s = cluster.registry().series(m, comp);
  std::vector<core::Sample> batch;
  for (int i = 0; i < 20; ++i) {
    batch.push_back({s, i * 10 * kSecond, double(i)});
  }
  stack.tsdb().hot().append_batch(batch);

  // Disk goes dark: every pass fails until the breaker opens and passes
  // stop being attempted at all.
  resilience::FaultSpec sick;
  sick.fs_error_p = 1.0;
  plan.set_spec(sick);
  core::TimePoint t = 300 * kSecond;
  for (int i = 0; i < 3; ++i, t += 10 * kSecond) stack.run_compaction(t);
  ASSERT_EQ(stack.compact_breaker()->state(), resilience::BreakerState::kOpen);
  const auto failed_ops = plan.fs_ops();
  stack.run_compaction(t);  // denied by the breaker: no I/O attempted
  EXPECT_EQ(plan.fs_ops(), failed_ops);
  // Serving continues throughout: the hot store still answers.
  EXPECT_EQ(stack.tsdb().hot().query_range(s, {0, 1000 * kMinute}).size(),
            20u);

  // Disk recovers; after the cooldown the half-open probe succeeds, the
  // breaker closes, and the ladder catches up.
  plan.set_spec({});
  t += core::kHour;
  stack.run_compaction(t);
  EXPECT_EQ(stack.compact_breaker()->state(),
            resilience::BreakerState::kClosed);
  EXPECT_GT(stack.tiers()->file_count(), 0u);
}

// A typo'd tier_policy must fall back to the standard ladder, not become a
// "keep nothing" ladder: every segment here is malformed (no colon, empty,
// non-numeric fields, negative resolution), so nothing survives parsing and
// the stack must behave exactly as if the knob were unset.
TEST(TierStoreTest, HostileTierPolicyFallsBackToTheStandardLadder) {
  const std::string dir = scratch_dir("tier_hostile_policy");
  sim::ClusterParams params;
  params.shape.cabinets = 1;
  params.tick = 5 * kSecond;
  params.seed = 11;
  sim::Cluster cluster(params);
  core::Config config;
  config.set("tier_dir", dir);
  config.set("chunk_points", "8");
  config.set("tier_hot_window_s", "60");
  config.set("compact_interval_s", "300");
  config.set("probe_interval_s", "0");
  config.set("health_interval_s", "0");
  config.set("tier_policy", "garbage;;;not:a,ladder;-5:x;10:,,");
  stack::MonitoringStack stack(cluster, config);
  ASSERT_NE(stack.tiers(), nullptr);

  const auto m = cluster.registry().register_metric(
      {"test.hostile", "u", "hostile policy series", true,
       core::Priority::kCritical});
  const auto comp = cluster.registry().register_component(
      {"test.h", core::ComponentKind::kService, cluster.topology().system()});
  const auto s = cluster.registry().series(m, comp);
  std::vector<core::Sample> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back({s, i * 10 * kSecond, double(i)});
  }
  stack.tsdb().hot().append_batch(batch);

  stack.run_compaction(30 * core::kMinute);
  // Under the standard ladder the raw tier keeps critical data for days, so
  // the pass must have produced a file and the samples must still answer.
  EXPECT_GT(stack.tiers()->file_count(), 0u);
  const auto pts = stack.tiers()->query_range(
      s, {core::TimePoint{0}, 30 * core::kMinute});
  EXPECT_FALSE(pts.empty());
}

}  // namespace
}  // namespace hpcmon::store
