// End-to-end resilience: crash recovery from the WAL (hot tier restored
// byte-identical to an uninterrupted run), shutdown draining the ingest
// tier, WAL truncation behind the tier watermark, and the operator
// surface for all of it.
#include "stack/stack.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hpcmon::stack {
namespace {

namespace fs = std::filesystem;

sim::ClusterParams cluster_params() {
  sim::ClusterParams p;
  p.shape.cabinets = 2;
  p.shape.chassis_per_cabinet = 2;
  p.shape.blades_per_chassis = 4;
  p.shape.nodes_per_blade = 4;
  p.shape.gpu_node_fraction = 0.25;
  p.tick = 5 * core::kSecond;
  p.seed = 61;
  return p;
}

core::Config parse(const std::string& text) {
  auto r = core::Config::parse(text);
  EXPECT_TRUE(r.is_ok());
  return r.value();
}

std::string fresh_wal_dir(const std::string& name) {
  const std::string dir = "/tmp/hpcmon_recovery_test_" + name;
  fs::remove_all(dir);
  return dir;
}

// The acceptance drill: run a stack with a WAL, crash it mid-flight (no
// retention flush, no orderly shutdown), restart on the same WAL directory,
// and verify the recovered hot tier answers every query byte-identically to
// a reference stack that never crashed.
TEST(StackRecoveryTest, CrashRecoveryRestoresHotTierByteIdentical) {
  const auto wal_dir = fresh_wal_dir("crash");
  const std::string cfg = "sample_interval_s = 30\nwal_path = " + wal_dir + "\n";
  constexpr auto kRunTime = 40 * core::kMinute;

  // Reference: identical cluster seed, no WAL, uninterrupted.
  sim::Cluster ref_cluster(cluster_params());
  MonitoringStack ref(ref_cluster, parse("sample_interval_s = 30\n"));
  ref_cluster.run_for(kRunTime);

  // Victim: same deterministic cluster, WAL enabled, then a hard crash.
  sim::Cluster cluster(cluster_params());
  std::uint64_t walled_records = 0;
  {
    auto stack = std::make_unique<MonitoringStack>(cluster, parse(cfg));
    cluster.run_for(kRunTime);
    ASSERT_NE(stack->wal(), nullptr);
    EXPECT_GT(stack->wal()->stats().appended_records, 0u);
    EXPECT_EQ(stack->wal()->stats().append_failures, 0u);
    walled_records = stack->wal()->stats().appended_records;
    stack->simulate_crash();  // destructor skips shutdown(): hot tier lost
  }

  // Restart on the same WAL directory: construction replays every record.
  // (No run_for after this point: the comparison is pure recovery.)
  MonitoringStack recovered(cluster, parse(cfg));
  EXPECT_EQ(recovered.replay_stats().records, walled_records);
  EXPECT_GT(recovered.replay_stats().samples, 0u);
  EXPECT_EQ(recovered.replay_stats().corrupt_skipped, 0u);
  EXPECT_EQ(recovered.replay_stats().bad_segments, 0u);

  // Every series the reference collected must answer identically from the
  // recovered store. SeriesIds can differ across the two registries (the
  // WAL run interns resilience.* metrics), so map through metric name +
  // component, which are stable.
  auto& ref_reg = ref_cluster.registry();
  auto& reg = cluster.registry();
  const core::TimeRange all{0, ref_cluster.now() + core::kSecond};
  std::size_t compared = 0;
  std::size_t nonempty = 0;
  for (std::uint32_t i = 0; i < ref_reg.series_count(); ++i) {
    const auto ref_sid = core::SeriesId{i};
    const auto& metric = ref_reg.metric(ref_reg.series_metric(ref_sid));
    const auto sid = reg.series(metric.name, ref_reg.series_component(ref_sid));
    const auto want = ref.tsdb().hot().query_range(ref_sid, all);
    const auto got = recovered.tsdb().hot().query_range(sid, all);
    EXPECT_EQ(got, want) << "series " << ref_reg.series_name(ref_sid);
    ++compared;
    if (!want.empty()) ++nonempty;
  }
  EXPECT_GT(compared, 100u);  // the sweep really covers the whole system
  EXPECT_GT(nonempty, 50u);
  fs::remove_all(wal_dir);
}

// Crash vs. clean shutdown: without the WAL the hot tier dies with the
// process; with it, nothing already acknowledged is lost.
TEST(StackRecoveryTest, WithoutWalACrashLosesTheHotTier) {
  sim::Cluster cluster(cluster_params());
  {
    auto stack = std::make_unique<MonitoringStack>(cluster, core::Config{});
    cluster.run_for(10 * core::kMinute);
    EXPECT_GT(stack->tsdb().hot().stats().points, 0u);
    stack->simulate_crash();
  }
  MonitoringStack after(cluster, core::Config{});
  EXPECT_EQ(after.replay_stats().records, 0u);
  EXPECT_EQ(after.tsdb().hot().stats().points, 0u);
}

TEST(StackRecoveryTest, ShutdownDrainsIngestBeforeTeardown) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(R"(
      sample_interval_s = 30
      ingest_shards = 2
      ingest_policy = block
  )"));
  cluster.run_for(20 * core::kMinute);
  stack.shutdown();

  ASSERT_NE(stack.ingest_pipeline(), nullptr);
  const auto snap = stack.ingest_pipeline()->metrics().snapshot();
  EXPECT_GT(snap.submitted_samples, 0u);
  // Everything submitted was appended (or rejected as out-of-order) — no
  // sample stranded in a shard queue when the workers stopped.
  EXPECT_EQ(snap.submitted_samples,
            snap.accepted_samples + snap.out_of_order_samples);
  EXPECT_EQ(snap.dropped_samples, 0u);
  ASSERT_NE(stack.sharded_store(), nullptr);
  EXPECT_EQ(stack.sharded_store()->stats().points, snap.accepted_samples);
  // shutdown() is idempotent.
  stack.shutdown();
}

TEST(StackRecoveryTest, WalTruncatesOnlyBehindTheTierWatermark) {
  const auto wal_dir = fresh_wal_dir("truncate");
  const auto tier_dir = fresh_wal_dir("truncate_tiers");
  const std::string cfg =
      "tier_hot_window_s = 1800\nsample_interval_s = 30\nchunk_points = 32\n"
      "wal_segment_bytes = 4096\ntier_dir = " + tier_dir +
      "\nwal_path = " + wal_dir + "\n";
  sim::Cluster cluster(cluster_params());
  auto stack = std::make_unique<MonitoringStack>(cluster, parse(cfg));
  cluster.run_for(3 * core::kHour);  // hourly compaction fires three times
  ASSERT_NE(stack->wal(), nullptr);
  ASSERT_NE(stack->tiers(), nullptr);
  EXPECT_GT(stack->tiers()->file_count(), 0u);
  // Small segments rotated often; everything behind the watermark is in a
  // tier file, so those segments were truncated away.
  EXPECT_GT(stack->wal()->stats().segments_created, 2u);
  EXPECT_GT(stack->wal()->stats().segments_truncated, 0u);

  // Every WAL-carried series, answered across hot + tiers before a crash.
  // hpcmon.self.* series are left out: the stack appends them straight to
  // the store and never writes them to the WAL.
  auto& reg = cluster.registry();
  const core::TimeRange all{0, cluster.now() + core::kSecond};
  std::vector<core::SeriesId> series;
  std::vector<std::vector<core::TimedValue>> before;
  {
    const store::TierSpanView<ingest::ShardedTimeSeriesStore> span(
        stack->tiers(), stack->sharded_store());
    for (std::uint32_t i = 0; i < reg.series_count(); ++i) {
      const core::SeriesId sid{i};
      if (reg.metric(reg.series_metric(sid)).name.starts_with("hpcmon.self.")) {
        continue;
      }
      series.push_back(sid);
      before.push_back(span.query_range(sid, all));
    }
  }
  stack->simulate_crash();
  stack.reset();

  // Restart on the same directories: tier recovery, then WAL replay of
  // everything above the watermark.
  MonitoringStack recovered(cluster, parse(cfg));
  ASSERT_NE(recovered.tiers(), nullptr);
  EXPECT_GT(recovered.replay_stats().samples, 0u);
  const store::TierSpanView<ingest::ShardedTimeSeriesStore> span(
      recovered.tiers(), recovered.sharded_store());
  std::size_t tier_spanning = 0;
  for (std::size_t k = 0; k < series.size(); ++k) {
    EXPECT_EQ(span.query_range(series[k], all), before[k])
        << "series " << reg.series_name(series[k]);
    if (!recovered.tiers()->query_range(series[k], all).empty()) {
      ++tier_spanning;
    }
  }
  EXPECT_GT(series.size(), 100u);
  EXPECT_GT(tier_spanning, 50u);
  fs::remove_all(tier_dir);
  fs::remove_all(wal_dir);
}

TEST(StackRecoveryTest, SupervisedStackCollectsNormally) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(R"(
      sample_interval_s = 30
      breaker_threshold = 3
  )"));
  cluster.run_for(10 * core::kMinute);
  ASSERT_FALSE(stack.supervised_samplers().empty());
  const auto sup = stack.supervisor_stats();
  EXPECT_GT(sup.calls, 0u);
  EXPECT_EQ(sup.errors, 0u);
  EXPECT_EQ(sup.skipped, 0u);
  EXPECT_GT(sup.samples_merged, 0u);
  // Healthy samplers: every breaker closed, and the stack says so.
  for (const auto* s : stack.supervised_samplers()) {
    EXPECT_EQ(s->breaker_state(), resilience::BreakerState::kClosed);
  }
  EXPECT_NE(stack.status().find("breakers closed="), std::string::npos);
  // The tier's own counters are re-ingested as hpcmon.self.* series.
  EXPECT_TRUE(cluster.registry().find_metric(
      "hpcmon.self.resilience.sampler_successes"));
}

TEST(StackRecoveryTest, StatusSurfacesWalAndDeadLetters) {
  const auto wal_dir = fresh_wal_dir("status");
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(
      cluster, parse("sample_interval_s = 30\nwal_path = " + wal_dir + "\n"));
  cluster.run_for(5 * core::kMinute);
  const auto line = stack.status();
  EXPECT_NE(line.find("resilience.wal_records="), std::string::npos);
  EXPECT_NE(line.find("dlq=0"), std::string::npos);
  EXPECT_TRUE(
      cluster.registry().find_metric("hpcmon.self.resilience.wal_records"));
  fs::remove_all(wal_dir);
}

// What a stack holds once drained, keyed by series name (SeriesIds differ
// across configs: only a pipeline registers hpcmon.self.ingest.* series).
// hpcmon.self.* is left out: those are the stack's own, config-dependent
// counters, and they never enter the WAL.
struct Holdings {
  std::map<std::string, std::vector<core::TimedValue>> history;
  std::map<std::string, rollup::RollupStat> system_level;
};

Holdings holdings(MonitoringStack& stack) {
  Holdings h;
  auto& reg = stack.cluster().registry();
  const core::TimeRange all{0, stack.cluster().now() + core::kSecond};
  const store::TierSpanView<ingest::ShardedTimeSeriesStore> span(
      stack.tiers(), stack.sharded_store());
  for (std::uint32_t i = 0; i < reg.series_count(); ++i) {
    const auto name = reg.series_name(core::SeriesId{i});
    if (name.starts_with("hpcmon.self.")) continue;
    h.history[name] = span.query_range(core::SeriesId{i}, all);
  }
  if (stack.rollup() != nullptr) {
    stack.rollup_tick();
    const auto snap = stack.rollup()->snapshot();
    const auto system = stack.cluster().topology().system();
    for (const auto& metric : snap->metrics()) {
      if (metric.starts_with("hpcmon.self.")) continue;
      if (const auto* stat = snap->find(system, metric)) {
        h.system_level[metric] = *stat;
      }
    }
  }
  return h;
}

struct OneStoreRun {
  Holdings before_crash;
  Holdings replayed;
};

/// Seeded sweeps through a stack with WAL, tiers and rollup on
/// `ingest_shards` shards; drained after every sweep so the pipeline's
/// compaction passes see what the inline path sees. Then a crash and a
/// restart on the same directories.
OneStoreRun run_one_store(int shards) {
  const auto tag = "one_store_" + std::to_string(shards);
  const auto wal_dir = fresh_wal_dir(tag + "_wal");
  const auto tier_dir = fresh_wal_dir(tag + "_tiers");
  const std::string cfg =
      "sample_interval_s = 30\nchunk_points = 32\ntier_hot_window_s = 1800\n"
      "compact_interval_s = 600\nwal_segment_bytes = 8192\nrollup_enable = 1\n"
      "ingest_shards = " + std::to_string(shards) + "\nwal_path = " + wal_dir +
      "\ntier_dir = " + tier_dir + "\n";
  sim::Cluster cluster(cluster_params());
  OneStoreRun run;
  {
    auto stack = std::make_unique<MonitoringStack>(cluster, parse(cfg));
    for (int sweep = 0; sweep < 2 * 120; ++sweep) {
      cluster.run_for(30 * core::kSecond);
      stack->drain_ingest();
    }
    EXPECT_GT(stack->tiers()->file_count(), 0u);  // history spans tiers
    run.before_crash = holdings(*stack);
    stack->simulate_crash();
  }
  MonitoringStack recovered(cluster, parse(cfg));
  EXPECT_GT(recovered.replay_stats().samples, 0u);
  recovered.drain_ingest();
  run.replayed = holdings(recovered);
  recovered.shutdown();
  fs::remove_all(wal_dir);
  fs::remove_all(tier_dir);
  return run;
}

class OneStoreTest : public ::testing::TestWithParam<int> {};

// ingest_shards only sets how many shards the one store has and whether a
// pipeline feeds them: the stored history, its rollup and its crash
// recovery are the same for 0 (one shard, inline), 1 and 2.
TEST_P(OneStoreTest, ShardCountChangesNothingStored) {
  static const OneStoreRun reference = run_one_store(0);
  const OneStoreRun run = run_one_store(GetParam());
  ASSERT_GT(reference.before_crash.history.size(), 100u);
  ASSERT_FALSE(reference.before_crash.system_level.empty());
  EXPECT_TRUE(run.before_crash.history == reference.before_crash.history);
  EXPECT_TRUE(run.before_crash.system_level ==
              reference.before_crash.system_level);
  EXPECT_TRUE(run.replayed.history == reference.replayed.history);
  // Recovery is byte-exact for every WAL-carried series.
  EXPECT_TRUE(run.replayed.history == run.before_crash.history);
}

INSTANTIATE_TEST_SUITE_P(IngestShards, OneStoreTest, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace hpcmon::stack
