#include "stack/stack.hpp"

#include <gtest/gtest.h>

#include <filesystem>

namespace hpcmon::stack {
namespace {

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

std::string fresh_tier_dir(const std::string& name) {
  const std::string dir = "/tmp/hpcmon_stack_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// A 30-minute hot window with 32-point chunks, so the hourly compaction
/// moves real history into the tier ladder within a few simulated hours.
std::string tiered_config(const std::string& dir) {
  return "tier_hot_window_s = 1800\nsample_interval_s = 30\n"
         "chunk_points = 32\ntier_dir = " +
         dir + "\n";
}

TEST(StackTest, DefaultConfigCollectsEverything) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, core::Config{});
  sim::WorkloadParams w;
  w.mean_interarrival = core::kMinute;
  w.max_nodes = 8;
  cluster.start_workload(w);
  cluster.run_for(30 * core::kMinute);

  const auto st = stack.tsdb().hot().stats();
  EXPECT_GT(st.points, 1000u);
  EXPECT_GT(stack.logs().size(), 5u);
  EXPECT_GT(stack.jobs().size(), 3u);
  EXPECT_GT(stack.router().stats().frames, 30u);
  // Probe + health samplers installed by default.
  EXPECT_TRUE(cluster.registry().find_metric("probe.dgemm_seconds"));
  EXPECT_TRUE(cluster.registry().find_metric("health.ok"));
  EXPECT_NE(stack.status().find("series="), std::string::npos);
  // Read-path self-metrics surface as store.* counters, and querying moves
  // them (rules/detectors already query during collection, so just verify
  // the counter is live and reported).
  const auto qs0 = stack.store_query_stats();
  (void)stack.tsdb().hot().query_range(
      cluster.registry().series("node.cpu_load", cluster.topology().node(0)),
      {0, core::kDay});
  EXPECT_GT(stack.store_query_stats().queries, qs0.queries);
  EXPECT_NE(stack.status().find("store.queries="), std::string::npos);
  EXPECT_NE(stack.status().find("store.cache_hits="), std::string::npos);
}

TEST(StackTest, ConfigDisablesOptionalStages) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(R"(
      probe_interval_s = 0
      health_interval_s = 0
      rules = false
  )"));
  cluster.run_for(15 * core::kMinute);
  EXPECT_FALSE(cluster.registry().find_metric("probe.dgemm_seconds"));
  EXPECT_FALSE(cluster.registry().find_metric("health.ok"));
  EXPECT_EQ(stack.rules().rule_count(), 0u);
}

TEST(StackTest, SampleIntervalIsRespected) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse("sample_interval_s = 30\n"));
  cluster.run_for(10 * core::kMinute);
  const auto sid = cluster.registry().series("power.system_w",
                                             cluster.topology().system());
  const auto pts = stack.tsdb().hot().query_range(sid, {0, cluster.now()});
  ASSERT_GE(pts.size(), 19u);  // 10 min / 30 s
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].time - pts[i - 1].time, 30 * core::kSecond);
  }
}

TEST(StackTest, RulesRaiseAlertsAndActionsFire) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(R"(
      quarantine_on_hw_critical = true
      gate_repair_s = 600
  )"));
  cluster.inject_gpu_failure(2 * core::kMinute, 1);
  cluster.run_for(10 * core::kMinute);
  bool hw = false;
  for (const auto& a : stack.alerts().active()) {
    if (a.key == "hw_critical") hw = true;
  }
  EXPECT_TRUE(hw);
  ASSERT_FALSE(stack.actions().log().empty());
  EXPECT_EQ(stack.actions().log()[0].action, "quarantine");
}

TEST(StackTest, NoveltyPipelineCollectsReports) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(R"(
      novelty = true
      novelty_training_s = 600
  )"));
  cluster.run_for(15 * core::kMinute);
  cluster.emit_log({cluster.now(), cluster.now(), cluster.topology().node(0),
                    core::LogFacility::kConsole, core::Severity::kError,
                    core::kNoJob, "xyzzy: completely novel failure mode"});
  cluster.run_for(core::kMinute);
  bool found = false;
  for (const auto& n : stack.novelty_reports()) {
    if (n.tmpl.find("xyzzy") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(StackTest, GateInstalledFromConfig) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse("gate_pre = true\n"));
  ASSERT_NE(stack.gate_stats(), nullptr);
  cluster.inject_gpu_failure(core::kSecond, 0);
  sim::JobRequest req;
  req.num_nodes = 8;
  req.nominal_runtime = core::kMinute;
  req.profile = sim::app_compute_bound();
  cluster.submit_at(5 * core::kSecond, req);
  cluster.run_for(5 * core::kMinute);
  EXPECT_GT(stack.gate_stats()->pre_checks, 0u);
  EXPECT_EQ(stack.gate_stats()->pre_failures, 1u);
}

TEST(StackTest, TierDirSpillsToDiskAndReloads) {
  const auto dir = fresh_tier_dir("reload");
  sim::Cluster cluster(cluster_params());
  core::SeriesId sid{0};
  std::vector<core::TimedValue> spilled;
  {
    MonitoringStack stack(cluster, parse(tiered_config(dir)));
    cluster.run_for(3 * core::kHour);
    ASSERT_NE(stack.tiers(), nullptr);
    EXPECT_GT(stack.tiers()->file_count(), 0u);
    sid = cluster.registry().series("power.system_w",
                                    cluster.topology().system());
    spilled = stack.tiers()->query_range(sid, {0, cluster.now()});
  }
  EXPECT_FALSE(spilled.empty());
  // Locate and reload: a fresh TierStore recovered from the directory alone
  // serves the same history the stack spilled.
  store::TierStore::Options o;
  o.dir = dir;
  store::TierStore reloaded(std::move(o));
  ASSERT_TRUE(reloaded.open().is_ok());
  EXPECT_EQ(reloaded.query_range(sid, {0, cluster.now()}), spilled);
  std::filesystem::remove_all(dir);
}

TEST(StackTest, NumericAlertsFireOnInjectedConditions) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse("sample_interval_s = 30\n"));
  cluster.inject_corrosion_excursion(5 * core::kMinute, 30.0, core::kHour);
  cluster.inject_mem_leak(5 * core::kMinute, 2, 600.0, 2 * core::kHour);
  cluster.run_for(90 * core::kMinute);
  bool corrosion = false;
  bool low_mem = false;
  for (const auto& a : stack.alerts().active()) {
    if (a.key == "facility.corrosion") corrosion = true;
    if (a.key == "node.low_memory" &&
        a.component == cluster.topology().node(2)) {
      low_mem = true;
    }
  }
  EXPECT_TRUE(corrosion);
  EXPECT_TRUE(low_mem);
}

TEST(StackTest, NumericAlertsCanBeDisabled) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse("numeric_alerts = false\n"));
  cluster.inject_corrosion_excursion(core::kMinute, 30.0, core::kHour);
  cluster.run_for(30 * core::kMinute);
  for (const auto& a : stack.alerts().active()) {
    EXPECT_NE(a.key, "facility.corrosion");
  }
}

TEST(StackTest, CompactionScheduleTiersHistory) {
  const auto dir = fresh_tier_dir("schedule");
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(tiered_config(dir)));
  cluster.run_for(3 * core::kHour);  // hourly compaction fires three times
  ASSERT_NE(stack.tiers(), nullptr);
  EXPECT_GT(stack.tiers()->file_count(), 0u);
  const auto sid = cluster.registry().series("power.system_w",
                                             cluster.topology().system());
  const core::TimeRange all{0, cluster.now() + 1};
  const auto hot = stack.tsdb().hot().query_range(sid, all);
  // The oldest chunks left the hot store, yet the span view still answers
  // every sweep of the run exactly once, at full fidelity.
  const store::TierSpanView<ingest::ShardedTimeSeriesStore> span(
      stack.tiers(), stack.sharded_store());
  const auto full = span.query_range(sid, all);
  ASSERT_FALSE(hot.empty());
  EXPECT_GT(hot.front().time, 30 * core::kSecond);
  ASSERT_GT(full.size(), 300u);
  EXPECT_EQ(full.front().time, 30 * core::kSecond);
  EXPECT_EQ(full.back(), hot.back());
  for (std::size_t i = 1; i < full.size(); ++i) {
    EXPECT_EQ(full[i].time - full[i - 1].time, 30 * core::kSecond);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hpcmon::stack
