// End-to-end pipeline: simulated platform -> synchronized collection ->
// EventRouter transport -> numeric store + log store + job store -> analysis
// (rules, detectors) -> alerts -> automated response -> dashboard queries.
//
// This is the paper's Table I exercised as one running system.
#include <gtest/gtest.h>

#include <filesystem>

#include "analysis/rules.hpp"
#include "collect/collection.hpp"
#include "collect/probes.hpp"
#include "collect/samplers.hpp"
#include "response/actions.hpp"
#include "response/alerts.hpp"
#include "store/jobstore.hpp"
#include "store/logstore.hpp"
#include "store/compactor.hpp"
#include "store/tier.hpp"
#include "store/tsdb.hpp"
#include "transport/codec.hpp"
#include "transport/event_router.hpp"
#include "viz/drilldown.hpp"
#include "viz/query.hpp"

namespace hpcmon {
namespace {

struct Pipeline {
  sim::Cluster cluster;
  transport::EventRouter router;
  store::TimeSeriesStore tsdb{64};  // small chunks: 32 min of 30 s sweeps
  store::LogStore logs;
  store::JobStore jobs;
  analysis::RuleEngine rules;
  response::AlertManager alerts;
  response::ActionDispatcher actions;
  collect::CollectionService collection{cluster};

  static sim::ClusterParams params() {
    sim::ClusterParams p;
    p.shape.cabinets = 2;
    p.shape.chassis_per_cabinet = 2;
    p.shape.blades_per_chassis = 4;
    p.shape.nodes_per_blade = 4;  // 64 nodes
    p.shape.gpu_node_fraction = 0.25;
    p.fabric_kind = sim::FabricKind::kDragonfly;
    p.seed = 99;
    return p;
  }

  Pipeline() : cluster(params()) {
    // Collection -> router (binary frames), router -> stores.
    for (auto& sampler : collect::make_all_samplers(cluster)) {
      collection.add_sampler(std::move(sampler), 30 * core::kSecond,
                             collect::router_sample_sink(router));
    }
    collection.add_log_collector(10 * core::kSecond,
                                 collect::router_log_sink(router));
    router.subscribe(transport::FrameType::kSamples,
                     [this](const transport::Frame& f) {
                       auto batch = transport::decode_samples(f);
                       ASSERT_TRUE(batch.is_ok());
                       tsdb.append_batch(batch.value().samples);
                     });
    router.subscribe(transport::FrameType::kLogs,
                     [this](const transport::Frame& f) {
                       auto events = transport::decode_logs(f);
                       ASSERT_TRUE(events.is_ok());
                       for (auto& e : events.value()) {
                         for (const auto& match : rules.process(e)) {
                           alerts.raise({match.time,
                                         response::AlertSeverity::kWarning,
                                         match.rule_name, match.component,
                                         match.detail});
                         }
                       }
                       logs.append_batch(std::move(events).take());
                     });
    for (auto& r : analysis::standard_platform_rules()) {
      rules.add_rule(std::move(r));
    }
    alerts.add_sink(
        [this](const response::Alert& a) { actions.dispatch(a); });
    // Scheduler lifecycle -> job store.
    cluster.scheduler().set_on_start([this](const sim::JobRecord& rec) {
      jobs.record_start(to_meta(rec));
    });
    cluster.scheduler().set_on_end([this](const sim::JobRecord& rec) {
      jobs.record_end(to_meta(rec));
    });
  }

  static store::JobMeta to_meta(const sim::JobRecord& rec) {
    store::JobMeta m;
    m.id = rec.id;
    m.app_name = rec.request.profile.name;
    m.nodes = rec.nodes;
    m.submit_time = rec.submit_time;
    m.start_time = rec.start_time;
    m.end_time = rec.end_time;
    m.failed = rec.state == sim::JobState::kFailed;
    return m;
  }
};

TEST(IntegrationTest, FullPipelineEndToEnd) {
  Pipeline p;
  sim::WorkloadParams w;
  w.mean_interarrival = 30 * core::kSecond;
  w.max_nodes = 16;
  w.median_runtime = 3 * core::kMinute;
  p.cluster.start_workload(w);
  // Inject a GPU failure mid-run; the hardware-critical rule should alert.
  p.cluster.inject_gpu_failure(5 * core::kMinute, 2);
  p.cluster.run_for(15 * core::kMinute);

  // Numeric data flowed through the binary transport into the TSDB.
  const auto power_sid = p.cluster.registry().series(
      "power.system_w", p.cluster.topology().system());
  const auto pts = p.tsdb.query_range(power_sid, {0, p.cluster.now()});
  EXPECT_GE(pts.size(), 25u);  // 30 sweeps in 15 min
  for (const auto& pt : pts) EXPECT_GT(pt.value, 1000.0);

  // Logs flowed and are queryable.
  EXPECT_GT(p.logs.size(), 10u);
  store::LogQuery q;
  q.facility = core::LogFacility::kScheduler;
  EXPECT_GT(p.logs.count(q), 0u);

  // Jobs recorded with node allocations and timeframes.
  EXPECT_GT(p.jobs.size(), 5u);
  const auto running = p.jobs.running_at(10 * core::kMinute);
  for (const auto& j : running) EXPECT_FALSE(j.nodes.empty());

  // The GPU failure produced a critical hardware log and an alert.
  store::LogQuery gq;
  gq.max_severity = core::Severity::kCritical;
  gq.facility = core::LogFacility::kHardware;
  EXPECT_GT(p.logs.count(gq), 0u);
  bool hw_alert = false;
  for (const auto& a : p.alerts.active()) {
    if (a.key == "hw_critical") hw_alert = true;
  }
  EXPECT_TRUE(hw_alert);

  // Transport stats are consistent.
  EXPECT_GT(p.router.stats().frames, 30u);
  EXPECT_EQ(p.router.stats().dropped, 0u);
}

TEST(IntegrationTest, RetentionPreservesQueryabilityOverDays) {
  Pipeline p;
  sim::WorkloadParams w;
  w.mean_interarrival = 2 * core::kMinute;
  w.max_nodes = 8;
  p.cluster.start_workload(w);
  p.cluster.run_for(2 * core::kHour);
  const auto power_sid = p.cluster.registry().series(
      "power.system_w", p.cluster.topology().system());
  const core::TimeRange all{0, p.cluster.now() + 1};
  const auto raw = p.tsdb.query_range(power_sid, all);
  ASSERT_GT(raw.size(), 200u);

  // Age every sealed chunk out of the hot store: one compaction pass 7 h
  // ahead of the clock, behind the default 6 h hot window.
  const std::string dir = "/tmp/hpcmon_integration_tiers";
  std::filesystem::remove_all(dir);
  store::TierStore::Options o;
  o.dir = dir;
  store::TierStore tiers(std::move(o));
  ASSERT_TRUE(tiers.open().is_ok());
  store::Compactor compactor({&p.tsdb}, &tiers, store::CompactorOptions{});
  ASSERT_TRUE(compactor.run_pass(p.cluster.now() + 7 * core::kHour).is_ok());
  EXPECT_LT(p.tsdb.query_range(power_sid, all).size(), raw.size());

  // Full-fidelity history still answers through the span view, and so does
  // the dashboard's downsampled path.
  const store::TierSpanView<store::TimeSeriesStore> span(&tiers, &p.tsdb);
  EXPECT_EQ(span.query_range(power_sid, all), raw);
  EXPECT_FALSE(
      span.downsample(power_sid, all, 5 * core::kMinute, store::Agg::kMean)
          .empty());
  std::filesystem::remove_all(dir);
}

TEST(IntegrationTest, DrillDownFindsInjectedIoJob) {
  Pipeline p;
  // Background compute jobs plus one I/O blaster.
  sim::JobRequest io;
  io.num_nodes = 8;
  io.nominal_runtime = 6 * core::kMinute;
  io.profile = sim::app_io_checkpoint();
  p.cluster.submit_at(core::kMinute, io);
  sim::JobRequest quiet;
  quiet.num_nodes = 8;
  quiet.nominal_runtime = 10 * core::kMinute;
  quiet.profile = sim::app_compute_bound();
  p.cluster.submit_at(core::kMinute, quiet);
  p.cluster.run_for(8 * core::kMinute);

  // Find the aggregate write spike.
  auto& reg = p.cluster.registry();
  std::vector<core::ComponentId> node_comps;
  for (int i = 0; i < p.cluster.topology().num_nodes(); ++i) {
    node_comps.push_back(p.cluster.topology().node(i));
  }
  const auto agg = viz::aggregate_across(p.tsdb, reg, "node.write_mbps",
                                         node_comps, {0, p.cluster.now()},
                                         store::Agg::kSum);
  ASSERT_FALSE(agg.empty());
  auto peak = agg[0];
  for (const auto& pt : agg) {
    if (pt.value > peak.value) peak = pt;
  }
  EXPECT_GT(peak.value, 1000.0);

  // Drill down at the spike: the io_checkpoint job is responsible.
  viz::DrillDown drill(p.tsdb, reg, p.jobs);
  const auto result = drill.investigate(
      "node.write_mbps", node_comps, peak.time, core::kMinute,
      [&p](core::ComponentId c) { return p.cluster.topology().node_index(c); });
  ASSERT_TRUE(result.responsible_job.has_value());
  EXPECT_EQ(result.responsible_job->app_name, "io_checkpoint");
  EXPECT_GT(result.job_share, 0.9);
}

}  // namespace
}  // namespace hpcmon
