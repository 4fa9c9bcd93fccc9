// MonitoringStack as a relay aggregator: relayed batches carry the node's
// SeriesIds, which the aggregator's own registry may never have interned.
// Such ids must not take the aggregator down, and a hostile id must not
// grow its per-series tables to the id's length.
#include <gtest/gtest.h>

#include <set>

#include "relay/client.hpp"
#include "serve/client.hpp"
#include "stack/stack.hpp"

namespace hpcmon::stack {
namespace {

sim::ClusterParams cluster_params() {
  sim::ClusterParams p;
  p.shape.cabinets = 1;
  p.shape.chassis_per_cabinet = 1;
  p.shape.blades_per_chassis = 2;
  p.shape.nodes_per_blade = 4;
  p.tick = 5 * core::kSecond;
  p.seed = 91;
  return p;
}

TEST(StackRelay, UnknownRelayedSeriesIdsDoNotKillTheAggregator) {
  sim::Cluster cluster(cluster_params());
  auto cfg = core::Config::parse(
      "serve_port = 0\ningest_shards = 2\nprobe_interval_s = 0\n"
      "health_interval_s = 0\n");
  ASSERT_TRUE(cfg.is_ok());
  MonitoringStack aggregator(cluster, cfg.value());
  ASSERT_NE(aggregator.serve(), nullptr);
  ASSERT_TRUE(aggregator.serve()->running()) << aggregator.serve()->error();
  const auto port = aggregator.serve()->port();

  auto& reg = cluster.registry();
  const core::SeriesId known_a =
      reg.series("node.cpu_util", cluster.topology().node(0));
  const core::SeriesId known_b =
      reg.series("node.cpu_util", cluster.topology().node(1));
  // Past the registry but plausible (a node-local id): stored, matches no
  // subscription. At the top of the id space: refused at the wire.
  const core::SeriesId unknown{
      static_cast<std::uint32_t>(reg.series_count() + 100)};
  const core::SeriesId hostile{0xFFFFFFF0u};

  serve::ServeClient sub;
  ASSERT_TRUE(sub.connect(port));
  ASSERT_TRUE(sub.subscribe("#").is_ok());
  const auto snapshot = sub.poll_push(2000);
  ASSERT_TRUE(snapshot.has_value());
  ASSERT_EQ(snapshot->type, serve::MsgType::kSnapshot);

  relay::RelayConfig rc;
  rc.upstream_port = port;
  relay::RelayClient node(rc);
  ASSERT_TRUE(node.start());
  core::SampleBatch batch;
  batch.sweep_time = core::kMinute;
  batch.samples = {{known_a, core::kMinute, 1.0},
                   {hostile, core::kMinute, 2.0},
                   {unknown, core::kMinute, 3.0},
                   {known_b, core::kMinute, 4.0}};
  ASSERT_GT(node.submit(batch), 0u);
  ASSERT_TRUE(node.drain_for(5000));
  node.stop();
  aggregator.drain_ingest();

  // The known ids reach the `#` subscriber; the unknown ones never do.
  std::set<std::uint32_t> delivered;
  while (delivered.size() < 2) {
    const auto push = sub.poll_push(2000);
    ASSERT_TRUE(push.has_value()) << "known ids were not delivered";
    if (push->type != serve::MsgType::kDelta) continue;
    for (const auto& s : push->batch.samples) delivered.insert(core::raw(s.series));
  }
  EXPECT_EQ(delivered, (std::set<std::uint32_t>{core::raw(known_a),
                                                core::raw(known_b)}));
  EXPECT_FALSE(sub.poll_push(200).has_value());

  // Still serving; the plausible id was stored, the hostile one refused.
  serve::ServeClient reader;
  ASSERT_TRUE(reader.connect(port));
  const auto latest = reader.latest(known_b);
  ASSERT_TRUE(latest.is_ok()) << latest.message();
  ASSERT_TRUE(latest.value().has_value());
  EXPECT_EQ(latest.value()->value, 4.0);
  ASSERT_TRUE(aggregator.sharded_store()->latest(unknown).has_value());
  EXPECT_FALSE(aggregator.sharded_store()->has_series(hostile));
  const auto stats = aggregator.serve()->stats();
  EXPECT_EQ(stats.relay_applied_samples, 3u);
  EXPECT_EQ(stats.relay_refused_samples, 1u);
}

}  // namespace
}  // namespace hpcmon::stack
