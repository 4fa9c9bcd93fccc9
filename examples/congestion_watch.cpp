// congestion_watch: SNL-style continuous HSN congestion monitoring
// (Sec. II.9) combined with HLRS aggressor/victim analysis (Sec. II.10).
//
// Samples link counters synchronously every 30s for four hours of mixed
// production, grades machine congestion per sweep, prints the congestion
// timeline with region details for the worst sweep, and closes with the
// runtime-variability classification of the workload.
#include <cstdio>
#include <map>

#include "analysis/congestion.hpp"
#include "analysis/streaming.hpp"
#include "analysis/variability.hpp"
#include "collect/collection.hpp"
#include "collect/samplers.hpp"
#include "sim/cluster.hpp"
#include "store/jobstore.hpp"
#include "store/tsdb.hpp"

using namespace hpcmon;

int main() {
  sim::ClusterParams params;
  params.shape.cabinets = 2;
  params.shape.chassis_per_cabinet = 2;
  params.shape.blades_per_chassis = 6;
  params.shape.nodes_per_blade = 4;  // 96 nodes
  params.fabric_kind = sim::FabricKind::kTorus3D;
  params.placement = sim::PlacementPolicy::kRandom;  // fragmented era
  params.tick = 10 * core::kSecond;
  params.seed = 13;
  sim::Cluster cluster(params);

  store::TimeSeriesStore tsdb;
  store::JobStore jobs;
  cluster.scheduler().set_on_end([&jobs](const sim::JobRecord& rec) {
    store::JobMeta m;
    m.id = rec.id;
    m.app_name = rec.request.profile.name;
    m.nodes = rec.nodes;
    m.start_time = rec.start_time;
    m.end_time = rec.end_time;
    jobs.record_end(m);
  });
  collect::CollectionService collection(cluster);
  collection.add_sampler(std::make_unique<collect::HsnSampler>(cluster),
                         30 * core::kSecond, collect::store_sink(tsdb));

  // Mixed workload with periodic aggressor bursts.
  sim::WorkloadParams w;
  w.mean_interarrival = 40 * core::kSecond;
  w.max_nodes = 24;
  w.mix = {sim::app_network_heavy(), sim::app_compute_bound()};
  cluster.start_workload(w);
  sim::JobRequest blast;
  blast.num_nodes = 48;
  blast.nominal_runtime = 15 * core::kMinute;
  blast.profile = sim::app_aggressor();
  for (int i = 0; i < 4; ++i) {
    cluster.submit_at((40 + 60 * i) * core::kMinute, blast);
  }
  std::printf("4h of production with aggressor bursts at t=40,100,160,220m\n\n");
  cluster.run_for(4 * core::kHour);

  // Congestion timeline: stall rates from counters, one grade per sweep.
  auto& reg = cluster.registry();
  const int n_links = cluster.topology().num_links();
  std::vector<std::vector<core::TimedValue>> counter_series(n_links);
  for (int l = 0; l < n_links; ++l) {
    counter_series[l] = tsdb.query_range(
        reg.series("hsn.link.stalls", cluster.topology().link(l).component),
        {0, cluster.now()});
  }
  std::vector<analysis::RateConverter> rc(n_links);
  std::printf("congestion timeline (one char per sweep: .=none -=low "
              "m=medium H=high)\n  ");
  analysis::CongestionReport worst;
  core::TimePoint worst_at = 0;
  const std::size_t sweeps = counter_series[0].size();
  std::map<analysis::CongestionLevel, int> level_counts;
  for (std::size_t i = 0; i < sweeps; ++i) {
    std::vector<double> stalls(n_links, 0.0);
    for (int l = 0; l < n_links; ++l) {
      if (i < counter_series[l].size()) {
        if (auto r = rc[l].update(counter_series[l][i].time,
                                  counter_series[l][i].value)) {
          stalls[l] = *r / 1e6;
        }
      }
    }
    const auto report = analysis::analyze_congestion(cluster.topology(), stalls);
    ++level_counts[report.level];
    const char glyph[] = {'.', '-', 'm', 'H'};
    std::printf("%c", glyph[static_cast<int>(report.level)]);
    if ((i + 1) % 60 == 0) std::printf("\n  ");
    if (report.max_stall > worst.max_stall) {
      worst = report;
      worst_at = counter_series[0][i].time;
    }
  }
  std::printf("\n\nsweeps by level: none=%d low=%d medium=%d high=%d\n",
              level_counts[analysis::CongestionLevel::kNone],
              level_counts[analysis::CongestionLevel::kLow],
              level_counts[analysis::CongestionLevel::kMedium],
              level_counts[analysis::CongestionLevel::kHigh]);
  std::printf("worst sweep at %s: %zu region(s), largest touches %zu routers "
              "(peak stall %.2f)\n",
              core::format_time(worst_at).c_str(), worst.regions.size(),
              worst.regions.empty() ? 0 : worst.regions[0].routers.size(),
              worst.max_stall);
  if (!worst.regions.empty()) {
    std::printf("  region routers:");
    for (const int r : worst.regions[0].routers) std::printf(" r%d", r);
    std::printf("\n");
  }

  // Who suffered, who caused it (HLRS). Note: the stochastic workload mixes
  // job sizes and nominal runtimes, so CV here reflects workload spread as
  // well as contention — production deployments (and bench/
  // sec2_aggressor_victim) compare repeated fixed-size runs instead.
  analysis::VariabilityAnalyzer analyzer;
  std::printf("\nruntime variability (victim threshold CV > 0.10):\n");
  for (const auto& c : analyzer.classify(jobs)) {
    std::printf("  %-16s runs=%-3zu cv=%.3f %s\n", c.app_name.c_str(), c.runs,
                c.cv, c.is_victim ? "<- victim" : "");
  }
  std::printf("aggressor suspects:\n");
  for (const auto& s : analyzer.suspects(jobs)) {
    std::printf("  %-16s overlapped %zu victim slow-runs\n", s.app_name.c_str(),
                s.overlaps);
  }
  return 0;
}
