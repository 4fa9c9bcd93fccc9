// stack_deploy: the whole monitoring pipeline from one config file.
//
// What a site's deployment looks like when the vendor ships Table I: a
// version-controlled config assembles collection, transport, tiered storage,
// rules, alerting, automated response, and job gating in one call — and the
// operator console is a status line plus architecture-context heatmaps.
#include <cstdio>
#include <filesystem>

#include "stack/stack.hpp"
#include "viz/heatmap.hpp"

using namespace hpcmon;

int main() {
  // The deployment description a site would keep in git.
  const char* kDeployConfig = R"(
      # collection
      sample_interval_s = 30
      log_interval_s    = 10
      probe_interval_s  = 300
      health_interval_s = 300
      # storage tiers
      tier_dir          = /tmp/hpcmon_stack_deploy_tiers
      tier_hot_window_s = 3600
      chunk_points      = 64
      # analysis & response
      rules   = true
      novelty = true
      novelty_training_s = 1800
      quarantine_on_hw_critical = true
      gate_pre  = true
      gate_post = true
      gate_repair_s = 900
  )";
  const auto config = core::Config::parse(kDeployConfig);
  if (!config.is_ok()) {
    std::fprintf(stderr, "config error: %s\n", config.message().c_str());
    return 1;
  }
  std::printf("deploying with configuration:\n%s\n",
              config.value().dump().c_str());
  // A fresh deployment: no tier ladder left over from an earlier run.
  std::filesystem::remove_all(config.value().get_string("tier_dir", ""));

  sim::ClusterParams params;
  params.shape.cabinets = 2;
  params.shape.chassis_per_cabinet = 3;
  params.shape.blades_per_chassis = 6;
  params.shape.nodes_per_blade = 4;  // 144 nodes
  params.shape.gpu_node_fraction = 0.5;
  params.fabric_kind = sim::FabricKind::kDragonfly;
  params.tick = 5 * core::kSecond;
  params.seed = 2718;
  sim::Cluster cluster(params);
  stack::MonitoringStack stack(cluster, config.value());

  sim::WorkloadParams w;
  w.mean_interarrival = 30 * core::kSecond;
  w.max_nodes = 32;
  cluster.start_workload(w);
  cluster.inject_gpu_failure(30 * core::kMinute, 7);
  cluster.inject_mem_leak(core::kHour, 50, 60.0, core::kHour);

  for (int hour = 1; hour <= 3; ++hour) {
    cluster.run_for(core::kHour);
    std::printf("[hour %d] %s\n", hour, stack.status().c_str());
  }
  std::printf("\n");

  // Operator console: the machine as it stands on the floor.
  viz::HeatmapOptions opt;
  opt.title = "node cpu utilization (physical layout)";
  opt.scale_min = 0.0;
  opt.scale_max = 1.0;
  std::printf("%s\n",
              viz::machine_heatmap(
                  cluster.topology(),
                  [&](int node) { return cluster.node_state(node).cpu_util; },
                  opt)
                  .c_str());
  opt.title = "free memory GiB (watch the leaking node dim out)";
  opt.scale_min = 0.0;
  opt.scale_max = cluster.node_params().mem_total_gb;
  std::printf("%s\n",
              viz::machine_heatmap(
                  cluster.topology(),
                  [&](int node) { return cluster.node_mem_free_gb(node); },
                  opt)
                  .c_str());

  std::printf("alerts active:\n");
  for (const auto& a : stack.alerts().active()) {
    std::printf("  [%s] %-18s %s\n",
                std::string(response::to_string(a.severity)).c_str(),
                a.key.c_str(), a.message.c_str());
  }
  std::printf("novelty reports: %zu\n", stack.novelty_reports().size());
  for (const auto& n : stack.novelty_reports()) {
    std::printf("  new signature: %s\n", n.tmpl.c_str());
  }
  if (const auto* gs = stack.gate_stats()) {
    std::printf("gate: %llu checks, %llu quarantines, %llu repairs\n",
                static_cast<unsigned long long>(gs->pre_checks + gs->post_checks),
                static_cast<unsigned long long>(gs->pre_failures +
                                                gs->post_failures),
                static_cast<unsigned long long>(gs->repairs));
  }
  return 0;
}
