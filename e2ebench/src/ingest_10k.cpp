// ingest_10k: the write-path capacity test.
//
// Closed loop: one generator thread advances a 10,000-node machine (40
// cabinets x 250 nodes, one sweep per simulated minute) and releases the
// next sweep as soon as run_until returns. The node runs the sharded ingest
// path (2 shards, block policy), the rollup tree at its default 5 s tick
// (12 ticks per sweep) and a WAL; no tiers, no serve, no relay. The sharded
// ingest path, rollup observe/tick, WAL and codec do nearly all the work.
//
// The run is a sequence of epochs, each a fresh stack driven for a fixed
// number of sweeps, until --seconds of timed sweeps have passed. Fixed-size
// epochs keep peak memory and WAL size independent of how fast the machine
// is (the hot store grows with every sweep and has no retention on this
// path), and every epoch's construction is one set-up sample.
//
// One reader thread polls the store's latest() for 32 probe series: sample
// freshness, from the sweep's release until the sample is readable. It sends
// no queries; this workload is the write path alone.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <unordered_map>

#include "harness.hpp"

namespace e2e {
namespace {

using hpcmon::core::ComponentId;
using hpcmon::core::Duration;
using hpcmon::core::SeriesId;
using hpcmon::core::TimePoint;
using hpcmon::rollup::RollupStat;

constexpr int kNodes = 10000;
constexpr std::size_t kSweepsPerEpoch = 48;
constexpr std::size_t kProbes = 32;
constexpr std::size_t kMinSetups = 3;
constexpr Duration kInterval = 60 * hpcmon::core::kSecond;

struct Epoch {
  double setup_s = 0.0;
  std::vector<double> sweep_s;
  std::vector<double> sweep_cpu_s;  // generator thread CPU per sweep
  std::vector<double> lateness_s;
  std::vector<double> fresh_s;
  double timed_wall_s = 0.0;  // sweeps + final drain
  double cpu_s = 0.0;         // process CPU minus the reader's, timed part
  double steal_s = 0.0;       // host steal over the timed part
  std::uint64_t offered = 0;  // samples collected by the timed sweeps
  std::uint64_t accepted = 0; // samples accepted into the store, timed part
  std::uint64_t wal_samples = 0;
  std::uint64_t lost = 0;
  // Traced epochs only.
  std::vector<SweepTrace> traces;
  std::pair<hpcmon::obs::ObsSnapshot, hpcmon::obs::ObsSnapshot> phase;
};

/// Scatter-gather reference of one rollup level: the level's own series'
/// latest value, then each child subtree in ascending ComponentId order
/// (the fold order the tree documents).
RollupStat reference_fold(
    const hpcmon::ingest::ShardedTimeSeriesStore& store,
    const std::unordered_map<std::uint64_t, SeriesId>& series_of,
    const std::vector<std::vector<ComponentId>>& children, std::uint32_t metric,
    ComponentId comp) {
  RollupStat total;
  const auto key = (static_cast<std::uint64_t>(metric) << 32) |
                   hpcmon::core::raw(comp);
  if (const auto it = series_of.find(key); it != series_of.end()) {
    if (const auto lv = store.latest(it->second)) {
      total = RollupStat::of_value(lv->time, lv->value);
    }
  }
  for (const auto child : children[hpcmon::core::raw(comp)]) {
    total.fold(reference_fold(store, series_of, children, metric, child));
  }
  return total;
}

/// The rollup system level of every metric must equal a fold of the
/// store's per-series latest() values, bitwise in count and sum.
void check_rollup(hpcmon::stack::MonitoringStack& stack, RunOutcome& out) {
  auto& reg = stack.cluster().registry();
  const auto& store = *stack.sharded_store();
  std::unordered_map<std::uint64_t, SeriesId> series_of;
  for (std::uint32_t i = 0; i < reg.series_count(); ++i) {
    const SeriesId id{i};
    series_of[(static_cast<std::uint64_t>(reg.series_metric(id)) << 32) |
              hpcmon::core::raw(reg.series_component(id))] = id;
  }
  std::vector<std::vector<ComponentId>> children(reg.component_count());
  for (std::uint32_t c = 0; c < reg.component_count(); ++c) {
    const auto parent = reg.component(ComponentId{c}).parent;
    if (parent != hpcmon::core::kNoComponent &&
        hpcmon::core::raw(parent) < children.size()) {
      children[hpcmon::core::raw(parent)].push_back(ComponentId{c});
    }
  }
  stack.rollup_tick();
  const auto snap = stack.rollup()->snapshot();
  const auto system = stack.cluster().topology().system();
  std::size_t checked = 0;
  for (const auto& name : snap->metrics()) {
    const auto metric = reg.find_metric(name);
    const auto* got = snap->find(system, name);
    if (!metric || got == nullptr) continue;
    const auto ref = reference_fold(store, series_of, children, *metric, system);
    ++checked;
    if (got->count != ref.count ||
        std::bit_cast<std::uint64_t>(got->sum) !=
            std::bit_cast<std::uint64_t>(ref.sum)) {
      out.fail_oracle("rollup system level of " + name + " (count " +
                      std::to_string(got->count) + ", sum " +
                      std::to_string(got->sum) + ") != store fold (count " +
                      std::to_string(ref.count) + ", sum " +
                      std::to_string(ref.sum) + ")");
    }
  }
  if (checked == 0) out.fail_oracle("rollup snapshot holds no system level");
}

Epoch run_epoch(const Args& args, std::size_t index, double budget_s,
                bool traced, SpanLog& spans, RunOutcome& out) {
  Epoch e;
  const std::string wal_dir =
      args.workdir + "/ingest_10k_wal_" + std::to_string(index);
  std::filesystem::remove_all(wal_dir);

  const double setup0 = now_s();
  hpcmon::sim::Cluster cluster(machine(kNodes, args.seed));
  hpcmon::core::Config config;
  config.set_int("ingest_shards", 2);
  config.set("ingest_policy", "block");
  config.set_int("rollup_enable", 1);
  config.set("wal_path", wal_dir);
  auto stack = std::make_unique<hpcmon::stack::MonitoringStack>(cluster, config);
  start_jobs(cluster);
  // The warm-up sweep interns every series and fills the store's first
  // heads: lazy set-up every deployment pays once.
  cluster.run_for(kInterval);
  stack->drain_ingest();
  e.setup_s = now_s() - setup0;
  spans.record("setup", setup0, setup0 + e.setup_s);
  if (budget_s <= 0) return e;  // a set-up-only round

  const TimePoint base = cluster.now();
  const auto probes = probe_series(cluster, kProbes);
  auto* store = stack->sharded_store();
  FreshTracker fresh(base, kInterval, probes.size(), kSweepsPerEpoch);
  const auto before = stack->obs_snapshot();
  const auto collected0 = stack->collection().samples_collected();
  const auto wal0 = stack->wal()->stats().appended_samples;
  std::atomic<bool> stop{false};
  double reader_cpu = 0.0;

  const double t0 = now_s();
  ClientThreads clients(stop);
  clients.start([&] {
    const double cpu0 = thread_cpu_s();
    const auto poll = [&] {
      const double now = now_s();
      for (std::size_t i = 0; i < probes.size(); ++i) {
        if (const auto lv = store->latest(probes[i])) {
          fresh.observe(i, lv->time, now);
        }
      }
    };
    while (!stop.load(std::memory_order_acquire)) {
      if (!fresh.caught_up()) poll();
      sleep_until_s(now_s() + 0.0005);
    }
    // Drained: every probe must now read its last sweep.
    const double give_up = now_s() + 10.0;
    while (!fresh.caught_up() && now_s() < give_up) {
      poll();
      sleep_until_s(now_s() + 0.0005);
    }
    reader_cpu = thread_cpu_s() - cpu0;
  });

  const double cpu0 = process_cpu_s();
  const double steal0 = host_steal_s();
  std::unique_ptr<SweepTracer> tracer;
  if (traced) tracer = std::make_unique<SweepTracer>(*stack, false);
  double prev_end = t0;
  for (std::size_t k = 1; k <= kSweepsPerEpoch; ++k) {
    const double release = now_s();
    if (release - t0 >= budget_s) break;
    // Closed loop: sweep k is due the moment sweep k-1 returned.
    e.lateness_s.push_back(release - prev_end);
    fresh.release(k, release);
    const double sweep_cpu0 = thread_cpu_s();
    cluster.run_until(base + static_cast<TimePoint>(k) * kInterval);
    const double end = now_s();
    e.sweep_cpu_s.push_back(thread_cpu_s() - sweep_cpu0);
    e.sweep_s.push_back(end - release);
    spans.record("sweep", release, end);
    if (tracer) tracer->end_sweep(end - release);
    prev_end = end;
  }
  const double drain0 = now_s();
  stack->drain_ingest();
  const double t_end = now_s();
  spans.record("drain", drain0, t_end);
  e.timed_wall_s = t_end - t0;
  const double cpu_total = process_cpu_s() - cpu0;
  e.steal_s = host_steal_s() - steal0;
  clients.stop_and_join();
  e.cpu_s = std::max(0.0, cpu_total - reader_cpu);
  e.fresh_s = fresh.ages_s();

  const auto after = stack->obs_snapshot();
  if (tracer) {
    e.traces = tracer->sweeps();
    e.phase = {tracer->first(), after};
  }
  e.offered = stack->collection().samples_collected() - collected0;
  e.accepted = counter_delta(before, after, "ingest.accepted_samples");
  e.wal_samples = stack->wal()->stats().appended_samples - wal0;
  e.lost = lost_samples(before, after);

  // -- Correctness oracles --------------------------------------------------
  const auto submitted = after.counter("ingest.submitted_samples");
  const auto accepted = after.counter("ingest.accepted_samples");
  if (submitted != accepted) {
    out.fail_oracle("epoch " + std::to_string(index) + ": accepted " +
                    std::to_string(accepted) + " != offered " +
                    std::to_string(submitted) + " under the block policy");
  }
  const auto wal_total = stack->wal()->stats().appended_samples;
  const auto collected = stack->collection().samples_collected();
  if (wal_total != collected) {
    out.fail_oracle("epoch " + std::to_string(index) + ": WAL holds " +
                    std::to_string(wal_total) + " samples, collection offered " +
                    std::to_string(collected));
  }
  const auto points = store->stats().points;
  const auto stored = accepted - after.counter("ingest.out_of_order_samples");
  if (points != stored) {
    out.fail_oracle("epoch " + std::to_string(index) + ": store holds " +
                    std::to_string(points) + " points, " +
                    std::to_string(stored) + " were accepted in order");
  }
  if (!fresh.caught_up()) {
    out.fail_oracle("epoch " + std::to_string(index) +
                    ": a probe never became readable after the drain");
  }
  check_rollup(*stack, out);

  const double stop0 = now_s();
  const auto report = stack->shutdown();
  stack.reset();
  spans.record("shutdown", stop0, now_s());
  if (!report.clean()) {
    out.fail_oracle("epoch " + std::to_string(index) + ": shutdown did not drain");
  }
  std::filesystem::remove_all(wal_dir);
  return e;
}

}  // namespace

RunOutcome run_ingest_10k(const Args& args) {
  RunOutcome out;
  SpanLog spans(args.trace);
  std::vector<Epoch> epochs;
  std::vector<bool> traced_epoch;
  double timed = 0.0;
  // A traced run alternates untraced and traced epochs, so the trace
  // overhead compares like with like.
  for (std::size_t i = 0; timed < args.seconds; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    epochs.push_back(run_epoch(args, i, args.seconds - timed, traced, spans, out));
    traced_epoch.push_back(traced);
    timed += epochs.back().timed_wall_s;
    std::printf("epoch %zu%s: set-up %.3f s, %zu sweeps in %.3f s\n", i,
                traced ? " (traced)" : "", epochs.back().setup_s,
                epochs.back().sweep_s.size(), epochs.back().timed_wall_s);
    std::fflush(stdout);
  }
  if (args.trace && epochs.size() < 2) {
    out.fail_oracle("a traced run needs at least two epochs; raise --seconds");
  }
  std::vector<double> setups;
  for (const auto& e : epochs) setups.push_back(e.setup_s);
  for (std::size_t i = epochs.size(); setups.size() < kMinSetups; ++i) {
    setups.push_back(run_epoch(args, i, 0.0, false, spans, out).setup_s);
  }

  std::vector<double> sweeps, sweep_cpu, fresh;
  double wall = 0, cpu = 0, steal = 0;
  std::uint64_t offered = 0, accepted = 0;
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    const auto& e = epochs[i];
    out.ops.attempt("samples", e.offered);
    out.ops.fail("samples", e.lost);
    if (traced_epoch[i]) continue;  // end-to-end numbers come untraced
    sweeps.insert(sweeps.end(), e.sweep_s.begin(), e.sweep_s.end());
    sweep_cpu.insert(sweep_cpu.end(), e.sweep_cpu_s.begin(), e.sweep_cpu_s.end());
    fresh.insert(fresh.end(), e.fresh_s.begin(), e.fresh_s.end());
    wall += e.timed_wall_s;
    cpu += e.cpu_s;
    steal += e.steal_s;
    offered += e.offered;
    accepted += e.accepted;
  }

  std::printf("\ningest_10k: %d nodes, closed loop, %zu epochs of <= %zu sweeps, "
              "%llu samples offered\n",
              kNodes, epochs.size(), kSweepsPerEpoch,
              static_cast<unsigned long long>(offered));
  if (!args.trace) {
    add_run_metrics(out, setups, cpu, offered, sweep_cpu);
    // Wall-clock figures, printed, not gated: see README "Design choices
    // and their reasons".
    print_wall_rates(accepted, wall, steal, wall);
    print_percentile("sweep_ms_p50", sweeps, 0.5, 1e3, "ms");
    print_percentile("sweep_ms_p90", sweeps, 0.9, 1e3, "ms");
    print_percentile("fresh_ms_p50", fresh, 0.5, 1e3, "ms");
    print_percentile("fresh_ms_p90", fresh, 0.9, 1e3, "ms");
  } else {
    LedgerInputs in;
    std::vector<double> untraced_sweeps;
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      auto& e = epochs[i];
      if (!traced_epoch[i]) {
        untraced_sweeps.insert(untraced_sweeps.end(), e.sweep_s.begin(), e.sweep_s.end());
        continue;
      }
      in.sweeps.insert(in.sweeps.end(), e.traces.begin(), e.traces.end());
      in.phases.push_back(e.phase);
      in.phase_wall_s += e.timed_wall_s;
      in.offered_samples += e.offered;
      in.wal_samples += e.wal_samples;
      in.lateness_s.insert(in.lateness_s.end(), e.lateness_s.begin(), e.lateness_s.end());
      in.sim_advance_s += bare_sim_seconds(machine(kNodes, args.seed), kInterval,
                                           e.sweep_s.size());
    }
    in.untraced_sweep_s = mean(untraced_sweeps);
    emit_ledger(in, out.metrics);
    const std::string path = args.workdir + "/spans-ingest_10k.jsonl";
    if (spans.write(path)) std::printf("  spans written to %s\n", path.c_str());
  }
  std::printf("  ops_failed_frac %.6f\n%s", out.ops.failed_frac(), out.ops.describe().c_str());
  return out;
}

}  // namespace e2e
