#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include "sim/workload.hpp"

namespace e2e {

using hpcmon::core::Duration;
using hpcmon::core::SeriesId;
using hpcmon::core::TimePoint;
namespace obs = hpcmon::obs;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  // cpu user nice system idle iowait irq softirq steal ...
  double field[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (double& f : field) {
    if (!(in >> f)) return 0.0;
  }
  return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void sleep_until_s(double t_s) {
  const double wait = t_s - now_s();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

hpcmon::sim::ClusterParams machine(int nodes, std::uint64_t seed) {
  hpcmon::sim::ClusterParams p;
  p.shape.nodes_per_blade = 5;
  p.shape.blades_per_chassis = 10;
  p.shape.chassis_per_cabinet = 5;
  p.shape.cabinets = std::max(1, nodes / p.shape.nodes_per_cabinet());
  p.shape.filesystems = 1;
  p.shape.osts_per_filesystem = 8;
  p.tick = 5 * hpcmon::core::kSecond;
  p.seed = seed;
  return p;
}

void start_jobs(hpcmon::sim::Cluster& cluster) {
  cluster.start_workload(hpcmon::sim::WorkloadParams{});
}

std::vector<SeriesId> probe_series(hpcmon::sim::Cluster& cluster,
                                   std::size_t count) {
  auto& reg = cluster.registry();
  const auto metric = reg.find_metric("node.cpu_util");
  std::vector<SeriesId> out;
  if (!metric) return out;
  const int nodes = cluster.topology().num_nodes();
  for (std::size_t i = 0; i < count; ++i) {
    // Spread over the machine (and therefore over blades and shards).
    const int node = static_cast<int>((i * 2654435761u + 17) %
                                      static_cast<std::size_t>(nodes));
    out.push_back(reg.series(*metric, cluster.topology().node(node)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// -- FreshTracker ---------------------------------------------------------------

FreshTracker::FreshTracker(TimePoint base, Duration interval,
                           std::size_t probes, std::size_t max_sweeps)
    : base_(base),
      interval_(interval),
      due_(max_sweeps + 1, 0.0),
      seen_(probes, 0),
      ages_(max_sweeps * probes, std::numeric_limits<double>::quiet_NaN()) {}

void FreshTracker::release(std::size_t k, double due_s) {
  if (k == 0 || k >= due_.size()) return;
  due_[k] = due_s;
  released_.store(k, std::memory_order_release);
}

void FreshTracker::observe(std::size_t probe, TimePoint t, double now_s) {
  if (probe >= seen_.size() || t < base_) return;
  const auto k_seen = static_cast<std::size_t>((t - base_) / interval_);
  const std::size_t upto = std::min(k_seen, released());
  for (std::size_t k = seen_[probe] + 1; k <= upto; ++k) {
    ages_[(k - 1) * seen_.size() + probe] = now_s - due_[k];
  }
  seen_[probe] = std::max(seen_[probe], upto);
}

std::vector<double> FreshTracker::ages_s() const {
  std::vector<double> out;
  for (const double a : ages_) {
    if (!std::isnan(a)) out.push_back(a);
  }
  return out;
}

bool FreshTracker::caught_up() const { return min_seen() >= released(); }

std::size_t FreshTracker::min_seen() const {
  if (seen_.empty()) return released();
  return *std::min_element(seen_.begin(), seen_.end());
}

// -- SpanLog ----------------------------------------------------------------------

void SpanLog::record(const char* name, double start_s, double end_s) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_s, end_s});
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  char line[160];
  for (const auto& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}\n",
                  s.name, s.start_s, s.end_s);
    out << line;
  }
  return static_cast<bool>(out);
}

// -- Obs deltas ---------------------------------------------------------------------

std::uint64_t counter_delta(const obs::ObsSnapshot& before,
                            const obs::ObsSnapshot& after,
                            std::string_view name) {
  const auto a = after.counter(name);
  const auto b = before.counter(name);
  return a >= b ? a - b : 0;
}

std::uint64_t lost_samples(const obs::ObsSnapshot& before,
                           const obs::ObsSnapshot& after) {
  return counter_delta(before, after, "ingest.dropped_samples") +
         counter_delta(before, after, "ingest.rejected_samples") +
         counter_delta(before, after, "ingest.shed_bulk_samples") +
         counter_delta(before, after, "ingest.shed_standard_samples");
}

obs::HistogramSnapshot histogram_delta(const obs::ObsSnapshot& before,
                                       const obs::ObsSnapshot& after,
                                       std::string_view name) {
  obs::HistogramSnapshot d;
  const auto* a = after.histogram(name);
  if (a == nullptr) return d;
  d = *a;
  if (const auto* b = before.histogram(name)) {
    for (std::size_t i = 0; i < b->buckets.size() && i < d.buckets.size(); ++i) {
      d.buckets[i] -= std::min(d.buckets[i], b->buckets[i]);
    }
    d.count -= std::min(d.count, b->count);
    d.sum -= std::min(d.sum, b->sum);
  }
  return d;
}

// -- SweepTracer ----------------------------------------------------------------------

SweepTracer::SweepTracer(hpcmon::stack::MonitoringStack& stack,
                         bool track_seals)
    : stack_(stack), track_seals_(track_seals) {
  first_ = stack_.obs_snapshot();
  last_ = first_;
  last_sealed_ = sealed_chunks();
  last_sampler_sweeps_ = stack_.collection().sweeps_completed();
}

std::size_t SweepTracer::sealed_chunks() const {
  return track_seals_ ? stack_.tsdb().hot().stats().sealed_chunks : 0;
}

void SweepTracer::end_sweep(double wall_s) {
  auto snap = stack_.obs_snapshot();
  SweepTrace t;
  t.wall_s = wall_s;
  t.sampler_s =
      static_cast<double>(histogram_delta(last_, snap, "stage.sampler_sweep_us").sum) * 1e-6;
  t.rollup_tick_s =
      static_cast<double>(histogram_delta(last_, snap, "rollup.tick_us").sum) * 1e-6;
  t.fanout_s =
      static_cast<double>(histogram_delta(last_, snap, "serve.fanout_us").sum) * 1e-6;
  t.block_wait_s =
      static_cast<double>(counter_delta(last_, snap, "ingest.block_wait_us")) * 1e-6;
  t.compaction = counter_delta(last_, snap, "compact.passes") > 0;
  t.relay_pending = snap.gauge("relay.pending");
  const auto sealed = sealed_chunks();
  t.seal = sealed != last_sealed_;
  last_sealed_ = sealed;
  const auto sampler_sweeps = stack_.collection().sweeps_completed();
  t.sampler_sweeps = sampler_sweeps - last_sampler_sweeps_;
  last_sampler_sweeps_ = sampler_sweeps;
  sweeps_.push_back(t);
  last_ = std::move(snap);
}

// -- Ledger -------------------------------------------------------------------------

namespace {

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

struct PhaseSums {
  const std::vector<std::pair<obs::ObsSnapshot, obs::ObsSnapshot>>& phases;

  double counter(std::string_view name) const {
    double total = 0;
    for (const auto& [a, b] : phases) total += static_cast<double>(counter_delta(a, b, name));
    return total;
  }
  obs::HistogramSnapshot histogram(std::string_view name) const {
    obs::HistogramSnapshot merged;
    for (const auto& [a, b] : phases) merged.merge(histogram_delta(a, b, name));
    return merged;
  }
  double gauge_max(std::string_view name) const {
    double m = 0;
    for (const auto& [a, b] : phases) m = std::max(m, b.gauge(name));
    return m;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void emit_ledger(const LedgerInputs& in, MetricSet& m) {
  const PhaseSums sums{in.phases};
  const auto& sw = in.sweeps;
  const double n_sweeps = static_cast<double>(std::max<std::size_t>(1, sw.size()));

  // A battery sweep runs more samplers than a plain sweep.
  std::size_t plain_samplers = std::numeric_limits<std::size_t>::max();
  for (const auto& s : sw) plain_samplers = std::min(plain_samplers, s.sampler_sweeps);
  const auto battery = [&](const SweepTrace& s) { return s.sampler_sweeps > plain_samplers; };

  // A sweep's residual is its wall time that no timed row covers: minus its
  // samplers (battery samplers included), rollup ticks, fan-out and block
  // wait. Stall rows are built from residuals only, so no second is charged
  // to two rows.
  const auto residual = [](const SweepTrace& s) {
    return s.wall_s - s.sampler_s - s.rollup_tick_s - s.fanout_s - s.block_wait_s;
  };
  double wall = 0, sampler = 0, tick = 0, fanout = 0, block = 0;
  std::vector<double> plain_residuals;
  std::vector<double> all_residuals;
  for (const auto& s : sw) {
    wall += s.wall_s;
    sampler += s.sampler_s;
    tick += s.rollup_tick_s;
    fanout += s.fanout_s;
    block += s.block_wait_s;
    all_residuals.push_back(residual(s));
    if (!s.compaction && !s.seal && !battery(s)) plain_residuals.push_back(residual(s));
  }
  // Stall sweeps: the residual a sweep carrying background work has beyond
  // the median residual of plain sweeps, charged to one class in priority
  // order (compaction, then seal, then the health/probe battery).
  const double typical =
      median_of(plain_residuals.empty() ? all_residuals : plain_residuals);
  double compact_stall = 0, seal_stall = 0, battery_stall = 0;
  std::size_t n_compact = 0, n_seal = 0, n_battery = 0;
  for (const auto& s : sw) {
    const double extra = std::max(0.0, residual(s) - typical);
    if (s.compaction) {
      compact_stall += extra;
      ++n_compact;
    } else if (s.seal) {
      seal_stall += extra;
      ++n_seal;
    } else if (battery(s)) {
      battery_stall += extra;
      ++n_battery;
    }
  }
  const double sim = std::min(in.sim_advance_s, wall);
  const double attributed =
      sim + sampler + block + tick + fanout + compact_stall + seal_stall + battery_stall;
  const double unexplained = wall - attributed;
  const double traced_mean = wall / n_sweeps;
  const double overhead = ratio(traced_mean, in.untraced_sweep_s) - 1.0;

  const double phase_wall = std::max(in.phase_wall_s, 1e-9);
  const double append_busy = sums.counter("ingest.append_us") * 1e-6;
  const double request_busy =
      static_cast<double>(sums.histogram("serve.request_us").sum) * 1e-6;

  std::printf("\nper-layer ledger: %zu traced sweeps, %.3f s on the generator thread\n",
              sw.size(), wall);
  std::printf("  sweeps by class: plain %zu, compaction %zu, seal %zu, battery %zu "
              "(median plain residual %.2f ms)\n",
              plain_residuals.size(), n_compact, n_seal, n_battery, typical * 1e3);
  std::printf("  %-28s %10s %8s\n", "row (generator thread)", "seconds", "share");
  const auto row = [&](const char* name, double s) {
    std::printf("  %-28s %10.4f %7.2f%%\n", name, s, 100.0 * ratio(s, wall));
  };
  row("sim.advance (bare twin)", sim);
  row("collect.sampler", sampler);
  row("ingest.block_wait", block);
  row("rollup.tick", tick);
  row("serve.fanout", fanout);
  row("compact.stall", compact_stall);
  row("store.seal_stall", seal_stall);
  row("collect.battery_stall", battery_stall);
  row("unexplained", unexplained);
  row("= sweep wall time", wall);
  std::printf("  unexplained_s %.4f  trace.overhead_frac %.4f (traced %.3f ms vs "
              "untraced %.3f ms per sweep)\n",
              unexplained, overhead, traced_mean * 1e3, in.untraced_sweep_s * 1e3);
  std::printf("  off the generator thread (over %.3f s of traced wall time):\n", phase_wall);
  std::printf("    ingest.append_s %.4f (shard workers)  serve.request_s %.4f (reactor)\n",
              append_busy, request_busy);
  const auto ms_q = [&](std::string_view name, double q) {
    const auto h = sums.histogram(name);
    return h.count == 0 ? 0.0 : h.quantile(q) * 1e-3;
  };
  const auto count_of = [&](std::string_view name) { return sums.histogram(name).count; };
  std::printf("  layer latencies (obs histograms, ms):\n");
  std::printf("    rollup.tick p99 %.3f (n=%llu)  serve.fanout p99 %.3f (n=%llu)\n",
              ms_q("rollup.tick_us", 0.99), (unsigned long long)count_of("rollup.tick_us"),
              ms_q("serve.fanout_us", 0.99), (unsigned long long)count_of("serve.fanout_us"));
  std::printf("    serve.request p50 %.3f p99 %.3f (n=%llu)\n", ms_q("serve.request_us", 0.5),
              ms_q("serve.request_us", 0.99), (unsigned long long)count_of("serve.request_us"));
  std::printf("    relay.ack_rtt p50 %.3f p99 %.3f (n=%llu)\n", ms_q("relay.ack_rtt_us", 0.5),
              ms_q("relay.ack_rtt_us", 0.99), (unsigned long long)count_of("relay.ack_rtt_us"));
  std::printf("    stage.store_append p99 %.3f (n=%llu)  stage.query_cursor p99 %.3f (n=%llu)\n",
              ms_q("stage.store_append_us", 0.99),
              (unsigned long long)count_of("stage.store_append_us"),
              ms_q("stage.query_cursor_us", 0.99),
              (unsigned long long)count_of("stage.query_cursor_us"));
  // stage.queue_wait_us records negative waits as huge unsigned values (see
  // README "Known defects"); only its count is meaningful.
  std::printf("    stage.queue_wait count %llu (quantiles not reported: known defect)\n",
              (unsigned long long)count_of("stage.queue_wait_us"));

  const double offered = std::max(1.0, static_cast<double>(in.offered_samples));
  const double queries = sums.counter("store.queries");
  double lost = 0;
  for (const auto& [a, b] : in.phases) lost += static_cast<double>(lost_samples(a, b));
  const double cache_hits = sums.counter("store.cache_hits");
  const double cache_misses = sums.counter("store.cache_misses");
  const double summary = sums.counter("store.summary_chunks");
  const double cursor = sums.counter("store.cursor_chunks");
  double pending_max = 0;
  for (const auto& s : sw) pending_max = std::max(pending_max, s.relay_pending);
  double late_mean = 0;
  for (const double l : in.lateness_s) late_mean += l;
  if (!in.lateness_s.empty()) late_mean /= static_cast<double>(in.lateness_s.size());

  // Ledger rows as shares of the generator thread's sweep wall time.
  m.add("sim.advance_frac", ratio(sim, wall), "frac");
  m.add("collect.sampler_frac", ratio(sampler, wall), "frac");
  m.add("ingest.block_wait_frac", ratio(block, wall), "frac");
  m.add("rollup.tick_frac", ratio(tick, wall), "frac");
  m.add("serve.fanout_frac", ratio(fanout, wall), "frac");
  m.add("compact.stall_frac", ratio(compact_stall, wall), "frac");
  m.add("store.seal_stall_frac", ratio(seal_stall, wall), "frac");
  m.add("collect.battery_stall_frac", ratio(battery_stall, wall), "frac");
  m.add("unexplained_frac", ratio(unexplained, wall), "frac");
  m.add("ledger.sweep_ms_mean", traced_mean * 1e3, "ms");
  m.add("trace.overhead_frac", overhead, "frac");
  // Busy time off the generator thread, as a share of one core.
  m.add("ingest.append_busy_frac", append_busy / phase_wall, "frac");
  m.add("serve.request_busy_frac", request_busy / phase_wall, "frac");
  // Work and waste counts.
  m.add("collect.samples_per_sweep", static_cast<double>(in.offered_samples) / n_sweeps, "count");
  m.add("collect.sweep_late_ms_mean", late_mean * 1e3, "ms");
  m.add("transport.bytes_per_sample", sums.counter("transport.bytes") / offered, "B");
  m.add("transport.frames_per_sweep", sums.counter("transport.frames") / n_sweeps, "count");
  m.add("wal.bytes_per_sample",
        sums.counter("resilience.wal_bytes") / std::max(1.0, static_cast<double>(in.wal_samples)),
        "B");
  m.add("wal.append_failures", sums.counter("resilience.wal_append_failures"), "count");
  m.add("wal.dead_letters", sums.counter("resilience.dead_letters"), "count");
  m.add("ingest.blocked_pushes", sums.counter("ingest.blocked_pushes"), "count");
  m.add("ingest.queue_hwm", sums.gauge_max("ingest.queue_hwm"), "count");
  {
    const auto h = sums.histogram("ingest.batch_samples");
    m.add("ingest.batch_samples_p50", h.count == 0 ? 0.0 : h.quantile(0.5), "count");
  }
  m.add("ingest.lost_samples", lost, "count");
  m.add("stage.queue_wait_count", static_cast<double>(count_of("stage.queue_wait_us")), "count");
  m.add("rollup.ticks_per_sweep", sums.counter("rollup.ticks") / n_sweeps, "count");
  m.add("rollup.recomputes_per_sweep", sums.counter("rollup.recomputes") / n_sweeps, "count");
  m.add("store.queries", queries, "count");
  m.add("store.summary_chunk_frac", ratio(summary, summary + cursor), "frac");
  m.add("store.cache_hit_frac", ratio(cache_hits, cache_hits + cache_misses), "frac");
  m.add("tier.entry_loads_per_query", ratio(sums.counter("tier.entry_loads"), queries), "count");
  m.add("compact.passes", sums.counter("compact.passes"), "count");
  m.add("compact.bytes_written", sums.counter("compact.bytes_written"), "B");
  m.add("serve.deltas", sums.counter("serve.deltas"), "count");
  m.add("serve.egress_depth_hwm", sums.gauge_max("serve.egress_depth_hwm"), "count");
  m.add("serve.egress_evicted", sums.counter("serve.egress_evicted_bulk") +
                                    sums.counter("serve.egress_evicted_standard"),
        "count");
  m.add("relay.sent_batches", sums.counter("relay.sent_batches"), "count");
  m.add("relay.resent_batches", sums.counter("relay.resent_batches"), "count");
  m.add("relay.shed_batches", sums.counter("relay.shed_batches"), "count");
  m.add("relay.pending_max", pending_max, "count");
}

double bare_sim_seconds(const hpcmon::sim::ClusterParams& params,
                        Duration interval, std::size_t sweeps) {
  hpcmon::sim::Cluster cluster(params);
  start_jobs(cluster);
  cluster.run_for(interval);  // the warm-up sweep, as in the workloads
  const double t0 = now_s();
  for (std::size_t k = 0; k < sweeps; ++k) cluster.run_for(interval);
  return now_s() - t0;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void add_run_metrics(RunOutcome& out, std::vector<double> setups_s,
                     double cpu_s, std::uint64_t offered,
                     const std::vector<double>& sweep_cpu_s) {
  auto& m = out.metrics;
  const auto mid = setups_s.begin() + static_cast<std::ptrdiff_t>(setups_s.size() / 2);
  std::nth_element(setups_s.begin(), mid, setups_s.end());
  m.add("setup_s", setups_s.empty() ? 0.0 : *mid, "s");
  m.add("cpu_ns_per_sample", cpu_s * 1e9 / std::max(1.0, static_cast<double>(offered)), "ns");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("  %-22s %12.4f s    (median of %zu)\n", "setup_s", *m.find("setup_s"),
              setups_s.size());
  std::printf("  %-22s %12.1f ns\n", "cpu_ns_per_sample", *m.find("cpu_ns_per_sample"));
  std::printf("  %-22s %12.1f MB\n", "peak_rss_mb", *m.find("peak_rss_mb"));
  add_percentile(out, "sweep_cpu_ms_p50", sweep_cpu_s, 0.5, 1e3, "ms");
  add_percentile(out, "sweep_cpu_ms_p90", sweep_cpu_s, 0.9, 1e3, "ms");
}

void print_wall_rates(std::uint64_t committed, double rate_wall_s,
                      double steal_s, double timed_wall_s) {
  std::printf("  %-22s %12.0f 1/s\n", "ingest_samples_per_s",
              static_cast<double>(committed) / std::max(rate_wall_s, 1e-9));
  std::printf("  host steal: %.2f CPU-s over %.2f s of timed wall time\n", steal_s,
              timed_wall_s);
}

bool print_percentile(const std::string& name, const std::vector<double>& values_s,
                      double q, double scale, const char* unit) {
  const auto p = percentile(values_s, q);
  if (!p) return false;
  std::printf("  %-22s %12.4f %-4s (n=%zu, %zu beyond)\n", name.c_str(),
              p->value * scale, unit, p->n, p->beyond);
  return true;
}

void add_percentile(RunOutcome& out, const std::string& name,
                    const std::vector<double>& values_s, double q, double scale,
                    const char* unit) {
  const auto p = percentile(values_s, q);
  if (!p) {
    out.fail_oracle(name + ": " + std::to_string(values_s.size()) +
                    " samples cannot support this percentile");
    return;
  }
  out.metrics.add(name, p->value * scale, unit);
  print_percentile(name, values_s, q, scale, unit);
}

}  // namespace e2e
