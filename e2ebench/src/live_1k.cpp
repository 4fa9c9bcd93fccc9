// live_1k: the read, subscribe and forward layers beside writes.
//
// Open loop: a 1,000-node machine whose sweeps are released on a fixed
// wall-clock schedule (kPeriodS, about twice the period at which this
// configuration saturates on a 4-core x86 box), each timed from its due
// time. The node runs the default synchronous ingest path with a WAL, tiered
// retention with 64-point chunks, a one-hour hot window and a compaction
// pass every 10 simulated minutes (so seals and compactions recur many times
// per run and reads span hot and tier files), the serve tier with one writer
// thread, and a relay to an in-process aggregator stack. Rollup is off.
//
// Besides the sweep generator, three client threads load the node:
//   * one subscriber connection: node.cpu_util@* plus one node.*@<blade>*
//     pattern per blade (200), so publish_batch matching is O(subs x samples);
//   * one query connection sending an open-loop mix with exponential gaps
//     (latest, one hour raw, whole-run downsample across tiers), timed from
//     due time: one three-panel dashboard refreshed every 30 simulated
//     seconds, an assumed load rather than measured user traffic;
//   * one connection polling the aggregator's latest() for probe series.
//
// The aggregator runs synchronous ingest and serve only: relayed SeriesIds
// are node-local, and an aggregator with ingest_shards > 0 or with a serve
// subscription resolves them through its own registry with .at() and aborts
// (see README "Known defects").
#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

#include "harness.hpp"
#include "serve/client.hpp"

namespace e2e {
namespace {

using hpcmon::core::Duration;
using hpcmon::core::SeriesId;
using hpcmon::core::TimedValue;
using hpcmon::core::TimePoint;

constexpr int kNodes = 1000;
constexpr int kAggregatorNodes = 250;
constexpr double kPeriodS = 0.11;
constexpr std::size_t kProbes = 16;
// The query mix stands for one dashboard of three panels (latest, the last
// hour raw, the whole run downsampled) refreshed every 30 simulated seconds,
// so two refreshes, six queries, per sweep. No measured user traffic exists
// for this system; the rate is tied to the collection schedule instead.
constexpr double kQueriesPerSweep = 6.0;
constexpr double kQueryRate = kQueriesPerSweep / kPeriodS;  // mean per second
constexpr std::size_t kMinSetups = 3;
constexpr int kDeadlineMs = 5000;
constexpr Duration kInterval = 60 * hpcmon::core::kSecond;

std::uint64_t key(std::uint32_t sub, SeriesId s) {
  return (static_cast<std::uint64_t>(sub) << 32) | hpcmon::core::raw(s);
}

bool same_points(const std::vector<TimedValue>& a,
                 const std::vector<TimedValue>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time ||
        std::bit_cast<std::uint64_t>(a[i].value) !=
            std::bit_cast<std::uint64_t>(b[i].value)) {
      return false;
    }
  }
  return true;
}

/// One assembled deployment: the aggregator, the node relaying into it, and
/// the three client connections. Member order is teardown order reversed:
/// clients close first, then the node (relay drains first), then the
/// aggregator.
struct Deployment {
  std::unique_ptr<hpcmon::sim::Cluster> agg_cluster;
  std::unique_ptr<hpcmon::stack::MonitoringStack> agg;
  std::unique_ptr<hpcmon::sim::Cluster> cluster;
  std::unique_ptr<hpcmon::stack::MonitoringStack> node;
  hpcmon::serve::ServeClient sub;
  hpcmon::serve::ServeClient query;
  hpcmon::serve::ServeClient upstream;
  std::vector<SeriesId> probes;
  std::unordered_map<std::uint32_t, std::size_t> probe_index;  // raw id -> i
  std::uint32_t fleet_sub = 0;
  std::size_t subs = 0;
  TimePoint base = 0;  // sim time of the warm-up sweep
  std::string dir;
};

/// Subscriber-side bookkeeping: per (subscription, series) the last sample
/// time, duplicates and gaps, and the fleet subscription's raw capture of
/// every probe series (the reference the post-drain queries must equal).
struct SubLedger {
  std::unordered_map<std::uint64_t, TimePoint> last;
  std::vector<std::vector<TimedValue>> captured;  // per probe
  std::uint64_t duplicates = 0;
  std::uint64_t missing = 0;
  std::uint64_t probe_deltas = 0;
  std::vector<double> ages_s;  // every timed sample, due -> receipt

  /// Record one delta push.
  void take(const Deployment& d, const hpcmon::serve::Push& p, bool fleet) {
    for (const auto& s : p.batch.samples) {
      auto [it, fresh] = last.try_emplace(key(p.sub_id, s.series), s.time);
      const auto probe = d.probe_index.find(hpcmon::core::raw(s.series));
      const bool is_probe = probe != d.probe_index.end();
      if (!fresh) {
        if (s.time <= it->second) {
          ++duplicates;
          continue;
        }
        if (is_probe && s.time > it->second + kInterval) {
          missing += static_cast<std::uint64_t>((s.time - it->second) / kInterval - 1);
        }
        it->second = s.time;
      }
      if (is_probe) {
        ++probe_deltas;
        if (fleet) captured[probe->second].push_back({s.time, s.value});
      }
    }
  }
};

std::unique_ptr<Deployment> assemble(const Args& args, const std::string& dir,
                                     RunOutcome& out) {
  auto owned = std::make_unique<Deployment>();
  Deployment& d = *owned;
  d.dir = dir;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  d.agg_cluster = std::make_unique<hpcmon::sim::Cluster>(
      machine(kAggregatorNodes, args.seed + 1));
  hpcmon::core::Config agg;
  agg.set_int("serve_port", 0);
  agg.set_int("serve_writer_threads", 1);
  agg.set_int("probe_interval_s", 0);
  agg.set_int("health_interval_s", 0);
  agg.set_bool("rules", false);
  agg.set_bool("numeric_alerts", false);
  agg.set_int("chunk_points", 64);
  // Keep the whole run hot so the aggregator's probe series can be compared
  // byte for byte with the node's.
  agg.set_int("hot_window_s", 7 * 86400);
  d.agg = std::make_unique<hpcmon::stack::MonitoringStack>(*d.agg_cluster, agg);

  d.cluster = std::make_unique<hpcmon::sim::Cluster>(machine(kNodes, args.seed));
  hpcmon::core::Config cfg;
  cfg.set("wal_path", dir + "/wal");
  cfg.set("tier_dir", dir + "/tiers");
  cfg.set_int("chunk_points", 64);
  cfg.set_int("tier_hot_window_s", 3600);
  cfg.set_int("compact_interval_s", 600);
  cfg.set_int("serve_port", 0);
  cfg.set_int("serve_writer_threads", 1);
  cfg.set_int("relay_upstream", d.agg->serve()->port());
  d.node = std::make_unique<hpcmon::stack::MonitoringStack>(*d.cluster, cfg);
  start_jobs(*d.cluster);

  d.probes = probe_series(*d.cluster, kProbes);
  for (std::size_t i = 0; i < d.probes.size(); ++i) {
    d.probe_index[hpcmon::core::raw(d.probes[i])] = i;
  }
  const auto port = d.node->serve()->port();
  for (auto* c : {&d.sub, &d.query}) {
    if (!c->connect(port)) out.fail_oracle("connect to the node: " + c->error());
    c->set_read_deadline_ms(kDeadlineMs);
  }
  if (!d.upstream.connect(d.agg->serve()->port())) {
    out.fail_oracle("connect to the aggregator: " + d.upstream.error());
  }
  d.upstream.set_read_deadline_ms(kDeadlineMs);

  const auto fleet = d.sub.subscribe("node.cpu_util@*");
  if (!fleet.is_ok()) {
    out.fail_oracle("subscribe node.cpu_util@*: " + fleet.message());
  } else {
    d.fleet_sub = fleet.value().sub_id;
  }
  auto& reg = d.cluster->registry();
  std::size_t subs = 1;
  for (const auto blade : reg.components_of_kind(hpcmon::core::ComponentKind::kBlade)) {
    const auto ack = d.sub.subscribe("node.*@" + reg.component(blade).name + "*");
    if (!ack.is_ok()) out.fail_oracle("blade subscribe: " + ack.message());
    ++subs;
  }
  d.subs = subs;
  return owned;
}

struct Phase {
  std::vector<double> setups_s;
  std::vector<double> sweep_s;
  std::vector<double> sweep_cpu_s;  // generator thread CPU per sweep
  std::vector<double> lateness_s;
  std::vector<double> sub_ages_s;   // every subscribed sample
  std::vector<double> fresh_all_s;  // probes: reached subscriber and upstream
  std::vector<double> query_s;
  double timed_wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_s = 0.0;  // host steal over the timed phase
  std::uint64_t offered = 0;
  std::uint64_t wal_samples = 0;
  std::vector<SweepTrace> traces;
  std::pair<hpcmon::obs::ObsSnapshot, hpcmon::obs::ObsSnapshot> obs;
};

Phase run_phase(const Args& args, double seconds, bool traced,
                std::size_t setups, const std::string& tag, SpanLog& spans,
                RunOutcome& out) {
  Phase ph;
  std::unique_ptr<Deployment> owned;
  SubLedger ledger;
  // Every set-up is a full assembly plus the warm-up sweep delivered to the
  // subscriber and acked upstream; the last one is used.
  for (std::size_t i = 0; i < setups; ++i) {
    owned.reset();  // tears the previous assembly down (not timed)
    const double t0 = now_s();
    owned = assemble(args, args.workdir + "/live_1k_" + tag, out);
    Deployment& d = *owned;
    d.cluster->run_for(kInterval);  // warm-up: interns every series
    d.base = d.cluster->now();
    ledger = SubLedger{};
    ledger.captured.assign(d.probes.size(), {});
    std::size_t warm_subs = 0;
    std::unordered_map<std::uint32_t, bool> warmed;
    const double give_up = now_s() + 10.0;
    while (warm_subs < d.subs && now_s() < give_up) {
      const auto p = d.sub.poll_push(50);
      if (!p || p->type != hpcmon::serve::MsgType::kDelta) continue;
      ledger.take(d, *p, p->sub_id == d.fleet_sub);
      if (p->batch.sweep_time == d.base && !warmed[p->sub_id]) {
        warmed[p->sub_id] = true;
        ++warm_subs;
      }
    }
    if (warm_subs < d.subs) out.fail_oracle("warm-up sweep never reached every subscription");
    if (!d.node->relay()->drain_for(kDeadlineMs)) out.fail_oracle("warm-up relay drain timed out");
    ph.setups_s.push_back(now_s() - t0);
    spans.record("setup", t0, now_s());
  }
  if (!out.correct) return ph;
  Deployment& d = *owned;

  std::size_t max_sweeps = static_cast<std::size_t>(seconds / kPeriodS) + 2;
  FreshTracker sub_fresh(d.base, kInterval, d.probes.size(), max_sweeps);
  FreshTracker up_fresh(d.base, kInterval, d.probes.size(), max_sweeps);
  std::atomic<TimePoint> sim_now{d.base};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries{0}, failed_queries{0};
  double client_cpu[3] = {0, 0, 0};
  const auto before = d.node->obs_snapshot();
  const auto collected0 = d.node->collection().samples_collected();
  const auto wal0 = d.node->wal()->stats().appended_samples;

  const double t0 = now_s() + 0.01;
  OpenLoop loop(t0, kPeriodS);
  ClientThreads clients(stop);
  // Subscriber: every delta of a timed sweep is aged from the sweep's due
  // time; probes also feed the freshness table and the raw capture.
  clients.start([&] {
    const double cpu0 = thread_cpu_s();
    std::size_t first_receipt = 0;
    while (true) {
      // Done once every subscription's probe deltas of every released sweep
      // (and the warm-up sweep) arrived, or 20 s after the last due time.
      if (stop.load(std::memory_order_acquire) &&
          (ledger.probe_deltas >= 2 * d.probes.size() * (sub_fresh.released() + 1) ||
           now_s() > t0 + seconds + 20)) {
        break;
      }
      const auto p = d.sub.poll_push(20);
      if (!p) continue;
      if (p->type != hpcmon::serve::MsgType::kDelta) continue;
      const double receipt = now_s();
      ledger.take(d, *p, p->sub_id == d.fleet_sub);
      const TimePoint st = p->batch.sweep_time;
      if (st <= d.base || (st - d.base) % kInterval != 0) continue;
      const auto k = static_cast<std::size_t>((st - d.base) / kInterval);
      const double due = loop.due(k - 1);
      for (std::size_t i = 0; i < p->batch.samples.size(); ++i) {
        ledger.ages_s.push_back(receipt - due);
      }
      if (p->sub_id == d.fleet_sub) {
        for (const auto& s : p->batch.samples) {
          const auto it = d.probe_index.find(hpcmon::core::raw(s.series));
          if (it != d.probe_index.end()) sub_fresh.observe(it->second, s.time, receipt);
        }
      }
      if (k > first_receipt) {
        first_receipt = k;
        spans.record("sub_receipt", due, receipt);
      }
    }
    client_cpu[0] = thread_cpu_s() - cpu0;
  });
  // Query connection: open-loop mix with exponential gaps, timed from each
  // query's due time.
  clients.start([&] {
    const double cpu0 = thread_cpu_s();
    Arrivals arrivals(t0, kQueryRate, args.seed);
    for (std::size_t j = 0; !stop.load(std::memory_order_acquire); ++j) {
      const double due = arrivals.next();
      sleep_until_s(due);
      const SeriesId probe = d.probes[j % d.probes.size()];
      const TimePoint t = sim_now.load(std::memory_order_acquire);
      bool ok = false;
      switch (j % 3) {
        case 0:
          ok = d.query.latest(probe).is_ok();
          break;
        case 1:
          ok = d.query.query_range(probe, {t - hpcmon::core::kHour, t + 1}).is_ok();
          break;
        default:
          ok = d.query
                   .downsample(probe, {d.base - kInterval, t + 1},
                               10 * hpcmon::core::kMinute,
                               hpcmon::store::Agg::kMean)
                   .is_ok();
          break;
      }
      const double done = now_s();
      ph.query_s.push_back(done - due);
      spans.record("query", due, done);
      queries.fetch_add(1);
      if (!ok) failed_queries.fetch_add(1);
    }
    client_cpu[1] = thread_cpu_s() - cpu0;
  });
  // Upstream poller: when has the aggregator's latest() caught up?
  clients.start([&] {
    const double cpu0 = thread_cpu_s();
    while (true) {
      const bool stopping = stop.load(std::memory_order_acquire);
      if (up_fresh.caught_up()) {
        if (stopping) break;
        sleep_until_s(now_s() + 0.001);
        continue;
      }
      if (stopping && now_s() > t0 + seconds + 20) break;
      // Only probes still behind; one round per millisecond keeps the
      // poller's load on the aggregator small.
      const std::size_t released = up_fresh.released();
      for (std::size_t i = 0; i < d.probes.size(); ++i) {
        if (up_fresh.seen(i) >= released) continue;
        const auto lv = d.upstream.latest(d.probes[i]);
        if (lv.is_ok() && lv.value()) up_fresh.observe(i, lv.value()->time, now_s());
      }
      sleep_until_s(now_s() + 0.001);
    }
    client_cpu[2] = thread_cpu_s() - cpu0;
  });

  const double cpu0 = process_cpu_s();
  const double steal0 = host_steal_s();
  std::unique_ptr<SweepTracer> tracer;
  if (traced) tracer = std::make_unique<SweepTracer>(*d.node, true);
  std::size_t k = 1;
  for (;; ++k) {
    const double due = loop.due(k - 1);
    if (due - t0 >= seconds || k > max_sweeps - 1) break;
    sleep_until_s(due);
    const double release = loop.release(k - 1, now_s());
    sub_fresh.release(k, due);
    up_fresh.release(k, due);
    const double sweep_cpu0 = thread_cpu_s();
    d.cluster->run_until(d.base + static_cast<TimePoint>(k) * kInterval);
    const double end = now_s();
    ph.sweep_cpu_s.push_back(thread_cpu_s() - sweep_cpu0);
    sim_now.store(d.cluster->now(), std::memory_order_release);
    ph.sweep_s.push_back(end - release);
    spans.record("sweep", release, end);
    if (tracer) tracer->end_sweep(end - release);
  }
  const std::size_t sweeps = k - 1;
  const double t_last = now_s();
  ph.timed_wall_s = t_last - t0;
  ph.steal_s = host_steal_s() - steal0;
  const double drain0 = now_s();
  if (!d.node->relay()->drain_for(10000)) out.fail_oracle("relay drain timed out");
  clients.stop_and_join();
  spans.record("drain", drain0, now_s());
  ph.cpu_s = std::max(0.0, process_cpu_s() - cpu0 - client_cpu[0] - client_cpu[1] -
                               client_cpu[2]);
  ph.lateness_s = loop.lateness();
  ph.sub_ages_s = std::move(ledger.ages_s);
  for (std::size_t s = 1; s <= sweeps; ++s) {
    for (std::size_t i = 0; i < d.probes.size(); ++i) {
      const double a = sub_fresh.age(s, i);
      const double b = up_fresh.age(s, i);
      if (!std::isnan(a) && !std::isnan(b)) ph.fresh_all_s.push_back(std::max(a, b));
    }
  }
  const auto after = d.node->obs_snapshot();
  ph.offered = d.node->collection().samples_collected() - collected0;
  ph.wal_samples = d.node->wal()->stats().appended_samples - wal0;
  if (tracer) {
    ph.traces = tracer->sweeps();
    ph.obs = {tracer->first(), after};
  }

  // -- Correctness oracles --------------------------------------------------
  const std::uint64_t expected_probe_deltas = 2 * d.probes.size() * (sweeps + 1);
  out.ops.attempt("queries", queries.load());
  out.ops.fail("queries", failed_queries.load());
  out.ops.attempt("sub_deltas", expected_probe_deltas);
  const auto sub_missing = ledger.missing + (expected_probe_deltas > ledger.probe_deltas
                                                 ? expected_probe_deltas - ledger.probe_deltas
                                                 : 0);
  out.ops.fail("sub_deltas", ledger.duplicates + sub_missing);
  if (ledger.duplicates != 0 || sub_missing != 0 ||
      ledger.probe_deltas != expected_probe_deltas) {
    out.fail_oracle("subscriber: " + std::to_string(ledger.probe_deltas) +
                    " probe deltas for " + std::to_string(expected_probe_deltas) +
                    " expected, " + std::to_string(ledger.duplicates) +
                    " duplicated or out of order, " + std::to_string(sub_missing) +
                    " missing");
  }
  const TimePoint last_t = d.base + static_cast<TimePoint>(sweeps) * kInterval;
  for (std::size_t i = 0; i < d.probes.size(); ++i) {
    const hpcmon::core::TimeRange range{d.base, last_t + 1};
    const auto node_q = d.query.query_range(d.probes[i], range);
    const auto agg_q = d.upstream.query_range(d.probes[i], range);
    if (!node_q.is_ok() || !agg_q.is_ok()) {
      out.fail_oracle("post-drain probe query failed");
      continue;
    }
    if (!same_points(node_q.value(), ledger.captured[i])) {
      out.fail_oracle("probe " + std::to_string(i) + ": node query_range over hot+tiers (" +
                      std::to_string(node_q.value().size()) +
                      " points) != subscriber capture (" +
                      std::to_string(ledger.captured[i].size()) + " points)");
    }
    if (!same_points(agg_q.value(), node_q.value())) {
      out.fail_oracle("probe " + std::to_string(i) + ": aggregator series (" +
                      std::to_string(agg_q.value().size()) + " points) != node series (" +
                      std::to_string(node_q.value().size()) + " points)");
    }
  }
  if (counter_delta(before, after, "compact.passes") == 0) {
    out.fail_oracle("no compaction pass ran: the reads never spanned tiers");
  }
  const auto wal_total = d.node->wal()->stats().appended_samples;
  const auto collected = d.node->collection().samples_collected();
  out.ops.attempt("samples", ph.offered);
  if (wal_total != collected) {
    out.ops.fail("samples", wal_total > collected ? wal_total - collected : collected - wal_total);
    out.fail_oracle("WAL holds " + std::to_string(wal_total) +
                    " samples, collection offered " + std::to_string(collected));
  }
  const auto relay_submitted = counter_delta(before, after, "relay.submitted_batches");
  out.ops.attempt("relay_entries", relay_submitted);
  const auto shed = counter_delta(before, after, "relay.shed_batches");
  const double stop0 = now_s();
  d.sub.close();
  d.query.close();
  d.upstream.close();
  const auto report = d.node->shutdown();
  spans.record("shutdown", stop0, now_s());
  out.ops.fail("relay_entries", shed + report.relay_unacked);
  if (report.relay_unacked != 0 || shed != 0) {
    out.fail_oracle("relay: " + std::to_string(report.relay_unacked) +
                    " entries unacked after drain, " + std::to_string(shed) + " shed");
  }
  std::printf("phase %s%s: %zu sweeps in %.3f s, %zu compaction passes\n", tag.c_str(),
              traced ? " (traced)" : "", sweeps, ph.timed_wall_s,
              static_cast<std::size_t>(counter_delta(before, after, "compact.passes")));
  const std::string dir = d.dir;
  owned.reset();
  std::filesystem::remove_all(dir);
  return ph;
}

}  // namespace

RunOutcome run_live_1k(const Args& args) {
  RunOutcome out;
  SpanLog spans(args.trace);
  std::printf("live_1k: %d nodes, open loop, one sweep every %.0f ms\n", kNodes,
              kPeriodS * 1e3);
  if (!args.trace) {
    auto ph = run_phase(args, args.seconds, false, kMinSetups, "run", spans, out);
    if (!out.correct) return out;
    add_run_metrics(out, ph.setups_s, ph.cpu_s, ph.offered, ph.sweep_cpu_s);
    // Wall-clock figures, printed, not gated: see README "Design choices
    // and their reasons". The schedule fixes the offered rate, so the commit
    // rate is taken over the generator's busy time: samples the node's WAL
    // took per second of sweep calls, which on the synchronous path also
    // commit to the store.
    double busy_s = 0;
    for (const double s : ph.sweep_s) busy_s += s;
    print_wall_rates(ph.wal_samples, busy_s, ph.steal_s, ph.timed_wall_s);
    print_percentile("sweep_ms_p50", ph.sweep_s, 0.5, 1e3, "ms");
    print_percentile("sweep_ms_p90", ph.sweep_s, 0.9, 1e3, "ms");
    print_percentile("fresh_ms_p50", ph.sub_ages_s, 0.5, 1e3, "ms");
    print_percentile("fresh_ms_p90", ph.sub_ages_s, 0.9, 1e3, "ms");
    print_percentile("fresh_all_ms_p50", ph.fresh_all_s, 0.5, 1e3, "ms");
    print_percentile("fresh_all_ms_p90", ph.fresh_all_s, 0.9, 1e3, "ms");
    print_percentile("query_ms_p50", ph.query_s, 0.5, 1e3, "ms");
    print_percentile("query_ms_p90", ph.query_s, 0.9, 1e3, "ms");
    print_percentile("query_ms_p99", ph.query_s, 0.99, 1e3, "ms");
    // 0 by construction in the closed-loop workload, and charged to fresh_*
    // and query_* here, which are timed from due times.
    print_percentile("sweep_late_ms_p90", ph.lateness_s, 0.9, 1e3, "ms");
  } else {
    // Untraced half first (the overhead reference), then the traced half.
    const auto base = run_phase(args, args.seconds / 2, false, 1, "untraced", spans, out);
    if (!out.correct) return out;
    const auto ph = run_phase(args, args.seconds / 2, true, 1, "traced", spans, out);
    if (!out.correct) return out;
    LedgerInputs in;
    in.sweeps = ph.traces;
    in.phases.push_back(ph.obs);
    in.phase_wall_s = ph.timed_wall_s;
    in.offered_samples = ph.offered;
    in.wal_samples = ph.wal_samples;
    in.lateness_s = ph.lateness_s;
    in.untraced_sweep_s = mean(base.sweep_s);
    in.sim_advance_s = bare_sim_seconds(machine(kNodes, args.seed), kInterval, ph.sweep_s.size());
    emit_ledger(in, out.metrics);
    const std::string path = args.workdir + "/spans-live_1k.jsonl";
    if (spans.write(path)) std::printf("  spans written to %s\n", path.c_str());
  }
  std::printf("  ops_failed_frac %.6f\n%s", out.ops.failed_frac(), out.ops.describe().c_str());
  return out;
}

}  // namespace e2e
