#include "stack/stack.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/strings.hpp"
#include "transport/codec.hpp"

namespace hpcmon::stack {

using core::Duration;
using core::kSecond;

namespace {
/// Parse "res_s:crit_s,std_s,bulk_s;..." (res_s 0 = raw); empty or
/// unparseable keeps the standard raw/10s/5min/1h ladder. A tier whose
/// fields don't all parse as non-negative integers with at least one
/// positive keep is rejected outright — a typo'd ladder must never become
/// a "keep nothing" ladder that silently expires everything.
store::TierPolicy tier_policy_from(const core::Config& config) {
  const std::string spec = config.get_string("tier_policy", "");
  if (spec.empty()) return store::TierPolicy::standard();
  const auto as_seconds = [](std::string_view field) -> long long {
    const std::string s{core::trim(field)};
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
      return -1;
    }
    return std::atoll(s.c_str());
  };
  store::TierPolicy policy;
  for (const auto tier : core::split(spec, ';')) {
    const auto parts = core::split(tier, ':');
    if (parts.size() != 2) continue;
    store::TierSpec ts;
    const long long res = as_seconds(parts[0]);
    if (res < 0) continue;
    ts.resolution = res * kSecond;
    ts.agg = ts.resolution > 0 ? store::Agg::kMean : store::Agg::kLast;
    const auto keeps = core::split(parts[1], ',');
    bool valid = !keeps.empty();
    long long kept = 0;
    for (std::size_t c = 0; c < core::kPriorityClasses && c < keeps.size();
         ++c) {
      const long long keep = as_seconds(keeps[c]);
      if (keep < 0) {
        valid = false;
        break;
      }
      ts.keep[c] = keep * kSecond;
      kept += keep;
    }
    if (!valid || kept == 0) continue;
    policy.tiers.push_back(ts);
  }
  return policy.tiers.empty() ? store::TierPolicy::standard() : policy;
}
}  // namespace

MonitoringStack::MonitoringStack(sim::Cluster& cluster,
                                 const core::Config& config)
    : MonitoringStack(cluster, config, nullptr) {}

MonitoringStack::MonitoringStack(sim::Cluster& cluster,
                                 const core::Config& config,
                                 resilience::FaultPlan* chaos)
    : cluster_(cluster),
      detectors_(cluster.registry()),
      collection_(cluster),
      store_(static_cast<std::size_t>(std::max<std::int64_t>(
                 1, config.get_int("ingest_shards", 0))),
             static_cast<std::size_t>(config.get_int("chunk_points", 512))),
      chaos_(chaos) {
  const Duration sample_interval =
      config.get_int("sample_interval_s", 60) * kSecond;
  const Duration log_interval = config.get_int("log_interval_s", 15) * kSecond;

  // Self-observability plane: every tier catalogs its instruments in obs_,
  // and the per-stage latency histograms live in stages_. One snapshot of
  // this registry feeds the degradation control loop, the hpcmon.self.*
  // re-ingest, status(), and the chaos assertions.
  stages_.attach_to(obs_);
  router_.attach_to(obs_);
  collection_.set_stage_timer(&stages_);
  store_.attach_to(obs_);
  store_.set_stage_timer(&stages_);

  // Topology rollup tree (rollup_enable = 1): every sample folds into a
  // per-shard pending cell on the append path, and the scheduled coalescing
  // tick publishes an immutable snapshot that the heatmap, fleet health,
  // and kRollupQuery read paths answer from in O(1). Built BEFORE tier
  // recovery and WAL replay so restored history is rolled up too.
  if (config.get_bool("rollup_enable", false)) {
    rollup::RollupConfig rc;
    rc.shards = store_.shard_count();
    rollup_ = std::make_unique<rollup::RollupTree>(cluster_.registry(), rc);
    rollup_->attach_to(obs_);
    // The store observes every append into the tree and wires its
    // series-gone listeners to forget_series.
    store_.attach_rollup(rollup_.get());
    // Clamped to >= 1 s: a zero period would repeat at the same sim
    // timestamp forever (EventQueue repeaters reschedule at now + period).
    const Duration rollup_tick_interval =
        std::max<std::int64_t>(1, config.get_int("rollup_tick_s", 5)) *
        kSecond;
    cluster_.events().schedule_every(
        cluster_.now() + rollup_tick_interval, rollup_tick_interval,
        [this, alive = alive_](core::TimePoint) {
          if (!*alive) return;
          rollup_tick();
        });
  }

  // Tiered retention: recover the durable tier ladder BEFORE the WAL
  // replays, so the watermark is known and samples already durable in a
  // tier are filtered out of the replay instead of re-ingested.
  if (const std::string tier_dir = config.get_string("tier_dir", "");
      !tier_dir.empty()) {
    store::TierStore::Options topts;
    topts.dir = tier_dir;
    topts.policy = tier_policy_from(config);
    topts.faults = chaos_;
    tiers_ = std::make_unique<store::TierStore>(std::move(topts));
    if (!tiers_->open().is_ok()) {
      // Unrecoverable tier directory: serve hot-only rather than refuse to
      // start — the monitor must come up even when its history cannot.
      tiers_.reset();
    }
  }
  if (tiers_) {
    tiers_->attach_to(obs_);
    std::vector<store::TimeSeriesStore*> shards;
    for (std::size_t i = 0; i < store_.shard_count(); ++i) {
      shards.push_back(&store_.shard(i));
    }
    span_ = std::make_unique<
        store::TierSpanView<ingest::ShardedTimeSeriesStore>>(tiers_.get(),
                                                             &store_);
    store::CompactorOptions co;
    co.hot_window = config.get_int("tier_hot_window_s", 21600) * kSecond;
    // An aggregator's store holds relayed ids its registry never interned;
    // those age as standard.
    co.priority_of = [this](core::SeriesId id) {
      return cluster_.registry().find_series_priority(id).value_or(
          core::Priority::kStandard);
    };
    compactor_ = std::make_unique<store::Compactor>(std::move(shards),
                                                    tiers_.get(),
                                                    std::move(co));
    compactor_->attach_to(obs_);
    // Compactor I/O runs behind a breaker: persistent disk failure opens it
    // and the stack stops compacting while ingest and serving continue.
    compact_breaker_ = std::make_unique<resilience::CircuitBreaker>(
        resilience::BreakerConfig{}, 0xD15C);
    compact_breaker_->attach_to(obs_);
    tier_disk_budget_bytes_ =
        static_cast<std::int64_t>(config.get_int("tier_disk_budget_mb", 1024)) *
        1024 * 1024;
    disk_fill_gauge_ = &obs_.gauge(
        {"compact.disk_fill", "frac",
         "tier-ladder disk bytes / tier_disk_budget_mb (refreshed per "
         "snapshot)"});
    const Duration compact_interval =
        config.get_int("compact_interval_s", 3600) * kSecond;
    cluster_.events().schedule_every(
        cluster_.now() + compact_interval, compact_interval,
        [this, alive = alive_](core::TimePoint t) {
          if (!*alive) return;
          run_compaction(t);
        });
  }

  // Resilience tier: WAL recovery + durable append, sampler supervision.
  // Replay happens BEFORE collection is wired so restored history cannot
  // interleave with new sweeps, and before the WAL, pipeline, serve and
  // relay tiers exist, so commit() lands it inline in the store before the
  // constructor returns.
  const std::string wal_path = config.get_string("wal_path", "");
  if (!wal_path.empty()) {
    replay_stats_ = resilience::WriteAheadLog::replay(
        wal_path, [this](core::SampleBatch&& batch) {
          // Samples below the tier watermark are already durable in a tier
          // file; replaying them would double-count against the span view.
          if (tiers_) {
            const auto wm = tiers_->watermark();
            std::erase_if(batch.samples,
                          [wm](const auto& s) { return s.time < wm; });
          }
          commit(batch, nullptr, false);
        });
    // Replay ran exactly once, at construction: export its outcome through
    // registry-owned counters so it appears in the same snapshot as
    // everything else.
    obs_.counter({"resilience.replay_records", "records",
                  "intact WAL records restored at construction"})
        .add(replay_stats_.records);
    obs_.counter({"resilience.replay_samples", "samples",
                  "samples restored from the WAL at construction"})
        .add(replay_stats_.samples);
    obs_.counter({"resilience.replay_corrupt_skipped", "records",
                  "CRC-mismatched WAL records skipped during replay"})
        .add(replay_stats_.corrupt_skipped);
    obs_.counter({"resilience.replay_torn_tails", "records",
                  "torn trailing WAL records tolerated during replay"})
        .add(replay_stats_.torn_tails);
    resilience::WalOptions wo;
    wo.dir = wal_path;
    wo.segment_bytes =
        static_cast<std::size_t>(config.get_int("wal_segment_bytes", 1 << 20));
    wo.faults = chaos_;
    wal_ = std::make_unique<resilience::WriteAheadLog>(wo);
    wal_->attach_to(obs_);
    resilience::DeliveryOptions dopts;
    dopts.dead_letter_cap =
        static_cast<std::size_t>(config.get_int("dead_letter_cap", 64));
    resilience::ReliableDelivery::DeliverFn append_fn =
        [this](const transport::Frame& f) { return wal_->append(f); };
    if (chaos_ != nullptr) {
      append_fn = resilience::faulty_deliver(std::move(append_fn), *chaos_);
    }
    wal_delivery_ = std::make_unique<resilience::ReliableDelivery>(
        std::move(append_fn), dopts);
    wal_delivery_->attach_to(obs_);
  }

  // Optional threaded ingest pipeline (ingest_shards > 0), one worker per
  // store shard. Without it commit() appends inline, which keeps the
  // default stack deterministic and reproducible.
  if (config.get_int("ingest_shards", 0) > 0) {
    ingest::IngestConfig ic;
    ic.queue_capacity =
        static_cast<std::size_t>(config.get_int("ingest_queue_cap", 256));
    ic.policy = ingest::policy_from_string(
        config.get_string("ingest_policy", "block"),
        ingest::OverloadPolicy::kBlock);
    ic.max_coalesce_batches =
        static_cast<std::size_t>(config.get_int("ingest_coalesce", 16));
    ic.obs = &obs_;
    ic.stages = &stages_;
    // Priority-aware shedding: the pipeline resolves (and caches) each
    // series' class from the registry, so bulk drops first and critical is
    // never dropped.
    ic.priority_of = [this](core::SeriesId id) {
      return cluster_.registry().find_series_priority(id);
    };
    ingest_ = std::make_unique<ingest::IngestPipeline>(store_, ic);
    if (config.get_bool("ingest_autostart", true)) ingest_->start();
    queue_fill_gauge_ = &obs_.gauge(
        {"ingest.queue_fill", "frac",
         "max shard queue depth / capacity (refreshed per snapshot)"});
  }

  const int sampler_deadline_ms = config.get_int("sampler_deadline_ms", 0);
  const int breaker_threshold = config.get_int("breaker_threshold", 0);
  const bool supervise = sampler_deadline_ms > 0 || breaker_threshold > 0;
  if (supervise) {
    breaker_open_gauge_ = &obs_.gauge(
        {"resilience.breaker_open_frac", "frac",
         "open breakers / supervised samplers (refreshed per snapshot)"});
  }
  std::uint64_t supervisor_seed = 0xC0FFEE;
  // Wrap a sampler with watchdog + breaker when supervision is configured;
  // a pass-through otherwise so the default stack stays bit-deterministic.
  const auto supervised =
      [&](std::unique_ptr<collect::Sampler> sampler,
          core::Priority priority = core::Priority::kStandard)
      -> std::unique_ptr<collect::Sampler> {
    // Chaos builds interpose fault injection between the real sampler and
    // its supervisor, so injected hangs/errors hit the watchdog + breaker
    // exactly where real ones would (scenarios should configure
    // supervision; a bare FaultySampler throws into the sweep).
    if (chaos_ != nullptr) {
      sampler = std::make_unique<resilience::FaultySampler>(std::move(sampler),
                                                            *chaos_);
    }
    if (!supervise) return sampler;
    resilience::SupervisorOptions so;
    so.deadline_ms = sampler_deadline_ms;
    so.breaker.failure_threshold =
        breaker_threshold > 0 ? breaker_threshold : 3;
    so.breaker.cooldown = config.get_int("breaker_cooldown_s", 300) * kSecond;
    so.seed = supervisor_seed++;
    so.priority = priority;
    auto wrapper = std::make_unique<resilience::SupervisedSampler>(
        std::move(sampler), so);
    wrapper->attach_to(obs_);
    supervised_.push_back(wrapper.get());
    return wrapper;
  };

  // Collection -> router.
  for (auto& sampler : collect::make_all_samplers(cluster_)) {
    collection_.add_sampler(supervised(std::move(sampler)), sample_interval,
                            collect::router_sample_sink(router_));
  }
  collection_.add_log_collector(log_interval,
                                collect::router_log_sink(router_));

  // Optional probe suite.
  if (const auto probe_s = config.get_int("probe_interval_s", 600);
      probe_s > 0) {
    collect::ProbeConfig pc;
    pc.probe_nodes = {0, cluster_.topology().num_nodes() / 2};
    collection_.add_sampler(
        supervised(
            std::make_unique<collect::ProbeSuite>(cluster_, pc, core::Rng(101))),
        probe_s * kSecond, collect::router_sample_sink(router_));
  }
  // Optional health battery. Critical priority: the health signals are what
  // operators steer by during a storm, so the degradation controller never
  // widens this sampler's cadence.
  if (const auto health_s = config.get_int("health_interval_s", 600);
      health_s > 0) {
    collection_.add_sampler(
        supervised(std::make_unique<collect::HealthCheckSuite>(
                       cluster_, collect::HealthConfig{}),
                   core::Priority::kCritical),
        health_s * kSecond, collect::router_sample_sink(router_));
  }

  // Storm mode: the degradation controller closes the loop from the stack's
  // own health telemetry to priority-aware shedding. Evaluations run on the
  // simulated timeline; mode changes reach the ingest door immediately and
  // widen non-critical sampler cadence. Health signals are assembled from
  // the SAME obs snapshot the exporter re-ingests, so the control loop and
  // the operator report cannot disagree.
  if (config.get_bool("degradation", false)) {
    degradation_ =
        std::make_unique<resilience::DegradationController>(
            resilience::DegradationConfig{});
    degradation_->attach_to(obs_);
    degradation_->on_change(
        [this](core::DegradationMode mode) { apply_degradation(mode); });
    const Duration eval_interval =
        config.get_int("degradation_interval_s", 60) * kSecond;
    cluster_.events().schedule_every(
        cluster_.now() + eval_interval, eval_interval,
        [this, alive = alive_](core::TimePoint t) {
          if (!*alive) return;
          // Self-heal before taking the reading: rotate a poisoned WAL onto
          // a fresh segment, then run one redelivery pass over the
          // dead-letter queue. While the fault persists the letters stay put
          // (and keep dlq pressure honest); once the path recovers the queue
          // drains and the controller can stand down.
          if (wal_ && wal_->poisoned()) wal_->rotate();
          if (wal_delivery_ && wal_delivery_->dead_letter_count() > 0) {
            wal_delivery_->redeliver();
          }
          // With the rollup tree live, the assembler also reads the fleet
          // line — system-level utilization and live-node count — straight
          // from the current snapshot (advisory fields; the pressure model
          // is unchanged).
          const auto fleet = rollup_ ? rollup_->snapshot() : nullptr;
          degradation_->evaluate(
              t, health_assembler_.assemble(obs_snapshot(), fleet.get(),
                                            cluster_.topology().system()));
        });
  }

  // Serving tier: the network front door (queries, streamed scans, live
  // subscriptions, admin surface) — off unless serve_port is present in the
  // config. serve_port = 0 binds an ephemeral port (serve()->port()).
  if (config.contains("serve_port")) {
    serve::ServeConfig sc;
    sc.port = static_cast<std::uint16_t>(config.get_int("serve_port", 0));
    sc.writer_threads = static_cast<std::size_t>(
        config.get_int("serve_writer_threads", 2));
    sc.egress_cap =
        static_cast<std::size_t>(config.get_int("serve_egress_cap", 256));
    sc.idle_timeout_ms = config.get_int("serve_idle_timeout_ms", 0);
    sc.relay_dedupe_window =
        static_cast<std::size_t>(config.get_int("relay_dedupe_window", 1024));
    sc.socket_faults = chaos_;
    sc.obs = &obs_;
    serve::ServeHooks hooks;
    // Queries answer from the numeric store — the exact object in-process
    // callers read, so results are byte-identical. With a tier ladder
    // configured, the span view answers instead: dashboards reach back
    // through every resolution tier without knowing tiers exist.
    if (span_) {
      serve::bind_query_hooks(hooks, *span_);
    } else {
      serve::bind_query_hooks(hooks, store_);
    }
    hooks.registry = &cluster_.registry();
    hooks.status = [this] { return status(); };
    hooks.set_mode = [this](std::optional<core::DegradationMode> mode) {
      // Manual storm-mode override through the same enforcement path the
      // controller's on_change uses; nullopt releases back to NORMAL (a
      // running controller re-asserts its own verdict next evaluation).
      const auto m = mode.value_or(core::DegradationMode::kNormal);
      if (degradation_) {
        apply_degradation(m);
      } else if (ingest_) {
        ingest_->set_mode(m);
      } else {
        return false;
      }
      return true;
    };
    hooks.wal_rotate = [this] {
      if (!wal_) return false;
      wal_->rotate();
      return true;
    };
    // Rollup levels by name: resolve the component through the registry and
    // answer from the tree's current snapshot — never a store scatter-
    // gather. Unbound (=> kError to the client) without the tree.
    if (rollup_) {
      hooks.rollup_query =
          [this](std::string_view component,
                 std::string_view metric) -> std::optional<rollup::RollupStat> {
        const auto comp = cluster_.registry().find_component(component);
        if (!comp) return std::nullopt;
        const auto snap = rollup_->snapshot();
        const auto* s = snap->find(*comp, metric);
        if (s == nullptr) return std::nullopt;
        return *s;
      };
    }
    // Aggregator ingest for relayed batches: the server dedupes by
    // (source, seq) before calling this, so the hook commits each novel
    // batch through the SAME pathway local samples take, minus the relay
    // hop. The WAL frame carries the relayed priority; it is encoded only
    // when a WAL will take it. Detector/rule analysis stays node-side (it
    // already ran there).
    hooks.relay_apply = [this](const core::SampleBatch& batch,
                               core::Priority priority) {
      transport::Frame frame;
      if (wal_delivery_) {
        frame = transport::encode_samples(batch);
        frame.priority = priority;
      }
      return commit(batch, wal_delivery_ ? &frame : nullptr, false);
    };
    serve_ = std::make_unique<serve::ServeServer>(sc, std::move(hooks));
    serve_->start();
  }

  // Relay tier: forward every numeric batch to an upstream aggregator with
  // at-least-once, exactly-applied semantics — off unless relay_upstream
  // names the aggregator's serve port.
  if (const auto upstream = config.get_int("relay_upstream", 0);
      upstream > 0) {
    relay::RelayConfig rc;
    rc.upstream_port = static_cast<std::uint16_t>(upstream);
    rc.source_id =
        static_cast<std::uint64_t>(config.get_int("relay_source", 1));
    rc.batch_samples =
        static_cast<std::size_t>(config.get_int("relay_batch_samples", 512));
    rc.queue_cap =
        static_cast<std::size_t>(config.get_int("relay_queue_cap", 1024));
    rc.backoff_ms = config.get_int("relay_backoff_ms", 50);
    rc.backoff_max_ms = config.get_int("relay_backoff_max_ms", 2000);
    // Seq-lease durability rides in the WAL directory when one exists; a
    // WAL-less node keeps volatile state (the hello heal still prevents
    // seq reuse after a restart).
    rc.state_path = wal_path.empty() ? "" : wal_path + "/relay.state";
    rc.priority_of = [this](core::SeriesId id) {
      return cluster_.registry().series_priority(id);
    };
    rc.socket_faults = chaos_;
    rc.fs_faults = chaos_;
    rc.obs = &obs_;
    relay_ = std::make_unique<relay::RelayClient>(std::move(rc));
    relay_->start();
  }

  // The monitor monitors itself: one unified export task re-ingests the
  // whole obs snapshot as hpcmon.self.* series every sweep (replacing the
  // per-tier self-ingest plumbing). Instruments are registered critical by
  // default — the monitor's vitals must survive the storms they report on.
  if (ingest_ || wal_ || supervise || degradation_) {
    self_component_ = cluster_.registry().register_component(
        {"hpcmon.self", core::ComponentKind::kService,
         cluster_.topology().system()});
    cluster_.events().schedule_every(
        cluster_.now() + sample_interval, sample_interval,
        [this, alive = alive_](core::TimePoint t) {
          if (!*alive) return;
          core::SampleBatch self;
          self.sweep_time = t;
          self.origin = self_component_;
          self.samples = exporter_.to_samples(obs_snapshot(),
                                              cluster_.registry(),
                                              self_component_, t);
          // Not WAL'd: the end-to-end benchmark checks WAL samples ==
          // collected samples (see ROADMAP). Not relayed: node-local.
          commit(self, nullptr, false);
        });
  }

  // Numeric alerting: detector bank on key series (Table I: triggers at
  // arbitrary points in the data pathway, here in-stream).
  const bool numeric_alerts = config.get_bool("numeric_alerts", true);
  if (numeric_alerts) {
    detectors_.watch("node.low_memory", "node.mem_free_gb",
                     analysis::below_factory(
                         config.get_double("min_free_mem_gb", 8.0), 4.0));
    detectors_.watch("facility.corrosion", "facility.corrosion_ppb",
                     analysis::above_factory(
                         config.get_double("corrosion_alert_ppb", 10.0), 2.0));
    detectors_.watch("fs.latency_outlier", "fs.ost.latency_ms",
                     analysis::mad_factory(60, 8.0));
  }

  // Router -> stores (+ analysis on both pathways).
  router_.subscribe(transport::FrameType::kSamples,
                    [this, numeric_alerts](const transport::Frame& f) {
                      auto batch = transport::decode_samples(f);
                      if (!batch.is_ok()) return;
                      if (numeric_alerts) {
                        for (const auto& a : detectors_.process(batch.value())) {
                          alerts_.raise(
                              {a.event.time, response::AlertSeverity::kWarning,
                               a.watch_name, a.component,
                               core::strformat("%s=%.3g (%s score %.1f)",
                                               a.metric.c_str(), a.event.value,
                                               a.event.detector.c_str(),
                                               a.event.score)});
                        }
                      }
                      commit(batch.value(), &f, true);
                    });
  router_.subscribe(transport::FrameType::kLogs,
                    [this](const transport::Frame& f) { on_log_frame(f); });

  // Rules / novelty / response.
  if (config.get_bool("rules", true)) {
    for (auto& r : analysis::standard_platform_rules()) {
      rules_.add_rule(std::move(r));
    }
  }
  if (config.get_bool("novelty", false)) {
    analysis::NoveltyParams np;
    np.training_until =
        config.get_int("novelty_training_s", 14400) * kSecond;
    novelty_ = std::make_unique<analysis::NoveltyDetector>(np);
  }
  alerts_.add_sink(
      [this](const response::Alert& a) { actions_.dispatch(a); });
  if (config.get_bool("quarantine_on_hw_critical", false)) {
    actions_.bind("hw_critical", response::AlertSeverity::kWarning,
                  "quarantine",
                  response::make_quarantine_action(
                      cluster_, config.get_int("gate_repair_s", 1800) * kSecond));
  }

  // Job lifecycle -> job store.
  const auto job_meta = [](const sim::JobRecord& rec) {
    store::JobMeta m;
    m.id = rec.id;
    m.app_name = rec.request.profile.name;
    m.nodes = rec.nodes;
    m.submit_time = rec.submit_time;
    m.start_time = rec.start_time;
    m.end_time = rec.end_time;
    m.failed = rec.state == sim::JobState::kFailed;
    return m;
  };
  cluster_.scheduler().set_on_start(
      [this, job_meta](const sim::JobRecord& rec) {
        jobs_.record_start(job_meta(rec));
      });
  cluster_.scheduler().set_on_end([this, job_meta](const sim::JobRecord& rec) {
    jobs_.record_end(job_meta(rec));
  });

  // Job gating.
  const bool pre = config.get_bool("gate_pre", false);
  const bool post = config.get_bool("gate_post", false);
  if (pre || post) {
    gate_ = std::make_unique<response::HealthGate>(
        cluster_, config.get_int("gate_repair_s", 1800) * kSecond);
    gate_->attach(pre, post);
  }
}

MonitoringStack::~MonitoringStack() {
  // Scheduled closures outlive the stack in the event queue; flip the
  // liveness flag first so any tick firing after this point is a no-op.
  *alive_ = false;
  if (!crashed_) shutdown();
  // A simulated crash still joins the worker threads (the process is not
  // really dying) but skips the drain/flush, abandoning buffered state the
  // way a real crash would.
  if (ingest_) ingest_->stop();
}

ShutdownReport MonitoringStack::shutdown(std::chrono::milliseconds deadline) {
  ShutdownReport report;
  if (shut_down_) return report;
  shut_down_ = true;
  // Drain the relay first, while the upstream can still ack: anything left
  // unacked at the deadline is REPORTED and survives in the durable queue
  // semantics (fresh seqs after restart; the aggregator store's
  // strictly-increasing timestamps reject re-applies).
  if (relay_) {
    relay_->drain_for(static_cast<int>(deadline.count()));
    report.relay_unacked = relay_->pending();
    relay_->stop();
  }
  // Stop serving next: no client observes (or stalls) the drain below.
  if (serve_) serve_->stop();
  // Drain before teardown: everything already submitted reaches the shards —
  // unless a wedged tier can't finish within the deadline, in which case the
  // leftovers are abandoned and REPORTED rather than hanging teardown.
  if (ingest_) {
    report.drained = ingest_->drain_for(deadline);
    if (!report.drained) report.abandoned_batches = ingest_->in_flight();
    ingest_->stop();
  }
  if (wal_) wal_->sync();
  if (wal_delivery_) report.dead_letters = wal_delivery_->dead_letter_count();
  return report;
}

std::size_t MonitoringStack::commit(const core::SampleBatch& batch,
                                    const transport::Frame* wal_frame,
                                    bool forward) {
  // Write-ahead: the frame is durable (or dead-lettered and counted) before
  // the in-memory store sees it.
  if (wal_delivery_ && wal_frame) wal_delivery_->deliver(*wal_frame);
  std::size_t applied = batch.samples.size();
  if (ingest_) {
    ingest_->submit(batch);
  } else {
    applied = store_.append_batch(batch.samples);
  }
  // Live-subscription tap: fan the batch out to serve clients through
  // bounded egress queues (never blocks on a slow client).
  if (serve_) serve_->publish_batch(batch);
  // Upstream tap: hand the batch to the relay tier for durable forwarding
  // (never blocks; sheds bulk first under pressure, critical never).
  if (relay_ && forward) relay_->submit(batch);
  return applied;
}

void MonitoringStack::rollup_tick() {
  if (!rollup_) return;
  // Collecting the changed-level list costs an allocation per tick; skip it
  // unless a kRollupSub subscriber is actually watching.
  if (serve_ && serve_->has_rollup_subs()) {
    std::vector<rollup::RollupUpdate> changed;
    rollup_->tick(&changed);
    if (changed.empty()) return;
    std::vector<serve::RollupDelta> deltas;
    deltas.reserve(changed.size());
    for (auto& u : changed) {
      serve::RollupDelta d;
      d.component = cluster_.registry().component(u.component).name;
      d.metric = std::move(u.metric);
      d.stat = u.stat;
      deltas.push_back(std::move(d));
    }
    serve_->publish_rollup(deltas);
  } else {
    rollup_->tick();
  }
}

void MonitoringStack::apply_degradation(core::DegradationMode mode) {
  if (ingest_) ingest_->set_mode(mode);
  // Widen sampler cadence per the mode's stride — but never on critical
  // samplers: the health battery keeps full cadence through any storm.
  const auto stride =
      degradation_->config().sampler_stride[static_cast<std::size_t>(mode)];
  for (auto* s : supervised_) {
    if (s->priority() == core::Priority::kCritical) continue;
    s->set_stride(stride);
  }
}

void MonitoringStack::run_compaction(core::TimePoint now) {
  if (!compactor_ || !tiers_) return;
  // An injected crash killed the TierStore: durable state is frozen until a
  // fresh stack recovers the directory (the chaos harness's restart).
  if (tiers_->crashed()) return;
  // "Stop compacting, keep serving": the breaker denies passes while the
  // disk is sick; ingest, queries, and the WAL keep running untouched.
  if (!compact_breaker_->allow(now)) return;
  if (compactor_->run_pass(now).is_ok()) {
    compact_breaker_->record_success(now);
    // Everything below the watermark is durable in a tier file; the WAL no
    // longer needs to be able to replay it.
    if (wal_) wal_->truncate_before(tiers_->watermark());
  } else {
    compact_breaker_->record_failure(now);
  }
}

void MonitoringStack::refresh_live_gauges() const {
  if (queue_fill_gauge_ != nullptr && ingest_) {
    std::size_t depth = 0;
    for (std::size_t i = 0; i < store_.shard_count(); ++i) {
      depth = std::max(depth, ingest_->queue_depth(i));
    }
    queue_fill_gauge_->set(
        static_cast<double>(depth) /
        static_cast<double>(ingest_->config().queue_capacity));
  }
  if (disk_fill_gauge_ != nullptr && tiers_ && tier_disk_budget_bytes_ > 0) {
    disk_fill_gauge_->set(static_cast<double>(tiers_->disk_bytes()) /
                          static_cast<double>(tier_disk_budget_bytes_));
  }
  if (breaker_open_gauge_ != nullptr && !supervised_.empty()) {
    std::size_t open = 0;
    for (const auto* s : supervised_) {
      if (s->breaker_state() == resilience::BreakerState::kOpen) ++open;
    }
    breaker_open_gauge_->set(static_cast<double>(open) /
                             static_cast<double>(supervised_.size()));
  }
}

obs::ObsSnapshot MonitoringStack::obs_snapshot() const {
  refresh_live_gauges();
  return obs_.snapshot();
}

resilience::SupervisorStats MonitoringStack::supervisor_stats() const {
  resilience::SupervisorStats total;
  for (const auto* s : supervised_) total += s->stats();
  return total;
}

void MonitoringStack::on_log_frame(const transport::Frame& frame) {
  auto events = transport::decode_logs(frame);
  if (!events.is_ok()) return;
  for (const auto& e : events.value()) {
    for (const auto& m : rules_.process(e)) {
      alerts_.raise({m.time,
                     e.severity <= core::Severity::kCritical
                         ? response::AlertSeverity::kCritical
                         : response::AlertSeverity::kWarning,
                     m.rule_name, m.component, m.detail});
    }
    if (novelty_) {
      for (auto& n : novelty_->process(e)) {
        novelty_reports_.push_back(std::move(n));
      }
    }
  }
  logs_.append_batch(std::move(events).take());
}

std::string MonitoringStack::status() const {
  const auto st = store_.stats();
  std::string line = core::strformat(
      "t=%s series=%zu points=%zu logs=%zu jobs=%zu "
      "alerts_active=%zu actions=%zu",
      core::format_time(cluster_.now()).c_str(), st.series, st.points,
      logs_.size(), jobs_.size(),
      alerts_.active().size(), actions_.log().size());
  if (ingest_) {
    line += core::strformat(
        " | shards=%zu policy=%s",
        store_.shard_count(),
        std::string(ingest::to_string(ingest_->config().policy)).c_str());
  }
  if (degradation_) {
    line += core::strformat(
        " | mode=%s p=%.2f",
        std::string(core::to_string(degradation_->mode())).c_str(),
        degradation_->stats().last_pressure);
  }
  if (rollup_) {
    const auto snap = rollup_->snapshot();
    line += core::strformat(
        " | rollup v=%llu levels=%zu",
        static_cast<unsigned long long>(snap->version()),
        snap->entry_count());
  }
  if (!supervised_.empty()) {
    std::size_t open = 0;
    std::size_t half = 0;
    for (const auto* s : supervised_) {
      if (s->breaker_state() == resilience::BreakerState::kOpen) ++open;
      if (s->breaker_state() == resilience::BreakerState::kHalfOpen) ++half;
    }
    line += core::strformat(" | breakers closed=%zu open=%zu half=%zu",
                            supervised_.size() - open - half, open, half);
  }
  if (wal_delivery_) {
    line += core::strformat(" dlq=%zu", wal_delivery_->dead_letter_count());
  }
  // Everything else — ingest/store/wal/supervisor/degradation counters and
  // the per-stage latency histograms — is the exporter's one-line rendering
  // of the same snapshot the control loop reads.
  line += " | " + exporter_.report_line(obs_snapshot());
  return line;
}

}  // namespace hpcmon::stack
