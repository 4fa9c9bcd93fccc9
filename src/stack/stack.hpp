// MonitoringStack: config-driven assembly of the complete pipeline.
//
// Table I (Architecture): "changes in data direction and data access easily
// configured and changed" and "extensibility and modularity are fundamental".
// MonitoringStack wires samplers -> EventRouter -> numeric store / log store /
// job store, plus the rule engine -> alert manager -> action dispatcher
// chain, entirely from a flat Config — the deployment description a site
// would keep in version control. Every subsystem remains reachable for
// extension (add samplers, rules, sinks after construction).
//
// Recognized configuration keys (defaults in parentheses):
//   sample_interval_s   (60)    synchronized sweep period
//   log_interval_s      (15)    log drain period
//   probe_interval_s    (600)   0 disables the probe suite
//   health_interval_s   (600)   0 disables the health battery
//   chunk_points        (512)   TSDB chunk seal threshold
//   rules               (true)  install the standard platform rule set
//   numeric_alerts      (true)  detector bank on key numeric series
//   min_free_mem_gb     (8)     below-threshold watch on node free memory
//   corrosion_alert_ppb (10)    ASHRAE G1 watch on facility gas level
//   novelty             (false) log-template novelty detection
//   novelty_training_s  (14400)
//   gate_pre / gate_post (false) CSCS-style GPU job gating
//   gate_repair_s       (1800)
//   quarantine_on_hw_critical (false) automated node quarantine action
//   ingest_shards       (0)     shards of the one numeric store; >0 also
//                               runs the threaded ingest pipeline
//                               (src/ingest), one worker per shard. 0 keeps
//                               the deterministic default: one shard,
//                               appended inline on the committing thread
//   ingest_queue_cap    (256)   bounded sub-batches per shard queue
//   ingest_policy       (block) overload policy: block|drop_oldest|reject
//   ingest_coalesce     (16)    max sub-batches merged per shard append
//   ingest_autostart    (1)     0 constructs the pipeline without starting
//                               its workers (deterministic overload tests,
//                               wedged-shutdown drills)
//   degradation         (0)     1 runs the storm-mode DegradationController:
//                               series priorities (registry) drive the
//                               ingest door, and the controller walks
//                               NORMAL->SHED_BULK->SUMMARIZE->QUARANTINE on
//                               live health signals with hysteresis
//   degradation_interval_s (60) controller evaluation cadence
//   wal_path            ("")    when set, every sample frame is appended to
//                               a segmented write-ahead log in this
//                               directory before ingestion, and existing
//                               segments are REPLAYED into the store at
//                               construction (crash recovery)
//   wal_segment_bytes   (1048576) WAL segment rotation size
//   dead_letter_cap     (64)    bounded dead-letter queue for frames whose
//                               WAL append keeps failing (retried first)
//   sampler_deadline_ms (0)     >0 runs each sampler under a real-time
//                               watchdog; a call past the deadline is
//                               abandoned and the sweep continues
//   breaker_threshold   (0)     >0 wraps every sampler in a circuit breaker
//                               (open after N consecutive failures,
//                               half-open probe after backoff+jitter)
//   breaker_cooldown_s  (300)   first open->half-open cooldown
//   serve_port          (unset) when PRESENT, start the network serving tier
//                               (src/serve) on 127.0.0.1:<port>; 0 binds an
//                               ephemeral port (read it back via
//                               serve()->port()). Absent = no server.
//   serve_writer_threads (2)    serve writer pool size (one writer drains
//                               every (conn id % pool)-th connection)
//   serve_egress_cap    (256)   per-connection egress queue bound; the
//                               storm-mode priority door engages above it
//   serve_idle_timeout_ms (0)   >0 closes serve connections with no traffic
//                               for this long (real ms); half-open peers
//                               stop pinning reactor state forever
//   relay_upstream      (0)     >0 forwards every numeric sample batch to
//                               the aggregator stack serving on
//                               127.0.0.1:<port> with at-least-once,
//                               exactly-applied semantics (src/relay)
//   relay_source        (1)     durable source identity for relay dedupe
//   relay_batch_samples (512)   max samples per relay append frame
//   relay_queue_cap     (1024)  pending relay entries; unsent bulk/standard
//                               shed above it, critical never
//   relay_backoff_ms    (50)    first reconnect backoff (doubles, jittered,
//                               capped at relay_backoff_max_ms (2000))
//   relay_dedupe_window (1024)  server-side dedupe window above the acked
//                               watermark (appends beyond it are refused
//                               un-applied and resent later)
//   tier_dir            ("")    when set, sealed hot chunks age through
//                               journaled on-disk resolution tiers in this
//                               directory (raw -> 10s -> 5min -> 1h by
//                               default) and queries served over the network
//                               transparently span hot + every tier. The
//                               directory is recovered at construction
//                               (journal replay) BEFORE the WAL replays, so
//                               samples already durable in a tier are not
//                               re-ingested. Unset = nothing is ever evicted
//                               from the hot store and the WAL is never
//                               truncated.
//   compact_interval_s  (3600)  compactor pass cadence (simulated timeline)
//   tier_hot_window_s   (21600) age at which sealed hot chunks are
//                               tiered out and evicted behind the durable
//                               watermark
//   tier_disk_budget_mb (1024)  denominator of the compact.disk_fill gauge
//                               that feeds disk pressure into storm mode
//   tier_policy         ("")    override the tier ladder:
//                               "res_s:crit_s,std_s,bulk_s;..." per tier,
//                               e.g. "0:172800,86400,21600;10:604800,
//                               259200,86400" (res_s 0 = raw); empty keeps
//                               the standard raw/10s/5min/1h ladder
//   rollup_enable       (0)     1 maintains the topology rollup tree
//                               (src/rollup): every ingested sample updates
//                               node->blade->chassis->cabinet->system
//                               running stats incrementally, and fleet-wide
//                               reads (machine heatmap, fleet health, the
//                               kRollupQuery/kRollupSub wire surface) answer
//                               from an immutable snapshot in O(1) instead
//                               of scatter-gathering every per-node series
//   rollup_tick_s       (5)     coalescing-merge cadence (simulated
//                               timeline, clamped >= 1): each tick drains
//                               the per-shard pending deltas, re-folds
//                               dirty levels, publishes a fresh snapshot,
//                               and fans changed levels out to kRollupSub
//                               subscribers
#pragma once

#include <chrono>
#include <memory>

#include "analysis/detector_bank.hpp"
#include "analysis/novelty.hpp"
#include "analysis/rules.hpp"
#include "collect/collection.hpp"
#include "collect/health.hpp"
#include "collect/probes.hpp"
#include "collect/samplers.hpp"
#include "core/config.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/sharded_store.hpp"
#include "obs/exporter.hpp"
#include "obs/registry.hpp"
#include "obs/stage.hpp"
#include "relay/client.hpp"
#include "resilience/breaker.hpp"
#include "resilience/degradation.hpp"
#include "resilience/delivery.hpp"
#include "resilience/fault.hpp"
#include "resilience/supervisor.hpp"
#include "resilience/wal.hpp"
#include "response/actions.hpp"
#include "response/alerts.hpp"
#include "response/gate.hpp"
#include "rollup/tree.hpp"
#include "serve/server.hpp"
#include "store/compactor.hpp"
#include "store/jobstore.hpp"
#include "store/logstore.hpp"
#include "store/tier.hpp"
#include "store/tsdb.hpp"
#include "transport/event_router.hpp"

namespace hpcmon::stack {

/// What shutdown() left behind when its drain deadline expired. With a
/// healthy pipeline everything drains and the report is all zeros; a wedged
/// tier (workers never started, a hung store) is REPORTED instead of hanging
/// teardown forever — the paper's operational lesson that the monitor must
/// never become the thing you cannot restart.
struct ShutdownReport {
  bool drained = true;  // ingest in-flight reached zero within the deadline
  std::int64_t abandoned_batches = 0;  // sub-batches still queued at deadline
  std::size_t dead_letters = 0;        // frames stranded in the WAL DLQ
  std::size_t relay_unacked = 0;       // relay entries still unacked at stop
                                       // (durable locally; resent on restart)
  bool clean() const { return drained && abandoned_batches == 0; }
};

class MonitoringStack {
 public:
  /// Assemble and attach the full pipeline to `cluster` per `config`.
  /// The cluster must outlive the stack. When `wal_path` is configured and
  /// holds segments from a previous incarnation, they are replayed into the
  /// store here, before any new collection happens.
  MonitoringStack(sim::Cluster& cluster, const core::Config& config);

  /// Chaos-harness variant: every fault surface is threaded through `chaos`
  /// when non-null — samplers are wrapped in FaultySampler, the WAL consults
  /// it before each physical append, and the WAL delivery path injects
  /// delivery failures. The plan must outlive the stack (and any hung
  /// sampler threads; call chaos->release_hangs() before teardown).
  MonitoringStack(sim::Cluster& cluster, const core::Config& config,
                  resilience::FaultPlan* chaos);

  /// Orderly teardown: drain the ingest pipeline into the stores (bounded by
  /// `deadline` of real time), flush the WAL, then stop the workers. Work
  /// still queued when the deadline expires is abandoned and reported.
  /// Idempotent; the destructor calls it, so no buffered sample is ever
  /// silently lost on destruction — and a wedged tier cannot hang it.
  ShutdownReport shutdown(
      std::chrono::milliseconds deadline = std::chrono::milliseconds(5000));

  /// Crash drill: make the destructor skip shutdown() — buffered/hot state
  /// is abandoned exactly as a real crash would abandon it (worker threads
  /// are still joined; a process can't leak threads into the next test).
  /// Pair with a fresh MonitoringStack on the same wal_path to recover.
  void simulate_crash() { crashed_ = true; }

  ~MonitoringStack();

  // -- Data access -----------------------------------------------------------
  /// tsdb().hot() is the one numeric store, the object sharded_store()
  /// points to; the accessor pair is kept so existing callers compile.
  struct StoreHandle {
    ingest::ShardedTimeSeriesStore& hot() const { return store; }
    ingest::ShardedTimeSeriesStore& store;
  };
  StoreHandle tsdb() { return {store_}; }
  store::LogStore& logs() { return logs_; }
  store::JobStore& jobs() { return jobs_; }
  transport::EventRouter& router() { return router_; }
  response::AlertManager& alerts() { return alerts_; }
  response::ActionDispatcher& actions() { return actions_; }
  analysis::RuleEngine& rules() { return rules_; }
  analysis::DetectorBank& detectors() { return detectors_; }
  collect::CollectionService& collection() { return collection_; }
  sim::Cluster& cluster() { return cluster_; }

  /// Threaded ingest tier; nullptr unless ingest_shards > 0. When enabled,
  /// numeric samples land in sharded_store() asynchronously (call
  /// drain_ingest() before querying) and the pipeline's self-metrics are
  /// re-ingested as "ingest.*" series every sample sweep.
  ingest::IngestPipeline* ingest_pipeline() { return ingest_.get(); }
  /// The one numeric store (never null): max(1, ingest_shards) shards.
  const ingest::ShardedTimeSeriesStore* sharded_store() const {
    return &store_;
  }
  ingest::ShardedTimeSeriesStore* sharded_store() { return &store_; }
  /// Wait until the ingest tier has appended everything submitted so far.
  void drain_ingest() {
    if (ingest_) ingest_->drain();
  }

  // -- Resilience tier -------------------------------------------------------
  /// Write-ahead log; nullptr unless wal_path is configured.
  const resilience::WriteAheadLog* wal() const { return wal_.get(); }
  /// Replay outcome of the WAL recovery performed at construction.
  const resilience::ReplayStats& replay_stats() const { return replay_stats_; }
  /// Retry/dead-letter guard on the WAL append path; nullptr unless the WAL
  /// is enabled. redeliver() flushes dead letters after a disk recovers.
  resilience::ReliableDelivery* wal_delivery() { return wal_delivery_.get(); }
  /// Supervised sampler wrappers (empty unless breaker_threshold or
  /// sampler_deadline_ms is set); exposes per-sampler breaker state.
  const std::vector<resilience::SupervisedSampler*>& supervised_samplers()
      const {
    return supervised_;
  }
  /// Sum of every supervised sampler's counters.
  resilience::SupervisorStats supervisor_stats() const;
  /// Storm-mode controller; nullptr unless `degradation` is configured.
  resilience::DegradationController* degradation() {
    return degradation_.get();
  }
  const resilience::DegradationController* degradation() const {
    return degradation_.get();
  }

  // -- Tiered retention ------------------------------------------------------
  /// Durable tier ladder; nullptr unless tier_dir is configured (or its
  /// recovery failed, in which case the stack serves hot-only).
  store::TierStore* tiers() { return tiers_.get(); }
  const store::TierStore* tiers() const { return tiers_.get(); }
  /// Background compactor driving the ladder; nullptr without tiers.
  store::Compactor* compactor() { return compactor_.get(); }
  /// Breaker guarding compactor I/O: a sick disk opens it and the stack
  /// degrades to "stop compacting, keep serving".
  const resilience::CircuitBreaker* compact_breaker() const {
    return compact_breaker_.get();
  }
  /// One compaction attempt through the breaker at simulated time `now`
  /// (the scheduled cadence calls this; tests/benches drive it directly).
  void run_compaction(core::TimePoint now);

  // -- Rollup tier -----------------------------------------------------------
  /// Topology rollup tree; nullptr unless rollup_enable = 1. Its snapshot()
  /// is the fleet-at-a-glance read every fleet-wide path answers from.
  rollup::RollupTree* rollup() { return rollup_.get(); }
  const rollup::RollupTree* rollup() const { return rollup_.get(); }
  /// One coalescing rollup merge: drain shard deltas, publish a fresh
  /// snapshot, fan changed levels out to live kRollupSub subscribers (the
  /// scheduled rollup_tick_s cadence calls this; tests/benches drive it
  /// directly). No-op without the tree.
  void rollup_tick();

  // -- Serving tier ----------------------------------------------------------
  /// Network front door (queries, scans, live subscriptions, admin);
  /// nullptr unless `serve_port` is configured. The bound port (ephemeral
  /// when serve_port = 0) is serve()->port().
  serve::ServeServer* serve() { return serve_.get(); }
  const serve::ServeServer* serve() const { return serve_.get(); }

  // -- Relay tier ------------------------------------------------------------
  /// Durable upstream forwarder; nullptr unless relay_upstream is configured.
  /// Every numeric batch the router sees is also submitted here and shipped
  /// to the aggregator with at-least-once, exactly-applied semantics.
  relay::RelayClient* relay() { return relay_.get(); }
  const relay::RelayClient* relay() const { return relay_.get(); }

  /// Novelty reports accumulated so far (empty unless novelty = true).
  const std::vector<analysis::NoveltyEvent>& novelty_reports() const {
    return novelty_reports_;
  }
  const response::GateStats* gate_stats() const {
    return gate_ ? &gate_->stats() : nullptr;
  }

  /// Read-path self-metrics of the numeric store; also reported as store.*
  /// in status().
  store::QueryStats store_query_stats() const { return store_.query_stats(); }

  // -- Self-observability ----------------------------------------------------
  /// The one catalog every tier's instruments live in.
  const obs::ObsRegistry& obs() const { return obs_; }
  /// Refresh the live fill gauges (queue fill, breaker fraction) and take a
  /// merged snapshot of every instrument. This one snapshot feeds the
  /// degradation control loop, the hpcmon.self.* re-ingest, status(), and
  /// the chaos assertions — identical numbers, by construction.
  obs::ObsSnapshot obs_snapshot() const;
  /// Multi-line operator report over obs_snapshot() (per-tier sections,
  /// per-stage latency table).
  std::string obs_report() const { return exporter_.report(obs_snapshot()); }

  /// One-line status summary for operator consoles.
  std::string status() const;

 private:
  void on_log_frame(const transport::Frame& frame);
  void apply_degradation(core::DegradationMode mode);
  void refresh_live_gauges() const;
  /// The one numeric commit path: WAL `wal_frame` (nullptr keeps the batch
  /// out), store (inline without a pipeline; rollup observes either way),
  /// serve fan-out, relay when `forward`. Absent tiers are skipped, so WAL
  /// replay, which runs before the WAL, pipeline, serve and relay exist,
  /// only stores. Returns the store's accepted count inline, the whole
  /// batch when the pipeline takes it.
  std::size_t commit(const core::SampleBatch& batch,
                     const transport::Frame* wal_frame, bool forward);

  sim::Cluster& cluster_;
  // Declared before every tier: instruments attach into the registry at
  // construction and the registry must outlive their detachment-free
  // teardown (nobody snapshots during destruction).
  obs::ObsRegistry obs_;
  obs::StageTimer stages_;
  obs::ObsExporter exporter_;
  mutable resilience::HealthSignalAssembler health_assembler_;
  transport::EventRouter router_;
  store::LogStore logs_;
  store::JobStore jobs_;
  analysis::RuleEngine rules_;
  analysis::DetectorBank detectors_;
  response::AlertManager alerts_;
  response::ActionDispatcher actions_;
  collect::CollectionService collection_;
  std::unique_ptr<collect::HealthCheckSuite> health_;
  std::unique_ptr<response::HealthGate> gate_;
  std::unique_ptr<analysis::NoveltyDetector> novelty_;
  std::vector<analysis::NoveltyEvent> novelty_reports_;
  // Declared before the store: its appenders observe every sample into the
  // tree, so the tree must outlive them (ingest_ joins its workers first,
  // then store_ goes, then rollup_).
  std::unique_ptr<rollup::RollupTree> rollup_;
  // Declaration order matters: ingest_ is destroyed (joining its workers)
  // before store_, which the workers append into.
  ingest::ShardedTimeSeriesStore store_;
  std::unique_ptr<ingest::IngestPipeline> ingest_;
  // Resilience tier (all optional, see config keys above).
  std::unique_ptr<resilience::WriteAheadLog> wal_;
  std::unique_ptr<resilience::ReliableDelivery> wal_delivery_;
  resilience::ReplayStats replay_stats_;
  std::vector<resilience::SupervisedSampler*> supervised_;  // owned by
                                                            // collection_
  std::unique_ptr<resilience::DegradationController> degradation_;
  // Tiered retention: the durable tier ladder, the compactor that drives
  // it, the breaker that guards its I/O, and the merged read view the
  // serving tier binds. Declared after the store they reference.
  std::unique_ptr<store::TierStore> tiers_;
  std::unique_ptr<store::Compactor> compactor_;
  std::unique_ptr<resilience::CircuitBreaker> compact_breaker_;
  std::unique_ptr<store::TierSpanView<ingest::ShardedTimeSeriesStore>> span_;
  std::int64_t tier_disk_budget_bytes_ = 0;
  // Declared after the stores/ingest tier: destroyed first, so the serve
  // threads stop answering before the data they serve is torn down.
  std::unique_ptr<serve::ServeServer> serve_;
  // Declared after serve_: the forwarder stops before the (local) serving
  // tier, and its worker thread is joined before any store teardown.
  std::unique_ptr<relay::RelayClient> relay_;
  resilience::FaultPlan* chaos_ = nullptr;  // not owned; see chaos ctor
  // Registry-owned fill gauges the stack refreshes before each snapshot
  // (they summarize state the tiers do not hold as single instruments).
  obs::Gauge* queue_fill_gauge_ = nullptr;
  obs::Gauge* breaker_open_gauge_ = nullptr;
  obs::Gauge* disk_fill_gauge_ = nullptr;
  core::ComponentId self_component_ = core::kNoComponent;
  // Liveness flag captured by every event-queue closure the stack schedules:
  // the queue has no cancellation, so after a chaos-harness restart destroys
  // this stack mid-run, already-scheduled ticks fire as no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  bool crashed_ = false;
  bool shut_down_ = false;
};

}  // namespace hpcmon::stack
